"""Command-line failures map to the documented exit codes (2 configuration,
3 convergence or estimation), and reruns reproduce the data files."""

import pytest

from photonpurity import cli, dynamics


def run(tmp_path, command, config_text, *extra):
    config = tmp_path / "run.yaml"
    config.write_text(config_text)
    return cli.main([command, "--config", str(config), "--out", str(tmp_path / "out"),
                     "--jobs", "1", *extra])


@pytest.mark.parametrize("key", ["pulse", "sensor", "sweep", "integrator", "stream"])
def test_non_mapping_section_is_a_config_error(tmp_path, capsys, key):
    assert run(tmp_path, "sweep-filter", f"{key}: 5\n") == 2
    assert f"{key}: must be a mapping" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["- 1\n- 2\n", "pulse: {length: [\n", "pulse: {length: abc}\n"])
def test_malformed_config_is_a_config_error(tmp_path, capsys, text):
    assert run(tmp_path, "sweep-filter", text) == 2
    assert "configuration error" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert cli.main(["spectrum", "--config", str(tmp_path / "absent.yaml")]) == 2


@pytest.mark.parametrize("blinking", ["5", "{depth: 0.5}", "[1.0]"])
def test_malformed_blinking_is_a_config_error(tmp_path, blinking):
    assert run(tmp_path, "hbt-sim", f"stream: {{n_pulses: 1000, blinking: {blinking}}}\n") == 2


def test_hbt_span_must_cover_side_peaks(tmp_path, capsys):
    assert run(tmp_path, "hbt-sim", "span: 10.0\nstream: {n_pulses: 1000}\n") == 2
    assert "rep_period + window / 2" in capsys.readouterr().err


def test_hbt_window_wider_than_stream_period(tmp_path):
    assert run(tmp_path, "hbt-sim", "stream: {n_pulses: 1000, rep_period: 5.0}\n") == 2


def test_empty_side_peaks_is_an_estimation_failure(tmp_path, capsys):
    text = "stream: {n_pulses: 1000, p_single: 0.0}\n"
    assert run(tmp_path, "hbt-sim", text) == 3
    assert "empty side peaks" in capsys.readouterr().err


def test_step_size_underflow_is_a_convergence_failure(tmp_path, capsys):
    text = "pulse_lengths: [0.05]\nsweep: {min: 1.0, max: 2.0, points: 2}\n" \
           "integrator: {max_step: 1.0e-20}\n"
    assert run(tmp_path, "sweep-filter", text) == 3
    assert "convergence failure" in capsys.readouterr().err


def test_non_physical_state_is_a_convergence_failure(tmp_path, monkeypatch, capsys):
    def fail(cfg):
        raise dynamics.NonPhysicalState("minimum eigenvalue -1e-3 below -1e-6")

    monkeypatch.setitem(cli._COMMANDS, "g2map", fail)
    assert run(tmp_path, "g2map", "system: two_level\n") == 3
    assert "convergence failure" in capsys.readouterr().err


def test_sweep_filter_rerun_is_byte_identical(tmp_path):
    text = "pulse_lengths: [0.02, 0.05]\nsweep: {min: 0.1, max: 10.0, points: 3}\n"
    assert run(tmp_path, "sweep-filter", text) == 0
    out = tmp_path / "out"
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert set(first) == {"sweep_filter_tau0.02.csv", "sweep_filter_tau0.05.csv",
                          "sweep_filter_metadata.json"}
    assert run(tmp_path, "sweep-filter", text) == 0
    assert {p.name: p.read_bytes() for p in sorted(out.iterdir())} == first
