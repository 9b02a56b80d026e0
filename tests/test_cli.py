"""Command-line failures map to the documented exit codes (2 configuration,
3 convergence or estimation), and reruns reproduce the data files."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from photonpurity import analysis, cli, photostream

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


SWEEPS = ("sweep-pulse", "sweep-filter", "sweep-fourlevel")


def run(tmp_path, command, config_text, *extra):
    config = tmp_path / "run.yaml"
    config.write_text(config_text)
    jobs = ["--jobs", "1"] if command in SWEEPS else []
    return cli.main([command, "--config", str(config), "--out", str(tmp_path / "out"),
                     *jobs, *extra])


@pytest.mark.parametrize("key", ["pulse", "sensor", "sweep", "integrator", "stream"])
def test_non_mapping_section_is_a_config_error(tmp_path, capsys, key):
    # the integrator section is retired (the commands run at the default
    # tolerance): it is an unknown key, whatever its value
    command = "hbt-sim" if key == "stream" else "sweep-filter"
    assert run(tmp_path, command, f"{key}: 5\n") == 2
    message = "unknown configuration key" if key == "integrator" else "must be a mapping"
    assert f"{key}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("section,key", [("pulse", "lenght"), ("sensor", "bandwith"),
                                         ("sweep", "point"), ("integrator", "method"),
                                         ("integrator", "fixed_step"), ("sensor", "bandwidth"),
                                         ("integrator", "min_steps_per_pulse"),
                                         ("integrator", "max_step")])
def test_unknown_section_key_is_a_config_error(tmp_path, capsys, section, key):
    # the retired integrator section is unknown as a whole
    assert run(tmp_path, "sweep-filter", f"{section}: {{{key}: 0.1}}\n") == 2
    name = section if section == "integrator" else f"{section}.{key}"
    assert f"{name}: unknown configuration key" in capsys.readouterr().err


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


def test_hbt_unallocatable_span_is_a_config_error(tmp_path, monkeypatch, capsys):
    # 4e14 bins of 8 bytes: the allocation fails at once, before any click is drawn
    def synthesize_stream(*args):
        raise AssertionError("the stream was synthesized before the histogram was checked")

    monkeypatch.setattr(photostream, "synthesize_stream", synthesize_stream)
    assert run(tmp_path, "hbt-sim", "span: 1.0e+12\nstream: {n_pulses: 1000}\n") == 2
    assert "span 1e+12 ns at bin_width 5 ps needs 400000000000001 histogram bins" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_hbt_stream_past_int64_timestamps_is_a_config_error(tmp_path, monkeypatch, capsys):
    # 2e9 pulses 1e7 ns apart last 2e19 ps, past the 2^63 ps of an int64 click
    def synthesize_stream(*args):
        raise AssertionError("the stream was synthesized before its duration was checked")

    monkeypatch.setattr(photostream, "synthesize_stream", synthesize_stream)
    text = "stream: {n_pulses: 2000000000, rep_period: 1.0e+7, p_single: 1.0e-4}\n" \
           "window: 1.0e+7\nspan: 2.0e+7\nbin_width: 1000000000\n"
    assert run(tmp_path, "hbt-sim", text) == 2
    err = capsys.readouterr().err
    assert "2e+16 ns reaches 2^63 ps" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_hbt_click_past_int64_timestamps_is_a_config_error(tmp_path, capsys):
    # the stream lasts 13.1 us, but its 1e17 ns delays pass 2^63 ps
    text = "stream: {n_pulses: 1000, p_single: 1.0, emitter_lifetime: 1.0e+17}\n"
    assert run(tmp_path, "hbt-sim", text) == 2
    err = capsys.readouterr().err
    assert "stream: a click at" in err and "reaches 2^63 ps" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "out").exists()


def test_hbt_window_wider_than_stream_period(tmp_path):
    assert run(tmp_path, "hbt-sim", "stream: {n_pulses: 1000, rep_period: 5.0}\n") == 2


def test_hbt_window_is_checked_against_the_stream_period(tmp_path):
    # hbt-sim's period is stream.rep_period: the 15 ns window fits its 20 ns, and
    # the span covers 20 + 7.5 ns; the top-level rep_period (13.1) is not read
    text = "window: 15.0\nspan: 40.0\n" \
           "stream: {n_pulses: 20000, rep_period: 20.0, p_single: 0.5}\n"
    assert run(tmp_path, "hbt-sim", text) == 0
    meta = json.loads((tmp_path / "out" / "hbt_metadata.json").read_text())
    assert meta["stream"]["rep_period"] == 20.0
    assert "rep_period" not in meta["config"]


@pytest.mark.parametrize("bin_width", [10000, 20000])
def test_hbt_bin_wider_than_window_is_a_config_error(tmp_path, capsys, bin_width):
    # no bin need lie in a 6.5 ns window of 10 or 20 ns bins: a configuration error,
    # not empty side peaks (convergence failure, exit 3)
    text = f"bin_width: {bin_width}\nstream: {{n_pulses: 200000, p_single: 0.3}}\n"
    assert run(tmp_path, "hbt-sim", text) == 2
    assert f"bin_width: {bin_width} ps is wider than the 6.5 ns window" \
        in capsys.readouterr().err


def test_histogram_bin_wider_than_window_is_a_config_error(tmp_path, capsys):
    # the file's 20 ns bins against the 6.5 ns window; its span covers the side peaks
    data = tmp_path / "hist.csv"
    data.write_text("delay_ps,counts\n-20000,5\n0,1\n20000,5\n")
    assert run(tmp_path, "analyze-histogram", "", "--data", str(data)) == 2
    assert "bin_width: 20000 ps is wider than the 6.5 ns window" in capsys.readouterr().err


def test_bin_as_wide_as_window_holds_a_bin(tmp_path):
    text = "bin_width: 6500\nstream: {n_pulses: 200000, p_single: 0.3}\n"
    assert run(tmp_path, "hbt-sim", text) == 0


def test_empty_side_peaks_is_an_estimation_failure(tmp_path, capsys):
    text = "stream: {n_pulses: 1000, p_single: 0.0}\n"
    assert run(tmp_path, "hbt-sim", text) == 3
    assert "empty side peaks" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_step_size_underflow_is_a_convergence_failure(tmp_path, capsys):
    # filters 1e15-1e16 wide make the sensor's decay so stiff that the first
    # step size falls to the underflow bound; the failed pass names its pulse
    # lengths
    text = "pulse_lengths: [0.05, 0.1]\nsweep: {min: 1.0e+15, max: 1.0e+16, points: 2}\n"
    assert run(tmp_path, "sweep-filter", text) == 3
    err = capsys.readouterr().err
    assert "convergence failure" in err
    assert "sweep point (tau=[0.05, 0.1]) failed: step size underflow" in err


@pytest.mark.parametrize("command, text", [
    ("g2map", "pulse: {length: 1.0e-15}\n"),
    ("spectrum", "pulse_lengths: [1.0e-20]\n"),
    ("sweep-filter", "pulse_lengths: [1.0e-20]\nsweep: {min: 0.1, max: 1.0, points: 2}\n"),
])
def test_pulse_too_short_to_step_is_a_convergence_failure(tmp_path, capsys, command, text):
    # 50 steps across the pulse window fall below the smallest step: the drive
    # would be stepped over, leaving an all-zero map or no emission to blame
    assert run(tmp_path, command, text) == 3
    err = capsys.readouterr().err
    assert "convergence failure" in err and "Traceback" not in err
    assert "pulse window" in err and "below the smallest step" in err
    assert not (tmp_path / "out").exists()


# each command at a small config, reading the data file of _rerun_data, if any
RERUNS = {
    "g2map": "pulse: {length: 0.2}\n",
    "spectrum": "pulse_lengths: [0.02, 0.2]\ndetuning_span: 10.0\ndetuning_points: 9\n",
    "sweep-pulse": "filter_widths: [1.0, 5.0]\nsweep: {min: 0.02, max: 0.05, points: 2}\n",
    "sweep-filter": "pulse_lengths: [0.02, 0.05]\nsweep: {min: 0.1, max: 10.0, points: 3}\n",
    "sweep-fourlevel": "pulse_lengths: [0.01]\nsweep: {min: 0.5, max: 1.0, points: 2}\n",
    "hbt-sim": "span: 40.0\nstream: {n_pulses: 200000, p_single: 0.3, "
               "p_double: 0.01, noise_rate: 100000.0, blinking: {frequencies: [1.0], "
               "depth: 0.5}}\n",
    "analyze-histogram": "",
    "fit-lifetime": "",
}


def _rerun_flags(tmp_path, command):
    """The run flags of `command` beside --out: hbt-sim's --seed, or the
    --data of a seeded draw of a histogram or a decay."""
    data = tmp_path / "data.csv"
    if command == "hbt-sim":
        return ["--seed", "11"]
    if command == "analyze-histogram":
        delays = np.arange(-300, 301) * 100
        counts = np.random.default_rng(3).poisson(5.0, len(delays))
        rows = "".join(f"{d},{c}\n" for d, c in zip(delays, counts))
        data.write_text("delay_ps,counts\n" + rows)
    elif command == "fit-lifetime":
        _write_decay(data, "exciton", np.random.default_rng(7))
    else:
        return []
    return ["--data", str(data)]


@pytest.mark.parametrize("command", RERUNS)
def test_rerun_is_byte_identical(tmp_path, capsys, command):
    # a command writes the data files it prints and one metadata JSON, and a
    # rerun writes every one of them byte for byte again, into the same
    # folder or another one: the metadata records no output folder
    flags = _rerun_flags(tmp_path, command)
    assert run(tmp_path, command, RERUNS[command], *flags) == 0
    out = tmp_path / "out"
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    printed = {os.path.basename(path) for path in capsys.readouterr().out.split()}
    metadata = {name for name in first if name.endswith("_metadata.json")}
    assert len(metadata) == 1 and set(first) == printed | metadata and all(first.values())
    assert run(tmp_path, command, RERUNS[command], *flags) == 0
    assert {p.name: p.read_bytes() for p in sorted(out.iterdir())} == first
    other = tmp_path / "other"
    assert run(tmp_path, command, RERUNS[command], *flags, "--out", str(other)) == 0
    assert {p.name: p.read_bytes() for p in sorted(other.iterdir())} == first


def test_hbt_peak_sums_match_the_row_loop(tmp_path):
    # the reference: one f-string per row
    assert run(tmp_path, "hbt-sim", "span: 200.0\nstream: {n_pulses: 20000, p_single: 0.5}\n") == 0
    out = tmp_path / "out"
    hist = photostream.read_histogram_csv(out / "hbt_histogram.csv")
    ks, sums = photostream.peak_sums(hist, 13.1, 6.5)
    assert len(ks) > 20 and sums.max() > 0
    expected = "peak_index,summed_counts\n" + "".join(f"{k},{s}\n" for k, s in zip(ks, sums))
    assert (out / "hbt_peak_sums.csv").read_bytes() == expected.encode()


BAD_HISTOGRAM_ROWS = {
    "header_only": "",
    "one_row": "0,5\n",
    "even_rows": "-5,1\n0,2\n5,3\n10,4\n",
    "off_centre": "0,1\n5,2\n10,3\n",
    "uneven_delays": "-10,1\n-5,2\n0,3\n6,4\n10,5\n",
}


@pytest.mark.parametrize("rows", BAD_HISTOGRAM_ROWS.values(), ids=BAD_HISTOGRAM_ROWS.keys())
def test_malformed_histogram_is_a_data_error(tmp_path, capsys, rows):
    data = tmp_path / "hist.csv"
    data.write_text("delay_ps,counts\n" + rows)
    assert run(tmp_path, "analyze-histogram", "", "--data", str(data)) == 2
    err = capsys.readouterr().err
    assert "configuration error: data: " in err and "Traceback" not in err


BAD_DECAY_ROWS = {
    "three_rows": "0,1\n5,2\n10,3\n",
    "unparsable_row": "".join(f"{5 * k},{k}\n" for k in range(60)) + "300,abc\n",
    "header_only": "",
    "one_column": "".join(f"{5 * k}\n" for k in range(60)),
    "nan_count": "".join(f"{5 * k},{k}\n" for k in range(60)) + "300,nan\n",
    "decreasing_times": "".join(f"{5 * k},{k}\n" for k in range(60, 0, -1)),
    "negative_count": "".join(f"{5 * k},{k}\n" for k in range(60)) + "300,-3\n",
}


@pytest.mark.parametrize("rows", BAD_DECAY_ROWS.values(), ids=BAD_DECAY_ROWS.keys())
def test_malformed_decay_is_a_data_error(tmp_path, capsys, rows):
    data = tmp_path / "decay.csv"
    data.write_text("time_ps,counts\n" + rows)
    assert cli.main(["fit-lifetime", "--data", str(data), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error: data: " in err and "Traceback" not in err


def test_decay_without_counts_is_a_convergence_failure(tmp_path, capsys):
    # an all-zero decay has no lifetimes to fit: the Jacobian is rank-deficient
    data = tmp_path / "decay.csv"
    analysis.write_decay_csv(data, np.arange(0.0, 5.0, 0.005), np.zeros(1000))
    assert cli.main(["fit-lifetime", "--data", str(data), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "convergence failure" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _write_decay(path, which, rng):
    """A Poisson draw of the supplement script's cascade decay curve."""
    t = np.arange(0.0, 5.0, 0.005)
    true = analysis.CascadeParams(gamma_2x=1 / 0.158, gamma_x=1 / 0.294,
                                  irf_sigma=0.040, amplitude=1e4, offset=0.8)
    curve = analysis.cascade_model(t, true, which)
    analysis.write_decay_csv(path, t, rng.poisson(np.maximum(curve, 0.0)))


def test_fit_lifetime_recovers_both_transitions(tmp_path):
    # the supplement script's decay draws: seed 7, exciton first
    rng = np.random.default_rng(7)
    for which in ("exciton", "biexciton"):
        data = tmp_path / f"decay_{which}.csv"
        _write_decay(data, which, rng)
        out = tmp_path / f"fit_{which}"
        assert cli.main(["fit-lifetime", "--data", str(data), "--which", which,
                         "--out", str(out)]) == 0
        fit = json.loads((out / "lifetime_fit.json").read_text())
        assert fit["tau_2x_ps"] == pytest.approx(158.0, rel=0.05)
        if which == "exciton":
            assert fit["tau_x_ps"] == pytest.approx(294.0, rel=0.05)
        assert fit["irf_sigma_ps"] == pytest.approx(40.0, rel=0.1)
        assert fit["offset_ps"] == pytest.approx(800.0, abs=5.0)
        assert fit["chi2_reduced"] == pytest.approx(1.0, abs=0.15)


def test_sweep_failure_names_the_point(tmp_path, capsys):
    # a strong coupling fails the eps-halving check; both pulse lengths are one pass
    text = "pulse_lengths: [0.05, 0.1]\nsweep: {min: 1.0, max: 2.0, points: 2}\n" \
           "sensor: {coupling: 0.3}\n"
    assert run(tmp_path, "sweep-filter", text) == 3
    err = capsys.readouterr().err
    assert "sweep point (bandwidth=1, tau=0.05) failed: g2 not converged" in err
    assert not (tmp_path / "out").exists()


def test_failed_epsilon_check_is_mended_by_a_smaller_coupling(tmp_path, capsys):
    # filters this wide fail the check at the default coupling 1e-3 Gamma (a move
    # of 8.2e-3 at Gamma = 3000); sensor.coupling 0.3 passes it
    text = "pulse_lengths: [0.05]\nsweep: {min: 1000.0, max: 3000.0, points: 2}\n"
    assert run(tmp_path, "sweep-filter", text) == 3
    assert "sweep point (bandwidth=3000, tau=0.05) failed: g2 not converged" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert run(tmp_path, "sweep-filter", text + "sensor: {coupling: 0.3}\n") == 0
    g2 = np.loadtxt(tmp_path / "out" / "sweep_filter_tau0.05.csv", delimiter=",", skiprows=1,
                    usecols=1)
    assert g2 == pytest.approx([0.03359135, 0.0336171], rel=1e-6)


def _sweep_written(out, prefix):
    meta = json.loads((out / f"{prefix}_metadata.json").read_text())["config"]
    curves = {p.name: np.loadtxt(p, delimiter=",", skiprows=1, usecols=0, ndmin=1).tolist()
              for p in sorted(out.glob(f"{prefix}_*.csv"))}
    return meta, curves


def test_sweep_fourlevel_honors_explicit_sweep(tmp_path):
    text = "sweep: {min: 0.05, max: 100.0, points: 2}\npulse_lengths: [0.01]\n"
    assert run(tmp_path, "sweep-fourlevel", text) == 0
    meta, curves = _sweep_written(tmp_path / "out", "sweep_fourlevel")
    assert (meta["sweep_min"], meta["sweep_max"], meta["sweep_points"]) == (0.05, 100.0, 2)
    assert meta["pulse_lengths"] == [0.01]
    assert curves == {"sweep_fourlevel_tau0.01.csv": [0.05, 100.0]}


def test_sweep_pulse_honors_explicit_sweep(tmp_path):
    text = "sweep: {points: 2}\nfilter_widths: [1.0]\n"
    assert run(tmp_path, "sweep-pulse", text) == 0
    meta, curves = _sweep_written(tmp_path / "out", "sweep_pulse")
    assert (meta["sweep_min"], meta["sweep_max"], meta["sweep_points"]) == (0.02, 1.5, 2)
    assert curves == {"sweep_pulse_gamma1.csv": [0.02, 1.5]}


@pytest.mark.parametrize("scale,axis", [("log", [0.1, 1.0, 10.0]), ("linear", [0.1, 5.05, 10.0])])
def test_sweep_scale_sets_the_axis(tmp_path, scale, axis):
    text = f"sweep: {{min: 0.1, max: 10.0, points: 3, scale: {scale}}}\npulse_lengths: [0.05]\n"
    assert run(tmp_path, "sweep-filter", text) == 0
    meta, curves = _sweep_written(tmp_path / "out", "sweep_filter")
    assert meta["sweep_log"] is (scale == "log")
    assert curves["sweep_filter_tau0.05.csv"] == pytest.approx(axis, rel=1e-12)


@pytest.mark.parametrize("command, system", [("sweep-fourlevel", "two_level"),
                                             ("g2map", "biexciton")])
def test_command_with_another_system_is_a_config_error(tmp_path, capsys, command, system):
    # g2map runs the two-level system and sweep-fourlevel the cascade: neither
    # reads a system key, so naming another system is an error, not overridden
    assert run(tmp_path, command, f"system: {system}\n") == 2
    err = capsys.readouterr().err
    assert f"system: unknown configuration key for {command}" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, text, prefix", [
    ("g2map", "pulse: {length: 0.2}\n", "g2map"),
    ("spectrum", "pulse_lengths: [0.05]\ndetuning_points: 3\n", "spectrum"),
    ("sweep-pulse", "sweep: {points: 2}\nfilter_widths: [1.0]\n", "sweep_pulse"),
    ("sweep-filter", "pulse_lengths: [0.05]\nsweep: {min: 1.0, max: 2.0, points: 2}\n",
     "sweep_filter"),
    ("sweep-fourlevel", "pulse_lengths: [0.01]\nsweep: {min: 0.5, max: 1.0, points: 2}\n",
     "sweep_fourlevel"),
], ids=["g2map", "spectrum", "sweep-pulse", "sweep-filter", "sweep-fourlevel"])
def test_metadata_records_the_subcommand(tmp_path, command, text, prefix):
    # the command a rerun types, whatever the files are called
    assert run(tmp_path, command, text) == 0
    meta = json.loads((tmp_path / "out" / f"{prefix}_metadata.json").read_text())
    assert meta["command"] == command
    # g2map and sweep-fourlevel each run one system and record none
    system = "biexciton" if command == "sweep-fourlevel" else "two_level"
    one_system = command in ("g2map", "sweep-fourlevel")
    assert meta["config"].get("system") == (None if one_system else system)
    assert set(meta["config"]) == set(cli._reads(command, system))
    # each system's key is recorded only where its system runs
    assert ("binding_energy" in meta["config"]) == (command == "sweep-fourlevel")


@pytest.mark.parametrize("command", ["spectrum", "sweep-filter", "sweep-pulse"])
@pytest.mark.parametrize("system, key", [("biexciton", "detuning: 5.0"),
                                         ("two_level", "binding_energy: 100.0")],
                         ids=["detuning_on_biexciton", "binding_energy_on_two_level"])
def test_key_of_the_other_system_is_an_error(tmp_path, capsys, command, system, key):
    # the command reads the key on the other system only: it would change nothing
    assert run(tmp_path, command, f"system: {system}\n{key}\n") == 2
    name = key.split(":")[0]
    assert f"{name}: {command} does not read it on the {system} system" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# The config keys each command reads, and no others.
_MODEL = {"pulse.area_pi"}
_CENTER = {"binding_energy", "sensor.detuning"}
_SWEEP = {"sensor.coupling", "sweep.min", "sweep.max", "sweep.points", "sweep.scale"}
READS = {
    "g2map": _MODEL | {"detuning", "pulse.length"},
    "spectrum": _MODEL | _CENTER | {"system", "detuning", "pulse_lengths", "spec_bandwidth",
                                    "detuning_span", "detuning_points"},
    "sweep-pulse": _MODEL | _CENTER | _SWEEP | {"system", "detuning", "filter_widths"},
    "sweep-filter": _MODEL | _CENTER | _SWEEP | {"system", "detuning", "pulse_lengths"},
    "sweep-fourlevel": _MODEL | _CENTER | _SWEEP | {"pulse_lengths"},
    "hbt-sim": {"stream", "window", "bin_width", "span", "excluded_peaks"},
    "analyze-histogram": {"rep_period", "window", "excluded_peaks"},
    "fit-lifetime": set(),
}
DATA_COMMANDS = ("analyze-histogram", "fit-lifetime")
# the flags beside --config, --out and the two data commands' --data and --which
FLAGS = {"--seed": (["1"], {"hbt-sim"})}


# a valid value of each key: these, [2] for a list and 2 for any other
VALUES = {"system": "two_level", "sweep.scale": "log", "sweep.min": 0.5, "stream": {}}
LISTS = {"pulse_lengths", "filter_widths", "excluded_peaks"}


def _config_value(key):
    """A valid config entry for `key`, inside its section."""
    value = VALUES.get(key, [2] if key in LISTS else 2)
    top, _, sub = key.partition(".")
    return {top: {sub: value}} if sub else {top: value}


@pytest.mark.parametrize("command", READS)
def test_key_or_flag_a_command_does_not_read_is_an_error(tmp_path, capsys, command):
    # the top-level epsilon and truncation are gone (sensor.coupling names the
    # coupling; a sweep's sensor holds 2 photons), and so is g2map's
    # grid_points (map_grid's rule sets the nodes); out and seed are flags
    # alone, and no command reads jobs
    data = ["--data", str(tmp_path / "absent.csv")] if command in DATA_COMMANDS else []
    config = tmp_path / "run.yaml"
    for key in sorted(set().union(*READS.values())
                      | {"epsilon", "truncation", "grid_points", "jobs", "out", "seed"}):
        entry = _config_value(key)
        if key == "binding_energy" and {key, "system"} <= READS[command]:  # on the cascade only
            entry["system"] = "biexciton"
        config.write_text(yaml.safe_dump(entry))
        if key in READS[command]:
            cli.load_config(config, command=command)
            continue
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out"),
                         *data]) == 2, key
        assert f"{key}: unknown configuration key for {command}" in capsys.readouterr().err
    for flag, (value, readers) in FLAGS.items():
        argv = [command, flag, *value, "--out", str(tmp_path / "out"), *data]
        if command in readers:
            assert cli.build_parser().parse_args(argv).command == command
            continue
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    # perfbench/workloads.py passes --jobs 1 to every command: each takes it and reads nothing
    assert cli.build_parser().parse_args([command, "--jobs", "1", *data]).command == command
    assert "jobs" not in cli._reads(command)


class _Reading(cli.RunConfig):
    """A RunConfig that records which of its fields are read."""

    def __getattribute__(self, name):
        if name in cli._FIELDS:
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


# each command on small inputs, on both systems where it takes either
BIEXCITON = "system: biexciton\n"
WIDTHS = "pulse_lengths: [0.01]\nsweep: {min: 0.5, max: 1.0, points: 2}\n"
PULSES = "filter_widths: [1.0]\nsweep: {min: 0.01, max: 0.02, points: 2}\n"
PROXY_RUNS = {
    "g2map": ["pulse: {length: 0.2}\n"],
    "spectrum": ["pulse_lengths: [0.05]\ndetuning_points: 3\n",
                 BIEXCITON + "pulse_lengths: [0.01]\ndetuning_points: 3\n"],
    "sweep-pulse": [PULSES, BIEXCITON + PULSES],
    "sweep-filter": [WIDTHS, BIEXCITON + WIDTHS],
    "sweep-fourlevel": [WIDTHS],
    "hbt-sim": ["span: 40.0\nstream: {n_pulses: 20000, p_single: 0.5}\n"],
    "analyze-histogram": [""],
    "fit-lifetime": [""],
}


def test_table_lists_the_fields_each_command_reads(tmp_path):
    # every RunConfig field a command's code reads, recorded through a proxy,
    # is the table's entry for it, and the table's keys are READS
    reads = {}
    for command, texts in PROXY_RUNS.items():
        extra = {}
        if command == "hbt-sim":
            extra = {"seed": 2024}
        if command == "analyze-histogram":  # the histogram hbt-sim returned just before
            extra = {"data": str(tmp_path / "hbt_histogram.csv")}
        if command == "fit-lifetime":
            _write_decay(tmp_path / "decay.csv", "exciton", np.random.default_rng(7))
            extra = {"data": str(tmp_path / "decay.csv"), "which": "exciton"}
        for text in texts:
            (tmp_path / "run.yaml").write_text(text)
            cfg = cli.load_config(tmp_path / "run.yaml", command=command)
            proxy = _Reading(**{name: getattr(cfg, name) for name in cli._FIELDS})
            proxy.read = set()
            files, _ = cli._COMMANDS[command][0](proxy, **extra)
            for name, write in files.items():
                write(tmp_path / name)
            assert proxy.read == set(cli._reads(command, cfg.system)), (command, cfg.system)
            reads.setdefault(command, set()).update(proxy.read)
        assert reads[command] == set(cli._reads(command)), command
        assert {cli._FIELDS[name].metadata["key"] or name
                for name in reads[command]} == READS[command], command


def test_commands_only_compute(tmp_path, monkeypatch):
    # a command returns its files and facts and writes nothing, not even
    # the output folder: main writes, once the command has succeeded
    data, work, env = (tmp_path / name for name in ("data", "work", "env"))
    for folder in (data, work, env):
        folder.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv(cli.ENV_OUTDIR, str(env))
    _write_decay(data / "decay.csv", "exciton", np.random.default_rng(7))
    flags = {"hbt-sim": {"seed": 2024},
             "analyze-histogram": {"data": str(data / "hbt_histogram.csv")},
             "fit-lifetime": {"data": str(data / "decay.csv"), "which": "exciton"}}
    for command, (run, _) in cli._COMMANDS.items():
        (data / "run.yaml").write_text(PROXY_RUNS[command][0])
        files, facts = run(cli.load_config(data / "run.yaml", command), **flags.get(command, {}))
        assert os.listdir(work) == [] and os.listdir(env) == [], command
        assert files and all(callable(write) for write in files.values()), command
        assert isinstance(facts, dict), command
        if command == "hbt-sim":  # the histogram analyze-histogram reads
            files["hbt_histogram.csv"](data / "hbt_histogram.csv")


def test_metadata_json_byte_format(tmp_path):
    # sorted keys, a 2-space indent and a trailing newline, on a real run
    data = tmp_path / "decay.csv"
    _write_decay(data, "exciton", np.random.default_rng(7))
    assert cli.main(["fit-lifetime", "--data", str(data), "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "lifetime_fit_metadata.json").read_text()
    assert text == ('{\n  "command": "fit-lifetime",\n  "config": {},\n'
                    f'  "data": {json.dumps(str(data))},\n  "tool": "photonpurity",\n'
                    f'  "version": "{cli.__version__}",\n  "which": "exciton"\n}}\n')


def test_sweep_kind_must_match_the_command(tmp_path, capsys):
    assert run(tmp_path, "sweep-pulse", "sweep: {kind: filter_width}\n") == 2
    assert "sweep.kind" in capsys.readouterr().err


def test_stream_value_read_as_text_is_named(tmp_path, capsys):
    # YAML 1.1 reads 1.0e5 (no exponent sign) as a string
    assert run(tmp_path, "hbt-sim", "stream: {n_pulses: 1000, noise_rate: 1.0e5}\n") == 2
    err = capsys.readouterr().err
    assert "stream.noise_rate: '1.0e5' is not a number" in err
    assert "1.0e-3 or 1.0e+5" in err


def test_coupling_value_read_as_text_is_named(tmp_path, capsys):
    # YAML 1.1 reads 1e-3 (no dot) as a string
    text = "pulse_lengths: [0.05]\nsweep: {min: 1.0, max: 2.0, points: 2}\n" \
           "sensor: {coupling: 1e-3}\n"
    assert run(tmp_path, "sweep-filter", text) == 2
    err = capsys.readouterr().err
    assert "sensor.coupling: '1e-3' is not a number" in err
    assert "1.0e-3 or 1.0e+5" in err


def test_text_that_is_no_number_gets_no_spelling_hint(tmp_path, capsys):
    assert run(tmp_path, "hbt-sim", "stream: {n_pulses: 1000, noise_rate: fast}\n") == 2
    err = capsys.readouterr().err
    assert "stream.noise_rate: 'fast' is not a number" in err and "1.0e+5" not in err


@pytest.mark.parametrize("value,shown", [("1.5e+5", "150000.0"), ("150000.5", "150000.5")])
def test_non_integer_pulse_count_is_named(tmp_path, capsys, value, shown):
    # YAML reads 1.5e+5 as a float, which no pulse count is
    assert run(tmp_path, "hbt-sim", f"stream: {{n_pulses: {value}}}\n") == 2
    assert f"stream.n_pulses: {shown} is not an integer" in capsys.readouterr().err


SWEEP_LIST = "must be a non-empty list of numbers > 0"


@pytest.mark.parametrize("command,text,message", [
    ("sweep-filter", "sweep: {points: 3.0}\n", "sweep.points: must be an integer >= 2"),
    ("spectrum", "detuning_points: 5.5\n", "detuning_points: must be an integer >= 2"),
    ("spectrum", "detuning_points: 0\n", "detuning_points: must be an integer >= 2"),
    ("spectrum", "detuning_points: 1\n", "detuning_points: must be an integer >= 2"),
    ("spectrum", "spec_bandwidth: 0\n", "spec_bandwidth: must be > 0"),
    ("spectrum", "detuning_span: -5\n", "detuning_span: must be > 0"),
    ("hbt-sim", "bin_width: 5.5\nstream: {n_pulses: 1000}\n",
     "bin_width: must be an integer >= 1 (ps)"),
    ("sweep-filter", "pulse_lengths: []\n", "pulse_lengths: " + SWEEP_LIST),
    ("spectrum", "pulse_lengths: []\n", "pulse_lengths: " + SWEEP_LIST),
    ("sweep-pulse", "filter_widths: []\nsweep: {points: 2}\n", "filter_widths: " + SWEEP_LIST),
    ("hbt-sim", "window: -1.0\nstream: {n_pulses: 1000}\n", "window: must be > 0"),
    ("sweep-filter", "pulse_lengths: [-0.05]\n", "pulse_lengths: " + SWEEP_LIST),
    ("sweep-pulse", "filter_widths: [-1.0]\nsweep: {points: 2}\n",
     "filter_widths: " + SWEEP_LIST),
    ("hbt-sim", "excluded_peaks: 8.0\nstream: {n_pulses: 1000}\n",
     "excluded_peaks: must be a list of numbers"),
    # the seed is the --seed flag alone, the output folder the --out flag
    # alone, and the commands run at the default tolerance: each retired key
    # is unknown, whatever its value
    ("hbt-sim --seed 1.5", "stream: {n_pulses: 1000}\n",
     "argument --seed: invalid int value: '1.5'"),
    ("hbt-sim", "seed: -1\nstream: {n_pulses: 1000}\n",
     "seed: unknown configuration key for hbt-sim"),
    ("hbt-sim --seed -1", "stream: {n_pulses: 1000}\n", "seed: must be an integer >= 0"),
    ("g2map", "out: 5\n", "out: unknown configuration key for g2map"),
    ("sweep-filter", "integrator: {abs_tol: 0}\n",
     "integrator: unknown configuration key for sweep-filter"),
    ("sweep-filter", "sweep: {scale: lgo}\n", "sweep.scale: must be log or linear, got 'lgo'"),
], ids=["sweep_points_float", "detuning_points_float", "detuning_points_zero",
        "detuning_points_one", "spec_bandwidth_zero", "detuning_span_negative",
        "bin_width_float", "pulse_lengths_empty_sweep", "pulse_lengths_empty_spectrum",
        "filter_widths_empty", "window_negative", "pulse_lengths_negative",
        "filter_widths_negative", "excluded_peaks_scalar", "seed_float", "seed_negative",
        "seed_flag_negative", "out_number",
        "abs_tol_zero", "sweep_scale_typo"])
def test_out_of_range_key_is_named(tmp_path, monkeypatch, capsys, command, text, message):
    command, *flags = command.split()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.yaml").write_text(text)
    try:
        code = cli.main([command, "--config", "run.yaml", *flags])
    except SystemExit as exit_:  # argparse refuses a flag value that is no integer
        code = exit_.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,text,key", [
    ("spectrum", "pulse_lengths: [0.05, 0.05, 0.2]\n", "pulse_lengths"),
    ("sweep-filter", "pulse_lengths: [0.05, 0.2, 0.0500000001]\n", "pulse_lengths"),
    ("sweep-pulse", "filter_widths: [1.0, 1]\nsweep: {points: 2}\n", "filter_widths"),
], ids=["spectrum", "sweep_filter_same_name", "sweep_pulse"])
def test_repeated_file_name_is_a_config_error(tmp_path, capsys, command, text, key):
    # each pulse length or filter width names a file by {:g}: a repeat would
    # step its points twice and write one file over the other
    assert run(tmp_path, command, text) == 2
    assert f"{key}: must not repeat" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


HBT_STREAM = "stream: {n_pulses: 1000}\n"
SWEEP = "pulse_lengths: [0.05]\nsweep: {min: 1.0, max: 2.0, points: 2}\n"


@pytest.mark.parametrize("command,text,key", [
    ("hbt-sim", "span: .nan\n" + HBT_STREAM, "span"),
    ("hbt-sim", "span: .inf\n" + HBT_STREAM, "span"),
    ("hbt-sim", "stream: {n_pulses: 1000, noise_rate: .inf}\n", "stream.noise_rate"),
    ("hbt-sim", "stream: {n_pulses: 1000, pulse_sigma: .inf}\n", "stream.pulse_sigma"),
    ("hbt-sim", "stream: {n_pulses: 1000, rep_period: .nan}\n", "stream.rep_period"),
    ("hbt-sim", "stream: {n_pulses: 1000, blinking: {frequencies: [.nan]}}\n",
     "stream.blinking.frequencies[0]"),
    ("hbt-sim", "stream: {n_pulses: 1000, blinking: {frequencies: [1.0], depth: .nan}}\n",
     "stream.blinking.depth"),
    ("hbt-sim", "excluded_peaks: [.nan]\n" + HBT_STREAM, "excluded_peaks[0]"),
    ("sweep-pulse", "filter_widths: [.inf]\nsweep: {points: 2}\n", "filter_widths[0]"),
    ("sweep-filter", "pulse_lengths: [0.05]\nsweep: {min: 1.0, max: .inf, points: 2}\n",
     "sweep.max"),
    ("sweep-filter", "detuning: .nan\n" + SWEEP, "detuning"),
    ("sweep-filter", "sensor: {coupling: .inf}\n" + SWEEP, "sensor.coupling"),
    ("sweep-filter", "pulse: {area_pi: .inf}\n" + SWEEP, "pulse.area_pi"),
    ("sweep-filter", "sensor: {detuning: -.inf}\n" + SWEEP, "sensor.detuning"),
], ids=["span_nan", "span_inf", "noise_rate_inf", "pulse_sigma_inf", "rep_period_nan",
        "blinking_frequency_nan", "blinking_depth_nan", "excluded_peak_nan",
        "filter_width_inf", "sweep_max_inf", "detuning_nan", "coupling_inf",
        "area_pi_inf", "sensor_detuning_minus_inf"])
def test_non_finite_number_is_named(tmp_path, capsys, command, text, key):
    # YAML reads .nan and .inf as floats; each is a configuration error, not a
    # crash, a silent run or a convergence failure
    assert run(tmp_path, command, text) == 2
    assert f"{key}: " in capsys.readouterr().err


# a retired key's config text, or its flag, and the command and key named
# in its error (sweep-filter and the key itself unless given)
RETIRED = {"gamma_sigma": "gamma_sigma: 2.0\n", "sensor.truncation": "sensor: {truncation: 3}\n",
           "check_convergence": "check_convergence: false\n",
           "--epsilon": ["--epsilon", "0.001"], "--check-convergence": ["--check-convergence"],
           "--no-check-convergence": ["--no-check-convergence"],
           "integrator.rel_tol": ("integrator: {rel_tol: 1.0e-10}\n", "sweep-filter", "integrator"),
           "integrator.abs_tol": ("integrator: {abs_tol: 1.0e-14}\n", "sweep-filter", "integrator"),
           "out": ("out: elsewhere\n", "spectrum", "out"),
           "seed": ("seed: 7\nstream: {n_pulses: 1000}\n", "hbt-sim", "seed"),
           "g2map-system": ("system: two_level\n", "g2map", "system"),
           "sweep-fourlevel-system": ("system: biexciton\n", "sweep-fourlevel", "system")}


@pytest.mark.parametrize("retired", RETIRED)
def test_retired_key_or_flag_is_an_error(tmp_path, capsys, retired):
    # each input has one setting: the time unit gamma_sigma is 1, the coupling
    # is sensor.coupling alone, the eps-halving check always runs, a sweep's
    # sensor holds 2 photons, the commands run at the default tolerance, the
    # output folder and the seed are flags, and g2map and sweep-fourlevel
    # each run their one system, even when the key names that system
    given = RETIRED[retired]
    if isinstance(given, list):
        with pytest.raises(SystemExit) as exit_:
            run(tmp_path, "sweep-filter", SWEEP, *given)
        assert exit_.value.code == 2
        message = f"unrecognized arguments: {' '.join(given)}"
    else:
        text, command, key = (given, "sweep-filter", retired) if isinstance(given, str) else given
        assert run(tmp_path, command, (SWEEP if command == "sweep-filter" else "") + text) == 2
        message = f"{key}: unknown configuration key for {command}"
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_no_config_field_has_a_flag():
    # the config holds the model and the flags hold the run: a flag for a
    # config field would be a second way to set the same value
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    for command, sub in commands.choices.items():
        dests = {a.dest for a in sub._actions}
        assert not dests & set(cli._FIELDS), command
        assert dests - {"help"} <= {"config", "jobs", "out", "seed", "data", "which"}, command


def test_unknown_blinking_key_is_named(tmp_path, capsys):
    text = "stream: {n_pulses: 1000, blinking: {frequencies: [1.0], dept: 0.5}}\n"
    assert run(tmp_path, "hbt-sim", text) == 2
    assert "stream.blinking.dept: unknown configuration key" in capsys.readouterr().err


IMPORT_HYGIENE = """
import math
import sys
import numpy as np
import photonpurity
from photonpurity import cli
from photonpurity.correlations import filtered_g2_zero
from photonpurity.model import GaussianPulse, SensorConfig, TwoLevelConfig, build_two_level
for command, config, out in zip(sys.argv[1::3], sys.argv[2::3], sys.argv[3::3]):
    assert cli.main([command, "--config", config, "--out", out]) == 0, command
# samples past the drive cutoff t_c = 0.6, and a sensor cut at 3 photons
system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.05))
filtered_g2_zero(system, SensorConfig(0.0, 1.0), grid=np.linspace(0.0, 2.0, 24))
filtered_g2_zero(system, SensorConfig(0.0, 1.0, truncation=3))
loaded = set(sys.modules) & {"scipy.linalg", "scipy.sparse", "scipy.optimize",
                             "scipy.special", "scipy.stats"}
print("scipy modules:", *sorted(loaded))
"""


def test_hbt_and_two_level_spectrum_run_without_scipy(tmp_path):
    # a fresh interpreter: the package, the CLI, these commands (the filtered g2 of the
    # two-level emitter and of the cascade's exciton line), a filtered g2 sampled past
    # the drive cutoff and one with the sensor cut at 3 photons need numpy and yaml
    sweep = "sweep: {min: 0.5, max: 1.0, points: 2}\n"
    runs = [("hbt-sim", "stream: {n_pulses: 20000}\n"),
            ("spectrum", "pulse_lengths: [0.05]\ndetuning_points: 3\n"),
            ("sweep-filter", "pulse_lengths: [0.05]\n" + sweep),
            ("sweep-pulse", "filter_widths: [1.0]\nsweep: {min: 0.05, max: 0.1, points: 2}\n"),
            ("sweep-fourlevel", "pulse_lengths: [0.01]\n" + sweep)]
    args = []
    for i, (command, text) in enumerate(runs):
        config = tmp_path / f"{i}.yaml"
        config.write_text(text)
        args += [command, str(config), str(tmp_path / str(i))]
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src")}
    done = subprocess.run([sys.executable, "-c", IMPORT_HYGIENE, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "scipy modules:"


@pytest.mark.parametrize("points", ["-3", "0", "1", "50.5"])
def test_g2map_needs_two_grid_points(tmp_path, capsys, points):
    # map_grid's rule sets the nodes (at least 300); a grid size in the config,
    # too small or not an integer, is refused as the retired key it is
    assert run(tmp_path, "g2map", f"grid_points: {points}\n") == 2
    assert "grid_points: unknown configuration key for g2map" in capsys.readouterr().err


@pytest.mark.parametrize("points", [10**19, 2**62], ids=["1e19", "2^62"])
def test_g2map_unallocatable_grid_is_a_config_error(tmp_path, capsys, points):
    # the key is refused before any grid is built, so no size reaches numpy
    assert run(tmp_path, "g2map", f"grid_points: {points}\n") == 2
    err = capsys.readouterr().err
    assert "grid_points: unknown configuration key for g2map" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def _files(root):
    return {os.path.relpath(os.path.join(where, name), root)
            for where, _, names in os.walk(root) for name in names}


@pytest.mark.parametrize("script, expected", [
    ("reproduce_theory_figures.py", {
        "g2map.csv", "g2map_metadata.json",
        "spectrum_tau0.02.csv", "spectrum_tau0.05.csv", "spectrum_tau0.2.csv",
        "spectrum_metadata.json",
        "sweep_pulse_gamma0.1.csv", "sweep_pulse_gamma1.csv", "sweep_pulse_gamma20.csv",
        "sweep_pulse_metadata.json",
        "sweep_filter_tau0.02.csv", "sweep_filter_tau0.05.csv", "sweep_filter_tau0.2.csv",
        "sweep_filter_metadata.json",
        "sweep_fourlevel_tau0.01.csv", "sweep_fourlevel_tau0.02.csv",
        "sweep_fourlevel_metadata.json"}),
    ("reproduce_supplement_analyses.py", {
        "noise_floor.yaml", "blinking.yaml", "decay_exciton.csv", "decay_biexciton.csv",
        *(f"{run}/hbt_{name}" for run in ("noise_floor", "blinking")
          for name in ("histogram.csv", "estimate.json", "peak_sums.csv", "metadata.json")),
        *(f"fit_{which}/lifetime_fit{suffix}.json" for which in ("exciton", "biexciton")
          for suffix in ("", "_metadata"))}),
])
def test_shipped_script_exits_zero(tmp_path, script, expected):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, os.path.join(REPO, "scripts", script), str(out)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert _files(out) == expected


def test_compare_outputs_scales_each_change(tmp_path):
    # a changed spectrum row reads as a share of the peak; metadata that
    # differs only in its output path reads as identical
    spectrum = "detuning_over_gamma,normalized_intensity\n-1,0.5\n0,1\n1,0.5\n"
    for side in ("old", "new"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "spectrum_tau0.05.csv").write_text(spectrum)
        (tmp_path / side / "spectrum_metadata.json").write_text(json.dumps(
            {"command": "spectrum", "config": {"out": str(tmp_path / side), "seed": 1}}))

    def table():
        done = subprocess.run([sys.executable, os.path.join(REPO, "scripts", "compare_outputs.py"),
                               str(tmp_path / "old"), str(tmp_path / "new")],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[2:]

    assert table() == ["| spectrum_metadata.json | identical apart from output paths |",
                       "| spectrum_tau0.05.csv | identical |"]
    changed = spectrum.replace("\n1,0.5\n", "\n1,0.4\n")
    (tmp_path / "new" / "spectrum_tau0.05.csv").write_text(changed)
    assert table()[1] == "| spectrum_tau0.05.csv | 0.1 of peak in normalized_intensity |"
    # two maps on different nodes compare on the (t1, t2) pairs both hold:
    # the new map drops t = 0.5 and halves the old maximum, at (1, 1)
    for side, times in (("old", (0, 0.5, 1)), ("new", (0, 1))):
        values = {(a, b): a + b for a in times for b in times}
        if side == "new":
            values[1, 1] = 1.0
        (tmp_path / side / "g2map.csv").write_text("t1,t2,value\n" + "".join(
            f"{a:g},{b:g},{v:g}\n" for (a, b), v in values.items()))
    assert table()[0] == "| g2map.csv | nodes 3 -> 2: 0.5 of max in value on the 4 common " \
                         "(t1, t2) pairs |"
    # a sweep curve that drops a column names it and still compares the shared ones
    (tmp_path / "old" / "sweep_filter_tau0.05.csv").write_text(
        "axis_value,g2,epsilon_used,converged\n0.1,0.02,0.0001,true\n1,0.01,0.001,true\n")
    sweep = "axis_value,g2,epsilon_used\n0.1,0.02,0.0001\n1,0.01,0.001\n"
    (tmp_path / "new" / "sweep_filter_tau0.05.csv").write_text(sweep)
    assert table()[-1] == "| sweep_filter_tau0.05.csv | converged only in OLD; " \
                          "shared columns equal |"
    (tmp_path / "new" / "sweep_filter_tau0.05.csv").write_text(sweep.replace("0.01,", "0.011,"))
    assert table()[-1] == "| sweep_filter_tau0.05.csv | converged only in OLD; " \
                          "0.1 relative in g2 |"
