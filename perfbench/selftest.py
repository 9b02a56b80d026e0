"""Self-tests of the benchmark (not of the program).

    python3 -m pytest -q perfbench/selftest.py

They check that every correctness check fires on an output perturbed past
its tolerance, that BENCHMARK.json and the metrics the benchmark prints agree
and use valid names, that tiny runs complete, and that a directory without
the program makes the benchmark fail without a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _references(name):
    with open(os.path.join(HERE, f"references_{name}.json")) as fh:
        return json.load(fh)[name]


# -- every check fires past its tolerance ------------------------------------
def test_g2_check_fires():
    refs = np.array([r["g2"] for r in _references("g2")])
    assert workloads.check_g2(refs, refs).all()
    assert workloads.check_g2(refs * (1 + 0.5 * workloads.G2_REL_TOL), refs).all()
    assert not workloads.check_g2(refs * (1 + 2 * workloads.G2_REL_TOL), refs).any()
    assert not workloads.check_g2(refs * (1 - 2 * workloads.G2_REL_TOL), refs).any()


def test_spectrum_check_fires():
    for ref in _references("spectrum"):
        values = np.array(ref["values"])
        assert workloads.check_spectrum(values, values)
        bumped = values.copy()
        bumped[len(bumped) // 3] += 2 * workloads.SPECTRUM_ABS_TOL
        assert not workloads.check_spectrum(bumped, values)


def test_estimate_check_fires():
    expected = workloads.noise_floor_expectation()
    sides = [23_000, 23_000]  # as in the noise-floor run: about 13.5 counts expected

    def estimate(center):
        return {"center_sum": center, "side_sums": sides}

    assert all(workloads.check_estimate(estimate(c), expected) for c in (2, 13, 28))
    assert not workloads.check_estimate(estimate(0), expected)
    assert not workloads.check_estimate(estimate(1), expected)
    assert not workloads.check_estimate(estimate(40), expected)
    assert not workloads.check_estimate(estimate(1), expected * 5)
    assert workloads.check_estimate(estimate(0), 0.0)
    assert not workloads.check_estimate(estimate(1), 0.0)


def test_blinking_line_check_fires():
    freqs = np.fft.rfftfreq(500, d=13.1e-3)
    amp = np.ones_like(freqs)
    amp[0] = 1e3  # the DC line is ignored
    amp[np.argmin(abs(freqs - workloads.BLINK_MHZ))] = 50.0
    assert workloads.check_blinking_line(freqs, amp)
    amp[np.argmin(abs(freqs - workloads.BLINK_MHZ)) + 3] = 100.0
    assert not workloads.check_blinking_line(freqs, amp)


def _fake_sweep(tmp_path, config, command, metadata_edit=None, taus=None):
    cfg = workloads.load(config)
    meta = {"sweep_min": cfg["sweep"]["min"], "sweep_max": cfg["sweep"]["max"],
            "sweep_points": cfg["sweep"]["points"], "sweep_log": True,
            "pulse_lengths": cfg["pulse_lengths"]}
    meta.update(metadata_edit or {})
    with open(tmp_path / f"{command}_metadata.json", "w") as fh:
        json.dump({"config": meta}, fh)
    for tau in taus or cfg["pulse_lengths"]:
        with open(tmp_path / f"{command}_tau{tau:g}.csv", "w") as fh:
            fh.write("axis_value,g2,epsilon_used,converged\n")
            fh.writelines(f"{x:.9g},0.1,0.001,true\n" for x in workloads.sweep_axis(cfg))
    return workloads.verify_sweep_outputs(config, str(tmp_path), command)


def test_sweep_verification_passes_the_configured_sweep(tmp_path):
    assert _fake_sweep(tmp_path, "g2_sweep_fourlevel", "sweep_fourlevel") == []


def test_sweep_verification_fires_on_a_substituted_sweep(tmp_path):
    # what cmd_sweep_fourlevel writes when it replaces values equal to defaults
    problems = _fake_sweep(tmp_path, "g2_sweep_fourlevel", "sweep_fourlevel",
                           {"sweep_min": 0.5, "sweep_max": 20.0, "sweep_points": 9},
                           taus=(0.01, 0.02))
    assert len(problems) == 3  # max, points and the curves written


# -- names and the metric lists ---------------------------------------------
def test_names_are_valid_and_unique():
    bench = _benchmark()
    names = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for name in names + metrics:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names) and len(set(metrics)) == len(metrics)
    assert set(names) == set(workloads.WORKLOADS)


def test_benchmark_lists_what_the_runs_print():
    bench = _benchmark()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    traced = set(tracing.Tracer().layer_metrics()) | set(run.RUN_LAYER_METRICS)
    assert {m["name"] for m in bench["per_layer"]} == traced


# -- tiny runs ----------------------------------------------------------------
TINY = {
    "hbt_noise_floor": {"stream": {"n_pulses": 200_000, "p_single": 0.1,
                                   "noise_rate": 2245.1728783116305},
                        "window": 13.1, "span": 30.0},
    "hbt_blinking": {"stream": {"n_pulses": 100_000, "p_single": 0.35,
                                "blinking": {"frequencies": [1.0], "depth": 0.6}},
                     "span": 2000.0},
    "spectrum": {"system": "two_level", "pulse": {"area_pi": 1.0}, "pulse_lengths": [0.2],
                 "spec_bandwidth": 0.2, "detuning_span": 40.0, "detuning_points": 3},
}


@pytest.fixture
def tiny_configs(tmp_path, monkeypatch):
    import yaml

    for name, cfg in TINY.items():
        with open(tmp_path / f"{name}.yaml", "w") as fh:
            yaml.safe_dump(cfg, fh)
    monkeypatch.setattr(workloads, "CONFIGS", str(tmp_path))


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload, trace", [("hbt", "0"), ("hbt", "1"), ("spectrum", "0")])
def test_tiny_run_completes(tiny_configs, workload, trace):
    result = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    bench = _benchmark()
    wanted = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert result["metrics"]["setup_s"]["value"] > 0
        assert result["metrics"]["wall_s"]["value"] > 0
    else:  # a layer that made no call reads as not applicable, never as 0
        assert result["metrics"]["dynamics.g2_map_raw_s"]["value"] == run.NOT_APPLICABLE
        assert result["metrics"]["photostream.pairs"]["value"] > 1
        assert all(m["value"] != 0 for name, m in result["metrics"].items()
                   if name != "trace.overhead_s")


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hbt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
