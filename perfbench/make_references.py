#!/usr/bin/env python3
"""Compute the converged references that `g2_sweep` and `spectrum` are checked
against, and write them to perfbench/references_g2.json and
perfbench/references_spectrum.json.

Run from the repository root (about 5 min on one core per argument;
the two arguments can run in parallel):

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_references.py [g2|spectrum]

Recipe.  Only public arguments of the library are used, never the program's
own default grid, so a later change to `map_grid`, the horizon or the
integrator moves the benchmark's error metric instead of its reference:

- the same models, sensor couplings and quadrature (trapezoid) as the CLI;
- a tighter integrator (rel_tol 1e-11, abs_tol 1e-15);
- a horizon of 30 lifetimes of the slowest decay instead of 12;
- an explicit graded grid (`graded_grid`): node density is the sum of
  bumps around the pulse (at the pulse length and at the filter memory), a
  band at the emitter lifetime (or the fastest detuning beat) for the first
  20-25 time units after it, and a floor at the slowest decay timescale up
  to the horizon;
- two nested grids, step h and h/2, and Richardson extrapolation of the
  trapezoid error (O(h^2)).  The reported uncertainty is the distance
  between the extrapolated and the finer value.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from scipy.integrate import cumulative_trapezoid  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from photonpurity import correlations, dynamics  # noqa: E402
from photonpurity.model import (  # noqa: E402
    BiexcitonConfig,
    EXCITON_V_ONLY,
    GaussianPulse,
    SensorConfig,
    TwoLevelConfig,
    attach_sensor,
    build_biexciton,
    build_two_level,
)

import workloads  # noqa: E402

REF_INTEGRATOR = dynamics.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-15)
HORIZON_LIFETIMES = 30.0
G2_STEP = 0.1
SPECTRUM_STEP = 0.1
REFERENCES = {"g2": "references_g2.json", "spectrum": "references_spectrum.json"}


def graded_grid(bumps, era_scale, era_end, tail_scale, horizon, nodes):
    """`nodes` points of [0, horizon] spaced as 1 / density, where the density
    (nodes per unit time, before scaling) is

        sum over bumps (center, width, scale) of exp(-((t - center) / width)^2 / 2) / scale
        + 1 / (era_scale * (1 + exp((t - era_end) / 2)))
        + 1 / tail_scale.
    """
    t = np.linspace(0.0, horizon, 400_001)
    density = (1.0 / (era_scale * (1.0 + np.exp(np.clip((t - era_end) / 2.0, -700, 700))))
               + 1.0 / tail_scale)
    for center, width, scale in bumps:
        density += np.exp(-0.5 * ((t - center) / width) ** 2) / scale
    u = cumulative_trapezoid(density, t, initial=0.0)
    return np.interp(np.linspace(0.0, u[-1], nodes), u, t), u[-1]


def g2_grid_params(tau, gamma):
    """Pulse bump at the pulse length, sensor-memory bump at the coincidence
    strip width, emitter band at its lifetime, tail at the slowest decay."""
    t0 = 4.0 * tau
    slow = min(1.0, gamma)
    strip = min(math.hypot(tau, 1.0 / gamma), 1.0)
    return dict(bumps=[(t0, 4.0 * tau, tau), (t0, 4.0 * tau + 3.0 * strip, strip)],
                era_scale=1.0, era_end=t0 + 25.0, tail_scale=1.0 / slow,
                horizon=t0 + HORIZON_LIFETIMES / slow)


def spectrum_grid_params(tau, spec_bandwidth, max_detuning):
    """Pulse bump at the pulse length, a band resolving the fastest detuning
    beat while the emitter radiates, tail at the filter decay."""
    t0 = 4.0 * tau
    slow = min(1.0, spec_bandwidth)
    feature = min(tau, 1.0 / max_detuning)
    return dict(bumps=[(t0, 4.0 * tau + 3.0 * feature, feature)],
                era_scale=2.0 * math.pi / max_detuning, era_end=t0 + 20.0,
                tail_scale=1.0 / slow, horizon=t0 + HORIZON_LIFETIMES / slow)


def nested_grids(params, step):
    _, total = graded_grid(nodes=2, **params)
    coarse_n = int(math.ceil(total / step)) + 1
    coarse, _ = graded_grid(nodes=coarse_n, **params)
    fine, _ = graded_grid(nodes=2 * coarse_n - 1, **params)
    return coarse, fine


def richardson(coarse, fine):
    return fine + (fine - coarse) / 3.0


def g2_point(point):
    pulse = GaussianPulse(math.pi * point["area_pi"], point["tau"])
    if point["system"] == "two_level":
        system = build_two_level(TwoLevelConfig(), pulse)
        observed = "sigma"
    else:
        system = build_biexciton(BiexcitonConfig(binding_energy=point["binding_energy"]), pulse)
        observed = EXCITON_V_ONLY
    sensor = SensorConfig(point["sensor_detuning"], point["gamma"])
    coarse_grid, fine_grid = nested_grids(g2_grid_params(point["tau"], point["gamma"]), G2_STEP)
    values = [
        correlations.filtered_g2_zero(system, sensor, REF_INTEGRATOR, observed=observed,
                                      grid=grid, check_convergence=False).g2
        for grid in (coarse_grid, fine_grid)
    ]
    ref = richardson(*values)
    return {**point, "g2": ref, "rel_uncertainty": abs(ref - values[1]) / abs(ref),
            "g2_coarse": values[0], "g2_fine": values[1],
            "nodes": [len(coarse_grid), len(fine_grid)]}


def spectrum_curve(spec):
    pulse = GaussianPulse(math.pi * spec["area_pi"], spec["tau"])
    system = build_two_level(TwoLevelConfig(), pulse)
    detunings = np.asarray(spec["detunings"])
    eps = 1e-3 * max(spec["spec_bandwidth"], system.decay_scale)
    extended = [attach_sensor(system, "sigma", SensorConfig(d, spec["spec_bandwidth"], eps, 2))
                for d in detunings]
    params = spectrum_grid_params(spec["tau"], spec["spec_bandwidth"],
                                  float(np.max(np.abs(detunings))))
    intensities = []
    for grid in nested_grids(params, SPECTRUM_STEP):
        series = dynamics.emission_series(extended, extended[0].output_ops["sensor"], grid,
                                          REF_INTEGRATOR)
        intensities.append(np.trapezoid(series, grid, axis=-1))
    ref = richardson(*intensities)
    peak = float(np.max(ref))
    fine = intensities[1] / float(np.max(intensities[1]))
    return {"tau": spec["tau"], "spec_bandwidth": spec["spec_bandwidth"],
            "detunings": detunings.tolist(), "values": (ref / peak).tolist(),
            "abs_uncertainty": float(np.max(np.abs(ref / peak - fine))),
            "nodes": [len(g) for g in nested_grids(params, SPECTRUM_STEP)]}


def main(argv):
    recipe = {
        "integrator": {"rel_tol": REF_INTEGRATOR.rel_tol, "abs_tol": REF_INTEGRATOR.abs_tol},
        "horizon_lifetimes": HORIZON_LIFETIMES,
        "g2_step": G2_STEP,
        "spectrum_step": SPECTRUM_STEP,
        "extrapolation": "Richardson on nested graded grids (h, h/2)",
        "script": "perfbench/make_references.py",
    }
    compute = {"g2": (workloads.g2_points, g2_point), "spectrum": (workloads.spectra, spectrum_curve)}
    for which in argv[1:] or list(REFERENCES):
        inputs, solve = compute[which]
        entries = []
        for item in inputs():
            start = time.perf_counter()
            entries.append(solve(item))
            print(which, item["tau"], item.get("gamma", ""), entries[-1]["nodes"],
                  f"{time.perf_counter() - start:.1f}s", flush=True)
        with open(os.path.join(HERE, REFERENCES[which]), "w") as fh:
            json.dump({"recipe": recipe, which: entries}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv)
