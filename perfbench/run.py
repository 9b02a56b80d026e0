#!/usr/bin/env python3
"""photonpurity benchmark: drives the public CLI in-process on one workload.

    python3 perfbench/run.py --workload {g2_sweep,spectrum,hbt} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from ./src.
BLAS, OpenMP and MKL are pinned to one thread through the environment before
numpy loads.  With --trace 0 the run prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced pass (after an untraced pass of
the same dataset, whose time gives the tracing overhead).  The last line of
standard output is one JSON object; diagnostics go to standard error.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
# Set-up probes per run: half before the timed passes and half after them, so
# that the median samples two phases of the machine's speed.
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "g2_max_rel_err": "ratio",
    "spectrum_max_abs_err": "ratio",
    "peak_rss_mb": "MB",
}
# A metric that does not apply to a workload is reported as this constant, so
# that no metric is ever 0; standard error names it as not applicable.
NOT_APPLICABLE = 1.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def import_program():
    """Import photonpurity from the checkout's src/, or exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "photonpurity", "__init__.py")):
        log(f"error: no photonpurity package under {SRC}; run from a source checkout")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import photonpurity

    if not os.path.abspath(photonpurity.__file__).startswith(SRC + os.sep):
        log(f"error: imported photonpurity from {photonpurity.__file__}, not {SRC}")
        sys.exit(2)
    return photonpurity


def warm_up(workload):
    """One small call along the workload's path (imports, BLAS, lazy set-up)."""
    import math

    import numpy as np
    from photonpurity import cli, correlations, dynamics, photostream
    from photonpurity.model import (GaussianPulse, SensorConfig, TwoLevelConfig, attach_sensor,
                                    build_two_level)

    import workloads

    config = {"g2_sweep": "g2_sweep_filter", "spectrum": "spectrum",
              "hbt": "hbt_noise_floor"}[workload]
    cli.load_config(os.path.join(workloads.CONFIGS, f"{config}.yaml"))
    if workload == "hbt":
        clicks = photostream.synthesize_stream(photostream.StreamConfig(n_pulses=20_000), 1)
        photostream.estimate_g2(photostream.correlate(*clicks, 5, 30.0))
        return
    system = build_two_level(TwoLevelConfig(), GaussianPulse(math.pi, 0.05))
    grid = np.linspace(0.0, 2.0, 24)
    if workload == "g2_sweep":
        correlations.filtered_g2_zero(system, SensorConfig(0.0, 1.0), grid=grid)
    else:
        extended = [attach_sensor(system, "sigma", SensorConfig(d, 0.2, 1e-3, 2))
                    for d in (-1.0, 0.0, 1.0)]
        dynamics.emission_series(extended, extended[0].output_ops["sensor"], grid)


def probe(workload):
    """Set-up probe: a fresh interpreter imports, loads and warms up, then
    says it is ready."""
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import yaml  # noqa: F401

    import_program()
    warm_up(workload)
    print("ready", flush=True)


def measure_setup(workload, probes):
    """Times from starting a fresh interpreter to its 'ready' line."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.abspath(__file__), "--probe", workload],
                              cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                elapsed = time.perf_counter() - start
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RuntimeError("set-up probe timed out")
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
        times.append(elapsed)
    return times


def blas_info():
    import ctypes
    import glob

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def git_commit():
    """The checkout's commit, or None when the checkout is not a repository.
    The ceiling keeps git from looking for a repository above the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_pass(workload, out, seed, pass_index):
    """Run every CLI command of the workload once; return them timed."""
    from photonpurity import cli

    if os.path.isdir(out):
        shutil.rmtree(out)
    os.makedirs(out)
    commands = workload.commands(out, seed, pass_index)
    start = time.perf_counter()
    for cmd in commands:
        began = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cmd.exit_code = cli.main(cmd.argv)
        except Exception:  # the op fails; the pass goes on
            cmd.error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        cmd.seconds = time.perf_counter() - began
    return commands, time.perf_counter() - start


def end_to_end(passes, setup_s, rss_mb):
    """passes: [(wall seconds, Outcome)].  The pass time is the median over
    passes, an error the largest of any pass."""
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(wall for wall, _ in passes),
        "peak_rss_mb": rss_mb,
    }
    for name in {key for _, o in passes for key in o.errors}:
        values = [o.errors[name] for _, o in passes if o.errors.get(name) is not None]
        if values:
            metrics[name] = max(values)
    missing = [name for name in END_TO_END_UNITS if name not in metrics]
    if missing:
        log("not applicable on this workload (reported as 1):", ", ".join(missing))
    return {name: {"value": metrics.get(name, NOT_APPLICABLE), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        probe(args.probe)
        return 0
    import_program()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    references = {}
    for name in ("references_g2.json", "references_spectrum.json"):
        with open(os.path.join(HERE, name)) as fh:
            references.update(json.load(fh))
    workload = workloads.WORKLOADS[args.workload](references)
    log("environment:", json.dumps(environment(args.seed)))

    probes = [] if args.trace else measure_setup(workload.name, SETUP_PROBES // 2)
    warm_up(workload.name)

    run_dir = os.path.join(SCRATCH, f"{workload.name}-{os.getpid()}")
    try:
        out = os.path.join(run_dir, "out")
        passes = []
        tracer = None
        while True:
            if args.trace and passes:
                import tracing

                tracer = tracing.Tracer().install()
            try:
                commands, wall = run_pass(workload, out, args.seed, len(passes))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            try:
                outcome = workload.evaluate(commands, out)
            except (OSError, ValueError, KeyError, IndexError) as err:  # missing or malformed
                outcome = workloads.Outcome(
                    [workloads.Op("outputs", False, f"unreadable output: {err!r}")], {})
            passes.append((wall, outcome))
            for cmd in commands:
                log(f"  {cmd.name}: exit {cmd.exit_code} in {cmd.seconds:.3f} s {cmd.error}")
            for op in outcome.ops:
                log(f"  {'ok  ' if op.ok else 'FAIL'} {op.name}: {op.detail}")
            if args.trace:
                if tracer is not None:
                    break
                continue
            spent = sum(w for w, _ in passes)
            if spent + wall > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = [op for _, o in passes for op in o.ops]
    failed = sum(not op.ok for op in ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        metrics = layer_metrics(tracer, passes, workload, args.seed)
    else:
        probes += measure_setup(workload.name, SETUP_PROBES - len(probes))
        log("set-up probes (s):", " ".join(f"{t:.3f}" for t in probes))
        metrics = end_to_end(passes, statistics.median(probes), rss_mb)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


# Per-layer metrics the run adds to the tracer's own.
RUN_LAYER_METRICS = {
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer, passes, workload, seed):
    """The tracer's metrics and the run's own.  A metric that does not apply
    is reported as NOT_APPLICABLE, and its trace note says why.  The overhead
    is measured, not clamped: on a machine whose speed drifts between the two
    passes it can come out 0 or negative."""
    (untraced, _), (traced, _) = passes
    values = tracer.layer_metrics()
    measured = {
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced,
    }
    values.update({name: (measured[name], unit) for name, unit in RUN_LAYER_METRICS.items()})
    for name, note in tracer.notes.items():
        log(f"trace note: {name}: {note}")
    values = {name: (NOT_APPLICABLE if value is None else value, unit)
              for name, (value, unit) in values.items()}
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, f"spans-{workload.name}-seed{seed}.json")
    tracer.write_spans(path)
    log("spans written to", path)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


if __name__ == "__main__":
    sys.exit(main())
