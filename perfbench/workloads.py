"""The benchmark's workloads: committed CLI configs, the points and curves they
must produce, and the stream seeds made from the workload seed."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "configs")


def load(name):
    with open(os.path.join(CONFIGS, f"{name}.yaml")) as fh:
        return yaml.safe_load(fh)


def sweep_axis(cfg):
    sweep = cfg["sweep"]
    space = np.geomspace if sweep.get("scale", "log") == "log" else np.linspace
    return space(sweep["min"], sweep["max"], sweep["points"])


def g2_points():
    """Every filtered-g2 point `g2_sweep` computes, in CLI order."""
    points = []
    tls = load("g2_sweep_filter")
    for tau in tls["pulse_lengths"]:
        for gamma in sweep_axis(tls):
            points.append({"command": "sweep_filter", "system": "two_level",
                           "area_pi": tls["pulse"]["area_pi"], "tau": float(tau),
                           "gamma": float(gamma), "sensor_detuning": 0.0,
                           "binding_energy": None})
    four = load("g2_sweep_fourlevel")
    for tau in four["pulse_lengths"]:
        for gamma in sweep_axis(four):
            points.append({"command": "sweep_fourlevel", "system": "biexciton",
                           "area_pi": four["pulse"]["area_pi"], "tau": float(tau),
                           "gamma": float(gamma),
                           "sensor_detuning": four["binding_energy"] / 2.0,
                           "binding_energy": four["binding_energy"]})
    return points


def spectra():
    """Every spectrum `spectrum` computes: one per pulse length."""
    cfg = load("spectrum")
    span, n = cfg["detuning_span"], cfg["detuning_points"]
    detunings = np.linspace(-span, span, n).tolist()
    return [{"tau": float(tau), "area_pi": cfg["pulse"]["area_pi"],
             "spec_bandwidth": cfg["spec_bandwidth"], "detunings": detunings}
            for tau in cfg["pulse_lengths"]]


# -- tolerances of the correctness checks ------------------------------------
G2_REL_TOL = 5e-3          # the program's own epsilon-convergence gate
SPECTRUM_ABS_TOL = 1e-3    # of the peak-normalized lineshape
# Each tail of the Poisson test of a center-peak count is held to the one-sided
# tail of a 4-sigma normal interval.
HBT_TAIL_P = 3.17e-5
NOISE_RATIO = 3400.0       # signal : background counts of the noise-floor run
BLINK_MHZ = 1.0


@dataclass
class Op:
    """One checked operation: a g2 point, a spectrum, an HBT estimate or the
    blinking-line detection."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Command:
    """One CLI invocation of a pass."""

    name: str
    argv: list
    exit_code: int | None = None
    error: str = ""
    seconds: float = 0.0

    @property
    def ok(self):
        return self.exit_code == 0


def relative_errors(values, refs):
    values, refs = np.asarray(values, dtype=float), np.asarray(refs, dtype=float)
    return np.abs(values - refs) / np.abs(refs)


def check_g2(values, refs):
    """Per point: is |g2 - ref| / ref within the tolerance?"""
    return relative_errors(values, refs) <= G2_REL_TOL


def spectrum_error(values, ref):
    return float(np.max(np.abs(np.asarray(values) - np.asarray(ref))))


def check_spectrum(values, ref):
    return spectrum_error(values, ref) <= SPECTRUM_ABS_TOL


def check_estimate(estimate, expected):
    """Is the center-peak count of an `hbt_estimate.json` payload a plausible
    Poisson draw for a source whose true g2 is `expected`?  Its mean is
    `expected` times the mean side peak.  (The estimate's own sigma comes from
    the observed count, which shrinks with a low draw, so it cannot be used
    to test the draw.)"""
    from scipy.stats import poisson  # only here: its import costs 0.5 s and 20 MB

    mean = expected * 0.5 * sum(estimate["side_sums"])
    count = estimate["center_sum"]
    return bool(poisson.cdf(count, mean) >= HBT_TAIL_P
                and poisson.sf(count - 1, mean) >= HBT_TAIL_P)


def noise_floor_expectation():
    """Background-limited g2 of a perfect single-photon source: signal-noise
    and noise-noise coincidences over signal-signal ones."""
    return 2.0 / NOISE_RATIO + 1.0 / NOISE_RATIO**2


def check_blinking_line(freqs_mhz, amplitudes):
    """Is the strongest nonzero-frequency line within one bin of BLINK_MHZ?"""
    freqs_mhz, amplitudes = np.asarray(freqs_mhz), np.asarray(amplitudes)
    peak = 1 + int(np.argmax(amplitudes[1:]))
    return abs(freqs_mhz[peak] - BLINK_MHZ) <= freqs_mhz[1] - freqs_mhz[0]


# -- stream seeds made from the workload seed --------------------------------
def stream_seeds(seed, pass_index):
    """Independent integer seeds for the two photon streams of one pass."""
    return [int(s) for s in np.random.SeedSequence([seed, pass_index]).generate_state(2)]


# -- the workloads ------------------------------------------------------------
@dataclass
class Outcome:
    """What a pass produced: its checked operations and its errors against
    the references."""

    ops: list
    errors: dict


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_columns(path, columns):
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=columns, ndmin=2).T


def _cli(name, config, out, *extra):
    argv = [name, "--config", os.path.join(CONFIGS, f"{config}.yaml"), "--out", out,
            "--jobs", "1", *extra]
    return Command(name, argv)


def verify_sweep_outputs(config, out, command):
    """Problems with a sweep's outputs against the committed config: the
    resolved config in `<command>_metadata.json` and the written curves must
    be the sweep the config names, not one the CLI substituted."""
    cfg = load(config)
    meta = _read_json(os.path.join(out, f"{command}_metadata.json"))["config"]
    sweep = cfg["sweep"]
    expected = {"sweep_min": sweep["min"], "sweep_max": sweep["max"],
                "sweep_points": sweep["points"],
                "sweep_log": sweep.get("scale", "log") == "log",
                "pulse_lengths": list(cfg["pulse_lengths"])}
    problems = [f"metadata {key}={meta[key]!r}, config says {value!r}"
                for key, value in expected.items()
                if (list(meta[key]) if key == "pulse_lengths" else meta[key]) != value]
    wanted = {f"{command}_tau{tau:g}.csv" for tau in cfg["pulse_lengths"]}
    written = {f for f in os.listdir(out) if f.startswith(f"{command}_tau")}
    if written != wanted:
        problems.append(f"curves written {sorted(written)}, config names {sorted(wanted)}")
    for name in sorted(wanted & written):
        (axis,) = _read_columns(os.path.join(out, name), (0,))
        if len(axis) != sweep["points"] or not np.allclose(axis, sweep_axis(cfg), rtol=1e-8):
            problems.append(f"{name}: axis {axis.tolist()} is not the configured sweep")
    return problems


class G2Sweep:
    """Filtered-g2 points through `sweep-filter` and `sweep-fourlevel`."""

    name = "g2_sweep"
    SWEEPS = (("sweep-filter", "sweep_filter", "g2_sweep_filter"),
              ("sweep-fourlevel", "sweep_fourlevel", "g2_sweep_fourlevel"))

    def __init__(self, references):
        self.points = g2_points()
        self.refs = references["g2"]

    def commands(self, out, seed, pass_index):
        return [_cli(cli_name, config, os.path.join(out, command))
                for cli_name, command, config in self.SWEEPS]

    def evaluate(self, commands, out):
        ops, errors = [], []
        for (_, command, config), cmd in zip(self.SWEEPS, commands):
            points = [p for p in self.points if p["command"] == command]
            where = os.path.join(out, command)
            problems = [_failure(cmd)] if not cmd.ok else \
                verify_sweep_outputs(config, where, command)
            if problems:
                ops += [Op(_point_name(p), False, "; ".join(problems)) for p in points]
                continue
            cfg = load(config)
            values = np.concatenate([
                _read_columns(os.path.join(where, f"{command}_tau{tau:g}.csv"), (1,))[0]
                for tau in cfg["pulse_lengths"]])
            for p, value in zip(points, values):
                ref = self._reference(p)
                if ref is None:
                    ops.append(Op(_point_name(p), False, "no reference for this point"))
                    continue
                err = float(relative_errors(value, ref["g2"]))
                errors.append(max(err, ref["rel_uncertainty"]))
                ops.append(Op(_point_name(p), bool(check_g2(value, ref["g2"])),
                              f"g2 {value:.8g}, reference {ref['g2']:.8g}, "
                              f"relative error {err:.2e}"))
        return Outcome(ops, {"g2_max_rel_err": max(errors) if errors else None})

    def _reference(self, point):
        for ref in self.refs:
            if ref["system"] == point["system"] and np.isclose(ref["tau"], point["tau"]) \
                    and np.isclose(ref["gamma"], point["gamma"]):
                return ref
        return None


def _point_name(point):
    return f"g2[{point['system']}, tau={point['tau']:g}, Gamma={point['gamma']:.4g}]"


class Spectrum:
    """Emission spectra through `spectrum`: one 161-detuning batch per pulse."""

    name = "spectrum"

    def __init__(self, references):
        self.spectra = spectra()
        self.refs = references["spectrum"]

    def commands(self, out, seed, pass_index):
        return [_cli("spectrum", "spectrum", os.path.join(out, "spectrum"))]

    def evaluate(self, commands, out):
        (cmd,) = commands
        where = os.path.join(out, "spectrum")
        problems = [_failure(cmd)] if not cmd.ok else self._verify(where)
        ops, errors = [], []
        for spec, ref in zip(self.spectra, self.refs):
            name = f"spectrum[tau={spec['tau']:g}]"
            if problems:
                ops.append(Op(name, False, "; ".join(problems)))
                continue
            axis, values = _read_columns(os.path.join(where, f"spectrum_tau{spec['tau']:g}.csv"),
                                         (0, 1))
            if len(axis) != len(ref["detunings"]) or \
                    not np.allclose(axis, ref["detunings"], rtol=1e-8, atol=1e-12):
                ops.append(Op(name, False, "detuning grid is not the configured one"))
                continue
            err = spectrum_error(values, ref["values"])
            errors.append(max(err, ref["abs_uncertainty"]))
            ops.append(Op(name, check_spectrum(values, ref["values"]),
                          f"max abs error {err:.2e}"))
        return Outcome(ops, {"spectrum_max_abs_err": max(errors) if errors else None})

    def _verify(self, where):
        cfg = load("spectrum")
        meta = _read_json(os.path.join(where, "spectrum_metadata.json"))
        got = meta["config"]
        problems = [f"metadata {key}={got[key]!r}, config says {cfg[key]!r}"
                    for key in ("spec_bandwidth", "detuning_span", "detuning_points",
                                "pulse_lengths")
                    if (list(got[key]) if key == "pulse_lengths" else got[key]) != cfg[key]]
        if meta["detuning_center"] != 0.0:
            problems.append(f"detuning center {meta['detuning_center']}, expected 0")
        return problems


class Hbt:
    """The HBT part of the supplement pipeline: a noise-floor and a blinking
    `hbt-sim` run."""

    name = "hbt"

    def __init__(self, references):
        self.blink = load("hbt_blinking")

    def commands(self, out, seed, pass_index):
        noise_seed, blink_seed = stream_seeds(seed, pass_index)
        noise = _cli("hbt-sim", "hbt_noise_floor", os.path.join(out, "noise_floor"),
                     "--seed", str(noise_seed))
        blink = _cli("hbt-sim", "hbt_blinking", os.path.join(out, "blinking"),
                     "--seed", str(blink_seed))
        noise.name, blink.name = "hbt-sim noise floor", "hbt-sim blinking"
        return [noise, blink]

    def evaluate(self, commands, out):
        from photonpurity import photostream

        noise_cmd, blink_cmd = commands
        ops = []
        if noise_cmd.ok:
            est = _read_json(os.path.join(out, "noise_floor", "hbt_estimate.json"))
            expected = noise_floor_expectation()
            ops.append(Op("noise_floor_estimate",
                          check_estimate(est, expected),
                          f"g2 {est['value']:.3g} +- {est['sigma']:.2g} "
                          f"(center count {est['center_sum']}), expected {expected:.3g}"))
        else:
            ops.append(Op("noise_floor_estimate", False, _failure(noise_cmd)))
        where = os.path.join(out, "blinking")
        if blink_cmd.ok:
            est = _read_json(os.path.join(where, "hbt_estimate.json"))
            ops.append(Op("blinking_estimate", check_estimate(est, 0.0),
                          f"g2 {est['value']:.3g} (center count {est['center_sum']}), "
                          "expected 0"))
            ks, sums = _read_columns(os.path.join(where, "hbt_peak_sums.csv"), (0, 1))
            freqs, amp = photostream.peak_sum_spectrum(ks, sums, self.blink.get("rep_period", 13.1))
            line = freqs[1 + int(np.argmax(amp[1:]))]
            ops.append(Op("blinking_line", check_blinking_line(freqs, amp),
                          f"strongest line {line:.3g} MHz"))
        else:
            ops += [Op(name, False, _failure(blink_cmd))
                    for name in ("blinking_estimate", "blinking_line")]
        return Outcome(ops, {})


def _failure(cmd):
    return cmd.error or f"exit code {cmd.exit_code}"


WORKLOADS = {w.name: w for w in (G2Sweep, Spectrum, Hbt)}
