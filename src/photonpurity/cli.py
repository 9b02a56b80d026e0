"""Command-line front end: regenerate every theory curve and supplement
analysis as CSV/JSON data files from declarative configs.

Subcommands: g2map, spectrum, sweep-pulse, sweep-filter, sweep-fourlevel,
hbt-sim, analyze-histogram, fit-lifetime.  Each run writes its outputs plus a
metadata JSON with the resolved value of every key the command reads (the
RunConfig table) and nothing else; reruns with the same metadata reproduce
the files byte for byte.  A key or flag that the command does not read is a
configuration error.  Defaults mirror the figure parameters so a bare
invocation reproduces the corresponding dataset.

Exit codes: 0 success, 2 bad configuration, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from . import __version__, analysis, correlations, dynamics, photostream
from .model import (
    BiexcitonConfig,
    EXCITON_V_ONLY,
    GaussianPulse,
    SensorConfig,
    TwoLevelConfig,
    build_biexciton,
    build_two_level,
)

ENV_OUTDIR = "PHOTONPURITY_OUTDIR"


class ConfigError(ValueError):
    pass


class EstimationError(RuntimeError):
    """The coincidence histogram cannot be normalized (empty side peaks)."""


# The commands of each config key.  Every command takes --jobs, which
# perfbench/workloads.py passes to each; only the sweeps read it.
_SWEEPS = ("sweep-pulse", "sweep-filter", "sweep-fourlevel")
_THEORY = ("g2map", "spectrum", *_SWEEPS)
_ALL = (*_THEORY, "hbt-sim", "analyze-histogram", "fit-lifetime")


def _key(default, commands, key=None, flags=()):
    """A RunConfig field with its `default`, the `commands` that read it, its
    config key (the field name when None; dotted inside a section) and its
    command-line flags, (flag, add_argument keywords) pairs."""
    value = {"default_factory": dict} if default == {} else {"default": default}
    return field(**value, metadata={"commands": commands, "key": key, "flags": flags})


@dataclass
class RunConfig:
    """Resolved run configuration.  Each field names the commands that read
    it; a command's metadata JSON records those fields and no others."""

    system: str | None = _key(None, _THEORY)
    gamma_sigma: float = _key(1.0, _THEORY)
    detuning: float = _key(0.0, ("g2map", "spectrum", "sweep-pulse", "sweep-filter"))
    binding_energy: float = _key(300.0, ("spectrum", *_SWEEPS))
    pulse_area_pi: float = _key(1.0, _THEORY, "pulse.area_pi")
    pulse_length: float = _key(0.05, ("g2map",), "pulse.length")
    sensor_detuning: float | None = _key(None, ("spectrum", *_SWEEPS), "sensor.detuning")
    epsilon: float | None = _key(None, _SWEEPS, "sensor.coupling", (
        ("--epsilon", {"type": float, "help": "sensor coupling override"}),))
    truncation: int = _key(2, _SWEEPS, "sensor.truncation")
    # sweep_min, sweep_max, sweep_points and pulse_lengths left None take
    # the command's defaults (resolve)
    sweep_min: float | None = _key(None, _SWEEPS, "sweep.min")
    sweep_max: float | None = _key(None, _SWEEPS, "sweep.max")
    sweep_points: int | None = _key(None, _SWEEPS, "sweep.points")
    sweep_log: bool = _key(True, _SWEEPS, "sweep.scale")
    pulse_lengths: tuple | None = _key(None, ("spectrum", "sweep-filter", "sweep-fourlevel"))
    filter_widths: tuple = _key((0.1, 1.0, 20.0), ("sweep-pulse",))
    spec_bandwidth: float = _key(0.2, ("spectrum",))
    detuning_span: float = _key(40.0, ("spectrum",))
    detuning_points: int = _key(161, ("spectrum",))
    grid_points: int | None = _key(None, ("g2map",))
    integrator: dict = _key({}, _THEORY)
    check_convergence: bool = _key(True, _SWEEPS, flags=(
        ("--check-convergence", {"action": "store_true", "default": None}),
        ("--no-check-convergence", {"action": "store_false", "default": None})))
    stream: dict = _key({}, ("hbt-sim",))
    rep_period: float = _key(13.1, ("analyze-histogram",))
    window: float = _key(6.5, ("hbt-sim", "analyze-histogram"))
    bin_width: int = _key(5, ("hbt-sim",))
    span: float = _key(30.0, ("hbt-sim",))
    excluded_peaks: tuple = _key((), ("hbt-sim", "analyze-histogram"))
    seed: int = _key(2024, ("hbt-sim",), flags=(("--seed", {"type": int, "help": "random seed"}),))
    jobs: int = _key(0, _SWEEPS, flags=(
        ("--jobs", {"type": int, "help": "worker processes for sweep points"}),))
    out: str | None = _key(None, _ALL, flags=(
        ("--out", {"help": f"output directory (default ${ENV_OUTDIR} or ./out)"}),))

    def resolve(self, command=None):
        """Fill the fields left None with `command`'s defaults."""
        defaults = {**_DEFAULTS, **_COMMAND_DEFAULTS.get(command, {})}
        for name, value in defaults.items():
            if getattr(self, name) is None:
                setattr(self, name, value)
        return self

    def validate(self):
        checks = [
            (self.system in ("two_level", "biexciton"), "system", "must be two_level or biexciton"),
            (self.gamma_sigma > 0, "gamma_sigma", "must be > 0"),
            (self.pulse_length > 0, "pulse.length", "must be > 0"),
            (self.pulse_area_pi >= 0, "pulse.area_pi", "must be >= 0"),
            (self.epsilon is None or self.epsilon > 0, "sensor.coupling", "must be > 0"),
            (self.truncation >= 2, "sensor.truncation", "must be >= 2"),
            (_integer_at_least(self.sweep_points, 2), "sweep.points", "must be an integer >= 2"),
            (self.grid_points is None or _integer_at_least(self.grid_points, 2),
             "grid_points", "must be an integer >= 2"),
            (self.sweep_min > 0, "sweep.min", "must be > 0"),
            (self.sweep_max > self.sweep_min, "sweep.max", "must exceed sweep.min"),
            (self.spec_bandwidth > 0, "spec_bandwidth", "must be > 0"),
            (self.detuning_span > 0, "detuning_span", "must be > 0"),
            (_integer_at_least(self.detuning_points, 2), "detuning_points",
             "must be an integer >= 2"),
            (self.window > 0, "window", "must be > 0"),
            (_integer_at_least(self.bin_width, 1), "bin_width", "must be an integer >= 1 (ps)"),
            (_positive_numbers(self.pulse_lengths), "pulse_lengths",
             "must be a non-empty list of numbers > 0"),
            (_positive_numbers(self.filter_widths), "filter_widths",
             "must be a non-empty list of numbers > 0"),
            (isinstance(self.excluded_peaks, (tuple, list)), "excluded_peaks",
             "must be a list of numbers"),
            (_integer_at_least(self.seed, 0), "seed", "must be an integer >= 0"),
            (_integer_at_least(self.jobs, 0), "jobs", "must be an integer >= 0"),
            (isinstance(self.check_convergence, bool), "check_convergence",
             "must be true or false"),
            (self.out is None or isinstance(self.out, str), "out", "must be a string"),
        ]
        for ok, path, msg in checks:
            if not ok:
                raise ConfigError(f"{path}: {msg}")
        return self


def _integer_at_least(value, least):
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _positive_numbers(values):
    return isinstance(values, (tuple, list)) and len(values) > 0 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0 for v in values)


# Defaults of the fields RunConfig leaves None, and what each sweep command
# sets differently.
_DEFAULTS = {"system": "two_level", "sweep_min": 0.05, "sweep_max": 100.0,
             "sweep_points": 13, "pulse_lengths": (0.02, 0.05, 0.2)}
_COMMAND_DEFAULTS = {
    "sweep-fourlevel": {"system": "biexciton", "sweep_min": 0.5, "sweep_max": 20.0,
                        "sweep_points": 9, "pulse_lengths": (0.01, 0.02)},
    "sweep-pulse": {"sweep_min": 0.02, "sweep_max": 1.5, "sweep_points": 10},
}

_FIELDS = {f.name: f for f in fields(RunConfig)}
_KEYS = {f.metadata["key"] or name: name for name, f in _FIELDS.items()}  # config key: field
_SECTIONS = {key.split(".")[0] for key in _KEYS if "." in key}
_INTEGRATOR_KEYS = {f.name for f in fields(dynamics.IntegratorConfig)}


def _reads(command):
    """The RunConfig fields that `command` reads; every field for None."""
    return [name for name, f in _FIELDS.items()
            if command is None or command in f.metadata["commands"]]


def _kind(name):
    """The type of RunConfig field `name` ("float" for float | None), which
    sets how its config value is checked."""
    return _FIELDS[name].type.split(" ")[0]


def _check_number(path, value):
    """A config number is an int or a finite float.  YAML 1.1 reads 1e-3 (no
    dot) and 1.0e5 (no exponent sign) as strings, and .nan and .inf as
    floats."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: {value!r} is not a number")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: {value!r} is not a finite number")


def _check_value(path, value, listed=False):
    """Check a number or, if `listed`, each entry of a list of numbers; None
    leaves a field at its default."""
    if listed and isinstance(value, list):
        for i, item in enumerate(value):
            _check_number(f"{path}[{i}]", item)
    elif value is not None:
        _check_number(path, value)


def _set(cfg: RunConfig, key, name, value):
    """Check `value` of config key `key` by the kind of RunConfig field `name`
    and set the field."""
    kind = _kind(name)
    if kind == "dict":
        if not isinstance(value, dict):
            raise ConfigError(f"{key}: must be a mapping, got {value!r}")
        for sub, item in value.items() if key == "integrator" else ():
            if sub not in _INTEGRATOR_KEYS:
                raise ConfigError(f"integrator.{sub}: unknown configuration key")
            _check_number(f"integrator.{sub}", item)
        value = dict(value)
    elif key == "sweep.scale":
        if value not in ("log", "linear"):
            raise ConfigError(f"sweep.scale: must be log or linear, got {value!r}")
        value = value == "log"
    elif kind in ("float", "int", "tuple"):
        _check_value(key, value, listed=kind == "tuple")
        value = tuple(value) if isinstance(value, list) else value
    setattr(cfg, name, value)


def load_config(path=None, overrides=None, command=None) -> RunConfig:
    """RunConfig from a YAML file and overrides (by field name), with
    `command`'s defaults.  A key that `command` does not read is a
    ConfigError; with no command every key is read."""
    cfg = RunConfig()
    data = {}
    if path is not None:
        with open(path) as fh:
            try:
                data = yaml.safe_load(fh) or {}
            except yaml.YAMLError as err:
                raise ConfigError(f"config: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError("config: must be a mapping of keys to values")
    reads = _reads(command)
    for top, value in data.items():
        entries = [(top, value)]
        if top in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"{top}: must be a mapping, got {value!r}")
            entries = [(f"{top}.{name}", item) for name, item in value.items()]
        for key, item in entries:
            if _KEYS.get(key) not in reads:
                raise ConfigError(f"{key}: unknown configuration key for "
                                  f"{command or 'any command'}")
            _set(cfg, key, _KEYS[key], item)
    for name, value in (overrides or {}).items():
        if value is not None:
            if _kind(name) in ("float", "int"):
                _check_number(f"--{name}", value)
            setattr(cfg, name, value)
    try:
        return cfg.resolve(command).validate()
    except TypeError as err:  # e.g. a string where a number belongs
        raise ConfigError(f"config: value of the wrong type ({err})") from err


def integrator_config(cfg: RunConfig) -> dynamics.IntegratorConfig:
    try:
        return dynamics.IntegratorConfig(**cfg.integrator)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"integrator: {err}") from err


def _system_builder(cfg: RunConfig):
    if cfg.system == "two_level":
        two = TwoLevelConfig(decay_rate=cfg.gamma_sigma, detuning=cfg.detuning)
        return lambda pulse: build_two_level(two, pulse)
    bi = BiexcitonConfig(decay_rate=cfg.gamma_sigma, binding_energy=cfg.binding_energy)
    return lambda pulse: build_biexciton(bi, pulse)


def _observed(cfg: RunConfig):
    return "sigma" if cfg.system == "two_level" else EXCITON_V_ONLY


def _default_sensor_detuning(cfg: RunConfig):
    if cfg.sensor_detuning is not None:
        return cfg.sensor_detuning
    return 0.0 if cfg.system == "two_level" else cfg.binding_energy / 2.0


def _outdir(cfg: RunConfig):
    out = cfg.out if cfg.out is not None else os.environ.get(ENV_OUTDIR, "out")
    os.makedirs(out, exist_ok=True)
    return out


def _metadata(cfg: RunConfig, command, extra=None):
    return {"tool": "photonpurity", "version": __version__, "command": command,
            "config": {name: getattr(cfg, name) for name in _reads(command)}, **(extra or {})}


def cmd_g2map(cfg: RunConfig):
    """Two-time correlation map of the bare two-level emission."""
    if cfg.system != "two_level":
        raise ConfigError("system: g2map expects the two_level system")
    out = _outdir(cfg)
    system = _system_builder(cfg)(GaussianPulse(cfg.pulse_area_pi * math.pi, cfg.pulse_length))
    grid = correlations.map_grid(system)
    if cfg.grid_points:
        grid = np.linspace(0.0, grid[-1], cfg.grid_points)
    cg = dynamics.two_time_g2_map(system, "sigma", grid, cfg=integrator_config(cfg))
    path = os.path.join(out, "g2map.csv")
    cg.to_csv(path)
    correlations.write_metadata(
        os.path.join(out, "g2map_metadata.json"),
        _metadata(cfg, "g2map", {"grid_points": len(grid), "horizon": float(grid[-1])}),
    )
    return [path]


def cmd_spectrum(cfg: RunConfig):
    """Spectral profiles for the configured pulse lengths."""
    out = _outdir(cfg)
    builder = _system_builder(cfg)
    center = _default_sensor_detuning(cfg)
    detunings = center + np.linspace(-cfg.detuning_span, cfg.detuning_span, cfg.detuning_points)
    paths = []
    for tau in cfg.pulse_lengths:
        system = builder(GaussianPulse(cfg.pulse_area_pi * math.pi, float(tau)))
        res = correlations.spectrum(
            system, _observed(cfg), detunings, cfg.spec_bandwidth, integrator_config(cfg)
        )
        path = os.path.join(out, f"spectrum_tau{tau:g}.csv")
        correlations.write_spectrum_csv(path, res)
        paths.append(path)
    correlations.write_metadata(
        os.path.join(out, "spectrum_metadata.json"),
        _metadata(cfg, "spectrum", {"detuning_center": center}),
    )
    return paths


def _run_sweep(cfg: RunConfig, command):
    """A filtered-g2 sweep over one sweep_grid: the sweep axis is the filter
    width (one curve per pulse length, the grid's rows) or, for sweep-pulse,
    the pulse length (one curve per filter width, its columns).  Every pulse
    is one batch; --jobs spreads the pulses over worker processes.  The
    files are named after the subcommand `command` with "_" for "-"."""
    out = _outdir(cfg)
    axis = (np.geomspace if cfg.sweep_log else np.linspace)(cfg.sweep_min, cfg.sweep_max,
                                                            cfg.sweep_points)
    prefix = command.replace("-", "_")
    sweep_pulse = command == "sweep-pulse"
    taus, widths = (axis, cfg.filter_widths) if sweep_pulse else (cfg.pulse_lengths, axis)
    grid = correlations.sweep_grid(
        _system_builder(cfg), taus, widths,
        theta=cfg.pulse_area_pi * math.pi, cfg=integrator_config(cfg), observed=_observed(cfg),
        sensor=SensorConfig(_default_sensor_detuning(cfg), 1.0, cfg.epsilon, cfg.truncation),
        check_convergence=cfg.check_convergence, jobs=cfg.jobs or os.cpu_count() or 1,
    )
    if sweep_pulse:
        curves = {f"gamma{float(w):g}": [row[j] for row in grid] for j, w in enumerate(widths)}
    else:
        curves = {f"tau{float(tau):g}": row for tau, row in zip(taus, grid)}
    paths = []
    for key, stats in curves.items():
        path = os.path.join(out, f"{prefix}_{key}.csv")
        correlations.write_sweep_csv(path, axis, stats)
        paths.append(path)
    correlations.write_metadata(os.path.join(out, f"{prefix}_metadata.json"),
                                _metadata(cfg, command))
    return paths


def cmd_sweep_filter(cfg: RunConfig):
    """g2 versus filter width for the two-level system."""
    return _run_sweep(cfg, "sweep-filter")


def cmd_sweep_fourlevel(cfg: RunConfig):
    """g2 versus filter width for the exciton line of the cascade."""
    if cfg.system != "biexciton":
        raise ConfigError("system: sweep-fourlevel expects the biexciton system")
    return _run_sweep(cfg, "sweep-fourlevel")


def cmd_sweep_pulse(cfg: RunConfig):
    """g2 versus pulse length, one curve per filter width."""
    return _run_sweep(cfg, "sweep-pulse")


def _stream_config(cfg: RunConfig) -> photostream.StreamConfig:
    stream = dict(cfg.stream)
    for key, value in stream.items():
        if key != "blinking":
            _check_number(f"stream.{key}", value)
    if not isinstance(stream.get("n_pulses", 0), int):
        raise ConfigError(f"stream.n_pulses: {stream['n_pulses']!r} is not an integer")
    stream.setdefault("n_pulses", 1_000_000)
    blink = stream.pop("blinking", None)
    if blink:
        if not isinstance(blink, dict) or not isinstance(blink.get("frequencies"), list):
            raise ConfigError(f"stream.blinking: {blink!r} must be a mapping with a list "
                              "of frequencies")
        for name, value in blink.items():
            if name not in ("frequencies", "depth"):
                raise ConfigError(f"stream.blinking.{name}: unknown configuration key")
            _check_value(f"stream.blinking.{name}", value, listed=name == "frequencies")
    try:
        if blink:
            stream["blinking"] = photostream.BlinkingConfig(
                frequencies=tuple(blink["frequencies"]), depth=blink.get("depth", 0.5)
            )
        return photostream.StreamConfig(**stream)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"stream: {err!r}") from err


def _check_window(rep_period, window, span, what):
    """The peak-sum windows must fit: window <= rep_period and a span that
    covers the side peaks, rep_period + window / 2."""
    if window > rep_period:
        raise ConfigError(f"window: {window} ns exceeds the repetition period {rep_period} ns")
    if span < rep_period + window / 2.0:
        raise ConfigError(f"{what}: {span:g} ns does not cover rep_period + window / 2 "
                          f"= {rep_period + window / 2.0:g} ns")


def _estimate(hist, rep_period, cfg: RunConfig):
    try:
        return photostream.estimate_g2(hist, rep_period, cfg.window, cfg.excluded_peaks)
    except ValueError as err:  # the windows were checked: the side peaks are empty
        raise EstimationError(str(err)) from err


def cmd_hbt(cfg: RunConfig):
    """Synthesize a photon stream, correlate it and estimate g2."""
    stream_cfg = _stream_config(cfg)
    _check_window(stream_cfg.rep_period, cfg.window, cfg.span, "span")
    out = _outdir(cfg)
    clicks1, clicks2 = photostream.synthesize_stream(stream_cfg, cfg.seed)
    try:
        hist = photostream.correlate(clicks1, clicks2, cfg.bin_width, cfg.span)
    except photostream.HistogramTooLarge as err:
        raise ConfigError(str(err)) from err
    n_clicks = [int(len(clicks1)), int(len(clicks2))]
    del clicks1, clicks2  # not held while the histogram is written
    hist_path = os.path.join(out, "hbt_histogram.csv")
    hist.to_csv(hist_path)
    estimate = _estimate(hist, stream_cfg.rep_period, cfg)
    est_path = os.path.join(out, "hbt_estimate.json")
    estimate.to_json(est_path)
    ks, sums = photostream.peak_sums(hist, stream_cfg.rep_period, cfg.window)
    sums_path = os.path.join(out, "hbt_peak_sums.csv")
    photostream._write_int_csv(sums_path, "peak_index,summed_counts", ks, sums)
    correlations.write_metadata(
        os.path.join(out, "hbt_metadata.json"),
        _metadata(cfg, "hbt-sim", {
            "stream": {**vars(stream_cfg),
                       "blinking": stream_cfg.blinking and vars(stream_cfg.blinking)},
            "clicks": n_clicks,
        }),
    )
    return [hist_path, est_path, sums_path]


def cmd_analyze_histogram(cfg: RunConfig, data):
    """Peak-sum analysis of an existing histogram CSV."""
    try:
        hist = photostream.read_histogram_csv(data)
    except photostream.MalformedHistogram as err:
        raise ConfigError(f"data: {err}") from err
    _check_window(cfg.rep_period, cfg.window, hist.span, "data: histogram span")
    out = _outdir(cfg)
    estimate = _estimate(hist, cfg.rep_period, cfg)
    est_path = os.path.join(out, "histogram_estimate.json")
    estimate.to_json(est_path)
    ks, sums = photostream.peak_sums(hist, cfg.rep_period, cfg.window)
    freqs, amp = photostream.peak_sum_spectrum(ks, sums, cfg.rep_period)
    spec_path = os.path.join(out, "peak_sum_spectrum.csv")
    with open(spec_path, "w") as fh:
        fh.write("frequency_mhz,amplitude\n")
        for f, a in zip(freqs, amp):
            fh.write(f"{f:.9g},{a:.9g}\n")
    correlations.write_metadata(
        os.path.join(out, "histogram_metadata.json"),
        _metadata(cfg, "analyze-histogram", {"data": str(data)}),
    )
    return [est_path, spec_path]


def cmd_fit_lifetime(cfg: RunConfig, data, which):
    """Fit decay data (CSV time_ps, counts) with the IRF-blurred cascade model."""
    try:
        times, counts = analysis.read_decay_csv(data)
    except analysis.MalformedDecay as err:
        raise ConfigError(f"data: {err}") from err
    out = _outdir(cfg)
    init = analysis.initial_cascade_guess(times, counts, which)
    result = analysis.fit_lifetimes(times, counts, init, which)
    fit_path = os.path.join(out, "lifetime_fit.json")
    result.to_json(fit_path)
    correlations.write_metadata(
        os.path.join(out, "lifetime_fit_metadata.json"),
        _metadata(cfg, "fit-lifetime", {"data": str(data), "which": which}),
    )
    return [fit_path]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="photonpurity",
        description="Frequency-filtered photon statistics of pulsed quantum emitters",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in _COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__.splitlines()[0])
        p.add_argument("--config", help="YAML run configuration")
        for name, f in _FIELDS.items():
            if command in f.metadata["commands"] or name == "jobs":  # see _SWEEPS
                for flag, options in f.metadata["flags"]:
                    p.add_argument(flag, dest=name, **options)
    for p in (sub.choices["analyze-histogram"], sub.choices["fit-lifetime"]):
        p.add_argument("--data", required=True)
    sub.choices["fit-lifetime"].add_argument(
        "--which", choices=("biexciton", "exciton"), default="exciton")
    return parser


_COMMANDS = {
    "g2map": cmd_g2map,
    "spectrum": cmd_spectrum,
    "sweep-pulse": cmd_sweep_pulse,
    "sweep-filter": cmd_sweep_filter,
    "sweep-fourlevel": cmd_sweep_fourlevel,
    "hbt-sim": cmd_hbt,
    "analyze-histogram": cmd_analyze_histogram,
    "fit-lifetime": cmd_fit_lifetime,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {name: getattr(args, name) for name in _reads(args.command)
                 if getattr(args, name, None) is not None}
    extra = {name: getattr(args, name) for name in ("data", "which") if name in args}
    try:
        cfg = load_config(args.config, overrides, args.command)
        paths = _COMMANDS[args.command](cfg, **extra)
    except (ConfigError, OSError) as err:  # OSError: a path from the config or the flags
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (correlations.NotConverged, correlations.ZeroEmission,
            correlations.SweepPointError, dynamics.StepSizeUnderflow, EstimationError,
            analysis.NonConvergence, analysis.IllConditioned) as err:
        print(f"convergence failure: {err}", file=sys.stderr)
        return 3
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
