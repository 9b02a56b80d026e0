"""Command-line front end: regenerate every theory curve and supplement
analysis as CSV/JSON data files from declarative configs.

Subcommands: g2map, spectrum, sweep-pulse, sweep-filter, sweep-fourlevel,
hbt-sim, analyze-histogram, fit-lifetime.  Each run writes its outputs plus a
metadata JSON with the fully resolved configuration and seed; reruns with the
same metadata reproduce the files byte for byte.  Defaults mirror the figure
parameters so a bare invocation reproduces the corresponding dataset.

Exit codes: 0 success, 2 bad configuration, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from . import __version__, analysis, correlations, dynamics, photostream
from .model import (
    BiexcitonConfig,
    EXCITON_V_ONLY,
    GaussianPulse,
    ObservationVector,
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


@dataclass
class RunConfig:
    """Resolved run configuration; every field lands in the metadata JSON."""

    system: str | None = None
    gamma_sigma: float = 1.0
    detuning: float = 0.0
    binding_energy: float = 300.0
    pulse_area_pi: float = 1.0
    pulse_length: float = 0.05
    sensor_detuning: float | None = None
    epsilon: float | None = None
    truncation: int = 2
    # sweep_min, sweep_max, sweep_points and pulse_lengths left None take
    # the command's defaults (resolve)
    sweep_min: float | None = None
    sweep_max: float | None = None
    sweep_points: int | None = None
    sweep_log: bool = True
    pulse_lengths: tuple | None = None
    filter_widths: tuple = (0.1, 1.0, 20.0)
    spec_bandwidth: float = 0.2
    detuning_span: float = 40.0
    detuning_points: int = 161
    grid_points: int | None = None
    integrator: dict = field(default_factory=dict)
    check_convergence: bool = True
    stream: dict = field(default_factory=dict)
    rep_period: float = 13.1
    window: float = 6.5
    bin_width: int = 5
    span: float = 30.0
    excluded_peaks: tuple = ()
    seed: int = 2024
    jobs: int = 0
    out: str | None = None

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
            (self.window <= self.rep_period, "window", "must not exceed rep_period"),
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
    "sweep-filter": {},
    "sweep-fourlevel": {"system": "biexciton", "sweep_min": 0.5, "sweep_max": 20.0,
                        "sweep_points": 9, "pulse_lengths": (0.01, 0.02)},
    "sweep-pulse": {"sweep_min": 0.02, "sweep_max": 1.5, "sweep_points": 10},
}

_FLAT_KEYS = {
    "system", "gamma_sigma", "detuning", "binding_energy", "spec_bandwidth",
    "detuning_span", "detuning_points", "grid_points", "check_convergence",
    "rep_period", "window", "bin_width", "span", "seed", "jobs", "out",
    "pulse_lengths", "filter_widths", "excluded_peaks", "truncation", "epsilon",
}
_TEXT_KEYS = {"system", "check_convergence", "out"}
_LIST_KEYS = {"pulse_lengths", "filter_widths", "excluded_peaks"}
_NESTED_KEYS = {"pulse", "sensor", "sweep", "integrator", "stream"}
_INTEGRATOR_KEYS = {f.name for f in fields(dynamics.IntegratorConfig)}
# section -> {key in the section: RunConfig field}; sweep.scale is handled apart
_SECTION_FIELDS = {
    "pulse": {"area_pi": "pulse_area_pi", "length": "pulse_length"},
    "sensor": {"detuning": "sensor_detuning", "coupling": "epsilon", "truncation": "truncation"},
    "sweep": {"min": "sweep_min", "max": "sweep_max", "points": "sweep_points",
              "scale": None},
}


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


def load_config(path=None, overrides=None, command=None) -> RunConfig:
    """RunConfig from a YAML file and overrides, with `command`'s defaults."""
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
    for key, value in data.items():
        if key in _NESTED_KEYS and not isinstance(value, dict):
            raise ConfigError(f"{key}: must be a mapping, got {value!r}")
        if key in _SECTION_FIELDS:
            fields = _SECTION_FIELDS[key]
            for name, item in value.items():
                if name not in fields:
                    raise ConfigError(f"{key}.{name}: unknown configuration key")
                if fields[name] is not None:
                    _check_value(f"{key}.{name}", item)
                    setattr(cfg, fields[name], item)
            if key == "sweep":
                scale = value.get("scale", "log")
                if scale not in ("log", "linear"):
                    raise ConfigError(f"sweep.scale: must be log or linear, got {scale!r}")
                cfg.sweep_log = scale == "log"
        elif key == "integrator":
            for name, item in value.items():
                if name not in _INTEGRATOR_KEYS:
                    raise ConfigError(f"integrator.{name}: unknown configuration key")
                _check_number(f"integrator.{name}", item)
            cfg.integrator = dict(value)
        elif key == "stream":
            cfg.stream = dict(value)
        elif key in _FLAT_KEYS:
            if key not in _TEXT_KEYS:
                _check_value(key, value, listed=key in _LIST_KEYS)
            setattr(cfg, key, tuple(value) if isinstance(value, list) else value)
        else:
            raise ConfigError(f"{key}: unknown configuration key")
    for key, value in (overrides or {}).items():
        if value is not None:
            if key not in _TEXT_KEYS:
                _check_number(f"--{key}", value)
            setattr(cfg, key, value)
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
    meta = {"tool": "photonpurity", "version": __version__, "command": command}
    meta["config"] = asdict(cfg)
    if extra:
        meta.update(extra)
    return meta


def _sweep_axis(cfg: RunConfig):
    if cfg.sweep_log:
        return np.geomspace(cfg.sweep_min, cfg.sweep_max, cfg.sweep_points)
    return np.linspace(cfg.sweep_min, cfg.sweep_max, cfg.sweep_points)


def cmd_g2map(cfg: RunConfig):
    """Two-time correlation map of the bare two-level emission."""
    if cfg.system != "two_level":
        raise ConfigError("system: g2map expects the two_level system")
    out = _outdir(cfg)
    builder = _system_builder(cfg)
    system = builder(GaussianPulse(cfg.pulse_area_pi * math.pi, cfg.pulse_length))
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
    axis = _sweep_axis(cfg)
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
    correlations.write_metadata(
        os.path.join(out, f"{prefix}_metadata.json"), _metadata(cfg, command)
    )
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
    stream.setdefault("rep_period", cfg.rep_period)
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
            "stream": {**{k: getattr(stream_cfg, k) for k in (
                "n_pulses", "rep_period", "p_single", "p_double", "emitter_lifetime",
                "pulse_sigma", "noise_rate", "detection_efficiency")},
                "blinking": None if stream_cfg.blinking is None else {
                    "frequencies": list(stream_cfg.blinking.frequencies),
                    "depth": stream_cfg.blinking.depth}},
            "clicks": n_clicks,
        }),
    )
    return [hist_path, est_path, sums_path]


def cmd_analyze_histogram(cfg: RunConfig, data_path):
    """Peak-sum analysis of an existing histogram CSV."""
    try:
        hist = photostream.read_histogram_csv(data_path)
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
        _metadata(cfg, "analyze-histogram", {"data": str(data_path)}),
    )
    return [est_path, spec_path]


def cmd_fit_lifetime(cfg: RunConfig, data_path, which):
    """Fit decay data (CSV time_ps, counts) with the IRF-blurred cascade model."""
    try:
        times, counts = analysis.read_decay_csv(data_path)
    except analysis.MalformedDecay as err:
        raise ConfigError(f"data: {err}") from err
    out = _outdir(cfg)
    init = analysis.initial_cascade_guess(times, counts, which)
    result = analysis.fit_lifetimes(times, counts, init, which)
    fit_path = os.path.join(out, "lifetime_fit.json")
    result.to_json(fit_path)
    correlations.write_metadata(
        os.path.join(out, "lifetime_fit_metadata.json"),
        _metadata(cfg, "fit-lifetime", {"data": str(data_path), "which": which}),
    )
    return [fit_path]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="photonpurity",
        description="Frequency-filtered photon statistics of pulsed quantum emitters",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML run configuration")
        p.add_argument("--out", help=f"output directory (default ${ENV_OUTDIR} or ./out)")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--jobs", type=int, help="worker processes for sweep points")
        p.add_argument("--epsilon", type=float, help="sensor coupling override")
        p.add_argument("--check-convergence", dest="check_convergence",
                       action="store_true", default=None)
        p.add_argument("--no-check-convergence", dest="check_convergence",
                       action="store_false", default=None)
        return p

    common(sub.add_parser("g2map", help="two-time correlation map (bare emitter)"))
    common(sub.add_parser("spectrum", help="filtered emission spectra"))
    common(sub.add_parser("sweep-pulse", help="g2 vs pulse length per filter width"))
    common(sub.add_parser("sweep-filter", help="g2 vs filter width per pulse length"))
    common(sub.add_parser("sweep-fourlevel", help="exciton-line g2 vs filter width"))
    common(sub.add_parser("hbt-sim", help="Monte Carlo HBT experiment"))
    p = common(sub.add_parser("analyze-histogram", help="peak-sum analysis of a histogram CSV"))
    p.add_argument("--data", required=True)
    p = common(sub.add_parser("fit-lifetime", help="lifetime fit of decay data CSV"))
    p.add_argument("--data", required=True)
    p.add_argument("--which", choices=("biexciton", "exciton"), default="exciton")
    return parser


_COMMANDS = {
    "g2map": cmd_g2map,
    "spectrum": cmd_spectrum,
    "sweep-pulse": cmd_sweep_pulse,
    "sweep-filter": cmd_sweep_filter,
    "sweep-fourlevel": cmd_sweep_fourlevel,
    "hbt-sim": cmd_hbt,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {k: getattr(args, k) for k in
                 ("out", "seed", "jobs", "epsilon", "check_convergence")
                 if getattr(args, k, None) is not None}
    try:
        cfg = load_config(args.config, overrides, args.command)
        if args.command == "analyze-histogram":
            paths = cmd_analyze_histogram(cfg, args.data)
        elif args.command == "fit-lifetime":
            paths = cmd_fit_lifetime(cfg, args.data, args.which)
        else:
            paths = _COMMANDS[args.command](cfg)
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
