"""Command-line front end: regenerate every theory curve and supplement
analysis as CSV/JSON data files from declarative configs.

Subcommands: g2map, spectrum, sweep-pulse, sweep-filter, sweep-fourlevel,
hbt-sim, analyze-histogram, fit-lifetime.  The YAML config (--config) holds
the model and the command line holds the run: the output folder (--out, else
$PHOTONPURITY_OUTDIR, else ./out), hbt-sim's --seed and the data commands'
--data and --which.  Each command only computes: it returns its files, each
a name and a writer, and the facts its metadata adds.  `main` alone makes
the folder, once the command has succeeded, so a run that fails leaves none;
it writes the files in the order it prints their paths, then a metadata
JSON with the resolved value of every config key the command reads (the
RunConfig table), its --seed, --data and --which and the command's facts,
and never the output folder; reruns with the same metadata reproduce the
files byte for byte, into any folder.  A key or flag that the command does
not read is a configuration error.  Defaults mirror the figure parameters so
a bare invocation reproduces the corresponding dataset.

Every output format is here (_write_csv, _write_json, the g2map.csv writer
and the fit JSON's ns -> ps) but two that are also read back, which stay
beside their readers: photostream.write_int_csv, of the histogram and the
peak sums, and analysis.write_decay_csv.

Exit codes: 0 success, 2 bad configuration, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
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
_CSV_CHUNK = 1 << 16  # map rows per formatted write
_EXPONENT = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+")  # a float, read as text


class ConfigError(ValueError):
    pass


class EstimationError(RuntimeError):
    """The coincidence histogram cannot be normalized (empty side peaks)."""


# The commands of each config key.
_SWEEPS = ("sweep-pulse", "sweep-filter", "sweep-fourlevel")


def _key(default, commands, key=None, system=None):
    """A RunConfig field with its `default`, the `commands` that read it, its
    config key (the field name when None; dotted inside a section) and the
    one `system` on which the commands that read `system` read it (None:
    either)."""
    value = {"default_factory": dict} if default == {} else {"default": default}
    return field(**value, metadata={"commands": commands, "key": key, "system": system})


@dataclass
class RunConfig:
    """Resolved run configuration, one field per config key.  Each field
    names the commands that read it; a command's metadata JSON records those
    fields, its --seed, --data or --which flags and no output folder.  The
    theory commands run at dynamics.DEFAULT_INTEGRATOR, the tolerance their
    error budgets are stated at."""

    system: str = _key("two_level", ("spectrum", "sweep-pulse", "sweep-filter"))
    detuning: float = _key(0.0, ("g2map", "spectrum", "sweep-pulse", "sweep-filter"),
                           system="two_level")
    binding_energy: float = _key(300.0, ("spectrum", *_SWEEPS), system="biexciton")
    pulse_area_pi: float = _key(1.0, ("g2map", "spectrum", *_SWEEPS), "pulse.area_pi")
    pulse_length: float = _key(0.05, ("g2map",), "pulse.length")
    sensor_detuning: float | None = _key(None, ("spectrum", *_SWEEPS), "sensor.detuning")
    epsilon: float | None = _key(None, _SWEEPS, "sensor.coupling")
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
    stream: dict = _key({}, ("hbt-sim",))
    rep_period: float = _key(13.1, ("analyze-histogram",))
    window: float = _key(6.5, ("hbt-sim", "analyze-histogram"))
    bin_width: int = _key(5, ("hbt-sim",))
    span: float = _key(30.0, ("hbt-sim",))
    excluded_peaks: tuple = _key((), ("hbt-sim", "analyze-histogram"))

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
            (self.pulse_length > 0, "pulse.length", "must be > 0"),
            (self.pulse_area_pi >= 0, "pulse.area_pi", "must be >= 0"),
            (self.epsilon is None or self.epsilon > 0, "sensor.coupling", "must be > 0"),
            (_integer_at_least(self.sweep_points, 2), "sweep.points", "must be an integer >= 2"),
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
            (_distinct_names(self.pulse_lengths), "pulse_lengths", "must not repeat a value"),
            (_distinct_names(self.filter_widths), "filter_widths", "must not repeat a value"),
            (isinstance(self.excluded_peaks, (tuple, list)), "excluded_peaks",
             "must be a list of numbers"),
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


def _distinct_names(values):
    """Do the numbers of a list name distinct files, printed with {:g}?  True
    for anything but a list of numbers > 0, which _positive_numbers rejects."""
    return not _positive_numbers(values) or len({f"{v:g}" for v in values}) == len(values)


# Defaults of the fields RunConfig leaves None, and what each sweep command
# sets differently.
_DEFAULTS = {"sweep_min": 0.05, "sweep_max": 100.0,
             "sweep_points": 13, "pulse_lengths": (0.02, 0.05, 0.2)}
_COMMAND_DEFAULTS = {
    "sweep-fourlevel": {"sweep_min": 0.5, "sweep_max": 20.0,
                        "sweep_points": 9, "pulse_lengths": (0.01, 0.02)},
    "sweep-pulse": {"sweep_min": 0.02, "sweep_max": 1.5, "sweep_points": 10},
}

_FIELDS = {f.name: f for f in fields(RunConfig)}
_KEYS = {f.metadata["key"] or name: name for name, f in _FIELDS.items()}  # config key: field
_SECTIONS = {key.split(".")[0] for key in _KEYS if "." in key}


def _reads(command, system=None):
    """The RunConfig fields that `command` reads; every field for command
    None.  A command that reads `system` reads the fields of `system` alone
    (of either system for None); g2map and sweep-fourlevel each run one."""
    names = [name for name, f in _FIELDS.items()
             if command is None or command in f.metadata["commands"]]
    if command is None or system is None or "system" not in names:
        return names
    return [name for name in names if _FIELDS[name].metadata["system"] in (None, system)]


def _kind(name):
    """The type of RunConfig field `name` ("float" for float | None), which
    sets how its config value is checked."""
    return _FIELDS[name].type.split(" ")[0]


def _check_number(path, value):
    """A config number is an int or a finite float.  YAML 1.1 reads 1e-3 (no
    dot) and 1.0e5 (no exponent sign) as strings, which the message then
    says how to spell, and .nan and .inf as floats."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        spelled = isinstance(value, str) and _EXPONENT.fullmatch(value)
        raise ConfigError(f"{path}: {value!r} is not a number" + (
            " (YAML 1.1 needs a dot and a signed exponent: 1.0e-3 or 1.0e+5)" if spelled else ""))
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
        value = dict(value)
    elif key == "sweep.scale":
        if value not in ("log", "linear"):
            raise ConfigError(f"sweep.scale: must be log or linear, got {value!r}")
        value = value == "log"
    elif kind in ("float", "int", "tuple"):
        _check_value(key, value, listed=kind == "tuple")
        value = tuple(value) if isinstance(value, list) else value
    setattr(cfg, name, value)


def load_config(path=None, command=None) -> RunConfig:
    """RunConfig from a YAML file, with `command`'s defaults.  A key that
    `command` does not read, on the configured system too, is a
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
    reads, given = _reads(command), []
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
            given.append(key)
    try:
        cfg.resolve(command).validate()
    except TypeError as err:  # e.g. a string where a number belongs
        raise ConfigError(f"config: value of the wrong type ({err})") from err
    reads = _reads(command, cfg.system)
    for key in given:
        if _KEYS[key] not in reads:
            raise ConfigError(f"{key}: {command} does not read it on the {cfg.system} system")
    return cfg


def _system(system, cfg: RunConfig, pulse: GaussianPulse):
    if system == "two_level":
        return build_two_level(TwoLevelConfig(detuning=cfg.detuning), pulse)
    return build_biexciton(BiexcitonConfig(binding_energy=cfg.binding_energy), pulse)


def _observed(system):
    return "sigma" if system == "two_level" else EXCITON_V_ONLY


def _default_sensor_detuning(system, cfg: RunConfig):
    if cfg.sensor_detuning is not None:
        return cfg.sensor_detuning
    return 0.0 if system == "two_level" else cfg.binding_energy / 2.0


def _points(key, make, *args):
    """The array make(*args) whose size config key `key` sets, or a
    ConfigError naming the key when it cannot be allocated."""
    try:
        return make(*args)
    except (MemoryError, ValueError) as err:  # ValueError: more entries than an array holds
        raise ConfigError(f"{key}: {args[-1]} points cannot be allocated") from err


def _write_csv(path, header, line, columns):
    """Write the `header` line, then `line % row` for each row of `columns`."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(line % row)


def _write_json(path, payload, **dump):
    """Write `payload` as JSON: a 2-space indent, `dump`, a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, **dump)
        fh.write("\n")


def _write_g2map_csv(path, times, values):
    """The (n, n) map `values` on `times` along both axes as a row-major
    (t1, t2, value) CSV; first line names the time unit.  Each time is
    formatted once, into the template of its lines; one formatted write of
    the values per chunk of t1 rows."""
    # joined by a row's "t1," this list puts that t1 in front of every line
    tails = ["", *("%.9g," % t + "%.12g\n" for t in times)]
    n = len(times)
    values = np.reshape(values, (n, n))
    step = max(1, _CSV_CHUNK // len(tails))
    with open(path, "w") as fh:
        fh.write("# time_unit=1/gamma_sigma\n")
        fh.write("t1,t2,value\n")
        for start in range(0, n, step):
            chunk = times[start:start + step]
            template = "".join(("%.9g," % t).join(tails) for t in chunk)
            fh.write(template % tuple(values[start:start + step].ravel().tolist()))


def cmd_g2map(cfg: RunConfig):
    """Two-time correlation map of the bare two-level emission."""
    system = _system("two_level", cfg,
                     GaussianPulse(cfg.pulse_area_pi * math.pi, cfg.pulse_length))
    grid = correlations.map_grid(system)
    values = dynamics.two_time_g2_map(system, "sigma", grid)
    return ({"g2map.csv": lambda path: _write_g2map_csv(path, grid, values)},
            {"grid_points": len(grid), "horizon": float(grid[-1])})


def cmd_spectrum(cfg: RunConfig):
    """Spectral profiles for the configured pulse lengths."""
    center = _default_sensor_detuning(cfg.system, cfg)
    detunings = center + _points("detuning_points", np.linspace, -cfg.detuning_span,
                                 cfg.detuning_span, cfg.detuning_points)
    pulses = [GaussianPulse(cfg.pulse_area_pi * math.pi, float(tau)) for tau in cfg.pulse_lengths]
    curves = correlations.spectrum(_system(cfg.system, cfg, pulses[0]), _observed(cfg.system),
                                   detunings, pulses, cfg.spec_bandwidth)
    files = {f"spectrum_tau{tau:g}.csv": functools.partial(
        _write_csv, header="detuning_over_gamma,normalized_intensity", line="%.9g,%.12g\n",
        columns=(detunings, values)) for tau, values in zip(cfg.pulse_lengths, curves)}
    return files, {"detuning_center": center}


def _sweep(cfg: RunConfig, prefix, system, sweep_pulse=False):
    """A filtered-g2 sweep of `system`, one filtered_g2_batch over every
    pulse length and filter width: the sweep axis is the filter width (one
    curve per pulse length, the batch's rows) or, if `sweep_pulse`, the
    pulse length (one curve per filter width, its columns).  The files are
    named `prefix`_<curve>.csv."""
    axis = _points("sweep.points", np.geomspace if cfg.sweep_log else np.linspace,
                   cfg.sweep_min, cfg.sweep_max, cfg.sweep_points)
    taus, widths = (axis, cfg.filter_widths) if sweep_pulse else (cfg.pulse_lengths, axis)
    pulses = [GaussianPulse(cfg.pulse_area_pi * math.pi, float(tau)) for tau in taus]
    sensors = [SensorConfig(_default_sensor_detuning(system, cfg), float(w), cfg.epsilon)
               for w in widths]
    grid = correlations.filtered_g2_batch(_system(system, cfg, pulses[0]), sensors, pulses,
                                          observed=_observed(system))
    if sweep_pulse:
        curves = {f"gamma{float(w):g}": [row[j] for row in grid] for j, w in enumerate(widths)}
    else:
        curves = {f"tau{float(tau):g}": row for tau, row in zip(taus, grid)}
    files = {f"{prefix}_{key}.csv": functools.partial(
        _write_csv, header="axis_value,g2,epsilon_used", line="%.9g,%.12g,%.9g\n",
        columns=(axis, [st.g2 for st in stats], [st.epsilon_used for st in stats]))
        for key, stats in curves.items()}
    return files, {}


def cmd_sweep_filter(cfg: RunConfig):
    """g2 versus filter width for the two-level system."""
    return _sweep(cfg, "sweep_filter", cfg.system)


def cmd_sweep_fourlevel(cfg: RunConfig):
    """g2 versus filter width for the exciton line of the cascade."""
    return _sweep(cfg, "sweep_fourlevel", "biexciton")


def cmd_sweep_pulse(cfg: RunConfig):
    """g2 versus pulse length, one curve per filter width."""
    return _sweep(cfg, "sweep_pulse", cfg.system, sweep_pulse=True)


def _stream_config(cfg: RunConfig) -> photostream.StreamConfig:
    stream = dict(cfg.stream)
    for key, value in stream.items():
        if key != "blinking":
            _check_number(f"stream.{key}", value)
    if not isinstance(stream.get("n_pulses", 0), int):
        raise ConfigError(f"stream.n_pulses: {stream['n_pulses']!r} is not an integer")
    stream.setdefault("n_pulses", 1_000_000)
    blink = stream.pop("blinking", None)
    if blink is not None:
        if not isinstance(blink, dict) or not isinstance(blink.get("frequencies"), list):
            raise ConfigError(f"stream.blinking: {blink!r} must be a mapping with a list "
                              "of frequencies")
        for name, value in blink.items():
            if name not in ("frequencies", "depth"):
                raise ConfigError(f"stream.blinking.{name}: unknown configuration key")
            _check_value(f"stream.blinking.{name}", value, listed=name == "frequencies")
    try:
        if blink is not None:
            stream["blinking"] = photostream.BlinkingConfig(
                frequencies=tuple(blink["frequencies"]), depth=blink.get("depth", 0.5)
            )
        return photostream.StreamConfig(**stream)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"stream: {err!r}") from err


def _check_window(rep_period, window, span, what, bin_width):
    """The peak-sum windows must fit: window <= rep_period, a span that
    covers the side peaks, rep_period + window / 2, and bins no wider than a
    window, which then holds at least one."""
    if bin_width > window * photostream.NS_TO_PS:
        raise ConfigError(f"bin_width: {bin_width} ps is wider than the {window} ns window")
    if window > rep_period:
        raise ConfigError(f"window: {window} ns exceeds the repetition period {rep_period} ns")
    if span < rep_period + window / 2.0:
        raise ConfigError(f"{what}: {span:g} ns does not cover rep_period + window / 2 "
                          f"= {rep_period + window / 2.0:g} ns")


def _estimate_json(hist, rep_period, cfg: RunConfig):
    """The writer of the estimate JSON: `hist`'s g2 estimate at `cfg`'s window."""
    try:
        est = photostream.estimate_g2(hist, rep_period, cfg.window, cfg.excluded_peaks)
    except ValueError as err:  # the windows were checked: the side peaks are empty
        raise EstimationError(str(err)) from err
    return functools.partial(_write_json, payload={
        "value": est.value, "sigma": est.sigma, "center_sum": est.center_sum,
        "side_sums": list(est.side_sums), "window_ns": cfg.window,
        "excluded": list(cfg.excluded_peaks)})


def cmd_hbt(cfg: RunConfig, seed):
    """Synthesize a photon stream, correlate it and estimate g2."""
    if seed < 0:
        raise ConfigError("seed: must be an integer >= 0")
    stream_cfg = _stream_config(cfg)
    _check_window(stream_cfg.rep_period, cfg.window, cfg.span, "span", cfg.bin_width)
    try:
        photostream.correlate((), (), cfg.bin_width, cfg.span)  # the histogram, before synthesis
        clicks1, clicks2 = photostream.synthesize_stream(stream_cfg, seed)
        hist = photostream.correlate(clicks1, clicks2, cfg.bin_width, cfg.span)
    except photostream.HistogramTooLarge as err:
        raise ConfigError(str(err)) from err
    except photostream.TimestampOverflow as err:
        raise ConfigError(f"stream: {err}") from err
    except photostream.BackgroundTooLarge as err:
        raise ConfigError(f"stream.noise_rate: {err}") from err
    ks, sums = photostream.peak_sums(hist, stream_cfg.rep_period, cfg.window)
    files = {
        "hbt_histogram.csv": hist.to_csv,
        "hbt_estimate.json": _estimate_json(hist, stream_cfg.rep_period, cfg),
        "hbt_peak_sums.csv": lambda path: photostream.write_int_csv(
            path, "peak_index,summed_counts", ks, sums),
    }
    return files, {"stream": {**vars(stream_cfg),
                              "blinking": stream_cfg.blinking and vars(stream_cfg.blinking)},
                   "clicks": [len(clicks1), len(clicks2)]}


def cmd_analyze_histogram(cfg: RunConfig, data):
    """Peak-sum analysis of an existing histogram CSV."""
    try:
        hist = photostream.read_histogram_csv(data)
    except photostream.MalformedHistogram as err:
        raise ConfigError(f"data: {err}") from err
    _check_window(cfg.rep_period, cfg.window, hist.span, "data: histogram span", hist.bin_width)
    ks, sums = photostream.peak_sums(hist, cfg.rep_period, cfg.window)
    spectrum = photostream.peak_sum_spectrum(ks, sums, cfg.rep_period)
    return {"histogram_estimate.json": _estimate_json(hist, cfg.rep_period, cfg),
            "peak_sum_spectrum.csv": functools.partial(
                _write_csv, header="frequency_mhz,amplitude", line="%.9g,%.9g\n",
                columns=spectrum)}, {}


def cmd_fit_lifetime(cfg: RunConfig, data, which):
    """Fit decay data (CSV time_ps, counts) with the IRF-blurred cascade model."""
    try:
        times, counts = analysis.read_decay_csv(data)
    except analysis.MalformedDecay as err:
        raise ConfigError(f"data: {err}") from err
    init = analysis.initial_cascade_guess(times, counts, which)
    fit = analysis.fit_lifetimes(times, counts, init, which)
    p = fit.params
    return {"lifetime_fit.json": functools.partial(_write_json, payload={
        "tau_2x_ps": 1e3 / p.gamma_2x, "tau_x_ps": 1e3 / p.gamma_x if which == "exciton" else None,
        "irf_sigma_ps": 1e3 * p.irf_sigma, "amplitude": p.amplitude, "offset_ps": 1e3 * p.offset,
        "uncertainties": fit.uncertainties, "chi2_reduced": fit.chi2_reduced,
        "which": which})}, {}


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="photonpurity",
        description="Frequency-filtered photon statistics of pulsed quantum emitters",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__.splitlines()[0])
        p.add_argument("--config", help="YAML run configuration")
        # perfbench/workloads.py passes --jobs to every command
        p.add_argument("--jobs", type=int, help="ignored: every command runs in one process")
        p.add_argument("--out", help=f"output directory (default ${ENV_OUTDIR} or ./out)")
    sub.choices["hbt-sim"].add_argument("--seed", type=int, default=2024, help="random seed")
    for p in (sub.choices["analyze-histogram"], sub.choices["fit-lifetime"]):
        p.add_argument("--data", required=True)
    sub.choices["fit-lifetime"].add_argument(
        "--which", choices=("biexciton", "exciton"), default="exciton")
    return parser


# Each command's function and the stem of its metadata file.
_COMMANDS = {
    "g2map": (cmd_g2map, "g2map"),
    "spectrum": (cmd_spectrum, "spectrum"),
    "sweep-pulse": (cmd_sweep_pulse, "sweep_pulse"),
    "sweep-filter": (cmd_sweep_filter, "sweep_filter"),
    "sweep-fourlevel": (cmd_sweep_fourlevel, "sweep_fourlevel"),
    "hbt-sim": (cmd_hbt, "hbt"),
    "analyze-histogram": (cmd_analyze_histogram, "histogram"),
    "fit-lifetime": (cmd_fit_lifetime, "lifetime_fit"),
}


def main(argv=None):
    """Run one command and return its exit code.  The command computes its
    files; only once it has succeeded is the output folder made (--out, else
    $PHOTONPURITY_OUTDIR, else ./out), then each file written and its path
    printed in the command's order, then <stem>_metadata.json: the config
    the command reads, its --seed, --data and --which, and the command's
    own facts, with sorted keys, a 2-space indent and a trailing newline."""
    args = build_parser().parse_args(argv)
    flags = {name: getattr(args, name) for name in ("seed", "data", "which") if name in args}
    run, stem = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config, args.command)
        files, facts = run(cfg, **flags)
        out = args.out if args.out is not None else os.environ.get(ENV_OUTDIR, "out")
        os.makedirs(out, exist_ok=True)
        paths = [os.path.join(out, name) for name in files]
        for path, write in zip(paths, files.values()):
            write(path)
        config = {name: getattr(cfg, name) for name in _reads(args.command, cfg.system)}
        _write_json(os.path.join(out, f"{stem}_metadata.json"),
                    {"tool": "photonpurity", "version": __version__, "command": args.command,
                     "config": config, **flags, **facts}, sort_keys=True)
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
