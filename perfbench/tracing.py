"""Per-layer tracing of photonpurity from outside the program.

`Tracer.install()` replaces every public function of the traced modules with a
wrapper that records a span (name, start, end, parent) and, for some
functions, counters read from the arguments and the result.  A wrapper
replaces the function under every name it is looked up by, so calls made
through a `from .x import f` binding in another module are traced too.  The
batched right-hand side `dynamics._Generator.rhs` is counted and timed
without a span of its own.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("model", "dynamics", "correlations", "photostream", "cli")
PACKAGE = "photonpurity"


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _g2_map_raw(tracer, args, result):
    n = len(args["grid"])
    batch = len(args["systems"])
    tracer.counters["dynamics.g2_map_raw.grid_points"] += n
    tracer.counters["dynamics.g2_map_raw.batch"] += batch
    tracer.counters["dynamics.row_node_updates"] += batch * n * (n + 1) // 2


def _emission_series(tracer, args, result):
    tracer.counters["dynamics.emission_series.grid_points"] += len(args["grid"])


def _filtered_g2_zero(tracer, args, result):
    if result.g2_epsilon_check is not None:
        rel = abs(result.g2_epsilon_check - result.g2) / abs(result.g2)
        tracer.maxima["correlations.epsilon_check_max_rel"] = max(
            tracer.maxima.get("correlations.epsilon_check_max_rel", 0.0), rel)


def _synthesize_stream(tracer, args, result):
    tracer.counters["photostream.clicks"] += len(result[0]) + len(result[1])


def _correlate(tracer, args, result):
    tracer.counters["photostream.pairs"] += int(result.counts.sum())
    tracer.counters["photostream.hist_bins"] += len(result.counts)


def _peak_sums(tracer, args, result):
    tracer.counters["photostream.peaks"] += len(result[0])


HOOKS = {
    "dynamics.g2_map_raw": _g2_map_raw,
    "dynamics.emission_series": _emission_series,
    "correlations.filtered_g2_zero": _filtered_g2_zero,
    "photostream.synthesize_stream": _synthesize_stream,
    "photostream.correlate": _correlate,
    "photostream.peak_sums": _peak_sums,
}


class Tracer:
    def __init__(self):
        # span: [name, layer, start, end, parent index, time covered by children]
        self.spans = []
        self._stack = []
        self.counters = Counter()
        self.maxima = {}
        self.notes = {}
        self.rhs_s = 0.0
        self._undo = []

    # -- spans ---------------------------------------------------------------
    def open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        span = self.spans[index]
        span[3] = time.perf_counter()
        self._stack.pop()
        if span[4] >= 0:
            self.spans[span[4]][5] += span[3] - span[2]

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, qualname, layer, fn):
        tracer = self
        hook = HOOKS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters[qualname + ".calls"] += 1
            index = tracer.open(qualname, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counters[qualname + ".errors"] += 1
                raise
            finally:
                tracer.close(index)
            if hook is not None:
                hook(tracer, _bound(fn, args, kwargs), result)
            return result

        return wrapper

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        holders = [sys.modules[PACKAGE], *modules.values()]
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", layer, fn)
                for holder in holders:
                    for alias, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, alias, wrapper)
        self._install_rhs(modules["dynamics"])
        return self

    def _install_rhs(self, dynamics):
        generator = getattr(dynamics, "_Generator", None)
        rhs = getattr(generator, "rhs", None)
        if rhs is None:
            self.notes["dynamics.rhs"] = "dynamics._Generator.rhs does not exist"
            return
        tracer = self

        @functools.wraps(rhs)
        def timed_rhs(gen, t, y):
            start = time.perf_counter()
            try:
                return rhs(gen, t, y)
            finally:
                tracer.counters["dynamics.rhs_evals"] += 1
                tracer.rhs_s += time.perf_counter() - start

        self._set(generator, "rhs", timed_rhs)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- summaries -----------------------------------------------------------
    def inclusive(self, name):
        """Total time of the spans called `name` (no traced function recurses)."""
        return float(sum(s[3] - s[2] for s in self.spans if s[0] == name))

    def self_time(self, layer):
        """Time spent in `layer`'s own code: its spans minus their children."""
        return float(sum(s[3] - s[2] - s[5] for s in self.spans if s[1] == layer))

    def called(self, gate):
        """Did the traced run call `gate`, a layer or a traced function?"""
        if gate in LAYERS:
            return any(s[1] == gate for s in self.spans)
        return self.counters[gate + ".calls"] > 0

    def layer_metrics(self):
        """{name: (value, unit)}.  The value is None where the metric does not
        apply (its layer or function made no call); `notes` says why."""
        c, m = self.counters, self.maxima
        rhs_known = "dynamics.rhs" not in self.notes and self.called("dynamics")
        nodes = (c["dynamics.g2_map_raw.grid_points"]
                 + c["dynamics.emission_series.grid_points"])
        g2_calls = c["correlations.filtered_g2_zero.calls"]
        rows = {
            "model.build_s": ("model", self.self_time("model"), "s"),
            "model.attach_sensor_calls": ("model", c["model.attach_sensor.calls"], "count"),
            "dynamics.self_s": ("dynamics", self.self_time("dynamics"), "s"),
            "dynamics.g2_map_raw_s": ("dynamics.g2_map_raw",
                                      self.inclusive("dynamics.g2_map_raw"), "s"),
            "dynamics.grid_points": ("dynamics.g2_map_raw",
                                     c["dynamics.g2_map_raw.grid_points"], "count"),
            "dynamics.row_node_updates": ("dynamics.g2_map_raw",
                                          c["dynamics.row_node_updates"], "count"),
            "dynamics.emission_series_s": ("dynamics.emission_series",
                                           self.inclusive("dynamics.emission_series"), "s"),
            "dynamics.rhs_evals": (rhs_known, c["dynamics.rhs_evals"], "count"),
            "dynamics.rhs_s": (rhs_known, self.rhs_s, "s"),
            "dynamics.rhs_evals_per_node": (
                rhs_known and nodes > 0, c["dynamics.rhs_evals"] / max(nodes, 1), "ratio"),
            "correlations.filtered_g2_zero_s": (
                "correlations.filtered_g2_zero",
                self.inclusive("correlations.filtered_g2_zero"), "s"),
            "correlations.self_s": ("correlations", self.self_time("correlations"), "s"),
            "correlations.spectrum_s": ("correlations.spectrum",
                                        self.inclusive("correlations.spectrum"), "s"),
            "correlations.batch_per_point": (
                "correlations.filtered_g2_zero",
                c["dynamics.g2_map_raw.batch"] / max(g2_calls, 1), "ratio"),
            "correlations.epsilon_check_max_rel": (
                "correlations.epsilon_check_max_rel" in m,
                m.get("correlations.epsilon_check_max_rel"), "ratio"),
            "photostream.self_s": ("photostream", self.self_time("photostream"), "s"),
            "photostream.synthesize_s": ("photostream.synthesize_stream",
                                         self.inclusive("photostream.synthesize_stream"), "s"),
            "photostream.clicks": ("photostream.synthesize_stream", c["photostream.clicks"],
                                   "count"),
            "photostream.correlate_s": ("photostream.correlate",
                                        self.inclusive("photostream.correlate"), "s"),
            "photostream.pairs": ("photostream.correlate", c["photostream.pairs"], "count"),
            "photostream.peak_sums_s": ("photostream.peak_sums",
                                        self.inclusive("photostream.peak_sums"), "s"),
            "photostream.hist_bins": ("photostream.correlate", c["photostream.hist_bins"],
                                      "count"),
            "photostream.peaks": ("photostream.peak_sums", c["photostream.peaks"], "count"),
            "photostream.estimate_s": ("photostream.estimate_g2",
                                       self.inclusive("photostream.estimate_g2"), "s"),
            "cli.command_s": ("cli", self.inclusive("cli.main"), "s"),
            "cli.self_s": ("cli", self.self_time("cli"), "s"),
            "trace.spans": (True, len(self.spans), "count"),
        }
        metrics = {}
        for name, (gate, value, unit) in rows.items():
            applies = self.called(gate) if isinstance(gate, str) else gate
            if not applies:
                value = None
                self.notes.setdefault(name, "not applicable: "
                                      + (f"{gate} made no call" if isinstance(gate, str)
                                         else "nothing to measure in this workload"))
            metrics[name] = (value, unit)
        return metrics

    def write_spans(self, path):
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [[s[0], round(s[2] - origin, 9), round(s[3] - origin, 9), s[4]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"], "spans": rows,
                       "counters": dict(self.counters), "notes": self.notes}, fh)
            fh.write("\n")
