"""In-memory tracer that wraps the package's public functions from outside.

Callers bind names at import (``window_stats.bessel_j``, ``kernels.laguerre``,
``analysis.polydisk_moments``), so a function is wrapped at every module
attribute that holds it, and ``verification.ALL_CHECKS`` entries are wrapped
in the dict that ``run_checks`` reads.  ``uninstall`` puts the originals back.

Two kinds of wrapper:

* span  - layer boundaries.  Each call records (name, start, end, parent);
          self time is the span minus the time covered by its child spans
          and by the leaf calls made directly inside it.
* leaf  - special functions, kernels and asymptotics, called up to ~1e5
          times per pass.  They get a call counter and accumulated time,
          not one span per call.

The tracer only observes: arguments and results pass through unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

SPAN_TARGETS = {
    "window_stats": (
        "build_spectrum",
        "polydisk_moments",
        "variance_ball_integral",
        "variance_ball_closed",
        "c_constant",
    ),
    "montecarlo": ("estimate_moments",),
    "analysis": ("run_sweep", "classify"),
    "cli": ("main",),
}

LEAF_TARGETS = {
    "specfun": (
        "bessel_j",
        "bessel_i_scaled",
        "laguerre",
        "regularized_lower_gamma",
        "hyp3f2_terminating",
    ),
    "asymptotics": ("ratio_series_eval", "alpha_coefficient", "c_asymptote"),
    "kernels": ("hermitized_kernel", "kernel_series_partial", "correlation_det"),
}


class _Frame:
    __slots__ = ("name", "index", "start", "covered")

    def __init__(self, name, index, start):
        self.name = name
        self.index = index
        self.start = start
        self.covered = 0.0


class Tracer:
    """Spans, per-name call statistics and work counters for one process.

    ``take()`` returns the statistics gathered since the previous call, so
    each traced pass yields its own snapshot; the span list accumulates over
    the whole run and is written out by ``dump``.
    """

    def __init__(self, modules):
        self._modules = modules
        self._build_spectrum = modules["window_stats"].build_spectrum  # unwrapped
        self._patches = []
        self._stack: list[_Frame] = []
        self._depth = Counter()
        self._leaf_depth = 0
        self._kept_memo = {}
        self.phase = None
        self.spans: list[tuple] = []
        self._reset_stats()

    # -- statistics ------------------------------------------------------

    def _reset_stats(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()

    def take(self) -> dict:
        snap = {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
        }
        self._reset_stats()
        return snap

    def count(self, key: str, amount) -> None:
        self.counts[key] += amount

    # -- spans -----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1].index if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        frame = _Frame(name, index, perf_counter())
        self._stack.append(frame)
        self._depth[name] += 1
        return frame, parent

    def _close(self, frame, parent):
        end = perf_counter()
        self._stack.pop()
        self._depth[frame.name] -= 1
        duration = end - frame.start
        self.spans[frame.index] = (frame.name, frame.start, end, parent)
        self.calls[frame.name] += 1
        self.self_time[frame.name] += duration - frame.covered
        if not self._depth[frame.name]:
            self.busy[frame.name] += duration
        if self._stack:
            self._stack[-1].covered += duration
        return duration

    @contextlib.contextmanager
    def span(self, name: str, phase: str | None = None):
        """A span opened by the benchmark itself (a pass, a workload phase)."""
        saved = self.phase
        if phase is not None:
            self.phase = phase
        frame, parent = self._open(name)
        try:
            yield
        finally:
            self._close(frame, parent)
            self.phase = saved

    def _span_wrapper(self, name, fn, after=None):
        """``after(arguments, result, duration)`` runs once the span is closed."""
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(frame, parent)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result, duration)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if tracer._depth[name]:
                return fn(*args, **kwargs)
            tracer._depth[name] += 1
            tracer._leaf_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._depth[name] -= 1
                tracer._leaf_depth -= 1
                tracer.busy[name] += elapsed
                if not tracer._leaf_depth and tracer._stack:
                    tracer._stack[-1].covered += elapsed

        return wrapper

    # -- work counters attached to spans ---------------------------------

    def _after_build_spectrum(self, arguments, result, duration):
        self.counts["window_stats.build_spectrum.indices"] += len(result.probs)

    def _after_polydisk_moments(self, arguments, result, duration):
        self.counts["window_stats.spectrum_cache.requests"] += len(arguments["spec"].level)

    def _after_run_sweep(self, arguments, result, duration):
        self.counts["analysis.run_sweep.rows"] += len(result.rows)

    def _kept_cells(self, levels, radius, floor, tail_tol) -> int:
        """Cells of the product grid at or above the floor, from public spectra."""
        key = (levels, radius, floor, tail_tol)
        if key not in self._kept_memo:
            grid = np.array([1.0])
            for m in levels:
                probs = self._build_spectrum(m, radius, tail_tol).probs
                grid = np.multiply.outer(grid, probs).ravel()
                if floor > 0.0:
                    grid = grid[grid >= floor]
            self._kept_memo[key] = int(grid.size)
        return self._kept_memo[key]

    def _after_estimate_moments(self, arguments, result, duration):
        spec, cfg = arguments["spec"], arguments["cfg"]
        kept = self._kept_cells(
            spec.level, float(arguments["radius"]), cfg.cell_prob_floor, arguments["tail_tol"]
        )
        draws = cfg.replicas * kept
        self.counts["window_stats.spectrum_cache.requests"] += len(spec.level)
        self.counts["montecarlo.estimate_moments.replicas"] += cfg.replicas
        self.counts["montecarlo.estimate_moments.kept_cells"] += kept
        self.counts["montecarlo.estimate_moments.cell_draws"] += draws
        if self.phase is not None:
            self.counts[f"montecarlo.{self.phase}.replicas"] += cfg.replicas
            self.counts[f"montecarlo.{self.phase}.cell_draws"] += draws
            self.counts[f"montecarlo.{self.phase}.busy_s"] += duration

    # -- installation ----------------------------------------------------

    def _patch_everywhere(self, fn, wrapper):
        for mod in self._modules.values():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, key, fn, "attr"))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "window_stats.build_spectrum": self._after_build_spectrum,
            "window_stats.polydisk_moments": self._after_polydisk_moments,
            "analysis.run_sweep": self._after_run_sweep,
            "montecarlo.estimate_moments": self._after_estimate_moments,
        }
        for module, attrs in SPAN_TARGETS.items():
            for attr in attrs:
                name = f"{module}.{attr}"
                fn = getattr(self._modules[module], attr)
                self._patch_everywhere(fn, self._span_wrapper(name, fn, hooks.get(name)))
        for module, attrs in LEAF_TARGETS.items():
            for attr in attrs:
                fn = getattr(self._modules[module], attr)
                self._patch_everywhere(fn, self._leaf_wrapper(f"{module}.{attr}", fn))
        checks = self._modules["verification"].ALL_CHECKS
        for key, fn in list(checks.items()):
            self._patches.append((checks, key, fn, "item"))
            checks[key] = self._span_wrapper(f"verification.{key}", fn)

    def uninstall(self) -> None:
        for owner, key, original, how in reversed(self._patches):
            if how == "item":
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path) -> None:
        """Write every recorded span as one JSON document."""
        records = [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
            if n is not None
        ]
        with open(path, "w") as fh:
            json.dump({"spans": records}, fh)


def _div(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(snap: dict, check_names) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) of one traced pass, named as in BENCHMARK.json.

    A layer the workload does not exercise reports 0 calls and 0 time, and
    a rate whose denominator is 0 reports 0.
    """
    calls, busy, self_t, counts = snap["calls"], snap["busy"], snap["self"], snap["counts"]
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def calls_busy(name):
        put(f"{name}.calls", calls.get(name, 0), "count")
        put(f"{name}.busy_s", busy.get(name, 0.0), "s")

    for attr in LEAF_TARGETS["specfun"]:
        calls_busy(f"specfun.{attr}")

    bs = "window_stats.build_spectrum"
    calls_busy(bs)
    indices = counts.get(f"{bs}.indices", 0)
    put(f"{bs}.indices", indices, "count")
    put(f"{bs}.ns_per_index", _div(busy.get(bs, 0.0), indices, 1e9), "ns")
    requests = counts.get("window_stats.spectrum_cache.requests", 0)
    put("window_stats.spectrum_cache.requests", requests, "count")
    put("window_stats.spectrum_cache.hit_ratio", 1.0 - _div(calls.get(bs, 0), requests) if requests else 0.0, "frac")
    pm = "window_stats.polydisk_moments"
    put(f"{pm}.calls", calls.get(pm, 0), "count")
    put(f"{pm}.self_s", self_t.get(pm, 0.0), "s")
    vbi = "window_stats.variance_ball_integral"
    calls_busy(vbi)
    put(f"{vbi}.self_s", self_t.get(vbi, 0.0), "s")
    calls_busy("window_stats.variance_ball_closed")
    calls_busy("window_stats.c_constant")

    em = "montecarlo.estimate_moments"
    calls_busy(em)
    for key in ("replicas", "kept_cells", "cell_draws"):
        put(f"{em}.{key}", counts.get(f"{em}.{key}", 0), "count")
    put("montecarlo.us_per_replica.small", _div(
        counts.get("montecarlo.small.busy_s", 0.0), counts.get("montecarlo.small.replicas", 0), 1e6), "us")
    put("montecarlo.ns_per_cell_draw.large", _div(
        counts.get("montecarlo.large.busy_s", 0.0), counts.get("montecarlo.large.cell_draws", 0), 1e9), "ns")

    rs = "analysis.run_sweep"
    put(f"{rs}.calls", calls.get(rs, 0), "count")
    put(f"{rs}.rows", counts.get(f"{rs}.rows", 0), "count")
    put(f"{rs}.self_s", self_t.get(rs, 0.0), "s")
    calls_busy("analysis.classify")

    for module in ("asymptotics", "kernels"):
        for attr in LEAF_TARGETS[module]:
            calls_busy(f"{module}.{attr}")

    for check in check_names:
        put(f"verification.{check}.busy_s", busy.get(f"verification.{check}", 0.0), "s")

    calls_busy("cli.main")
    put("cli.main.self_s", self_t.get("cli.main", 0.0), "s")
    put("cli.main.bytes_out", counts.get("cli.main.bytes_out", 0), "count")
    for key, (value, _) in out.items():
        if not math.isfinite(value):
            raise ValueError(f"non-finite layer metric {key}")
    return out
