"""The four benchmark workloads.

Each workload is a fixed list of calls into the package's public functions,
made one after another by a single caller (a closed loop).  ``setup`` makes
the inputs from the seed and warms up; a pass runs ``begin_pass`` and then
every op in order; ``check`` validates each op's output after the pass, off
the clock.  An operation whose call raises or whose output fails a check
counts as failed.

Why these four (README.md has the metric-to-layer map):

* spectrum-sweep - exact Bernoulli-spectrum route from an empty spectrum
  cache; the time goes to ``build_spectrum`` (the gamma ladder at level 0,
  coefficient assembly at levels 8 and 16).
* ball-integral  - oscillatory Bessel integral route; the time goes to
  ``specfun.bessel_j`` and the panel and tail loop of ``window_stats``.
* mc-gate        - Monte Carlo cells on warm spectra: per-replica cost on
  the 36 gate cells, per-cell draw cost on two D=2, R=10 cells.
* verify-cli     - the deterministic ``verify`` checks from a cold cache plus
  in-process CLI calls; the only workload that reaches ``kernels``,
  ``asymptotics``, ``cli`` and ``verification``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import struct
from dataclasses import dataclass
from typing import Any, Callable

# Every exact-route radius is scaled by a factor drawn from 1 +- JITTER, so a
# result cannot lean on particular R values.
JITTER = 0.03
MC_CELL_FLOOR = 1e-12  # the floor verification's Monte Carlo gate uses
Z_LIMIT = 5.0

Result = list[tuple[str, "str | None"]]  # (operation label, error or None)


@dataclass
class Op:
    name: str
    call: Callable[..., Any]
    args: tuple = ()
    phase: str | None = None


def _jitter(rng: random.Random, r: float) -> float:
    return r * (1.0 + rng.uniform(-JITTER, JITTER))


def _geometric(n: int, lo: float, hi: float) -> list[float]:
    step = (hi / lo) ** (1.0 / (n - 1))
    return [lo * step**k for k in range(n)]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _errors(*pairs) -> str | None:
    """Join the messages whose condition failed; None when all held."""
    text = "; ".join(msg for ok, msg in pairs if not ok)
    return text or None


class Workload:
    name = ""

    def __init__(self, mods: dict, seed: int, tiny: bool, workdir: str):
        self.m = mods
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.tracer = None  # set by the runner for traced passes
        self.ops: list[Op] = []

    def setup(self) -> None:
        raise NotImplementedError

    def begin_pass(self) -> None:
        pass

    def check(self, op: Op, value) -> Result:
        raise NotImplementedError

    def finish_pass(self, values: dict) -> Result:
        return []

    def report(self) -> dict:
        return {}

    def _clear_spectrum_cache(self) -> None:
        # A CLI process starts with this cache empty.
        self.m["window_stats"]._cached_spectrum.cache_clear()

    def _spec(self, dimension, level=None):
        return self.m["kernels"].KernelSpec(dimension, level)


class SpectrumSweep(Workload):
    name = "spectrum-sweep"

    def setup(self):
        ws, an = self.m["window_stats"], self.m["analysis"]
        self.spec2 = self._spec(2, (0, 1))
        self.grid = [_jitter(self.rng, r) for r in _geometric(8 if self.tiny else 16, 1.0, 50.0)]
        levels = (2,) if self.tiny else (2, 8, 16)
        radii = (20.0,) if self.tiny else (20.0, 50.0)
        cases = [(self._spec(1, (m,)), _jitter(self.rng, r)) for m in levels for r in radii]
        self.limit = ws.polydisk_limit_constant(self.spec2)
        # warm-up: every code path once, at small radii
        an.classify(an.run_sweep(self.spec2, "polydisk", _geometric(6, 1.0, 3.0), "spectrum"))
        for spec, _ in cases:
            ws.polydisk_moments(spec, 2.0)
        self.ops = [Op("sweep-classify", self._sweep)] + [
            Op(f"polydisk m={spec.level[0]} R={r:.4f}", self._moments, (spec, r))
            for spec, r in cases
        ]
        self.digest = None

    def _sweep(self):
        an = self.m["analysis"]
        sweep = an.run_sweep(self.spec2, "polydisk", self.grid, "spectrum")
        return sweep, an.classify(sweep)

    def _moments(self, spec, r):
        return self.m["window_stats"].polydisk_moments(spec, r)

    def begin_pass(self):
        self._clear_spectrum_cache()

    @staticmethod
    def _moment_conditions(rep, r, dim):
        return [
            (abs(rep.mean - r ** (2 * dim)) <= rep.error_estimate,
             f"mean {rep.mean!r} not within {rep.error_estimate:.3e} of R^{2 * dim}"),
            (0.0 <= rep.variance <= rep.mean, f"variance {rep.variance!r} outside [0, mean]"),
        ]

    def check(self, op, value):
        if op.args:
            return [(op.name, _errors(*self._moment_conditions(value, op.args[1], 1)))]
        ws, an = self.m["window_stats"], self.m["analysis"]
        sweep, report = value
        out = []
        for row in sweep.rows:
            rep = ws.polydisk_moments(self.spec2, row.r)  # a cache hit that carries error_estimate
            out.append((f"sweep R={row.r:.4f}", _errors(
                *self._moment_conditions(rep, row.r, 2),
                ((rep.mean, rep.variance) == (row.mean, row.variance), "row differs from polydisk_moments"),
            )))
        out.append(("classify", _errors(
            (report.class_label is an.ClassLabel.CLASS_I, f"classified {report.class_label.value}"),
            (_rel(report.leading_constant, self.limit) <= 0.03,
             f"leading constant {report.leading_constant!r} vs limit {self.limit!r}"),
        )))
        return out

    def finish_pass(self, values):
        sweep, report = values["sweep-classify"]
        floats = [
            v for row in sweep.rows
            for v in (row.r, row.mean, row.variance, row.ratio, row.r_times_ratio)
        ]
        floats += [report.fitted_slope, report.slope_stderr, report.leading_constant]
        for op in self.ops[1:]:
            rep = values[op.name]
            floats += [rep.mean, rep.variance, rep.ratio, rep.error_estimate]
        digest = hashlib.sha256(struct.pack(f"<{len(floats)}d", *floats)).hexdigest()[:16]
        if self.digest is None:
            self.digest = digest
        return [("digest", _errors((digest == self.digest, f"digest {digest} != first pass {self.digest}")))]

    def report(self):
        return {"digest": self.digest}


class BallIntegral(Workload):
    name = "ball-integral"

    def setup(self):
        ws = self.m["window_stats"]
        hi, n = (5.0, 6) if self.tiny else (50.0, 16)
        self.grid = [_jitter(self.rng, r) for r in _geometric(n, 1.0, hi)]
        radii = (0.5, 1.0) if self.tiny else (0.5, 1.0, 2.0, 5.0, 10.0)
        cases = [(d, _jitter(self.rng, r)) for d in (2, 3) for r in radii]
        ws.variance_ball_integral(1, 1.0)  # warm-up
        self.ops = [Op("sweep", self._sweep)] + [
            Op(f"integral D={d} R={r:.4f}", self._integral, (d, r)) for d, r in cases
        ]
        # references from the independent closed form, made once
        self.closed = {
            (d, r): ws.variance_ball_closed(d, r)
            for d, r in [(1, r) for r in self.grid] + cases
        }

    def _sweep(self):
        return self.m["analysis"].run_sweep(self._spec(1), "ball", self.grid, "integral")

    def _integral(self, d, r):
        return self.m["window_stats"].variance_ball_integral(d, r)

    def _close_enough(self, label, value, d, r):
        ref = self.closed[(d, r)]
        return (label, _errors((_rel(value, ref) <= 1e-6, f"integral {value!r} vs closed {ref!r}")))

    def check(self, op, value):
        if op.args:
            return [self._close_enough(op.name, value, *op.args)]
        return [self._close_enough(f"sweep R={row.r:.4f}", row.variance, 1, row.r) for row in value.rows]


class McGate(Workload):
    """The seed is the Monte Carlo master seed; the cells are fixed."""

    name = "mc-gate"
    # Replica counts sized so that the two groups take similar time.
    SMALL_REPLICAS = 400
    LARGE_REPLICAS = 900

    def setup(self):
        mc, ws, ver = self.m["montecarlo"], self.m["window_stats"], self.m["verification"]
        small_n, large_n = (20, 20) if self.tiny else (self.SMALL_REPLICAS, self.LARGE_REPLICAS)
        small = mc.McConfig(replicas=small_n, seed=self.seed, cell_prob_floor=MC_CELL_FLOOR)
        large = mc.McConfig(replicas=large_n, seed=self.seed, cell_prob_floor=MC_CELL_FLOOR)
        gate = ver.mc_gate_cells()
        if self.tiny:
            gate = gate[:6]
        big = [(self._spec(2, lv), 10.0) for lv in ((0, 0), (2, 2))]
        self.ops = [
            Op(f"gate D={s.dimension} level={s.level} R={r:g}", self._estimate, (s, r, small), "small")
            for s, r in gate
        ]
        self.ops.append(Op("repeat " + self.ops[0].name, self._estimate, self.ops[0].args, "small"))
        self.ops += [
            Op(f"large D=2 level={s.level} R={r:g}", self._estimate, (s, r, large), "large")
            for s, r in big
        ]
        # warm the spectra; the exact moments are the reference
        self.exact = {(s, r): ws.polydisk_moments(s, r) for s, r in gate + big}
        mc.estimate_moments(gate[0][0], gate[0][1], mc.McConfig(replicas=10, seed=self.seed))
        self.worst_z = (0.0, "")

    def _estimate(self, spec, r, cfg):
        return self.m["montecarlo"].estimate_moments(spec, r, cfg)

    def check(self, op, value):
        spec, r, _ = op.args
        exact = self.exact[(spec, r)]
        z = max(_z(value.mean_hat, exact.mean, value.se_mean), _z(value.var_hat, exact.variance, value.se_var))
        if z > self.worst_z[0]:
            self.worst_z = (z, op.name)
        return [(op.name, _errors((z <= Z_LIMIT, f"|z| = {z:.2f} > {Z_LIMIT}")))]

    def finish_pass(self, values):
        first, repeat = self.ops[0].name, "repeat " + self.ops[0].name
        same = values[first] == values[repeat]
        return [("same-seed repeat", _errors((same, "same seed gave a different McEstimate")))]

    def report(self):
        return {"worst_z": self.worst_z[0], "worst_z_cell": self.worst_z[1]}


def _z(estimate: float, exact: float, se: float) -> float:
    if se > 0.0:
        return abs(estimate - exact) / se
    return 0.0 if estimate == exact else math.inf


class VerifyCli(Workload):
    name = "verify-cli"
    FAST_CHECKS = ("alpha-coefficients", "class-one-constants", "ginibre-constant")

    def setup(self):
        ver = self.m["verification"]
        self.checks = [n for n in ver.ALL_CHECKS if n != "monte-carlo-gate"]
        if self.tiny:
            self.checks = [n for n in self.checks if n in self.FAST_CHECKS]
        rng = self.rng
        r1, r2 = _jitter(rng, 2.0), _jitter(rng, 3.0)
        grid = ",".join(repr(_jitter(rng, r)) for r in _geometric(16, 1.0, 50.0))

        def point():
            return ";".join(f"{rng.uniform(-1, 1):.6f},{rng.uniform(-1, 1):.6f}" for _ in range(2))

        calls = [
            ("stats-closed-d1", "csv", 1, ["stats", "--dimension", "1", "--window", "ball", "--route", "closed", "--radius", repr(r1)]),
            ("stats-spectrum-d1", "json", 1, ["stats", "--dimension", "1", "--window", "polydisk", "--route", "spectrum", "--radius", repr(r1)]),
            ("stats-closed-d2", "json", 1, ["stats", "--dimension", "2", "--window", "ball", "--route", "closed", "--radius", repr(r2)]),
            ("stats-spectrum-d2", "json", 1, ["stats", "--dimension", "2", "--level", "1,2", "--route", "spectrum", "--radius", repr(r2)]),
        ]
        calls += [
            (f"classify-closed-d{d}", "json", 16,
             ["classify", "--dimension", str(d), "--window", "ball", "--route", "closed", "--r-grid", grid])
            for d in (1, 2, 3)
        ]
        calls += [
            ("constants", "json", 3, ["constants", "--dimension", "3", "--level", "0,1,2"]),
            ("kernel-eval", "json", 1, ["kernel-eval", "--dimension", "2", "--level", "1,0", f"--x={point()}", f"--y={point()}"]),
        ]
        fast = [a for c in self.FAST_CHECKS for a in ("--check", c)]
        calls += [(f"verify-{fmt}", fmt, len(self.FAST_CHECKS), ["verify", *fast]) for fmt in ("json", "csv")]
        self.ops = [Op("run_checks", self._run_checks)]
        for name, fmt, rows, argv in calls:
            path = os.path.join(self.workdir, f"{name}.{fmt}")
            full = argv + ["--format", fmt, "--out", path]
            self.ops.append(Op(f"cli {name}", self._cli, (full, path, fmt, rows)))
        ver.run_checks(["alpha-coefficients"])  # warm-up
        self._cli(*self.ops[1].args)

    def begin_pass(self):
        self._clear_spectrum_cache()

    def _run_checks(self):
        return self.m["verification"].run_checks(self.checks)

    def _cli(self, argv, path, fmt, rows):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            try:
                code = self.m["cli"].main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if self.tracer is not None:
            self.tracer.count("cli.main.bytes_out", len(stdout.getvalue().encode()) + len(text.encode()))
        return code, text

    def check(self, op, value):
        if op.name == "run_checks":
            got = [r.name for r in value]
            out = [(f"check {r.name}", None if r.passed else r.line()) for r in value]
            if got != self.checks:
                out.append(("check list", f"ran {got}"))
            return out
        _, _, fmt, want_rows = op.args
        code, text = value
        if fmt == "json":
            doc = json.loads(text)
            rows = doc["rows"]
        else:
            rows = list(csv.DictReader(io.StringIO(text)))
        err = _errors((code == 0, f"exit code {code}"), (len(rows) == want_rows, f"{len(rows)} rows, want {want_rows}"))
        if err is None and op.name.startswith("cli classify"):
            label = doc["classification"]["class_label"]
            err = _errors((label == "ClassI", f"classified {label}"))
        return [(op.name, err)]

    def finish_pass(self, values):
        # The D=1 disk is both a ball and a polydisk: closed and spectrum agree.
        closed = values["cli stats-closed-d1"][1]
        spectrum = values["cli stats-spectrum-d1"][1]
        row_c = next(csv.DictReader(io.StringIO(closed)))
        row_s = json.loads(spectrum)["rows"][0]
        return [("stats closed vs spectrum D=1", _errors(*(
            (_rel(float(row_s[k]), float(row_c[k])) <= 1e-6, f"{k}: {row_s[k]} vs {row_c[k]}")
            for k in ("mean", "variance")
        )))]


WORKLOADS = {w.name: w for w in (SpectrumSweep, BallIntegral, McGate, VerifyCli)}
