"""Cross-route verification suite.

Every quantity the package computes is checked against an independent
route: closed form vs quadrature, exact spectrum vs closed form, series
vs exact ratio, exact constants vs hand-derived values vs their large-m
asymptote, exact moments vs Monte Carlo, kernel product form vs its
series expansion, and raw special functions vs recurrence identities and
reference oracles.

Each check returns its worst observed delta normalized by its tolerance;
``run_checks`` names it and passes it when ``max_delta <= tolerance``,
the tolerance being its ``scale`` argument.  The detail string carries
the raw numbers, which the result also holds as fields (the worst
sub-case, its raw delta and its raw tolerance) for machine-readable
output.  A zero scale therefore fails every check with nonzero error,
which is the intended way to demonstrate that reported deltas are real.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from . import asymptotics, montecarlo
from .analysis import (
    ClassLabel,
    classify,
    default_r_grid,
    poisson_control_sweep,
    run_sweep,
)
from .kernels import (
    ComplexPoint,
    KernelSpec,
    correlation_det,
    gauge_transform,
    hermitized_kernel,
    kernel_series_partial,
)
from .specfun import _as_float, bessel_i_scaled, laguerre, regularized_lower_gamma
from .window_stats import (
    Route,
    WindowKind,
    c_constant,
    mean_ball,
    polydisk_limit_constant,
    polydisk_moments,
    variance_ball_closed,
    variance_ball_integral,
    variance_ratio_ball,
)

MC_GATE_SEED = 20260813
MC_GATE_REPLICAS = 100_000


class CheckResult(NamedTuple):
    """One check's verdict.

    ``detail`` is the human summary of the worst sub-check; ``sub_case``,
    ``raw_delta`` and ``raw_tolerance`` are its parts (the raw pair is None
    when the check failed outright rather than by a delta).
    """

    name: str
    passed: bool
    max_delta: float
    tolerance: float
    detail: str
    sub_case: str | None = None
    raw_delta: float | None = None
    raw_tolerance: float | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: max normalized delta {self.max_delta:.3e} "
            f"vs tolerance {self.tolerance:.3e} ({self.detail})"
        )


class _Worst:
    """Tracks the largest tolerance-normalized deviation and its context."""

    def __init__(self):
        self.delta = 0.0
        self.note = "all sub-checks at zero deviation"
        self.sub_case = None
        self.raw = None
        self.raw_tol = None

    def add(self, raw: float, tol: float, note: str) -> None:
        normalized = math.inf if tol == 0.0 and raw != 0.0 else (raw / tol if tol else 0.0)
        if normalized >= self.delta:
            self.delta = normalized
            self.note = f"{note}: raw {raw:.3e} vs {tol:.3e}"
            self.sub_case, self.raw, self.raw_tol = note, raw, tol

    def fail(self, note: str) -> None:
        self.delta = math.inf
        self.note = note
        self.sub_case, self.raw, self.raw_tol = note, None, None

    def result(self, name: str, scale: float) -> CheckResult:
        return CheckResult(
            name=name,
            passed=self.delta <= scale,
            max_delta=self.delta,
            tolerance=scale,
            detail=self.note,
            sub_case=self.sub_case,
            raw_delta=self.raw,
            raw_tolerance=self.raw_tol,
        )


def check_ball_route_cross() -> _Worst:
    worst = _Worst()
    radii = (0.5, 1.0, 2.0, 5.0, 10.0)
    for dim in (1, 2, 3):
        for r, integral in zip(radii, variance_ball_integral(dim, radii).tolist()):
            closed = variance_ball_closed(dim, r)
            worst.add(abs(integral - closed) / closed, 1e-6, f"D={dim} R={r}")
    return worst


def _constant_gap(dim: int) -> float:
    target = dim / math.sqrt(math.pi)
    ratio = variance_ratio_ball(dim, 50.0)
    return abs(50.0 * ratio - target) / target


def check_ginibre_constant() -> _Worst:
    worst = _Worst()
    worst.add(_constant_gap(1), 0.02, "D=1 R=50 vs 1/sqrt(pi)")
    return worst


def check_heisenberg_constant() -> _Worst:
    worst = _Worst()
    for dim in (2, 3):
        worst.add(_constant_gap(dim), 0.02, f"D={dim} R=50 vs D/sqrt(pi)")
    return worst


def check_asymptotic_expansion() -> _Worst:
    # The truncation remainder is asymptotically the first omitted term;
    # successive coefficients do not strictly alternate in sign, so the
    # standard constructive envelope is twice that term.
    worst = _Worst()
    for dim in (1, 2, 3):
        for r in (5.0, 10.0, 20.0):
            exact = variance_ratio_ball(dim, r)
            approx = asymptotics.ratio_series_eval(dim, r, order=3)
            bound = 2.0 * approx.abs_error_bound + 64 * 2.3e-16 * abs(exact)
            worst.add(abs(approx.value - exact), bound, f"D={dim} R={r}")
    return worst


def check_alpha_coefficients() -> _Worst:
    worst = _Worst()
    for dim in range(1, 7):
        got = asymptotics.alpha_coefficient(1, dim)
        want = (2 * dim - 1) * (2 * dim + 1)
        worst.add(abs(got - want), 0.5, f"alpha_1({dim})")
    worst.add(abs(asymptotics.alpha_coefficient(2, 1) - (-15)), 0.5, "alpha_2(1)")
    return worst


def check_spectrum_route() -> _Worst:
    worst = _Worst()
    spec = KernelSpec(1, (0,))
    for r in (1.0, 2.0, 5.0, 10.0):
        rep = polydisk_moments(spec, r)
        mean = mean_ball(1, r)
        var = variance_ball_closed(1, r)
        worst.add(abs(rep.mean - mean) / mean, 1e-6, f"mean R={r}")
        worst.add(abs(rep.variance - var) / var, 1e-6, f"variance R={r}")
    return worst


def check_class_one_constants() -> _Worst:
    worst = _Worst()
    worst.add(abs(c_constant(0) - 1.0 / math.sqrt(math.pi)), 1e-12, "C(0)")
    worst.add(abs(c_constant(1) - 7.0 / (4.0 * math.sqrt(math.pi))), 1e-12, "C(1)")
    ratio = c_constant(1000) / asymptotics.c_asymptote(1000)
    worst.add(abs(ratio - 1.0), 0.02, "C(1000) vs (8/pi^2) sqrt(m)")
    return worst


def check_polydisk_limit() -> _Worst:
    worst = _Worst()
    cases = [
        KernelSpec(1, (1,)),
        KernelSpec(1, (2,)),
        KernelSpec(2, (0, 1)),
        KernelSpec(2, (1, 1)),
        KernelSpec(3, (0, 1, 2)),
    ]
    for spec in cases:
        target = polydisk_limit_constant(spec)
        rep = polydisk_moments(spec, 50.0)
        worst.add(
            abs(50.0 * rep.ratio - target) / target,
            0.03,
            f"D={spec.dimension} level={spec.level}",
        )
    return worst


def check_kernel_series() -> _Worst:
    rng = np.random.default_rng(1234)
    worst = _Worst()

    def point() -> complex:
        return complex(*rng.uniform(-math.sqrt(2.0), math.sqrt(2.0), size=2))

    for m in range(6):
        pairs = [(point(), point()) for _ in range(20)]  # x, then y
        sums = kernel_series_partial(m, *map(np.array, zip(*pairs)), n_terms=100)
        for (x, y), got in zip(pairs, sums.tolist()):
            t = abs(x - y) ** 2
            want = cmath.exp(x * y.conjugate()) * laguerre(m, 0.0, t) / math.factorial(m)
            worst.add(abs(got - want), 1e-10, f"m={m} x={x:.3f} y={y:.3f}")
    return worst


def _random_point(rng, dim: int) -> ComplexPoint:
    return ComplexPoint(
        tuple(rng.uniform(-1.5, 1.5, size=dim)), tuple(rng.uniform(-1.5, 1.5, size=dim))
    )


def check_gauge_invariance() -> _Worst:
    rng = np.random.default_rng(987)
    worst = _Worst()
    for trial in range(100):
        dim = int(rng.integers(1, 4))
        level = tuple(int(v) for v in rng.integers(0, 4, size=dim))
        spec = KernelSpec(dim, level)
        n_pts = int(rng.integers(1, 7))
        points = [_random_point(rng, dim) for _ in range(n_pts)]
        coeffs = rng.uniform(-0.7, 0.7, size=2 * dim + 1)

        def gauge(p: ComplexPoint) -> complex:
            s = coeffs[-1]
            for j in range(dim):
                s += coeffs[2 * j] * p.re[j] + coeffs[2 * j + 1] * p.im[j]
            return cmath.exp(complex(s, 0.3 * s))

        # both determinants read one kernel matrix, indexed by point number
        matrix = [[hermitized_kernel(spec, a, b) for b in points] for a in points]
        base = lambda i, j: matrix[i][j]
        gauges = [gauge(p) for p in points]
        index = range(n_pts)
        plain = correlation_det(base, index)
        gauged = correlation_det(gauge_transform(base, gauges.__getitem__), index, imag_tol=1e-6)
        scale = max(abs(plain), 1e-300)
        worst.add(abs(gauged - plain) / scale, 1e-9, f"trial {trial} D={dim} n={n_pts}")
    return worst


def mc_gate_cells() -> list[tuple[KernelSpec, float]]:
    cells: list[tuple[KernelSpec, float]] = []
    for radius in (1.0, 3.0, 5.0):
        for m in range(3):
            cells.append((KernelSpec(1, (m,)), radius))
        for m0 in range(3):
            for m1 in range(3):
                cells.append((KernelSpec(2, (m0, m1)), radius))
    return cells


def check_monte_carlo_gate() -> _Worst:
    worst = _Worst()
    cfg_small = montecarlo.McConfig(replicas=2000, seed=MC_GATE_SEED)
    rep_a = montecarlo.estimate_moments(KernelSpec(1, (0,)), 1.0, cfg_small)
    rep_b = montecarlo.estimate_moments(KernelSpec(1, (0,)), 1.0, cfg_small)
    if rep_a != rep_b:
        worst.fail("identical seeds produced different estimates")
        return worst

    cells = mc_gate_cells()
    hits = 0
    overdispersed = []
    worst_z = (0.0, "")
    for spec, radius in cells:
        cfg = montecarlo.McConfig(
            replicas=MC_GATE_REPLICAS, seed=MC_GATE_SEED, cell_prob_floor=1e-12
        )
        est = montecarlo.estimate_moments(spec, radius, cfg)
        exact = polydisk_moments(spec, radius)
        z_mean = abs(est.mean_hat - exact.mean) / est.se_mean
        z_var = abs(est.var_hat - exact.variance) / est.se_var
        if z_mean <= 3.0 and z_var <= 3.0:
            hits += 1
        z = max(z_mean, z_var)
        if z > worst_z[0]:
            worst_z = (z, f"D={spec.dimension} level={spec.level} R={radius}")
        if est.var_hat >= est.mean_hat:
            overdispersed.append((spec.level, radius))
    coverage = hits / len(cells)
    worst.add(1.0 - coverage, 0.05, f"coverage {coverage:.3f}, worst z {worst_z[0]:.2f} at {worst_z[1]}")
    if overdispersed:
        worst.fail(f"var_hat >= mean_hat in cells {overdispersed}")
    return worst


def check_classification() -> _Worst:
    worst = _Worst()
    grid = default_r_grid()
    for dim in (1, 2, 3):
        sweep = run_sweep(KernelSpec(dim), WindowKind.BALL, grid, Route.CLOSED_FORM)
        report = classify(sweep)
        if report.class_label is not ClassLabel.CLASS_I:
            worst.fail(f"D={dim} sweep labeled {report.class_label.value}")
            continue
        worst.add(
            abs(report.fitted_slope - (2 * dim - 1)), 0.05, f"D={dim} slope"
        )
        control = classify(poisson_control_sweep(dim, grid))
        if control.class_label is not ClassLabel.NOT_HYPERUNIFORM:
            worst.fail(f"D={dim} control labeled {control.class_label.value}")
    return worst


def _bessel_i_series_oracle(nu: int, x: float) -> float:
    half = 0.5 * x
    log_t = nu * math.log(half) - math.lgamma(nu + 1) - x
    terms = []
    total = 0.0
    prev = math.inf
    k = 0
    while True:
        t = math.exp(log_t)
        terms.append(t)
        total += t
        # terms rise to a peak then decay to exact zero, so this always fires
        if t == 0.0 or (t < prev and t < 1e-18 * total):
            break
        prev = t
        k += 1
        log_t += 2.0 * math.log(half) - math.log(k) - math.log(k + nu)
    return math.fsum(terms)


def check_specfun_floor() -> _Worst:
    rng = np.random.default_rng(55)
    worst = _Worst()
    draws = [
        (int(rng.integers(2, 80)), float(rng.uniform(-1.0, 12.0)), float(rng.uniform(0.0, 60.0)))
        for _ in range(300)
    ]
    ns, alphas, xs = map(np.array, zip(*draws))
    trios = zip(*(laguerre(ns + j, alphas, xs).tolist() for j in (-1, 0, 1)))
    for (n, alpha, x), (lm1, l0, lp1) in zip(draws, trios):
        residual = (n + 1) * lp1 - (2 * n + 1 + alpha - x) * l0 + (n + alpha) * lm1
        scale = max(abs(lm1), abs(l0), abs(lp1), 1e-300)
        worst.add(abs(residual) / ((2 * n + 2 + alpha + x) * scale), 1e-9, f"laguerre n={n}")
    for _ in range(300):
        s = float(rng.uniform(0.2, 40.0))
        x = float(rng.uniform(0.01, 60.0))
        step = regularized_lower_gamma(s + 1.0, x) - regularized_lower_gamma(s, x)
        exact = -math.exp(s * math.log(x) - x - math.lgamma(s + 1.0))
        worst.add(abs(step - exact), 1e-12, f"gamma ladder s={s:.2f} x={x:.2f}")
    for _ in range(200):
        nu = int(rng.integers(0, 12))
        x = float(rng.uniform(0.05, 30.0))
        got = bessel_i_scaled(nu, x)
        want = _bessel_i_series_oracle(nu, x)
        worst.add(abs(got - want) / want, 1e-10, f"ive nu={nu} x={x:.2f}")
    for nu in (0, 1, 3):
        got = bessel_i_scaled(nu, 1.0e4)
        leading = 1.0 / math.sqrt(2.0 * math.pi * 1.0e4)
        worst.add(abs(got - leading) / leading, 1e-3, f"ive asymptote nu={nu}")
    return worst


ALL_CHECKS = {
    "ball-route-cross-check": check_ball_route_cross,
    "ginibre-constant": check_ginibre_constant,
    "heisenberg-constant": check_heisenberg_constant,
    "asymptotic-expansion": check_asymptotic_expansion,
    "alpha-coefficients": check_alpha_coefficients,
    "spectrum-route-equivalence": check_spectrum_route,
    "class-one-constants": check_class_one_constants,
    "polydisk-limit": check_polydisk_limit,
    "kernel-series-identity": check_kernel_series,
    "gauge-invariance": check_gauge_invariance,
    "monte-carlo-gate": check_monte_carlo_gate,
    "classification": check_classification,
    "special-function-floor": check_specfun_floor,
}


def run_checks(names: list[str] | None = None, scale: float = 1.0) -> list[CheckResult]:
    """Run the named checks (all of them by default) in order; each passes
    when its worst normalized delta is at most ``scale``."""
    scale = _as_float("scale", scale)
    if not (scale >= 0.0 and math.isfinite(scale)):
        raise ValueError(f"scale must be finite and >= 0, got {scale}")
    selected = list(ALL_CHECKS) if names is None else names
    unknown = [n for n in selected if n not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; known: {sorted(ALL_CHECKS)}")
    return [ALL_CHECKS[name]().result(name, scale) for name in selected]
