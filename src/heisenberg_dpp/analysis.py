"""Radius sweeps and hyperuniformity classification.

A sweep evaluates mean, variance, Var/mean, and R * Var/mean over an
increasing radius grid through one of the computation routes.  The
classifier fits log variance against log radius over the large-R end of
the sweep and labels the growth class; a synthetic Poisson control
(variance forced equal to the mean) provides the negative case.

Class labels, with d = 2D the real dimension and s the fitted slope:

* ClassI          |s - (d-1)| <= CLASS_ONE_BAND, no systematic curvature
* ClassII         same slope band, but adding a log log-term improves the
                  fit by more than CURVATURE_IMPROVEMENT (with magnitude
                  and residual guards CURVATURE_COEFF_MIN and SSR_FLOOR, so
                  exact power laws stay ClassI)
                  and explains the curvature better than a decaying 1/R
                  correction does (so Class-I processes observed at finite
                  radius, whose ratio approaches its limit from below, are
                  not mistaken for log-enhanced growth)
* ClassIII        s in (d-1+CLASS_ONE_BAND, d-NOT_HYPER_MARGIN)
* NotHyperuniform s >= d-NOT_HYPER_MARGIN
* Inconclusive    anything else, or a degenerate fit

The leading constant lim R * Var/mean is recovered by two-point
Richardson extrapolation in R^(-2), matching the even-power structure of
the large-R expansion.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .exceptions import UnsupportedConfigurationError
from .kernels import KernelSpec
from .montecarlo import CellCounts, McConfig, estimate_moments
from .specfun import _as_float, _check_array, _check_index, _check_positive, _checked_make
from .window_stats import (
    _TAIL_TOL,
    Route,
    WindowKind,
    ball_moments,
    mean_ball,
    polydisk_moments,
)


CLASS_ONE_BAND = 0.1
NOT_HYPER_MARGIN = 0.1
CURVATURE_IMPROVEMENT = 10.0
CURVATURE_COEFF_MIN = 0.25
SSR_FLOOR = 1e-9
_FIT_WINDOW = 0.5  # default share of largest-R rows classify fits (--fit-window)


class ClassLabel(enum.Enum):
    CLASS_I = "ClassI"
    CLASS_II = "ClassII"
    CLASS_III = "ClassIII"
    NOT_HYPERUNIFORM = "NotHyperuniform"
    INCONCLUSIVE = "Inconclusive"


class SweepRow(NamedTuple):
    r: float
    mean: float
    variance: float
    ratio: float
    r_times_ratio: float
    # standard errors of mean and variance and the sampler's cell counts;
    # set on the Monte Carlo route only
    se_mean: float | None = None
    se_var: float | None = None
    cells: CellCounts | None = None


class _SweepResultFields(NamedTuple):
    rows: tuple[SweepRow, ...]
    spec: KernelSpec
    window_kind: WindowKind
    route: Route


class SweepResult(_SweepResultFields):
    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, rows: tuple[SweepRow, ...], spec: KernelSpec,
                window_kind: WindowKind, route: Route):
        radii = [row.r for row in rows]
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("sweep rows must be sorted by strictly increasing R")
        # exact routes are under-dispersed to rounding error; a Monte Carlo
        # sample variance obeys no deterministic bound
        if route != Route.MONTE_CARLO:
            for row in rows:
                if row.variance > row.mean + 1e-9 * row.mean:
                    raise ValueError(
                        f"row R={row.r}: variance {row.variance} exceeds mean {row.mean}"
                    )
        return super().__new__(cls, rows, spec, window_kind, route)


class _ClassReportFields(NamedTuple):
    fitted_slope: float
    slope_stderr: float
    leading_constant: float
    class_label: ClassLabel
    detail: dict


class ClassReport(_ClassReportFields):
    """``detail`` defaults to a fresh dict for each report."""

    __slots__ = ()

    def __new__(cls, fitted_slope: float, slope_stderr: float, leading_constant: float,
                class_label: ClassLabel, detail: dict | None = None):
        if detail is None:
            detail = {}
        return super().__new__(cls, fitted_slope, slope_stderr, leading_constant,
                               class_label, detail)


def default_r_grid(n: int = 16, lo: float = 1.0, hi: float = 50.0) -> tuple[float, ...]:
    """Geometric grid; percent-level ratio convergence arrives by R = 50."""
    n, lo, hi = _check_index("n", n, 2), _check_positive("lo", lo), _check_positive("hi", hi)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
    step = (hi / lo) ** (1.0 / (n - 1))
    return tuple(lo * step**k for k in range(n))


def run_sweep(
    spec: KernelSpec,
    window_kind: WindowKind,
    r_grid,
    route: Route,
    tail_tol: float = _TAIL_TOL,
    mc: McConfig | None = None,
) -> SweepResult:
    """One SweepRow per grid radius, all computed by the requested route;
    ``r_grid`` is an array argument (see the `specfun` module notes).

    The closed and integral routes pass the whole grid to ball_moments, so
    the integral route's radii share Bessel calls; each row is bit for bit
    the one its radius gets alone.
    """
    window_kind = WindowKind(window_kind)
    route = Route(route)
    radii = _check_array("radius", r_grid, _check_positive)[0].tolist()
    if not radii:
        raise ValueError("r_grid must be nonempty")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("r_grid must be strictly increasing")
    if route in (Route.CLOSED_FORM, Route.INTEGRAL):
        # Closed forms exist for the ball at level zero; the disk is the
        # one window that is simultaneously a ball and a polydisk.
        if any(spec.level) or (
            window_kind == WindowKind.POLYDISK and spec.dimension != 1
        ):
            raise UnsupportedConfigurationError(
                f"route {route.value!r} needs the level-zero ball (or its D=1 "
                f"disk alias); got window={window_kind.value}, "
                f"dimension={spec.dimension}, level={spec.level}"
            )
    elif window_kind == WindowKind.BALL and spec.dimension != 1:
        raise UnsupportedConfigurationError(
            "the spectrum representation covers polydisks; for balls it "
            "applies only in dimension 1 where the two windows coincide"
        )
    elif route == Route.MONTE_CARLO and mc is None:
        raise ValueError("route 'mc' requires an McConfig")
    if route == Route.MONTE_CARLO:
        rows = []
        for r in radii:
            est = estimate_moments(spec, r, mc, tail_tol)
            ratio = est.var_hat / est.mean_hat if est.mean_hat else math.nan
            rows.append(SweepRow(
                r, est.mean_hat, est.var_hat, ratio, r * ratio,
                est.se_mean, est.se_var, est.cells,
            ))
    else:
        if route == Route.SPECTRUM:
            reports = [polydisk_moments(spec, r, tail_tol) for r in radii]
        else:
            reports = ball_moments(spec.dimension, radii, route)
        rows = [
            SweepRow(r, rep.mean, rep.variance, rep.ratio, r * rep.ratio)
            for r, rep in zip(radii, reports)
        ]
    return SweepResult(rows=tuple(rows), spec=spec, window_kind=window_kind, route=route)


def poisson_control_sweep(dimension: int, r_grid) -> SweepResult:
    """Synthetic non-hyperuniform control: variance pinned to the mean.

    Labelled with the closed-form route: the rows are exact, so the
    exact-route dispersion slack applies.  ``r_grid`` as for run_sweep.
    """
    rows = tuple(
        SweepRow(
            r=r,
            mean=mean_ball(dimension, r),
            variance=mean_ball(dimension, r),
            ratio=1.0,
            r_times_ratio=r,
        )
        for r in _check_array("radius", r_grid, _check_positive)[0].tolist()
    )
    return SweepResult(
        rows=rows,
        spec=KernelSpec(dimension),
        window_kind=WindowKind.BALL,
        route=Route.CLOSED_FORM,
    )


def _ols(xs: list[float], ys: list[float]):
    n = len(xs)
    xbar = math.fsum(xs) / n
    ybar = math.fsum(ys) / n
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    ssr = math.fsum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    stderr = math.sqrt(ssr / (n - 2) / sxx) if n > 2 else math.inf
    return slope, intercept, stderr, ssr


def _two_regressor_fit(x1, x2, ys):
    """Coefficients and SSR of least squares on [1, x1, x2]."""
    a = np.column_stack([np.ones(len(ys)), x1, x2])
    beta = np.linalg.lstsq(a, ys, rcond=None)[0]
    return beta, math.fsum(((a @ beta - ys) ** 2).tolist())


def classify(sweep: SweepResult, fit_window: float = _FIT_WINDOW) -> ClassReport:
    """Label the variance growth class from the large-R end of a sweep.

    fit_window is the fraction of largest-R rows used for the fit (at
    least 6 rows).  Degenerate inputs (nonpositive variances) come back
    Inconclusive rather than raising.  The thresholds are the module
    constants CLASS_ONE_BAND, NOT_HYPER_MARGIN, CURVATURE_IMPROVEMENT,
    CURVATURE_COEFF_MIN and SSR_FLOOR, whose roles the module docstring gives.
    """
    fit_window = _as_float("fit_window", fit_window)
    if not 0.0 < fit_window <= 1.0:
        raise ValueError(f"fit_window must lie in (0, 1], got {fit_window}")
    n_fit = max(6, math.ceil(fit_window * len(sweep.rows)))
    if len(sweep.rows) < 6:
        raise ValueError("classification needs at least 6 rows in the fit window")
    rows = sweep.rows[-min(n_fit, len(sweep.rows)) :]
    if any(row.variance <= 0.0 for row in rows):
        return ClassReport(
            fitted_slope=math.nan,
            slope_stderr=math.nan,
            leading_constant=math.nan,
            class_label=ClassLabel.INCONCLUSIVE,
            detail={"reason": "nonpositive variance in fit window"},
        )
    xs = [math.log(row.r) for row in rows]
    ys = [math.log(row.variance) for row in rows]
    slope, _, stderr, ssr1 = _ols(xs, ys)

    last, prev = sweep.rows[-1], sweep.rows[-2]
    w_last, w_prev = last.r**2, prev.r**2
    leading = (
        w_last * last.r_times_ratio - w_prev * prev.r_times_ratio
    ) / (w_last - w_prev)

    d = 2 * sweep.spec.dimension
    target = d - 1
    detail = {"ssr_power_law": ssr1, "d": d}
    if abs(slope - target) <= CLASS_ONE_BAND:
        label = ClassLabel.CLASS_I
        # log-curvature test distinguishes a clean power law from one
        # carrying an extra log factor; only meaningful where log R > 0
        curve_rows = [row for row in rows if row.r > 1.0 + 1e-9]
        if len(curve_rows) >= 6 and ssr1 > SSR_FLOOR:
            cx1 = [math.log(row.r) for row in curve_rows]
            cx2 = [math.log(math.log(row.r)) for row in curve_rows]
            cx_inv = [1.0 / row.r for row in curve_rows]
            cys = [math.log(row.variance) for row in curve_rows]
            _, _, _, ssr_sub = _ols(cx1, cys)
            beta, ssr2 = _two_regressor_fit(cx1, cx2, cys)
            _, ssr_inv = _two_regressor_fit(cx1, cx_inv, cys)
            detail["ssr_with_log_term"] = ssr2
            detail["ssr_with_inverse_r"] = ssr_inv
            if (
                ssr2 > 0.0
                and ssr_sub / ssr2 > CURVATURE_IMPROVEMENT
                and abs(beta[2]) > CURVATURE_COEFF_MIN
                # a vanishing correction that fits at least as well means
                # the curvature is a finite-size effect, not a log factor
                and ssr2 < ssr_inv
            ):
                label = ClassLabel.CLASS_II
    elif target + CLASS_ONE_BAND < slope < d - NOT_HYPER_MARGIN:
        label = ClassLabel.CLASS_III
    elif slope >= d - NOT_HYPER_MARGIN:
        label = ClassLabel.NOT_HYPERUNIFORM
    else:
        label = ClassLabel.INCONCLUSIVE
    return ClassReport(
        fitted_slope=slope,
        slope_stderr=stderr,
        leading_constant=leading,
        class_label=label,
        detail=detail,
    )
