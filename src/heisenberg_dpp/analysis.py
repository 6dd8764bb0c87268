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
from dataclasses import dataclass, field

import numpy as np

from .exceptions import UnsupportedConfigurationError
from .kernels import KernelSpec
from .montecarlo import CellCounts, McConfig, estimate_moments
from .specfun import _check_radius
from .window_stats import (
    _TAIL_TOL,
    MomentReport,
    Route,
    WindowKind,
    _ball_report,
    ball_moments,
    mean_ball,
    polydisk_moments,
    variance_ball_integral,
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


@dataclass(frozen=True)
class SweepRow:
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


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    spec: KernelSpec
    window_kind: WindowKind
    route: Route

    def __post_init__(self):
        radii = [row.r for row in self.rows]
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("sweep rows must be sorted by strictly increasing R")
        # exact routes are under-dispersed to rounding error; a Monte Carlo
        # sample variance obeys no deterministic bound
        if self.route == Route.MONTE_CARLO:
            return
        for row in self.rows:
            if row.variance > row.mean + 1e-9 * row.mean:
                raise ValueError(
                    f"row R={row.r}: variance {row.variance} exceeds mean {row.mean}"
                )


@dataclass(frozen=True)
class ClassReport:
    fitted_slope: float
    slope_stderr: float
    leading_constant: float
    class_label: ClassLabel
    detail: dict = field(default_factory=dict)


def default_r_grid(n: int = 16, lo: float = 1.0, hi: float = 50.0) -> tuple[float, ...]:
    """Geometric grid; percent-level ratio convergence arrives by R = 50."""
    if n < 2 or not 0 < lo < hi:
        raise ValueError("need n >= 2 and 0 < lo < hi")
    step = (hi / lo) ** (1.0 / (n - 1))
    return tuple(lo * step**k for k in range(n))


def _sweep_row(
    spec: KernelSpec,
    radius: float,
    route: Route,
    tail_tol: float,
    mc: McConfig | None,
) -> SweepRow:
    if route == Route.SPECTRUM:
        rep = polydisk_moments(spec, radius, tail_tol)
    elif route == Route.MONTE_CARLO:
        est = estimate_moments(spec, radius, mc, tail_tol)
        ratio = est.var_hat / est.mean_hat if est.mean_hat else math.nan
        return SweepRow(
            radius, est.mean_hat, est.var_hat, ratio, radius * ratio,
            est.se_mean, est.se_var, est.cells,
        )
    else:
        rep = ball_moments(spec.dimension, radius, route)
    return _report_row(radius, rep)


def _report_row(radius: float, rep: MomentReport) -> SweepRow:
    return SweepRow(radius, rep.mean, rep.variance, rep.ratio, radius * rep.ratio)


def run_sweep(
    spec: KernelSpec,
    window_kind: WindowKind,
    r_grid,
    route: Route,
    tail_tol: float = _TAIL_TOL,
    mc: McConfig | None = None,
) -> SweepResult:
    """One SweepRow per grid radius, all computed by the requested route.

    The integral route passes the whole grid to variance_ball_integral, which
    shares Bessel calls among consecutive radii within the node count of the
    grid's largest radius; each row is bit for bit ball_moments' at its radius.
    """
    window_kind = WindowKind(window_kind)
    route = Route(route)
    radii = [_check_radius(r) for r in r_grid]
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
    if route == Route.INTEGRAL:
        variances = variance_ball_integral(spec.dimension, radii).tolist()
        rows = tuple(
            _report_row(r, _ball_report(spec.dimension, r, route, v))
            for r, v in zip(radii, variances)
        )
    else:
        rows = tuple(_sweep_row(spec, r, route, tail_tol, mc) for r in radii)
    return SweepResult(rows=rows, spec=spec, window_kind=window_kind, route=route)


def poisson_control_sweep(dimension: int, r_grid) -> SweepResult:
    """Synthetic non-hyperuniform control: variance pinned to the mean.

    Labelled with the closed-form route: the rows are exact, so the
    exact-route dispersion slack applies.
    """
    rows = tuple(
        SweepRow(
            r=float(r),
            mean=mean_ball(dimension, float(r)),
            variance=mean_ball(dimension, float(r)),
            ratio=1.0,
            r_times_ratio=float(r),
        )
        for r in r_grid
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
