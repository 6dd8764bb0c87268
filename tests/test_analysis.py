"""Sweeps and growth-class labeling, on exact routes and synthetic laws."""

import math

import numpy as np
import pytest

from heisenberg_dpp import analysis
from heisenberg_dpp.analysis import (
    CLASS_ONE_BAND,
    ClassLabel,
    SweepResult,
    SweepRow,
    classify,
    default_r_grid,
    poisson_control_sweep,
    run_sweep,
)
from heisenberg_dpp.exceptions import UnsupportedConfigurationError
from heisenberg_dpp.kernels import KernelSpec
from heisenberg_dpp.montecarlo import McConfig
from heisenberg_dpp.window_stats import Route, WindowKind, c_constant


def synthetic_sweep(dimension: int, variance_law, n=12, lo=8.0, hi=50.0):
    """Rows whose variance follows an imposed law, mean = R^(2D)/D!."""
    rows = []
    for r in default_r_grid(n, lo, hi):
        mean = r ** (2 * dimension) / math.factorial(dimension)
        var = variance_law(r)
        rows.append(
            SweepRow(
                r=r,
                mean=mean,
                variance=var,
                ratio=var / mean,
                r_times_ratio=r * var / mean,
            )
        )
    return SweepResult(
        rows=tuple(rows),
        spec=KernelSpec(dimension),
        window_kind=WindowKind.BALL,
        route=Route.CLOSED_FORM,
    )


class TestGrid:
    def test_default_grid(self):
        grid = default_r_grid()
        assert len(grid) == 16
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(50.0)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 2, got 1$"):
            default_r_grid(1)
        with pytest.raises(ValueError, match=r"^need lo < hi, got lo=2.0, hi=1.0$"):
            default_r_grid(4, 2.0, 1.0)


class TestSweepConstruction:
    def test_closed_route_rows(self):
        grid = (1.0, 2.0, 4.0)
        sweep = run_sweep(KernelSpec(1), WindowKind.BALL, grid, Route.CLOSED_FORM)
        assert len(sweep.rows) == 3
        row = sweep.rows[1]
        assert row.mean == pytest.approx(4.0, rel=1e-14)
        assert row.r_times_ratio == pytest.approx(2.0 * row.ratio, rel=1e-15)
        assert sweep.route is Route.CLOSED_FORM

    def test_routes_cross_check_on_sweep(self):
        grid = (1.0, 3.0, 9.0)
        a = run_sweep(KernelSpec(2), WindowKind.BALL, grid, Route.CLOSED_FORM)
        b = run_sweep(KernelSpec(2), WindowKind.BALL, grid, Route.INTEGRAL)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.variance == pytest.approx(rb.variance, rel=1e-8)

    def test_disk_alias(self):
        # on C^1 the polydisk is the ball, so closed forms apply
        sweep = run_sweep(
            KernelSpec(1), WindowKind.POLYDISK, (1.0, 2.0), Route.CLOSED_FORM
        )
        assert sweep.rows[0].variance == pytest.approx(
            0.5237776118026087, rel=1e-13
        )

    def test_spectrum_route_polydisk(self):
        sweep = run_sweep(
            KernelSpec(2, (0, 1)), WindowKind.POLYDISK, (1.0, 2.0), Route.SPECTRUM
        )
        assert sweep.rows[1].mean == pytest.approx(16.0, rel=1e-8)

    def test_mc_route(self):
        cfg = McConfig(replicas=200, seed=42)
        sweep = run_sweep(
            KernelSpec(1, (0,)),
            WindowKind.POLYDISK,
            (1.0, 2.0),
            Route.MONTE_CARLO,
            mc=cfg,
        )
        assert sweep.rows[1].mean == pytest.approx(4.0, abs=0.5)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            run_sweep(KernelSpec(1), WindowKind.BALL, (), Route.CLOSED_FORM)
        with pytest.raises(ValueError):
            run_sweep(KernelSpec(1), WindowKind.BALL, (2.0, 1.0), Route.CLOSED_FORM)
        with pytest.raises(ValueError):
            run_sweep(KernelSpec(1), WindowKind.BALL, (-1.0,), Route.CLOSED_FORM)

    def test_unsupported_combinations(self):
        with pytest.raises(UnsupportedConfigurationError):
            run_sweep(KernelSpec(2), WindowKind.POLYDISK, (1.0,), Route.CLOSED_FORM)
        with pytest.raises(UnsupportedConfigurationError):
            run_sweep(KernelSpec(1, (1,)), WindowKind.BALL, (1.0,), Route.CLOSED_FORM)
        with pytest.raises(UnsupportedConfigurationError):
            run_sweep(KernelSpec(2), WindowKind.BALL, (1.0,), Route.SPECTRUM)

    def test_mc_requires_config(self):
        with pytest.raises(ValueError):
            run_sweep(
                KernelSpec(1), WindowKind.POLYDISK, (1.0,), Route.MONTE_CARLO
            )

    @pytest.mark.parametrize(
        "spec, window, route, error",
        [
            (KernelSpec(2), WindowKind.POLYDISK, Route.INTEGRAL, UnsupportedConfigurationError),
            (KernelSpec(1, (1,)), WindowKind.BALL, Route.CLOSED_FORM, UnsupportedConfigurationError),
            (KernelSpec(2), WindowKind.BALL, Route.MONTE_CARLO, UnsupportedConfigurationError),
            (KernelSpec(1), WindowKind.POLYDISK, Route.MONTE_CARLO, ValueError),
        ],
    )
    def test_applicability_decided_before_any_row(
        self, monkeypatch, spec, window, route, error
    ):
        def no_row(*args):
            raise AssertionError("a row was computed")

        for name in ("polydisk_moments", "ball_moments", "estimate_moments"):
            monkeypatch.setattr(analysis, name, no_row)
        with pytest.raises(error, match="route|spectrum representation"):
            run_sweep(spec, window, (1.0, 2.0), route)

    def test_row_ordering_enforced(self):
        row = SweepRow(r=1.0, mean=1.0, variance=0.5, ratio=0.5, r_times_ratio=0.5)
        with pytest.raises(ValueError):
            SweepResult(
                rows=(row, row),
                spec=KernelSpec(1),
                window_kind=WindowKind.BALL,
                route=Route.CLOSED_FORM,
            )

    def test_overdispersed_mc_sample_accepted(self):
        # five replicas at seed 2 draw a sample variance above its mean
        sweep = run_sweep(KernelSpec(2, (1, 1)), "polydisk", [1.0], "mc", mc=McConfig(5, 2, 1e-12))
        (row,) = sweep.rows
        assert row.variance > row.mean

    def test_overdispersion_rejected_on_exact_routes(self):
        bad = SweepRow(r=1.0, mean=1.0, variance=2.0, ratio=2.0, r_times_ratio=2.0)
        with pytest.raises(ValueError):
            SweepResult(
                rows=(bad,),
                spec=KernelSpec(1),
                window_kind=WindowKind.BALL,
                route=Route.CLOSED_FORM,
            )


class TestClassifyExactRoutes:
    def test_ball_d1_is_class_one(self):
        sweep = run_sweep(
            KernelSpec(1), WindowKind.BALL, default_r_grid(), Route.CLOSED_FORM
        )
        report = classify(sweep)
        assert report.class_label is ClassLabel.CLASS_I
        assert report.fitted_slope == pytest.approx(1.0, abs=0.02)
        assert report.leading_constant == pytest.approx(c_constant(0), rel=1e-3)

    def test_ball_d2_is_class_one(self):
        sweep = run_sweep(
            KernelSpec(2), WindowKind.BALL, default_r_grid(), Route.CLOSED_FORM
        )
        report = classify(sweep)
        assert report.class_label is ClassLabel.CLASS_I
        assert report.fitted_slope == pytest.approx(3.0, abs=0.02)
        assert report.leading_constant == pytest.approx(2.0 * c_constant(0), rel=1e-3)

    def test_polydisk_leading_constant(self):
        sweep = run_sweep(
            KernelSpec(2, (0, 1)),
            WindowKind.POLYDISK,
            default_r_grid(),
            Route.SPECTRUM,
        )
        report = classify(sweep)
        assert report.class_label is ClassLabel.CLASS_I
        # the odd-power cross term limits two-point extrapolation here
        want = c_constant(0) + c_constant(1)
        assert report.leading_constant == pytest.approx(want, rel=1e-2)

    def test_poisson_control_is_not_hyperuniform(self):
        control = poisson_control_sweep(1, default_r_grid())
        report = classify(control)
        assert report.class_label is ClassLabel.NOT_HYPERUNIFORM
        assert report.fitted_slope == pytest.approx(2.0, abs=1e-9)

    def test_poisson_control_refuses_strings(self):
        with pytest.raises(ValueError, match=r"^radius must be a number, got '1'$"):
            poisson_control_sweep(1, ["1", "2"])
        assert poisson_control_sweep(1, [1, 2]) == poisson_control_sweep(1, [1.0, 2.0])

    def test_finite_window_curvature_stays_class_one(self):
        # at small radii the 1/R approach to the ratio limit curves the
        # log-log plot; the log-term fit must not mistake that for
        # log-enhanced growth because a decaying correction fits better
        sweep = run_sweep(
            KernelSpec(2, (1, 2)),
            WindowKind.POLYDISK,
            default_r_grid(8, 2.0, 40.0),
            Route.SPECTRUM,
        )
        report = classify(sweep)
        assert report.class_label is ClassLabel.CLASS_I
        assert report.detail["ssr_with_inverse_r"] < report.detail[
            "ssr_with_log_term"
        ]


class TestClassifySyntheticLaws:
    def test_pure_power_law_stays_class_one(self):
        sweep = synthetic_sweep(1, lambda r: 0.6 * r)
        report = classify(sweep)
        assert report.class_label is ClassLabel.CLASS_I
        assert report.fitted_slope == pytest.approx(1.0, abs=1e-12)

    def test_log_factor_flips_to_class_two(self):
        # the log term adds ~1/log(R) to the apparent slope, so the window
        # must sit at large R for the slope to stay inside the band and
        # hand the decision to the curvature test
        sweep = synthetic_sweep(1, lambda r: 0.6 * r * math.log(r), lo=1e5, hi=1e6)
        report = classify(sweep)
        assert report.class_label is ClassLabel.CLASS_II

    def test_log_factor_at_moderate_radii_reads_as_class_three(self):
        # over a window ending at R = 50 the apparent slope is ~1.3, which
        # is a faithful description of the growth seen in that window
        sweep = synthetic_sweep(1, lambda r: 0.6 * r * math.log(r))
        report = classify(sweep)
        assert report.class_label is ClassLabel.CLASS_III

    def test_intermediate_growth_is_class_three(self):
        sweep = synthetic_sweep(1, lambda r: 0.3 * r**1.5)
        report = classify(sweep)
        assert report.class_label is ClassLabel.CLASS_III

    def test_saturating_growth_is_inconclusive(self):
        # slope 0 is below every hyperuniform class for d = 2
        sweep = synthetic_sweep(1, lambda r: 0.8)
        report = classify(sweep)
        assert report.class_label is ClassLabel.INCONCLUSIVE

    def test_zero_variance_is_inconclusive(self):
        sweep = synthetic_sweep(1, lambda r: 0.0)
        report = classify(sweep)
        assert report.class_label is ClassLabel.INCONCLUSIVE
        assert math.isnan(report.fitted_slope)

    def test_threshold_override(self):
        # the Class-I band is the fixed constant CLASS_ONE_BAND; slope 1.15
        # sits just above it around d - 1 = 1
        sweep = synthetic_sweep(1, lambda r: 0.3 * r**1.15)
        default_report = classify(sweep)
        assert default_report.class_label is ClassLabel.CLASS_III
        assert default_report.fitted_slope - 1.0 > CLASS_ONE_BAND


class TestClassifyValidation:
    def test_fit_window_range(self):
        sweep = synthetic_sweep(1, lambda r: r)
        with pytest.raises(ValueError):
            classify(sweep, fit_window=0.0)
        with pytest.raises(ValueError):
            classify(sweep, fit_window=1.5)
        for bad in ("0.5", True, None):
            with pytest.raises(ValueError, match=rf"^fit_window must be a number, got {bad!r}$"):
                classify(sweep, fit_window=bad)
        assert classify(sweep, fit_window=np.float64(0.5)) == classify(sweep)

    def test_needs_six_rows(self):
        sweep = synthetic_sweep(1, lambda r: r, n=5)
        with pytest.raises(ValueError):
            classify(sweep)

    def test_fit_window_fraction_controls_rows(self):
        # narrow window fits the far tail only: slope closer to asymptote
        sweep = run_sweep(
            KernelSpec(1), WindowKind.BALL, default_r_grid(), Route.CLOSED_FORM
        )
        narrow = classify(sweep, fit_window=0.4)
        wide = classify(sweep, fit_window=1.0)
        assert abs(narrow.fitted_slope - 1.0) <= abs(wide.fitted_slope - 1.0)
