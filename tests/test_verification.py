"""Verification-suite plumbing (the checks themselves run in the
acceptance tests; this file covers reporting and selection)."""

import itertools

import pytest

from heisenberg_dpp import montecarlo, verification
from heisenberg_dpp.analysis import ClassLabel, run_sweep
from heisenberg_dpp.kernels import KernelSpec
from heisenberg_dpp.verification import (
    ALL_CHECKS,
    CheckResult,
    run_checks,
)
from heisenberg_dpp.window_stats import Route, WindowKind


class TestReporting:
    def test_line_format(self):
        ok = CheckResult("demo", True, 1.5e-3, 1.0, "worst at x=2")
        assert ok.line() == (
            "PASS demo: max normalized delta 1.500e-03 vs tolerance 1.000e+00 "
            "(worst at x=2)"
        )
        bad = CheckResult("demo", False, 2.0, 1.0, "")
        assert bad.line().startswith("FAIL demo:")

    def test_profile_validation(self):
        # the scale is checked before any check runs, unknown names included
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="scale must be finite and >= 0"):
                run_checks(["not-a-check"], bad)
        for bad in ("1", True, None):
            with pytest.raises(ValueError, match=rf"^scale must be a number, got {bad!r}$"):
                run_checks(["not-a-check"], bad)

    def test_result_named_from_registry(self, monkeypatch):
        # a check returns its worst delta; run_checks names and judges it
        worst = ALL_CHECKS["alpha-coefficients"]()
        monkeypatch.setitem(ALL_CHECKS, "renamed", ALL_CHECKS["alpha-coefficients"])
        (result,) = run_checks(["renamed"], 2.0)
        assert result.name == "renamed"
        assert result.tolerance == 2.0 and result.passed
        assert result.max_delta == worst.delta


class TestSelection:
    def test_registry_is_complete(self):
        assert len(ALL_CHECKS) == 13

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            run_checks(["not-a-check"])

    def test_subset_runs_in_given_order(self):
        names = ["alpha-coefficients", "ginibre-constant"]
        results = run_checks(names)
        assert [r.name for r in results] == names
        assert all(r.passed for r in results)

    def test_scaled_tolerance_tightens(self):
        # a zero scale turns any nonzero deviation into a failure, which
        # demonstrates the checks report real measured deltas
        loose = run_checks(["ginibre-constant"], 1.0)[0]
        tight = run_checks(["ginibre-constant"], 0.0)[0]
        assert loose.passed and not tight.passed
        assert loose.max_delta == tight.max_delta > 0.0


class TestFailedOutright:
    """Each branch that fails a check without a delta, reached by patching."""

    def outright(self, name: str) -> CheckResult:
        (result,) = run_checks([name])
        assert not result.passed and result.max_delta == float("inf")
        assert result.raw_delta is None and result.raw_tolerance is None
        return result

    def test_same_seed_mismatch(self, monkeypatch):
        count = itertools.count(1)
        monkeypatch.setattr(
            montecarlo, "estimate_moments",
            lambda *args: montecarlo.McEstimate(next(count), 0.5, 0.1, 0.1, 2000),
        )
        result = self.outright("monte-carlo-gate")
        assert result.detail == "identical seeds produced different estimates"

    def test_over_dispersed_cell(self, monkeypatch):
        # the exact moments, but with the variance raised to the mean
        monkeypatch.setattr(verification, "mc_gate_cells", lambda: [(KernelSpec(1), 1.0)])
        monkeypatch.setattr(
            montecarlo, "estimate_moments",
            lambda *args: montecarlo.McEstimate(1.0, 1.0, 0.01, 0.01, 100_000),
        )
        result = self.outright("monte-carlo-gate")
        assert result.detail == "var_hat >= mean_hat in cells [((0,), 1.0)]"

    def test_mislabelled_sweep(self, monkeypatch):
        classify = verification.classify

        def mislabel_d2(sweep):
            report = classify(sweep)
            if sweep.spec.dimension == 2 and report.class_label is ClassLabel.CLASS_I:
                return report._replace(class_label=ClassLabel.CLASS_III)
            return report

        monkeypatch.setattr(verification, "classify", mislabel_d2)
        assert self.outright("classification").detail == "D=2 sweep labeled ClassIII"

    def test_mislabelled_control(self, monkeypatch):
        # a hyperuniform sweep in place of the D=3 Poisson control
        control = verification.poisson_control_sweep
        monkeypatch.setattr(
            verification, "poisson_control_sweep",
            lambda dim, grid: run_sweep(KernelSpec(3), WindowKind.BALL, grid, Route.CLOSED_FORM)
            if dim == 3 else control(dim, grid),
        )
        assert self.outright("classification").detail == "D=3 control labeled ClassI"


def _hex(value) -> str | None:
    return None if value is None else float(value).hex()


class TestPinnedDeltas:
    """Every deterministic check's row, bit for bit, as captured before the
    kernel series and the Laguerre floor ran on arrays: (name, passed,
    max_delta, sub_case, raw_delta, raw_tolerance), floats as hex."""

    PINNED = [
    ('ball-route-cross-check', True, '0x1.d4ab538d26775p-27', 'D=3 R=10.0', '0x1.eb6f712f754a4p-47', '0x1.0c6f7a0b5ed8dp-20'),
    ('ginibre-constant', True, '0x1.47b139e2ec6d4p-10', 'D=1 R=50 vs 1/sqrt(pi)', '0x1.a372359d57961p-16', '0x1.47ae147ae147bp-6'),
    ('heisenberg-constant', True, '0x1.ddc5187e89879p-7', 'D=3 R=50 vs D/sqrt(pi)', '0x1.31c5d23c80faap-12', '0x1.47ae147ae147bp-6'),
    ('asymptotic-expansion', True, '0x1.0869fc242c1c1p-1', 'D=1 R=5.0', '0x1.487ef40000000p-32', '0x1.3e0af0bd9fe8ep-31'),
    ('alpha-coefficients', True, '0x0.0p+0', 'alpha_2(1)', '0x0.0p+0', '0x1.0000000000000p-1'),
    ('spectrum-route-equivalence', True, '0x1.5b0da67680933p-30', 'variance R=5.0', '0x1.6be96aa3277b6p-50', '0x1.0c6f7a0b5ed8dp-20'),
    ('class-one-constants', True, '0x1.9971d424f5a00p-7', 'C(1000) vs (8/pi^2) sqrt(m)', '0x1.060b690d6a000p-12', '0x1.47ae147ae147bp-6'),
    ('polydisk-limit', True, '0x1.32007fa8d86a3p-1', 'D=3 level=(0, 1, 2)', '0x1.25c309e9c584ap-6', '0x1.eb851eb851eb8p-6'),
    ('kernel-series-identity', True, '0x1.e33641c2eba7cp-15', 'm=1 x=1.206-1.247j y=-1.272-1.064j', '0x1.9f136df6e6209p-48', '0x1.b7cdfd9d7bdbbp-34'),
    ('gauge-invariance', True, '0x1.674bb1bd0b6f7p-15', 'trial 81 D=1 n=6', '0x1.81ca71d91790ep-45', '0x1.12e0be826d695p-30'),
    ('classification', True, '0x1.b7cf9605bd500p-4', 'D=3 slope', '0x1.5fd944d164400p-8', '0x1.999999999999ap-5'),
    ('special-function-floor', True, '0x1.bfeca5b49d269p-2', 'ive asymptote nu=3', '0x1.caacb1dfdc507p-12', '0x1.0624dd2f1a9fcp-10'),
    ]

    def test_deterministic_rows_keep_their_bits(self):
        names = [name for name in ALL_CHECKS if name != "monte-carlo-gate"]
        got = [
            (r.name, r.passed, _hex(r.max_delta), r.sub_case, _hex(r.raw_delta), _hex(r.raw_tolerance))
            for r in run_checks(names)
        ]
        assert got == self.PINNED
