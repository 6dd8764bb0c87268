"""Verification-suite plumbing (the checks themselves run in the
acceptance tests; this file covers reporting and selection)."""

import dataclasses
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
                return dataclasses.replace(report, class_label=ClassLabel.CLASS_III)
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
