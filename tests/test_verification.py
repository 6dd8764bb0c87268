"""Verification-suite plumbing (the checks themselves run in the
acceptance tests; this file covers reporting and selection)."""

import pytest

from heisenberg_dpp.verification import (
    ALL_CHECKS,
    CheckResult,
    run_checks,
)


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
