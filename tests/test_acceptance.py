"""Acceptance gate: the thirteen cross-route verification checks.

Each test runs one named check from the verification suite at its stated
tolerance, prints the check's pass/fail line, and asserts it passed.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

The thirteen checks, in order:

 1. ball-route-cross-check      closed form vs damped Bessel integral
 2. ginibre-constant            D=1 ball ratio limit 1/sqrt(pi)
 3. heisenberg-constant         D in {2,3} ball ratio limit D/sqrt(pi)
 4. asymptotic-expansion        truncated series vs exact ratio
 5. alpha-coefficients          exact product-formula integers
 6. spectrum-route-equivalence  Bernoulli spectrum vs closed form (D=1)
 7. class-one-constants         C(0), C(1) exact; sqrt-law at m=1000
 8. polydisk-limit              R * ratio vs sum of per-level constants
 9. kernel-series-identity      truncated series vs product closed form
10. gauge-invariance            correlations unchanged under gauge
11. monte-carlo-gate            3-SE coverage + bit-exact reruns
12. classification              ClassI sweeps + Poisson control
13. special-function-floor      recurrence residuals and asymptotes
"""

import pytest

from heisenberg_dpp.verification import run_checks


def run_one(name: str) -> None:
    result = run_checks([name], 1.0)[0]
    print(result.line())
    assert result.passed, result.line()


def test_ball_route_cross_check():
    run_one("ball-route-cross-check")


def test_ginibre_constant():
    run_one("ginibre-constant")


def test_heisenberg_constant():
    run_one("heisenberg-constant")


def test_asymptotic_expansion():
    run_one("asymptotic-expansion")


def test_alpha_coefficients():
    run_one("alpha-coefficients")


def test_spectrum_route_equivalence():
    run_one("spectrum-route-equivalence")


def test_class_one_constants():
    run_one("class-one-constants")


def test_polydisk_limit():
    run_one("polydisk-limit")


def test_kernel_series_identity():
    run_one("kernel-series-identity")


def test_gauge_invariance():
    run_one("gauge-invariance")


@pytest.mark.slow
def test_monte_carlo_gate():
    run_one("monte-carlo-gate")


def test_classification():
    run_one("classification")


def test_special_function_floor():
    run_one("special-function-floor")
