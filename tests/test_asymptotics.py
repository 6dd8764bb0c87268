"""Large-radius ratio expansion, its coefficients checked against the
Bessel-side (Hankel) expansion as exact rationals.

Exact coefficient anchors: alpha_1(D) = 4D^2 - 1, alpha_2(1) = -15,
c_1(1) = -1/16, c_2(1) = -15/2560 (as exact rationals).
"""

import math
from fractions import Fraction

import pytest

from heisenberg_dpp.asymptotics import (
    MAX_SERIES_ORDER,
    alpha_coefficient,
    c_asymptote,
    ratio_series_eval,
    series_coefficient,
)
from heisenberg_dpp.window_stats import c_constant, variance_ratio_ball

EPS = 2.3e-16


class TestAlphaCoefficients:
    def test_exact_values(self):
        assert alpha_coefficient(0, 1) == 1
        assert alpha_coefficient(0, 5) == 1
        assert alpha_coefficient(1, 1) == 3
        assert alpha_coefficient(2, 1) == -15
        assert alpha_coefficient(2, 2) == 105
        assert alpha_coefficient(2, 3) == 945

    def test_first_order_closed_form(self):
        for d in range(1, 7):
            assert alpha_coefficient(1, d) == 4 * d * d - 1

    def test_product_structure(self):
        # alpha_k(D) is a product of 2k consecutive odd integers
        for d in (1, 2, 3):
            for k in (1, 2, 3, 4):
                want = 1
                for l in range(-k + 1, k + 1):
                    want *= 2 * d + 2 * l - 1
                assert alpha_coefficient(k, d) == want

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            alpha_coefficient(-1, 1)
        with pytest.raises(ValueError):
            alpha_coefficient(0, 0)
        with pytest.raises(ValueError):
            alpha_coefficient(1.5, 1)


class TestSeriesCoefficients:
    def test_exact_rationals(self):
        assert series_coefficient(0, 1) == Fraction(1)
        assert series_coefficient(1, 1) == Fraction(-1, 16)
        assert series_coefficient(2, 1) == Fraction(-15, 2560)
        assert series_coefficient(1, 2) == Fraction(-15, 48)

    def test_not_alternating_beyond_low_order(self):
        # for D = 1 every coefficient past k = 0 is negative: the (-1)^k
        # front sign is cancelled by sign changes inside alpha_k, so the
        # tail is one-signed and optimal truncation cannot rely on strict
        # alternation (hence the envelope factor in the evaluation tests)
        signs = [series_coefficient(k, 1) > 0 for k in range(9)]
        assert signs == [True] + [False] * 8

    def test_equal_to_hankel_expansion(self):
        # e^(-x) I_nu(x) ~ (2 pi x)^(-1/2) sum_k (-1)^k u_k(nu) x^(-k), with
        # u_k(nu) = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k) (DLMF 10.40.1);
        # summed over the closed form's I_n + I_(n+1), n < D, at x = 2 R^2
        def u(k, nu):
            num = math.prod(4 * nu * nu - (2 * j - 1) ** 2 for j in range(1, k + 1))
            return Fraction(num, math.factorial(k) * 8**k)

        # every order ratio_series_eval reads: one past MAX_SERIES_ORDER
        for dim in range(1, 9):
            for k in range(MAX_SERIES_ORDER + 2):
                bessel = sum(u(k, n) + u(k, n + 1) for n in range(dim))
                want = (-1) ** k * bessel / (2**k * 2 * dim)
                assert series_coefficient(k, dim) == want, (k, dim)


class TestSeriesEvaluation:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("r", [5.0, 8.0, 12.0, 20.0])
    def test_tracks_exact_ratio(self, dim, r):
        exact = variance_ratio_ball(dim, r)
        got = ratio_series_eval(dim, r)
        # the tail is not strictly alternating, so allow twice the
        # first-omitted-term bound plus accumulated rounding
        envelope = 2.0 * got.abs_error_bound + 64.0 * EPS * abs(exact)
        assert abs(got.value - exact) <= envelope

    def test_low_order_truncation(self):
        exact = variance_ratio_ball(1, 6.0)
        got = ratio_series_eval(1, 6.0, order=3)
        assert abs(got.value - exact) <= 2.0 * got.abs_error_bound

    def test_order_zero(self):
        r = 10.0
        got = ratio_series_eval(2, r, order=0)
        assert got.value == pytest.approx(2.0 / (math.sqrt(math.pi) * r), rel=1e-15)
        assert got.abs_error_bound > 0.0

    def test_bound_shrinks_with_radius(self):
        bounds = [ratio_series_eval(1, r).abs_error_bound for r in (5.0, 10.0, 20.0)]
        assert bounds[0] > bounds[1] > bounds[2]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("r", [0.3, 0.5, 1.0, 2.0, 3.0])
    def test_bound_covers_error_down_to_small_radius(self, dim, r):
        # outside the asymptotic regime the value degrades but the bound
        # must keep covering the true error; the one-signed tail pushes
        # the worst observed excess to ~2.4x near R = 2
        got = ratio_series_eval(dim, r)
        exact = variance_ratio_ball(dim, r)
        assert abs(got.value - exact) <= 3.0 * got.abs_error_bound + 1e-14

    def test_small_radius_is_flagged_unreliable(self):
        got = ratio_series_eval(2, 0.5)
        exact = variance_ratio_ball(2, 0.5)
        # divergence shows up in the bound, not in a silent wrong value
        assert got.abs_error_bound > 0.1 * abs(exact)

    def test_evaluate_validation(self):
        with pytest.raises(ValueError):
            ratio_series_eval(1, 0.0)
        with pytest.raises(ValueError):
            ratio_series_eval(1, 5.0, order=MAX_SERIES_ORDER + 1)
        with pytest.raises(ValueError):
            ratio_series_eval(0, 5.0)


class TestLevelAsymptote:
    def test_values(self):
        assert c_asymptote(1) == pytest.approx(8.0 / math.pi**2, rel=1e-15)
        assert c_asymptote(4) == pytest.approx(16.0 / math.pi**2, rel=1e-15)

    def test_approaches_exact_constant(self):
        # relative error of the sqrt(m) law decays with m
        errors = [
            abs(c_constant(m) / c_asymptote(m) - 1.0) for m in (10, 100, 1000)
        ]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 5e-4

    def test_invalid(self):
        with pytest.raises(ValueError):
            c_asymptote(0)
