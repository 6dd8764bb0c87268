"""Special-function floor: recurrences, scaled Bessel, incomplete gamma.

Oracles: exact rational Laguerre coefficients (Fraction arithmetic),
scipy.special (independent implementations), and values frozen from
high-precision side computations.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps

from heisenberg_dpp.specfun import (
    SpecFunResult,
    bessel_i_scaled,
    bessel_j,
    hyp3f2_terminating,
    laguerre,
    laguerre_log,
    regularized_lower_gamma,
)

RNG = np.random.default_rng(4242)


def lag_exact(n: int, alpha: Fraction, x: Fraction) -> Fraction:
    """Generalized Laguerre polynomial by its explicit coefficient sum."""
    total = Fraction(0)
    for k in range(n + 1):
        binom = Fraction(1)
        for j in range(n - k):  # generalized binomial C(n+alpha, n-k)
            binom *= (alpha + k + 1 + j) / (j + 1)
        term = binom * (-x) ** k / math.factorial(k)
        total += term
    return total


class TestLaguerre:
    def test_low_orders_exact(self):
        assert laguerre(0, 0.0, 3.7) == 1.0
        assert laguerre(1, 0.0, 2.0) == pytest.approx(-1.0, abs=1e-15)
        # L_2(x) = 1 - 2x + x^2/2
        assert laguerre(2, 0.0, 1.0) == pytest.approx(-0.5, abs=1e-15)

    def test_against_rational_oracle(self):
        for _ in range(120):
            n = int(RNG.integers(0, 40))
            alpha_num = int(RNG.integers(-8, 25))
            x_num = int(RNG.integers(0, 120))
            alpha = Fraction(alpha_num, 2)
            x = Fraction(x_num, 3)
            want = float(lag_exact(n, alpha, x))
            got = laguerre(n, float(alpha), float(x))
            assert got == pytest.approx(want, rel=5e-11, abs=1e-280)

    def test_recurrence_residual(self):
        for _ in range(200):
            n = int(RNG.integers(2, 90))
            alpha = float(RNG.uniform(-1.0, 10.0))
            x = float(RNG.uniform(0.0, 50.0))
            trio = [laguerre(n - 1, alpha, x), laguerre(n, alpha, x),
                    laguerre(n + 1, alpha, x)]
            resid = (n + 1) * trio[2] - (2 * n + 1 + alpha - x) * trio[1] \
                + (n + alpha) * trio[0]
            scale = max(map(abs, trio)) * (2 * n + 2 + alpha + x)
            assert abs(resid) <= 1e-9 * max(scale, 1e-300)

    def test_log_form_tracks_value(self):
        for _ in range(60):
            n = int(RNG.integers(0, 60))
            alpha = float(RNG.uniform(-0.9, 8.0))
            x = float(RNG.uniform(0.0, 40.0))
            log_abs, sign = laguerre_log(n, alpha, x)
            direct = laguerre(n, alpha, x)
            if direct == 0.0:
                assert sign == 0 or log_abs == -math.inf
            else:
                assert sign == math.copysign(1.0, direct)
                assert log_abs == pytest.approx(math.log(abs(direct)), abs=1e-9)

    def test_log_form_survives_overflowing_range(self):
        # large n and x: the plain value overflows but the log form is finite
        log_abs, sign = laguerre_log(400, 3.0, 1200.0)
        assert math.isfinite(log_abs)
        assert sign in (-1.0, 1.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, 0.0, math.nan)


class TestBesselIScaled:
    def test_frozen_value(self):
        # high-precision side computation of e^-2 I_1(2)
        assert bessel_i_scaled(1, 2.0) == pytest.approx(
            0.21526928924893766, abs=2e-16
        )

    def test_against_scipy(self):
        for _ in range(200):
            nu = int(RNG.integers(0, 12))
            x = float(RNG.uniform(0.0, 400.0))
            assert bessel_i_scaled(nu, x) == pytest.approx(
                float(sps.ive(nu, x)), rel=1e-12, abs=1e-15
            )

    def test_crossover_continuity(self):
        # series and Miller regimes must agree where they meet; the spacing
        # is small enough that the function's own drift is ~1e-12
        for nu in range(8):
            below = bessel_i_scaled(nu, 30.0 - 1e-9)
            above = bessel_i_scaled(nu, 30.0 + 1e-9)
            assert below == pytest.approx(above, abs=1e-10)

    def test_normalization_identity(self):
        # e^-x [I_0 + 2 sum I_k] = 1, the Miller normalizer, holds for the
        # series regime values too
        x = 17.0
        total = bessel_i_scaled(0, x) + 2.0 * math.fsum(
            bessel_i_scaled(k, x) for k in range(1, 80)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_limits(self):
        assert bessel_i_scaled(0, 0.0) == 1.0
        assert bessel_i_scaled(3, 0.0) == 0.0
        big = bessel_i_scaled(0, 1e4)
        assert big == pytest.approx(1.0 / math.sqrt(2 * math.pi * 1e4), rel=1e-3)

    def test_monotone_in_order(self):
        x = 7.5
        values = [bessel_i_scaled(nu, x) for nu in range(10)]
        assert all(a > b > 0.0 for a, b in zip(values, values[1:]))


class TestBesselJ:
    def test_frozen_value(self):
        assert bessel_j(2, 1.0) == pytest.approx(0.11490348493190048, abs=2e-16)

    def test_against_scipy_all_regimes(self):
        for _ in range(300):
            nu = int(RNG.integers(0, 10))
            x = float(RNG.uniform(0.0, 200.0))
            assert bessel_j(nu, x) == pytest.approx(
                float(sps.jv(nu, x)), rel=1e-9, abs=1e-11
            )

    def test_regime_boundaries(self):
        # |J'| <= 1, so the drift across a 2e-10 straddle is below 1e-9
        for nu in range(6):
            for x0 in (10.0, 30.0):
                lo = bessel_j(nu, x0 - 1e-10)
                hi = bessel_j(nu, x0 + 1e-10)
                assert lo == pytest.approx(hi, abs=1e-9)

    def test_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(4, 0.0) == 0.0


class TestRegularizedLowerGamma:
    def test_frozen_value(self):
        # P(2, 1) = 1 - 2/e
        assert regularized_lower_gamma(2.0, 1.0) == pytest.approx(
            0.26424111765711535, abs=2e-16
        )

    def test_against_scipy(self):
        for _ in range(300):
            s = float(RNG.uniform(0.05, 60.0))
            x = float(RNG.uniform(0.0, 120.0))
            assert regularized_lower_gamma(s, x) == pytest.approx(
                float(sps.gammainc(s, x)), rel=1e-12, abs=1e-14
            )

    def test_forward_recurrence(self):
        for _ in range(200):
            s = float(RNG.uniform(0.2, 40.0))
            x = float(RNG.uniform(0.01, 80.0))
            step = regularized_lower_gamma(s + 1.0, x) - regularized_lower_gamma(s, x)
            exact = -math.exp(s * math.log(x) - x - math.lgamma(s + 1.0))
            assert step == pytest.approx(exact, abs=1e-12)

    def test_range_and_monotonicity(self):
        xs = np.linspace(0.0, 30.0, 200)
        vals = [regularized_lower_gamma(4.5, float(x)) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_invalid(self):
        with pytest.raises(ValueError):
            regularized_lower_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_lower_gamma(1.0, -0.5)


class TestHyp3F2:
    def test_hand_derived_low_levels(self):
        # the level-1 and level-2 terminating sums reduce to 7/6 and 29/24
        assert hyp3f2_terminating(-0.5, -0.5, 1, 1.0, -1.5) == pytest.approx(
            7.0 / 6.0, abs=1e-15
        )
        assert hyp3f2_terminating(-0.5, -0.5, 2, 1.0, -2.5) == pytest.approx(
            29.0 / 24.0, abs=1e-15
        )

    def test_m_zero_is_one(self):
        assert hyp3f2_terminating(0.3, -0.7, 0, 1.1, 2.2) == 1.0

    def test_rational_oracle(self):
        # exact Fraction evaluation of the terminating sum
        for m in range(0, 12):
            total = Fraction(0)
            term = Fraction(1)
            a1, a2, b1, b2 = Fraction(-1, 2), Fraction(-1, 2), Fraction(1), \
                Fraction(-1, 2) - m
            for n in range(m + 1):
                total += term
                term *= (a1 + n) * (a2 + n) * (n - m)
                term /= (b1 + n) * (b2 + n) * (n + 1)
            got = hyp3f2_terminating(-0.5, -0.5, m, 1.0, -0.5 - m)
            assert got == pytest.approx(float(total), rel=1e-13)

    def test_large_m_stable(self):
        value = hyp3f2_terminating(-0.5, -0.5, 1000, 1.0, -1000.5)
        assert math.isfinite(value)
        assert value > 1.0  # all terms positive after the leading 1

    def test_zero_denominator_raises(self):
        with pytest.raises(ValueError):
            hyp3f2_terminating(-0.5, -0.5, 3, -1.0, -3.5)


class TestSpecFunResult:
    def test_fields(self):
        r = SpecFunResult(1.5, 1e-12)
        assert r.value == 1.5 and r.abs_error_bound == 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            SpecFunResult(math.nan, 0.0)
        with pytest.raises(ValueError):
            SpecFunResult(1.0, -1e-3)
