"""Special-function floor: recurrences, scaled Bessel, incomplete gamma.

Oracles: exact rational Laguerre coefficients (Fraction arithmetic),
scipy.special (independent implementations), values frozen from
high-precision side computations, and the scalar Bessel J code that the
array implementation must reproduce bit for bit.
"""

import hashlib
import math
import re
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heisenberg_dpp.asymptotics as asy
import heisenberg_dpp.specfun as sf
import heisenberg_dpp.window_stats as ws
from heisenberg_dpp.analysis import default_r_grid
from heisenberg_dpp.exceptions import NumericalBudgetError
from heisenberg_dpp.kernels import KernelSpec, kernel_series_partial
from heisenberg_dpp.montecarlo import McConfig
from heisenberg_dpp.specfun import (
    _laguerre_scaled,
    _laguerre_scaled_rows,
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

    @pytest.mark.parametrize("n, alpha, x", [(3, 0.0, 1e300), (400, 3.0, 1e200)])
    def test_log_form_at_huge_arguments(self, n, alpha, x):
        # a single recurrence step passes the double range here;
        # at x >> n(n + alpha), L_n^(alpha)(x) ~ (-x)^n / n!
        log_abs, sign = laguerre_log(n, alpha, x)
        assert log_abs == pytest.approx(n * math.log(x) - math.lgamma(n + 1), rel=1e-14)
        assert sign == (-1.0) ** n
        with pytest.raises(OverflowError):
            laguerre(n, alpha, x)

    @pytest.mark.parametrize("n", [1, 2, 50])
    @pytest.mark.parametrize("alpha, x", [(1e308, -1e308), (-1e308, 1e308)])
    def test_slope_past_double_range_raises(self, n, alpha, x):
        # 1 + alpha - x is +-inf before the first step
        with pytest.raises(OverflowError):
            laguerre(n, alpha, x)
        with pytest.raises(OverflowError):
            laguerre_log(n, alpha, x)
        assert laguerre(0, alpha, x) == 1.0
        assert laguerre_log(0, alpha, x) == (0.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 400),
        alpha=st.floats(-1.0, 40.0),
        x=st.one_of(st.floats(0.0, 2000.0), st.floats(0.0, 1e300)),
    )
    def test_log_form_is_never_inf_or_nan(self, n, alpha, x):
        log_abs, sign = laguerre_log(n, alpha, x)
        assert math.isfinite(log_abs) or (log_abs, sign) == (-math.inf, 0.0)
        try:
            direct = laguerre(n, alpha, x)
        except OverflowError:
            return
        assert sign == (math.copysign(1.0, direct) if direct else 0.0)
        if direct:
            assert log_abs == pytest.approx(math.log(abs(direct)), abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(
        columns=st.lists(st.tuples(st.integers(0, 300), st.floats(-1.0, 1500.0)),
                         min_size=1, max_size=8),
        xs=st.lists(st.one_of(st.floats(0.0, 3000.0), st.floats(0.0, 1e300)),
                    min_size=1, max_size=3),
    )
    def test_rows_match_the_scalar_recurrence(self, columns, xs):
        # bit for bit, each (degree, alpha) column at its own degree against
        # each x row, rescaled elements included
        ns, alphas = (np.array(v) for v in zip(*columns))
        value, shift = _laguerre_scaled_rows(ns, alphas, np.array(xs)[:, None])
        for i, x in enumerate(xs):
            for j, (n, alpha) in enumerate(columns):
                want_value, want_shift = _laguerre_scaled(n, alpha, x)
                assert float(value[i, j]).hex() == want_value.hex()
                assert shift[i, j] == want_shift

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, 0.0, math.nan)

    @settings(max_examples=120, deadline=None)
    @given(
        elements=st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0, 1]), st.integers(0, 250)),
                st.one_of(st.floats(-1.0, 20.0), st.floats(-1.0, 1500.0)),
                st.one_of(st.just(0.0), st.floats(-50.0, 3000.0)),
            ),
            min_size=1, max_size=10,
        )
    )
    # L_200^(1000)(0.5) ~ 1e238: its iterates pass 2^512, so it is rescaled
    @example(elements=[(200, 1000.0, 0.5), (0, 3.0, 1.0), (1, 0.0, 2.0)])
    # L_250^(1500)(0) ~ 1e335 overflows; L_2^(0)(1) does not
    @example(elements=[(2, 0.0, 1.0), (250, 1500.0, 0.0)])
    def test_array_elements_match_scalar_calls(self, elements):
        # mixed degrees, each element at its own; an overflowing element
        # raises the OverflowError of its own call
        want, fits = [], []
        for element in elements:
            try:
                want.append(laguerre(*element).hex())
                fits.append(element)
            except OverflowError as exc:
                with pytest.raises(OverflowError, match=rf"^{re.escape(str(exc))}$"):
                    laguerre(*map(np.array, zip(*elements)))
                return
        got = laguerre(*map(np.array, zip(*fits)))
        assert isinstance(got, np.ndarray) and got.shape == (len(fits),)
        assert [v.hex() for v in got.tolist()] == want

    def test_arrays_broadcast_with_numbers(self):
        alphas, xs = np.array([-0.5, 0.0, 7.25]), np.array([0.0, 3.5, 40.0])
        for got, want in (
            (laguerre(6, alphas, xs), [laguerre(6, a, x) for a, x in zip(alphas, xs)]),
            (laguerre(np.arange(3), 0.5, xs), [laguerre(n, 0.5, x) for n, x in zip(range(3), xs)]),
            (laguerre(np.array([4]), alphas, 2.0), [laguerre(4, a, 2.0) for a in alphas]),
        ):
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
        assert type(laguerre(np.int64(3), np.float64(0.5), 1.5)) is float
        assert laguerre(np.array([], dtype=int), 0.5, 1.5).shape == (0,)

    def test_order_of_elements_is_irrelevant(self):
        n = RNG.integers(0, 90, 200)
        alpha, x = RNG.uniform(-1.0, 30.0, 200), RNG.uniform(0.0, 120.0, 200)
        perm = RNG.permutation(200)
        assert np.array_equal(laguerre(n, alpha, x)[perm], laguerre(n[perm], alpha[perm], x[perm]))

    def test_array_validation(self):
        ok = np.array([1.0, 2.0])
        for args, message in (
            ((np.array([2, -1, -3]), 0.0, ok[:1]), "n must be an integer >= 0, got -1.0"),
            ((np.array([2.5]), 0.0, 1.0), "n must be an integer >= 0, got 2.5"),
            ((2, np.array([0.0, math.nan]), ok), "alpha must be finite, got nan"),
            ((2, 0.0, np.array([1.0, math.inf])), "x must be finite, got inf"),
            ((np.array([1, 2]), -math.inf, ok), "alpha must be finite, got -inf"),
            ((2, "0", ok), "alpha must be a number, got '0'"),
        ):
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
                laguerre(*args)
        with pytest.raises(ValueError, match="x must be a number or a 1-D numeric array"):
            laguerre(2, 0.0, np.ones((2, 2)))
        with pytest.raises(ValueError):
            laguerre(np.array([1, 2]), 0.0, np.ones(3))

    def test_degrees_past_the_cap_are_refused_at_once(self):
        # 10^12 steps at ~0.3 us each would run for about 3.5 days, and the
        # array path would first ask np.arange for 8 TB
        start = time.process_time()
        for n in (sf._HYP3F2_TERM_CAP + 1, 10**12):
            want = rf"^laguerre: degree {n} is past the step cap 100000000$"
            for call in (
                lambda: laguerre(n, 0.0, 1.0),
                lambda: laguerre_log(n, 0.0, 1.0),
                lambda: laguerre(np.array([3, n, 2]), 0.0, 1.0),
            ):
                with pytest.raises(NumericalBudgetError, match=want):
                    call()
        assert time.process_time() - start < 0.1
        assert laguerre(np.array([0, 5]), 0.0, 1.0)[1] == laguerre(5, 0.0, 1.0)


class TestBesselIScaled:
    def test_frozen_value(self):
        # high-precision side computation of e^-2 I_1(2)
        assert bessel_i_scaled(1, 2.0) == pytest.approx(
            0.21526928924893766, abs=2e-16
        )

    def test_miller_rescale_below_the_double_range(self, monkeypatch):
        # the backward recurrence at nu = 400, x = 30 passes 1e250 once;
        # e^-30 I_400(30) ~ 7.0e-412 lies below the smallest subnormal
        scaled = []

        class Factor(float):
            def __rmul__(self, other):
                scaled.append(other)
                return other * float(self)

        monkeypatch.setattr(sf, "_RESCALE_FACTOR", Factor(sf._RESCALE_FACTOR))
        assert bessel_i_scaled(400, 30.0) == 0.0
        assert len(scaled) == 4  # f_next, f_cur, norm and saved, once
        assert mpmath.besseli(400, 30) * mpmath.exp(-30) < mpmath.mpf(2) ** -1075

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

    def test_invalid(self):
        with pytest.raises(ValueError, match="x must be >= 0, got -2.0"):
            bessel_i_scaled(0, -2.0)
        with pytest.raises(ValueError, match="x must be finite"):
            bessel_i_scaled(0, math.nan)

    def test_monotone_in_order(self):
        x = 7.5
        values = [bessel_i_scaled(nu, x) for nu in range(10)]
        assert all(a > b > 0.0 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("nu, x, want", [
        (178, 2.0, 0.0),  # 1/178! is subnormal and the value below 2^-1075
        (200, 2.0, 0.0),  # (x/2)^nu/nu! itself underflows
        (400, 18.0, 0.0),
        (250, 10.0, 8.4e-323),  # subnormal: e^-10 I_250(10) = 8.5747e-323
    ])
    def test_series_below_the_double_range_returns(self, nu, x, want):
        # a sum under ~2.5e-306 made total * 1e-18 underflow to 0, and the
        # stop test 0 < 0 never held: these calls used to loop forever
        assert bessel_i_scaled(nu, x) == want


def scalar_bessel_j(nu: int, x: float) -> float:
    """The one-float-at-a-time J_nu(x) that bessel_j's arrays must reproduce."""
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    if x <= 10.0:
        half = 0.5 * x
        term = math.exp(nu * math.log(half) - math.lgamma(nu + 1)) if nu else 1.0
        total = term
        k = 0
        while True:
            k += 1
            term *= -half * half / (k * (nu + k))
            total += term
            if abs(term) < abs(total) * 1e-18 + 1e-300:
                return total
    if x < max(30.0, nu * nu / 3.0):
        start = int(x + 18.0 * x ** (1.0 / 3.0)) + nu + 24
        if start % 2:
            start += 1
        f_next, f_cur, norm, saved = 0.0, 1e-255, 0.0, 0.0
        for k in range(start, 0, -1):
            f_prev = (2.0 * k / x) * f_cur - f_next
            if k % 2 == 0:
                norm += 2.0 * f_cur
            if k == nu:
                saved = f_cur
            f_next, f_cur = f_cur, f_prev
            if abs(f_cur) > 1e250:
                f_next *= 1e-250
                f_cur *= 1e-250
                norm *= 1e-250
                saved *= 1e-250
        if nu == 0:
            saved = f_cur
        norm += f_cur
        return saved / norm
    mu = 4.0 * nu * nu
    p_sum, q_sum, coeff = 1.0, 0.0, 1.0
    k = 0
    prev_mag = math.inf
    while True:
        k += 1
        coeff *= (mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        mag = abs(coeff)
        if mag >= prev_mag or mag < 1e-18:
            break
        if k % 2 == 0:
            p_sum += coeff * (-1.0) ** (k // 2)
        else:
            q_sum += coeff * (-1.0) ** ((k - 1) // 2)
        prev_mag = mag
        if k > 60:
            break
    omega = x - nu * math.pi / 2.0 - math.pi / 4.0
    return math.sqrt(2.0 / (math.pi * x)) * (
        p_sum * math.cos(omega) - q_sum * math.sin(omega)
    )


def bessel_points() -> np.ndarray:
    """Random points in every regime, plus zero, a tiny x and both sides of
    each regime cutoff."""
    edges = [np.nextafter(c, d) for c in (10.0, 30.0) for d in (0.0, math.inf)]
    return np.concatenate([
        RNG.uniform(0.0, 10.0, 200),
        RNG.uniform(10.0, 30.0, 200),
        RNG.uniform(30.0, 500.0, 200),
        10.0 ** RNG.uniform(-300.0, 4.0, 60),
        [0.0, 1e-300, 10.0, 30.0, *edges],
    ])


class TestBesselJ:
    # at nu = 90 and 300 the recurrence runs up to x = 2700 and 30000,
    # where the Hankel expansion takes over; at nu = 300 the rescaling
    # fires for x in (10, ~13.2)
    @pytest.mark.parametrize("nu", [*range(9), 90, 300])
    def test_bit_identical_to_scalar_oracle(self, nu):
        xs = bessel_points()
        want = [scalar_bessel_j(nu, x).hex() for x in xs.tolist()]
        got = bessel_j(nu, xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        assert [v.hex() for v in got.tolist()] == want
        assert [bessel_j(nu, x).hex() for x in xs.tolist()] == want
        assert all(type(bessel_j(nu, x)) is float for x in xs[:5].tolist())

    # sha256 of bessel_j's arrays (little-endian doubles) at nu = 0..12 over
    # digest_points, then of J_300 at x = 11 and 12.5 and J_1500 at x = 1000,
    # where the recurrence rescales (the first two underflow to 0, the last is
    # ~4.7e-144); computed before the regimes ran without per-step temporaries
    PINNED = "bc02770b984dc966015b8d4c9f2c17b5788d85fc2967a7e7b271ff771785ed54"

    @staticmethod
    def digest_points(nu: int) -> np.ndarray:
        """x = 0, a tiny x, both cutoffs and 1e4, then 40 points each in the
        series, backward-recurrence and Hankel ranges."""
        edge = max(30.0, nu * nu / 3.0)
        frac = [(k * 0.6180339887498949) % 1.0 for k in range(1, 41)]
        return np.array([
            0.0, 1e-300, 10.0, math.nextafter(10.0, math.inf), 30.0,
            math.nextafter(edge, 0.0), edge, 1e4,
            *(10.0 * f for f in frac),
            *(10.0 + (edge - 10.0) * f for f in frac),
            *(edge * (1.0 + 20.0 * f) for f in frac),
        ])

    def test_regime_digest(self):
        digest = hashlib.sha256()
        for nu in range(13):
            digest.update(np.asarray(bessel_j(nu, self.digest_points(nu)), dtype="<f8").tobytes())
        digest.update(np.asarray(bessel_j(300, np.array([11.0, 12.5])), dtype="<f8").tobytes())
        digest.update(np.asarray(bessel_j(1500, np.array([1000.0])), dtype="<f8").tobytes())
        assert digest.hexdigest() == self.PINNED

    def test_order_of_elements_is_irrelevant(self):
        xs = bessel_points()
        perm = RNG.permutation(xs.size)
        assert np.array_equal(bessel_j(3, xs)[perm], bessel_j(3, xs[perm]))

    def test_array_validation(self):
        assert bessel_j(2, np.array([])).shape == (0,)
        with pytest.raises(ValueError, match="x must be >= 0, got -1.0"):
            bessel_j(0, np.array([2.0, -1.0, -3.0]))
        with pytest.raises(ValueError, match="x must be finite"):
            bessel_j(0, np.array([2.0, math.nan]))
        with pytest.raises(ValueError, match="x must be finite"):
            bessel_j(0, np.array([math.inf]))
        with pytest.raises(ValueError):
            bessel_j(0, np.ones((2, 2)))
        with pytest.raises(ValueError, match="x must be >= 0"):
            bessel_j(1, -0.5)

    def test_frozen_value(self):
        assert bessel_j(2, 1.0) == pytest.approx(0.11490348493190048, abs=2e-16)

    def test_against_scipy_all_regimes(self):
        for _ in range(300):
            nu = int(RNG.integers(0, 10))
            x = float(RNG.uniform(0.0, 200.0))
            assert bessel_j(nu, x) == pytest.approx(
                float(sps.jv(nu, x)), rel=1e-9, abs=1e-11
            )

    def test_high_orders_against_scipy(self):
        # past nu ~ 10 the Hankel expansion is wrong at x = 30 (it gave 1961
        # for J_1000(30)); the recurrence serves x < nu^2/3
        rng = np.random.default_rng(90)
        for nu in (10, 20, 33, 50, 71, 90):
            edge = nu * nu / 3.0
            xs = np.concatenate([
                rng.uniform(0.0, 120.0, 60), 10.0 ** rng.uniform(0.0, 3.48, 60),
                [30.0, 35.0, np.nextafter(edge, 0.0), edge, 3000.0],
            ])
            got, want = bessel_j(nu, xs), sps.jv(nu, xs)
            assert np.all(np.abs(got) <= 1.0)
            assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(np.abs(want), 1e-3))
        assert bessel_j(20, 35.0) == pytest.approx(float(sps.jv(20, 35.0)), rel=1e-12)
        assert abs(bessel_j(1000, 30.0)) <= 1e-300

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

    @pytest.mark.parametrize("x", [5e-324, 1e-323, 4e-323])
    def test_smallest_subnormals(self, x):
        # x/2 rounds to 0 at x = 2^-1074, where the series took its log;
        # (x/2)^nu/nu! rounds to x/2 at nu = 1 and to 0 above
        assert [bessel_j(nu, x) for nu in range(5)] == [1.0, 0.5 * x, 0.0, 0.0, 0.0]
        xs = np.array([x, 1.0, 20.0, 40.0])
        for nu in range(5):
            want = [bessel_j(nu, v).hex() for v in xs.tolist()]
            assert [v.hex() for v in bessel_j(nu, xs).tolist()] == want


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
        with pytest.raises(ValueError, match="x must be >= 0, got -0.5"):
            regularized_lower_gamma(1.0, -0.5)
        with pytest.raises(ValueError, match="x must be finite"):
            regularized_lower_gamma(1.0, math.inf)


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

    def test_zero_upper_factor_ends_the_sum(self):
        # a1 = -2 ends the series after the n = 2 term, before -m = -5 does:
        # 1 + 5/2 + 5/4
        assert hyp3f2_terminating(-2.0, 0.5, 5, 1.0, 2.0) == 4.75
        assert mpmath.hyp3f2(-2, 0.5, -5, 1, 2, 1) == 4.75

    def test_terms_past_the_cap_are_refused_at_once(self):
        # 10^12 terms at ~0.3 us each would run for about 3.5 days
        start = time.process_time()
        for m in (sf._HYP3F2_TERM_CAP + 1, 10**12):
            with pytest.raises(
                NumericalBudgetError,
                match=rf"^hyp3f2_terminating sums {m} terms, past the term cap 100000000$",
            ):
                hyp3f2_terminating(-0.5, -0.5, m, 1.0, -0.5 - m)
        assert time.process_time() - start < 0.1

    def test_overflow_raises(self):
        # the second term is -2e400
        with pytest.raises(OverflowError, match="hyp3f2_terminating overflows"):
            hyp3f2_terminating(1e200, 1e200, 2, 1.0, 1.0)


class TestSpecFunResult:
    def test_fields(self):
        r = SpecFunResult(1.5, 1e-12)
        assert r.value == 1.5 and r.abs_error_bound == 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            SpecFunResult(math.nan, 0.0)
        with pytest.raises(ValueError):
            SpecFunResult(1.0, -1e-3)


# Public entry points that take a radius or an index, each as
# (argument name, call with that argument set, a valid value).
NUMBER_ARGS = {
    "mean_ball radius": ("radius", lambda v: ws.mean_ball(1, v), 1.5),
    "mean_ball dimension": ("dimension", lambda v: ws.mean_ball(v, 1.5), 2),
    "variance_ball_closed radius": ("radius", lambda v: ws.variance_ball_closed(1, v), 1.5),
    "variance_ratio_ball radius": ("radius", lambda v: ws.variance_ratio_ball(2, v), 1.5),
    "variance_ball_integral radius": ("radius", lambda v: ws.variance_ball_integral(1, v), 1.5),
    "variance_ball_integral radii": (
        "radius", lambda v: ws.variance_ball_integral(1, [1.0, v])[1], 1.5,
    ),
    "variance_ball_integral dimension": (
        "dimension", lambda v: ws.variance_ball_integral(v, 1.5), 2,
    ),
    "ball_moments radius": ("radius", lambda v: ws.ball_moments(1, v).variance, 1.5),
    "ball_moments radii": ("radius", lambda v: ws.ball_moments(1, [1.0, v])[1].variance, 1.5),
    "bernoulli_prob n": ("n", lambda v: ws.bernoulli_prob(v, 1, 1.5), 2),
    "bernoulli_prob m": ("m", lambda v: ws.bernoulli_prob(2, v, 1.5), 1),
    "bernoulli_prob radius": ("radius", lambda v: ws.bernoulli_prob(2, 1, v), 1.5),
    "build_spectrum m": ("m", lambda v: ws.build_spectrum(v, 1.5).prob_sum, 1),
    "build_spectrum radius": ("radius", lambda v: ws.build_spectrum(1, v).prob_sum, 1.5),
    "build_spectrum tail_tol": (
        "tail_tol", lambda v: ws.build_spectrum(1, 1.5, v).prob_sum, 1e-9,
    ),
    "default_r_grid n": ("n", lambda v: default_r_grid(v, 1.0, 2.0), 4),
    "default_r_grid lo": ("lo", lambda v: default_r_grid(4, v, 2.0), 1.0),
    "default_r_grid hi": ("hi", lambda v: default_r_grid(4, 1.0, v), 2.0),
    "polydisk_moments radius": (
        "radius", lambda v: ws.polydisk_moments(KernelSpec(1), v).variance, 1.5,
    ),
    "c_constant m": ("m", ws.c_constant, 3),
    "ratio_series_eval radius": ("radius", lambda v: asy.ratio_series_eval(1, v).value, 5.0),
    "alpha_coefficient k": ("k", lambda v: asy.alpha_coefficient(v, 2), 3),
    "c_asymptote m": ("m", asy.c_asymptote, 3),
    "laguerre n": ("n", lambda v: laguerre(v, 0.5, 1.5), 3),
    "bessel_j nu": ("nu", lambda v: bessel_j(v, 1.5), 2),
    "bessel_i_scaled nu": ("nu", lambda v: bessel_i_scaled(v, 1.5), 2),
    "bessel_i_scaled x": ("x", lambda v: bessel_i_scaled(1, v), 1.5),
    "regularized_lower_gamma x": ("x", lambda v: regularized_lower_gamma(2.0, v), 1.5),
    "hyp3f2_terminating m": ("m", lambda v: hyp3f2_terminating(0.5, 0.5, v, 1.0, 1.5), 3),
    "kernel_series_partial n_terms": (
        "n_terms", lambda v: kernel_series_partial(1, 0.5, 0.2j, v), 3,
    ),
    "KernelSpec dimension": ("dimension", lambda v: KernelSpec(v).dimension, 2),
    "McConfig replicas": ("replicas", lambda v: McConfig(replicas=v, seed=1).replicas, 3),
    "KernelSpec level": ("level", lambda v: KernelSpec(2, (v, 1)).level, 2),
    "McConfig cell_prob_floor": (
        "cell_prob_floor",
        lambda v: McConfig(replicas=3, seed=1, cell_prob_floor=v).cell_prob_floor,
        0.25,
    ),
}


@pytest.mark.parametrize("bad", ["2", b"2", True, np.True_, None, 1j], ids=repr)
@pytest.mark.parametrize("case", sorted(NUMBER_ARGS))
def test_numeric_arguments_refuse_str_bytes_and_bool(case, bad):
    # float() and int() would coerce the first four, and refuse the last two
    # with a TypeError that names no argument
    name, call, good = NUMBER_ARGS[case]
    with pytest.raises(ValueError, match=rf"^{name} must be a number, got {bad!r}$"):
        call(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("case", sorted(NUMBER_ARGS))
def test_numeric_arguments_refuse_nan_and_inf(case, bad):
    # int() of these raises without naming the argument
    name, call, good = NUMBER_ARGS[case]
    with pytest.raises(ValueError, match=rf"^{name} must be [^,]+, got {bad!r}$"):
        call(bad)


@pytest.mark.parametrize("case", sorted(NUMBER_ARGS))
def test_numeric_arguments_take_numpy_scalars(case):
    name, call, good = NUMBER_ARGS[case]
    wrapped = np.int64(good) if isinstance(good, int) else np.float64(good)
    assert call(wrapped) == call(good)


@pytest.mark.parametrize(
    "call", [lambda x: bessel_i_scaled(0, x), lambda x: regularized_lower_gamma(1.0, x)],
    ids=["bessel_i_scaled", "regularized_lower_gamma"],
)
@pytest.mark.parametrize("x", [np.array([1.0, 2.0]), np.array([1.0])], ids=["two", "one"])
def test_scalar_functions_refuse_arrays(call, x):
    # bessel_j takes a 1-D array; these two take one float
    with pytest.raises(ValueError, match=r"^x must be a number, got array\("):
        call(x)
