"""Window statistics: closed forms, the integral route, the Bernoulli
spectrum, polydisk moments, and the Class-I constants.

Frozen oracles (computed independently at high precision):
  variance_ball_closed(1, 1.0) = 0.5237776118026087
  variance_ball_closed(3, 2.0) = 7.580837328378224
  p_1 at level 1, R = 1       = 1 - 2/e = 0.26424111765711535
  C(0) = 1/sqrt(pi), C(1) = 7/(4 sqrt(pi)), C(2) = 1.278242025225385
"""

import hashlib
import math
import struct
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp

import heisenberg_dpp.specfun as sf
import heisenberg_dpp.window_stats as ws
from heisenberg_dpp.analysis import default_r_grid
from heisenberg_dpp.exceptions import (
    InternalConsistencyError,
    NumericalBudgetError,
    UnsupportedConfigurationError,
)
from heisenberg_dpp.kernels import KernelSpec
from heisenberg_dpp.specfun import bessel_j
from heisenberg_dpp.window_stats import (
    BernoulliSpectrum,
    MomentReport,
    Route,
    WindowKind,
    ball_moments,
    bernoulli_prob,
    build_spectrum,
    c_constant,
    mean_ball,
    polydisk_limit_constant,
    polydisk_moments,
    variance_ball_closed,
    variance_ball_integral,
    variance_ratio_ball,
)


class TestBallClosedForm:
    def test_mean_is_polynomial(self):
        # mean = R^(2D) / D!
        assert mean_ball(3, 2.0) == pytest.approx(32.0 / 3.0, rel=1e-15)
        assert mean_ball(1, 1.5) == pytest.approx(2.25, rel=1e-15)

    @pytest.mark.parametrize("dim, r", [(200, 3.0), (100, 40.0)])
    def test_mean_past_the_double_range_of_its_factors(self, dim, r):
        # 200! and 40^200 overflow a double; the means, 8.9e-185 and 2.8e162, do not
        with mpmath.workdps(30):
            want = float(mpmath.mpf(r) ** (2 * dim) / mpmath.factorial(dim))
        assert mean_ball(dim, r) == pytest.approx(want, rel=1e-12)
        closed = variance_ball_closed(dim, r)
        assert variance_ball_integral(dim, r) == pytest.approx(closed, rel=1e-6)

    def test_mean_beyond_the_double_range(self):
        with pytest.raises(OverflowError, match=r"mean at D=1, R=1e\+200 overflows"):
            mean_ball(1, 1e200)

    def test_no_factorial_past_the_double_range(self, monkeypatch):
        # a float divided by 171! or more overflows: past 170 both ball
        # formulas go straight to logs, with the bits the divide-and-catch
        # form gave (the 0.0 mean underflows; its prefactor still takes logs)
        args = []
        monkeypatch.setattr(ws, "factorial", lambda n: args.append(n) or math.factorial(n))
        assert mean_ball(171, 10.0).hex() == "0x1.3dd40054a838fp+109"
        assert variance_ball_integral(300, 2.0).hex() == "0x0.0p+0"
        assert variance_ball_integral(172, 10.0).hex() == "0x1.71914dc7a5ff1p+108"
        assert args == []
        # at 170 the exact factorial is still formed and divided
        assert mean_ball(170, 2.0).hex() == "0x1.8c53af9080a2cp-680"
        assert variance_ball_integral(171, 2.0).hex() == "0x1.28aa6e7525ddfp-685"
        assert args == [170, 170]

    def test_frozen_variances(self):
        assert variance_ball_closed(1, 1.0) == pytest.approx(
            0.5237776118026087, rel=1e-14
        )
        assert variance_ball_closed(3, 2.0) == pytest.approx(
            7.580837328378224, rel=1e-14
        )

    def test_ratio_consistent_with_variance(self):
        for dim in (1, 2, 3, 4):
            for r in (0.01, 0.3, 1.0, 2.5, 4.0, 17.0, 60.0, 150.0):
                ratio = variance_ratio_ball(dim, r)
                assert ratio == pytest.approx(
                    variance_ball_closed(dim, r) / mean_ball(dim, r), rel=1e-13
                )
                assert variance_ball_closed(dim, r) == mean_ball(dim, r) * ratio

    def test_small_radius_is_poisson_like(self):
        # a nearly empty window cannot feel the repulsion
        for dim in (1, 2):
            ratio = variance_ratio_ball(dim, 0.01)
            assert 0.999 < ratio <= 1.0

    def test_large_radius_matches_limit_constant(self):
        # R * Var/mean -> C(0) * D for the level-zero ball
        for dim in (1, 2):
            r = 40.0
            want = dim * c_constant(0)
            got = r * variance_ratio_ball(dim, r)
            assert got == pytest.approx(want, rel=2e-3)

    def test_underdispersion(self):
        for dim in (1, 2, 3):
            for r in (0.5, 2.0, 10.0):
                assert variance_ball_closed(dim, r) < mean_ball(dim, r)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            variance_ball_closed(0, 1.0)
        with pytest.raises(ValueError):
            variance_ball_closed(1, -1.0)
        with pytest.raises(ValueError):
            mean_ball(2, math.inf)

    def test_recurrence_steps_are_capped(self, monkeypatch):
        # priced before the first Miller step: R = 1e8 ran past a 5 s
        # timeout, and from R ~ 1.34e154 on 2R^2 overflowed to an x = inf
        # that the caller never gave; D = 14142 costs ~D^2/2 steps at R = 4
        calls = []
        monkeypatch.setattr(ws, "bessel_i_scaled", lambda nu, x: calls.append(x))
        for dim, r in ((1, 1e8), (1, 1e154), (3, 4e6), (14142, 4.0)):
            with pytest.raises(NumericalBudgetError) as info:
                variance_ball_closed(dim, r)
            assert f"at D={dim}, R={r:g} takes " in str(info.value)
        assert calls == []

    def test_series_orders_are_priced(self, monkeypatch):
        # below the series cutoff each of the D + 1 orders is priced at 20
        # units: D = 10^8 at R = 1 ran past a 5 s timeout
        calls = []
        monkeypatch.setattr(ws, "bessel_i_scaled", lambda nu, x: calls.append(x) or 0.0)
        with pytest.raises(NumericalBudgetError, match=r"^the closed ball route at D=100000000, R=1 takes about 200 s"):
            variance_ratio_ball(10**8, 1.0)
        assert calls == []
        monkeypatch.setattr(sf, "WORK_BUDGET", 39)
        with pytest.raises(NumericalBudgetError, match="past the budget"):
            variance_ratio_ball(1, 1.0)
        monkeypatch.setattr(sf, "WORK_BUDGET", 40)
        assert variance_ratio_ball(1, 1.0) == 0.0 and len(calls) == 2

    def test_recurrence_cap_boundary(self, monkeypatch):
        # D = 1, R = 100: two orders of 9.5 sqrt(2) R + 20 steps, plus nu = 1,
        # at 3 units a step
        steps = 2 * (9.5 * math.sqrt(2.0) * 100.0 + 20 + 0.5)
        want = variance_ratio_ball(1, 100.0)
        monkeypatch.setattr(sf, "WORK_BUDGET", 3 * math.floor(steps))
        with pytest.raises(NumericalBudgetError, match="past the budget"):
            variance_ratio_ball(1, 100.0)
        monkeypatch.setattr(sf, "WORK_BUDGET", 3 * math.ceil(steps))
        assert variance_ratio_ball(1, 100.0) == want
        # below the series cutoff no recurrence runs: two orders of 20 units
        monkeypatch.setattr(sf, "WORK_BUDGET", 40)
        assert variance_ratio_ball(1, 3.8) > 0.0


class TestIntegralRoute:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 5.0, 12.0])
    def test_matches_closed_form(self, dim, r):
        want = variance_ball_closed(dim, r)
        got = variance_ball_integral(dim, r)
        assert got == pytest.approx(want, rel=3e-9)

    # float.hex of the values from the fixed-panel damped quadrature: the
    # verify cross-check's 15 (D, R) pairs and one many-panel radius
    FROZEN_HEX = {
        (1, 0.5): "0x1.9a587352e09c2p-3",
        (1, 1.0): "0x1.0c2c9442236cap-1",
        (1, 2.0): "0x1.1c3c6e47e9b1ap+0",
        (1, 5.0): "0x1.682cda0540c50p+1",
        (1, 10.0): "0x1.68dafe7845df0p+2",
        (2, 0.5): "0x1.f45759d502996p-6",
        (2, 1.0): "0x1.aa2161c9f648cp-2",
        (2, 2.0): "0x1.0b10d97d1099ap+2",
        (2, 5.0): "0x1.1696540f668ecp+6",
        (2, 10.0): "0x1.1936e3307b560p+9",
        (3, 0.5): "0x1.54b6c3efb69c7p-9",
        (3, 1.0): "0x1.45bd6bcf2db39p-3",
        (3, 2.0): "0x1.e52c70546b8d4p+2",
        (3, 5.0): "0x1.ac2d043af7772p+9",
        (3, 10.0): "0x1.b5934c7849508p+14",
        (1, 50.0): "0x1.c3572350cb980p+4",
    }

    @pytest.mark.parametrize("dim, r", sorted(FROZEN_HEX))
    def test_bit_identical_to_frozen_values(self, dim, r):
        assert variance_ball_integral(dim, r).hex() == self.FROZEN_HEX[(dim, r)]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_large_radius_within_default_tolerance(self, dim):
        # the earlier oscillatory-tail route ran out of budget at every
        # R above ~1260; the damped integrand needs only ceil(13 R/pi) panels
        gap = abs(variance_ball_integral(dim, 2000.0) - variance_ball_closed(dim, 2000.0))
        assert gap <= ws._integral_tol(dim, 2000.0)

    @settings(max_examples=25, deadline=None)
    @given(dim=st.sampled_from([1, 2, 3]), r=st.floats(0.3, 30.0))
    def test_default_tolerance_holds(self, dim, r):
        gap = abs(variance_ball_integral(dim, r) - variance_ball_closed(dim, r))
        assert gap <= ws._integral_tol(dim, r)

    @pytest.mark.parametrize("dim, r", [(20, 5.0), (30, 4.0), (40, 5.0)])
    def test_high_dimensions_match_closed_form(self, dim, r):
        # J_D(kR) at D >= 20 needs the recurrence past x = 30 (it was refused)
        closed = variance_ball_closed(dim, r)
        assert variance_ball_integral(dim, r) == pytest.approx(closed, rel=1e-6)

    def test_reported_error_is_the_tolerance_held(self):
        for dim, r in ((1, 10.0), (3, 10.0)):
            report = ball_moments(dim, r, Route.INTEGRAL)
            assert report.error_estimate == ws._integral_tol(dim, r)

    def test_budget_exhaustion_raises(self, monkeypatch):
        # one panel on [0, 13]: its error bound is of order 1
        monkeypatch.setattr(ws, "INTEGRAL_PANEL_CAP", 1)
        monkeypatch.setattr(ws, "_integral_tol", lambda dimension, radius: 1e-16)
        with pytest.raises(NumericalBudgetError) as exc_info:
            variance_ball_integral(1, 1.0)
        err = exc_info.value
        assert err.best_estimate is not None
        assert err.achieved_error > 1e-16
        # the failed run still carries a usable estimate
        assert err.best_estimate == pytest.approx(
            variance_ball_closed(1, 1.0), rel=1e-3
        )

    @staticmethod
    def bounded(dim, r):
        """The route's value at (dim, r) and the error bound it achieved,
        read from the refusal that a zero target forces."""
        with mock.patch.object(ws, "_integral_tol", lambda dimension, radius: 0.0):
            with pytest.raises(NumericalBudgetError) as info:
                variance_ball_integral(dim, r)
        return info.value.best_estimate, info.value.achieved_error

    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.sampled_from([1, 2, 3, 5, 20]),
        r=st.floats(math.log(1e-3), math.log(2e4)).map(math.exp),
    )
    @example(dim=2, r=2e4)
    @example(dim=5, r=2e4)
    @example(dim=1, r=17987.810860756388)  # past the panel cap, which the coarse rule refused
    def test_accepted_values_hold_the_bound(self, dim, r):
        # The bound covers the quadrature, not the rounding of the nodes and
        # of mean - P * integral, which reaches ~4e-15 of the mean from
        # R ~ 600 (30 ulps at D = 5, R = 2e4): 2^-44 of the mean allows for it.
        value, achieved = self.bounded(dim, r)
        if achieved > ws._integral_tol(dim, r):
            return  # refused
        closed = variance_ball_closed(dim, r)
        slack = 1e-12 * closed + 2.0**-44 * mean_ball(dim, r)
        assert abs(value - closed) <= achieved + slack

    # (D, R, panel): wide panels, where the rule's error shows, and panels of
    # the route itself from small R to past the panel cap
    PANELS = [
        (1, 1.0, (0.0, 13.0)),
        (3, 1.0, (0.0, 13.0)),
        (1, 5.0, (0.0, 3.25)),
        (20, 40.0, (0.5, 0.5 + 4 * math.pi / 40)),
        (2, 3.0, (0.8125, 1.625)),
        (3, 50.0, (1.0, 1.0 + 2 * math.pi / 50)),
        (1, 1e-3, (0.0, 0.8125)),
        (1, 32000.0, (1.0, 1.0 + 13 / 65536)),
        (5, 32000.0, (0.0, 13 / 65536)),
    ]

    @pytest.mark.parametrize("dim, r, panel", PANELS)
    def test_panel_bound_covers_the_rule_error(self, dim, r, panel):
        # 12-point Gauss-Legendre in 40 digits (nodes refined from the
        # route's by Newton's method) against mpmath.quad: the float nodes
        # and weights err by ~1e-16 of the integral, which the bound leaves out
        lo, hi = panel
        with mpmath.workdps(40):
            legendre = lambda t: mpmath.legendre(12, t)
            rule = []
            for node in ws._GL_NODES.tolist():
                t = mpmath.mpf(node)
                for _ in range(4):
                    t -= legendre(t) / mpmath.diff(legendre, t)
                rule.append((t, 2 / ((1 - t * t) * mpmath.diff(legendre, t) ** 2)))
            f = lambda k: mpmath.besselj(dim, k * r) ** 2 / k * mpmath.exp(-k * k / 4)
            mid, half = (mpmath.mpf(lo) + hi) / 2, (mpmath.mpf(hi) - lo) / 2
            gauss = half * mpmath.fsum(w * f(mid + half * t) for t, w in rule)
            error = abs(gauss - mpmath.quad(f, mpmath.linspace(lo, hi, 9)))
        bound = ws._panel_bounds(dim, np.array([r]), np.array([(lo + hi) / 2]), np.array([(hi - lo) / 2]))
        assert error <= bound[0]

    # Every (D, R) is accepted unless refused below or its mean leaves the
    # double range.  The coarse-rule estimate that the bound replaced
    # refused REFUSED and NEWLY_ACCEPTED, and accepted every other case.
    SCAN_DIMS = (1, 2, 3, 5, 10, 20, 40, 100, 400)
    SCAN_RADII = np.geomspace(1e-3, 3.2e4, 31).tolist()
    REFUSED = {(d, 32000.0) for d in (1, 2, 3, 5, 10, 20)}
    NEWLY_ACCEPTED = {(d, 17987.810860756388) for d in (1, 2, 3, 5)}

    @pytest.mark.slow
    def test_scan_keeps_every_coarse_rule_acceptance(self):
        # The decision reads the panels alone, not the Bessel values, so
        # zeros stand in for bessel_j to keep the scan fast.
        outcome = {}
        with mock.patch.object(ws, "bessel_j", lambda nu, x: np.zeros_like(x)):
            for d in self.SCAN_DIMS:
                for r in self.SCAN_RADII:
                    try:
                        mean_ball(d, r)
                    except OverflowError:
                        continue
                    try:
                        variance_ball_integral(d, r)
                        outcome[d, r] = "accepted"
                    except NumericalBudgetError:
                        outcome[d, r] = "refused"
        assert len(outcome) == 256  # 23 of the 279 means leave the double range
        refused = {case for case, result in outcome.items() if result == "refused"}
        assert refused == self.REFUSED
        assert self.NEWLY_ACCEPTED <= outcome.keys() - refused

    @pytest.mark.slow
    def test_peak_memory_below_the_coarse_rule(self):
        # tracemalloc peak of this call when the coarse rule's half as many
        # panels again went into every bessel_j call (numpy 2.4, Python 3.11)
        coarse_rule_peak = 159_702_648
        variance_ball_integral(3, 1.0)
        tracemalloc.start()
        try:
            variance_ball_integral(3, 2e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= coarse_rule_peak
        # 107 MB when every node of the 2^16 panels was a Python float at
        # once; a chunk of _INTEGRAL_CHUNK_PANELS peaks at ~14 MB
        assert peak <= 32 * 2**20

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            variance_ball_integral(-2, 1.0)
        with pytest.raises(ValueError, match=r"^radius must be a number, got \[1\.0, 2\.0\]$"):
            variance_ball_integral(1, [[1.0, 2.0]])

    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(1, 3), radii=st.lists(st.floats(1e-3, 200.0), min_size=1, max_size=20))
    @example(dim=2, radii=[5.0, 0.01, 5.0, 200.0, 0.01, 0.3])
    def test_grid_is_bit_identical_to_single_radii(self, dim, radii):
        got = variance_ball_integral(dim, radii)
        assert isinstance(got, np.ndarray) and got.shape == (len(radii),)
        want = [variance_ball_integral(dim, r).hex() for r in radii]
        assert [v.hex() for v in got.tolist()] == want
        assert variance_ball_integral(dim, []).shape == (0,)
        for route in (Route.CLOSED_FORM, Route.INTEGRAL):
            reports = ball_moments(dim, radii, route)
            alone = [ball_moments(dim, r, route) for r in radii]
            assert reports == alone
            assert [rep.variance.hex() for rep in reports] == [rep.variance.hex() for rep in alone]
            assert ball_moments(dim, [], route) == []

    @staticmethod
    def first_error(call):
        with pytest.raises(Exception) as info:
            call()
        err = info.value
        return type(err), str(err), getattr(err, "best_estimate", None), getattr(
            err, "achieved_error", None
        )

    @pytest.mark.parametrize("radii", [
        [1.0, 2.0, 3.0, 1e200, 4.0],  # the overflow raises before R = 2 misses its target
        [1.0, 1e200, 2.0],
        [3.0, -1.0, 2.0],
        [2.0, "2", 1e200],  # the string raises before R = 2 misses its target
        [0.5, 3.0, 2.0, 2.0],
    ])
    def test_grid_raises_what_a_loop_raises_first(self, monkeypatch, radii):
        """The loop checks every radius and its mean, then integrates."""
        tol = ws._integral_tol
        monkeypatch.setattr(ws, "_integral_tol", lambda d, r: 1e-300 if r == 2.0 else tol(d, r))

        def loop():
            for r in radii:
                mean_ball(2, r)
            for r in radii:
                variance_ball_integral(2, r)

        want = self.first_error(loop)
        assert self.first_error(lambda: variance_ball_integral(2, radii)) == want

    def test_no_quadrature_after_an_overflowing_mean(self, monkeypatch):
        seen = []
        monkeypatch.setattr(ws, "bessel_j", lambda nu, x: seen.append(x) or bessel_j(nu, x))
        with pytest.raises(OverflowError, match="mean at D=1"):
            variance_ball_integral(1, [1.0, 1e200, 5.0])
        assert seen == []

    def test_no_quadrature_before_an_invalid_radius(self, monkeypatch):
        seen = []
        monkeypatch.setattr(ws, "bessel_j", lambda nu, x: seen.append(x) or bessel_j(nu, x))
        with pytest.raises(ValueError, match="'2'"):
            variance_ball_integral(2, [2.0, "2", 1e200])
        assert seen == []

    @pytest.mark.parametrize("dim, radii, calls", [
        (1, list(default_r_grid()), 6),
        (2, [40.0, 0.5, 3.0, 9.0, 9.0, 1.0, 25.0, 2.0], 3),
        (3, [0.5] * 3, 3),  # equal radii: two would pass the bound
    ])
    def test_no_bessel_call_exceeds_the_largest_radius_alone(self, monkeypatch, dim, radii, calls):
        sizes = []
        monkeypatch.setattr(ws, "bessel_j", lambda nu, x: sizes.append(x.size) or bessel_j(nu, x))
        variance_ball_integral(dim, max(radii))
        (alone,) = sizes
        sizes.clear()
        variance_ball_integral(dim, radii)
        assert max(sizes) <= alone and len(sizes) == calls


def quad_prob(n: int, m: int, radius: float) -> float:
    """Direct numerical evaluation of the success-probability integral."""

    def integrand(u: float) -> float:
        lag = scipy.special.eval_genlaguerre(m, n - m, u)
        return u ** (n - m) * math.exp(-u) * lag * lag

    val, _ = scipy.integrate.quad(integrand, 0.0, radius * radius, limit=200)
    return math.factorial(m) / math.factorial(n) * val


class TestBernoulliProb:
    def test_frozen_value(self):
        assert bernoulli_prob(1, 1, 1.0) == pytest.approx(
            1.0 - 2.0 * math.exp(-1.0), abs=1e-15
        )

    def test_level_zero_is_incomplete_gamma(self):
        # p_0 at level 0 is P(1, R^2) = 1 - exp(-R^2)
        for r in (0.5, 1.0, 2.5):
            assert bernoulli_prob(0, 0, r) == pytest.approx(
                -math.expm1(-r * r), rel=1e-14
            )

    @pytest.mark.parametrize("m", [0, 1, 2, 5])
    @pytest.mark.parametrize("n_off", [0, 1, 3, 8])
    @pytest.mark.parametrize("r", [0.7, 1.6, 3.0])
    def test_against_quadrature(self, m, n_off, r):
        n = m + n_off
        assert bernoulli_prob(n, m, r) == pytest.approx(
            quad_prob(n, m, r), rel=1e-9, abs=1e-13
        )

    def test_symmetry_is_bit_exact(self):
        # bernoulli_prob assembles p at level min(n, m), the spectrum at
        # level max(n, m): within an ulp of 1 both read 1 - 2^-53
        for r in (0.9, 2.2, 4.7):
            for n in range(0, 13, 3):
                for m in range(0, 13, 4):
                    a = bernoulli_prob(n, m, r)
                    b = build_spectrum(max(n, m), r).probs[min(n, m)]
                    assert a == b or {a, b} == TestExactAssembly.SATURATED, (n, m, r, a, b)

    def test_bounds(self):
        for r in (0.2, 1.0, 6.0):
            for n in range(12):
                p = bernoulli_prob(n, 2, r)
                assert 0.0 <= p <= 1.0

    def test_high_level_uses_symmetry(self):
        # p_3 at level 20 is assembled as p_20 at level 3, the lower level
        got = bernoulli_prob(3, 20, 2.0)
        assert got == bernoulli_prob(20, 3, 2.0)
        assert got == pytest.approx(quad_prob(20, 3, 2.0), rel=1e-8)
        # one index at level 2000 is past the work budget, one at level 3 is not
        assert 0.0 < bernoulli_prob(3, 2000, 45.0) == bernoulli_prob(2000, 3, 45.0) < 1.0

    @pytest.mark.parametrize(
        "n, m, r, units",
        [
            # mpmath: 0.741, 2.65 and 3.75 times 2^-1074
            (142, 3, 0.48548560486915454, 0),
            (115, 9, 0.17194608857164928, 2),
            (98, 3, 0.11840693273912499, 3),
        ],
    )
    def test_subnormal_result_rounds_toward_zero(self, n, m, r, units):
        got = bernoulli_prob(n, m, r)
        assert got == math.ldexp(units, -1074)
        ref = reference_prob(n, m, r) * mpmath.mpf(2) ** 1074
        assert units < ref < units + 1

    def test_certified_underflow_builds_no_ladder(self, monkeypatch):
        def no_ladder(*args):
            raise AssertionError("ladder built for a certified zero")

        monkeypatch.setattr(ws, "_GammaLadder", no_ladder)
        assert bernoulli_prob(300_000, 0, 1.0) == 0.0
        assert bernoulli_prob(0, 300_000, 1.0) == 0.0
        times = []
        for _ in range(5):
            start = time.perf_counter()
            bernoulli_prob(300_000, 0, 1.0)
            times.append(time.perf_counter() - start)
        assert min(times) < 1e-3

    def test_certified_saturation_builds_no_ladder(self, monkeypatch):
        def no_ladder(*args):
            raise AssertionError("ladder built for a certified 1 - 2^-53")

        monkeypatch.setattr(ws, "_GammaLadder", no_ladder)
        # 2 * 10^7 rungs are past the budget, 5 * 10^6 within it: both
        # lie far below n + m = R^2 = 10^8, so neither needs a rung
        for n, m, r in ((2 * 10**7, 0, 1e4), (5 * 10**6, 0, 1e4), (0, 5 * 10**6, 1e4), (3, 40, 20.0)):
            assert bernoulli_prob(n, m, r) == 1.0 - 2.0**-53
        times = []
        for _ in range(5):
            start = time.perf_counter()
            bernoulli_prob(5 * 10**6, 0, 1e4)
            times.append(time.perf_counter() - start)
        assert min(times) < 1e-3
        # n + m = R^2 is no longer below R^2: the budget answers
        with pytest.raises(NumericalBudgetError, match="past the budget"):
            bernoulli_prob(10**8, 0, 1e4)

    @pytest.mark.parametrize("m", [0, 3, 16])
    @pytest.mark.parametrize("r", [0.3, 2.0, 10.0])
    def test_certificate_returns_what_the_assembly_does(self, monkeypatch, m, r):
        # the first indices past the certificate's threshold, and the last
        # ones before it, against the assembly with the certificate off
        n = m
        while ws._log_prob_bound(n, m, r) >= ws._LOG_UNDERFLOW:
            n += 1
        cases = [(j, m) for j in range(n - 3, n + 3)] + [(m, n), (m, n + 1)]
        got = [bernoulli_prob(j, k, r) for j, k in cases]
        monkeypatch.setattr(ws, "_LOG_UNDERFLOW", -math.inf)
        assert got == [bernoulli_prob(j, k, r) for j, k in cases]
        assert got[3:] == [0.0] * 5
        for (j, k), p in zip(cases, got):
            if p >= np.finfo(float).tiny:
                assert math.log(p) <= ws._log_prob_bound(j, k, r)

    @pytest.mark.parametrize("r", [1e-3, 0.4, 2.5, 8.0])
    def test_certificate_bound_holds_and_is_tight_near_zero(self, r):
        # Szego's bound is equality at u = 0, so as R -> 0 it meets p_n
        for m in (0, 2, 7):
            for n in range(m, m + 30):
                for j, k in ((n, m), (m, n)):
                    p = bernoulli_prob(j, k, r)
                    if p < np.finfo(float).tiny:
                        continue
                    gap = ws._log_prob_bound(j, k, r) - math.log(p)
                    assert gap >= -1e-12
                    if r < 0.01:
                        assert gap < 1e-5

    def test_size_cap_raises_before_the_ladder(self, monkeypatch):
        monkeypatch.setattr(sf, "WORK_BUDGET", 30 * 10)  # 10 level-0 indices
        assert bernoulli_prob(7, 3, 2.0) > 0.0
        with pytest.raises(NumericalBudgetError, match=r"^p_8 at level 3 at radius 2 \(11 ladder rungs\)"):
            bernoulli_prob(8, 3, 2.0)
        # a certified zero needs no rungs, so the cap does not apply to it
        assert bernoulli_prob(300_000, 0, 1.0) == 0.0

    def test_index_past_the_double_range_meets_the_cap(self):
        with pytest.raises(NumericalBudgetError, match=r"^p_1\.000e\+400 at level 0 at radius 1 \(1\.000e\+400 ladder"):
            bernoulli_prob(10**400, 0, 1.0)

    @pytest.mark.parametrize("r", [1e154, 2.0**512, 1e200, 1.7976931348623157e308])
    def test_radius_past_the_double_square(self, r):
        # R^2 overflows a double from R = 2^512, but the ladder's R^2 is an
        # exact integer ratio: p_0 = 1 - e^(-R^2) truncates to just below 1
        assert bernoulli_prob(0, 0, r) == 1.0 - 2.0**-53
        assert bernoulli_prob(2, 3, r) == 1.0 - 2.0**-53

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            bernoulli_prob(-1, 0, 1.0)
        with pytest.raises(ValueError):
            bernoulli_prob(0, 0, 0.0)
        with pytest.raises(ValueError):
            bernoulli_prob(0.5, 0, 1.0)


class TestSpectrum:
    def test_mass_identity(self):
        # every level carries total mass R^2
        for m in (0, 1, 4):
            for r in (1.0, 3.0, 7.0):
                spec = build_spectrum(m, r, tail_tol=1e-10)
                assert spec.prob_sum == pytest.approx(r * r, abs=1e-9)
                assert spec.tail_bound <= 1e-10

    def test_probs_are_probabilities(self):
        spec = build_spectrum(2, 5.0)
        assert np.all(spec.probs >= 0.0)
        assert np.all(spec.probs <= 1.0)

    def test_matches_pointwise_evaluation(self):
        spec = build_spectrum(1, 2.0)
        for n in (0, 1, 2, 5, 9):
            assert spec.probs[n] == bernoulli_prob(n, 1, 2.0)

    def test_size_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sf, "WORK_BUDGET", 0)
        monkeypatch.setattr(ws, "_initial_truncation", lambda r, m: 1)
        with pytest.raises(NumericalBudgetError):
            build_spectrum(0, 3.0)

    def test_size_cap_checked_before_assembly(self, monkeypatch):
        monkeypatch.setattr(sf, "WORK_BUDGET", 30 * 100)  # 100 level-0 indices
        monkeypatch.setattr(ws, "_GammaLadder", None)  # must not be reached
        with pytest.raises(NumericalBudgetError, match="past the budget"):
            build_spectrum(0, 20.0)

    @pytest.mark.parametrize("r", [1e154, 2.0**512, 1e200, 1.7976931348623157e308])
    def test_radius_past_the_double_square_meets_the_budget(self, monkeypatch, r):
        self.no_ladder(monkeypatch)
        with pytest.raises(NumericalBudgetError, match="past the budget of 30 s$"):
            build_spectrum(0, r)

    def test_long_counts_read_in_scientific_notation(self, monkeypatch):
        # 10^400 indices at R = 1e200 printed in full took 468 characters
        self.no_ladder(monkeypatch)
        with pytest.raises(NumericalBudgetError) as exc_info:
            build_spectrum(0, 1e200)
        assert str(exc_info.value) == (
            "spectrum of 1.000e+400 indices at level 0 at radius 1e+200 takes "
            "about 3.00e+394 s of work, past the budget of 30 s"
        )
        with pytest.raises(NumericalBudgetError, match=r"^spectrum of 100000120000050 indices at level 40 "):
            build_spectrum(40, 1e7)
        assert sf._count(10**15 - 1) == "999999999999999"
        assert sf._count(10**15) == "1.000e+15"
        assert sf._count(99_996 * 10**300) == "1.000e+305"

    def test_unreachable_tail_target_raises(self):
        # below the rounding of sum p_n ~ R^2, so no extension can certify it
        with pytest.raises(NumericalBudgetError, match="stuck above the target"):
            build_spectrum(0, 2.5, tail_tol=1e-30)

    @staticmethod
    def no_ladder(monkeypatch):
        class LadderBuilt(Exception):
            pass

        def ladder(*args):
            raise LadderBuilt

        monkeypatch.setattr(ws, "_GammaLadder", ladder)
        return LadderBuilt

    @pytest.mark.parametrize("m", [500, 2000])
    def test_budget_refuses_high_levels_before_the_ladder(self, monkeypatch, m):
        # 500 or more indices at level 500 weigh over 10^8 level-0 ones
        self.no_ladder(monkeypatch)
        with pytest.raises(NumericalBudgetError, match=f"indices at level {m} at radius 1 takes"):
            build_spectrum(m, 1.0)
        if m == 2000:  # even one p_n at level 2000 is past the budget
            with pytest.raises(NumericalBudgetError, match="past the budget"):
                bernoulli_prob(m, m, 1.0)

    @pytest.mark.parametrize("m, r", [(16, 400.0), (64, 50.0)])
    def test_budget_admits_high_levels(self, monkeypatch, m, r):
        ladder_built = self.no_ladder(monkeypatch)
        with pytest.raises(ladder_built):
            build_spectrum(m, r)

    def test_budget_checked_before_each_extension(self, monkeypatch):
        # 4 indices pass a budget of 5; the first extension, to 68, does not
        monkeypatch.setattr(ws, "_initial_truncation", lambda r, m: 3)
        monkeypatch.setattr(sf, "WORK_BUDGET", 30 * 5)
        assembled = []
        assemble = ws._assemble_probs

        def recording(m, ladder, n_lo, n_hi):
            assembled.append((n_lo, n_hi))
            return assemble(m, ladder, n_lo, n_hi)

        monkeypatch.setattr(ws, "_assemble_probs", recording)
        with pytest.raises(NumericalBudgetError, match="^spectrum of 68 indices at level 0 at radius 20 takes"):
            build_spectrum(0, 20.0)
        assert assembled == [(0, 3)]  # refused before indices 4-67 were built

    def test_budget_refusal_carries_no_payload(self):
        # R^2 is no error: from R = 2^512 it would even read inf
        for refuse in (lambda: build_spectrum(0, 1e200), lambda: bernoulli_prob(10**8, 0, 1e4)):
            with pytest.raises(NumericalBudgetError, match="past the budget") as exc_info:
                refuse()
            assert exc_info.value.achieved_error is None
            assert exc_info.value.best_estimate is None

    def test_budget_at_level_zero_is_the_index_count(self, monkeypatch):
        monkeypatch.setattr(ws, "_initial_truncation", lambda r, m: 10**7)
        ladder_built = self.no_ladder(monkeypatch)
        with pytest.raises(ladder_built):
            build_spectrum(0, 1.0)
        monkeypatch.setattr(ws, "_initial_truncation", lambda r, m: 10**7 + 1)
        with pytest.raises(NumericalBudgetError, match="^spectrum of 10000001 indices at level 0 at"):
            build_spectrum(0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_spectrum(0, 1.0, tail_tol=0.0)
        with pytest.raises(ValueError):
            BernoulliSpectrum(1.0, 2, np.array([0.1, 0.2]), 0.0)
        with pytest.raises(ValueError, match="tail_bound must be >= 0"):
            BernoulliSpectrum(1.0, 0, np.array([0.5]), -1e-300)


def legacy_squared_coeffs(n: int, m: int) -> list[int]:
    """Coefficients of (m!)^2 [L_m^(n-m)]^2 as the per-term assembly built them."""
    scaled = [
        (-1) ** i * math.comb(n, m - i) * (math.factorial(m) // math.factorial(i))
        for i in range(m + 1)
    ]
    out = []
    for k in range(2 * m + 1):
        lo = max(0, k - m)
        hi = min(k, m)
        out.append(sum(scaled[i] * scaled[k - i] for i in range(lo, hi + 1)))
    return out


def legacy_spectrum(m: int, radius: float, size: int) -> list[float]:
    """The per-term libmp assembly the exact-integer one replaced.

    Every product and partial sum is rounded at the ladder's precision and
    the factorials come from a rounded running product, as they did.  The
    result is clamped as the library's is, to [0, 1 - 2^-53].
    """
    prec = ws._working_prec(m, ws._initial_truncation(radius, m) + 2 * m + 64)
    ladder = ws._GammaLadder(radius, prec)
    ladder.extend(size - 1 + m)
    fact = [libmp.fone]
    for j in range(1, size + m):
        fact.append(libmp.mpf_mul(fact[-1], libmp.from_int(j), prec))
    out = []
    for n in range(size):
        if m == 0:
            raw = libmp.to_float(reg_gamma(ladder, n))
        else:
            acc = libmp.fzero
            alpha = n - m
            for k, bk in enumerate(legacy_squared_coeffs(n, m)):
                if bk == 0 or alpha + k < 0:
                    continue
                term = libmp.mpf_mul(
                    libmp.mpf_mul(libmp.from_int(bk), fact[alpha + k], prec),
                    reg_gamma(ladder, alpha + k),
                    prec,
                )
                acc = libmp.mpf_add(acc, term, prec)
            denom = libmp.mpf_mul(fact[n], fact[m], prec)
            raw = libmp.to_float(libmp.mpf_div(acc, denom, prec))
        out.append(min(max(raw, 0.0), 1.0 - 2.0**-53))
    return out


def reference_prob(n: int, m: int, radius: float) -> mpmath.mpf:
    """p_n at level m from exact binomials and mpmath's incomplete gamma,
    with working bits to spare over the largest term's size relative to 1."""
    terms = [
        (bk * math.factorial(n - m + k), n - m + k)
        for k, bk in enumerate(legacy_squared_coeffs(n, m))
        if bk and n - m + k >= 0
    ]
    denom = math.factorial(n) * math.factorial(m)
    spread = max(abs(c).bit_length() for c, _ in terms) - denom.bit_length()
    with mpmath.workprec(max(500, 200 + spread)):
        x = mpmath.mpf(radius) ** 2
        acc = mpmath.fsum(c * mpmath.gammainc(j + 1, 0, x, regularized=True) for c, j in terms)
        return acc / denom


class TestExactAssembly:
    SATURATED = {1.0 - 2.0**-53}

    @pytest.mark.parametrize("r", [1.0, 5.0, 20.0])
    @pytest.mark.parametrize("m", [0, 1, 2, 4, 8, 12, 16])
    def test_matches_per_term_assembly(self, m, r):
        # one exact sum and one rounding instead of a rounding per term: the
        # two agree, within an ulp of 1 once both are clamped
        new = build_spectrum(m, r).probs.tolist()
        old = legacy_spectrum(m, r, len(new))
        for n, (a, b) in enumerate(zip(old, new)):
            assert a == b or {a, b} <= self.SATURATED, (n, a, b)

    @pytest.mark.parametrize("m", [8, 16, 24, 32, 64])
    def test_within_one_ulp_of_reference(self, m):
        # bulk, edge (n ~ R^2 = 400) and tail of the R = 20 spectrum
        spec = build_spectrum(m, 20.0)
        for n in (3, 150, 398, 405, 470, 560):
            got = spec.probs[n]
            ref = reference_prob(n, m, 20.0)
            assert abs(mpmath.mpf(got) - ref) <= math.ulp(got), (n, got, ref)
            assert got <= ref  # rounded toward zero

    @pytest.mark.parametrize("r", [1.0, 5.0, 20.0])
    @pytest.mark.parametrize("n, m", [(3, 20), (16, 40), (17, 18)])
    def test_swapped_index_within_one_ulp_of_reference(self, n, m, r):
        # for n < m, bernoulli_prob assembles p_m at level n
        got = bernoulli_prob(n, m, r)
        ref = reference_prob(n, m, r)
        assert abs(mpmath.mpf(got) - ref) <= math.ulp(got), (got, ref)
        assert got <= ref  # rounded toward zero

    @pytest.mark.parametrize("r", [1.0, 3.0, 5.0])
    @pytest.mark.parametrize("m", [20, 24, 32])
    def test_spectrum_matches_pointwise_across_levels(self, m, r):
        # for n <= 16 < m the spectrum assembles p_n at level m, and
        # bernoulli_prob assembles p_m at level n: within an ulp of 1 both
        # read 1 - 2^-53
        spec = build_spectrum(m, r).probs.tolist()
        for n in range(17):
            a, b = spec[n], bernoulli_prob(n, m, r)
            assert a == b or {a, b} == self.SATURATED, (n, a, b)

    def test_no_value_reaches_one(self):
        # p_n < 1 at every finite R, but the alternating sum of truncated
        # ladder values gives 1.0 at these indices before the clamp
        near_one = [128, 130, 132, 134, 136, 139]
        probs = build_spectrum(8, 20.0).probs
        assert probs.max() < 1.0
        assert probs[near_one].tolist() == [1.0 - 2.0**-53] * len(near_one)
        assert bernoulli_prob(139, 8, 20.0) == 1.0 - 2.0**-53

    @pytest.mark.parametrize("m", [0, 3])
    def test_out_of_band_value_raises(self, monkeypatch, m):
        # a negative band leaves no admissible value in [0, 1]
        monkeypatch.setattr(ws, "PROB_CONSISTENCY_BAND", -2.0)
        with pytest.raises(InternalConsistencyError):
            build_spectrum(m, 1.3)
        with pytest.raises(InternalConsistencyError):
            bernoulli_prob(2, m, 1.3)


def integer_coeff(k: int, n: int, m: int) -> int:
    """a_k(n) = sum_i binom(m, k-i) binom(n, m-i) binom(j, i), j = n - m + k,
    0 when j < 0."""
    j = n - m + k
    if j < 0:
        return 0
    return sum(
        math.comb(m, k - i) * math.comb(n, m - i) * math.comb(j, i)
        for i in range(max(0, k - m), min(k, m) + 1)
    )


def unpack(packed: int, slots: int, bits: int) -> list[int]:
    mask = (1 << bits) - 1
    return [(packed >> (k * bits)) & mask for k in range(slots)]


def exact_prob(n: int, m: int, ladder) -> Fraction:
    """p_n at level m as the exact rational sum_k b_k j! P_j / (m! n!) over
    the ladder's values P_j = M_j 2^e_j, with the factorial weights and the
    division the integer coefficients replaced."""
    total = Fraction(0)
    for k, bk in enumerate(legacy_squared_coeffs(n, m)):
        j = n - m + k
        if bk and j >= 0:
            man, exp = ladder._p[j]
            total += bk * math.factorial(j) * Fraction(man) * Fraction(2) ** exp
    return total / (math.factorial(m) * math.factorial(n))


def truncated_double(exact: Fraction) -> float:
    """exact >= 0 truncated toward zero to a double, subnormals included."""
    if exact == 0:
        return 0.0
    e = exact.numerator.bit_length() - exact.denominator.bit_length()
    if Fraction(2) ** e > exact:
        e -= 1  # now 2^e <= exact < 2^(e + 1)
    q = max(e - 52, -1074)
    return math.ldexp(math.floor(exact / Fraction(2) ** q), q)


class TestIntegerCoefficients:
    """The assembly's integer coefficients and the rational they sum to."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_identity_against_factorial_form(self, m):
        # a_k(n) = d_k(n) j!/(m! n!) is the binomial sum, for n < m too
        for n in range(m + 21):
            signed = legacy_squared_coeffs(n, m)
            slot = max(integer_coeff(k, n, m) for k in range(2 * m + 1)).bit_length() // 8 + 1
            seeded = unpack(ws._seed_coeffs(m, n, slot), 2 * m + 1, 8 * slot)
            for k, bk in enumerate(signed):
                j = n - m + k
                want = integer_coeff(k, n, m)
                if j < 0:
                    assert bk == 0 and want == 0, (n, k)
                else:
                    ratio = Fraction((-1) ** k * bk * math.factorial(j),
                                     math.factorial(m) * math.factorial(n))
                    assert ratio == want, (n, k)
                assert seeded[k] == want, (n, k)

    def test_coefficients_fit_their_slots(self):
        # the slot bound 2^m binom(2n + m, m) holds for every a_k(n)
        for m in range(1, 13):
            for n in range(0, 200, 7):
                bound = 2**m * math.comb(2 * n + m, m)
                assert all(integer_coeff(k, n, m) <= bound for k in range(2 * m + 1))

    def test_non_integer_quotient_raises(self, monkeypatch):
        # a denominator one off leaves a remainder
        monkeypatch.setattr(ws, "perm", lambda n, k: math.perm(n, k) + 1)
        with pytest.raises(InternalConsistencyError, match="not an integer"):
            ws._seed_coeffs(3, 7, 64)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(0, 12), r=st.floats(0.3, 30.0), pick=st.integers(0, 10**6))
    def test_spectrum_equals_exact_factorial_sum(self, m, r, pick):
        # p_n from build_spectrum against the factorial form on a fully
        # summed ladder of the same radius and precision, extended to the
        # same tops (the one it used leaves terms below its floor),
        # truncated toward zero and held below 1
        ladders, tops = [], []

        class Recorded(ws._GammaLadder):
            def __init__(self, *args):
                super().__init__(*args)
                ladders.append(self)

            def extend(self, j_max, floor=0):
                tops.append(j_max)
                super().extend(j_max, floor)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ws, "_GammaLadder", Recorded)
            probs = build_spectrum(m, r).probs
        full = ws._GammaLadder(r, ladders[0].prec)
        for top in tops:
            full.extend(top)
        n = pick % len(probs)
        exact = exact_prob(n, m, full)
        assert probs[n] == min(truncated_double(exact), 1.0 - 2.0**-53), (n, exact)

    def test_rungs_below_the_floor_refuse_assembly(self):
        ladder = ws._GammaLadder(3.0, 96)
        ladder.extend(40, 20)
        with pytest.raises(InternalConsistencyError, match="below 20"):
            ws._assemble_probs(2, ladder, 10, 12)

    def test_negative_zero_keeps_its_sign(self):
        # a negative sum below 2^-1074 truncates to -0.0, which the band
        # admits and the clamp to [0, 1 - 2^-53] keeps, sign bit and all
        ladder = ws._GammaLadder(0.5, 96)
        ladder.extend(4)
        ladder._p[2:5] = [(1 << 95, -1200), ((1 << 96) - 1, -1200), (1 << 95, -1200)]
        (p,) = ws._assemble_probs(1, ladder, 3, 3)
        assert p == 0.0 and math.copysign(1.0, p) == -1.0

    @pytest.mark.parametrize("block", [1, 3, 16])
    def test_block_size_touches_no_bit(self, monkeypatch, block):
        cases = [(1, 20.0), (5, 7.7), (16, 1.5), (12, 9.0)]
        want = [spectrum_bytes(m, r) for m, r in cases]
        pointwise = [bernoulli_prob(n, 6, 4.0) for n in (0, 3, 30)]
        monkeypatch.setattr(ws, "_BLOCK", block)
        assert [spectrum_bytes(m, r) for m, r in cases] == want
        assert [bernoulli_prob(n, 6, 4.0) for n in (0, 3, 30)] == pointwise


def uncertified(fn, *args):
    """fn(*args) with the saturation certificate off: every index assembled."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ws, "_LOG_SATURATED", -math.inf)
        return fn(*args)


def spectrum_bytes(m: int, r: float) -> bytes:
    spec = build_spectrum(m, r)
    return np.asarray(spec.probs, dtype="<f8").tobytes() + struct.pack("<d", spec.tail_bound)


def mp_log_defect_bound(n: int, m: int, radius: float) -> mpmath.mpf:
    """_log_defect_bound at 50 digits with the exact R^2 and no slack."""
    a, b = max(n, m), min(n, m)
    k = a + b
    with mpmath.workdps(50):
        rsq = mpmath.mpf(radius) ** 2
        chernoff = -rsq + k + k * (mpmath.log(rsq) - mpmath.log(k)) if k else -rsq
        return (
            b * mpmath.log(4) + mpmath.loggamma(k + 1) - mpmath.loggamma(a + 1)
            - mpmath.loggamma(b + 1) + chernoff
        )


class TestSaturationCertificate:
    """Indices whose 1 - p_n is certified below 2^-55 skip the assembly."""

    @pytest.mark.parametrize("r", [20.0, 50.0, 100.0])
    @pytest.mark.parametrize("m", [0, 1, 3, 16, 32])
    def test_skip_is_bit_identical(self, m, r):
        assert spectrum_bytes(m, r) == uncertified(spectrum_bytes, m, r)

    def test_skip_inside_extensions_is_bit_identical(self, monkeypatch):
        # a first truncation of 50 indices leaves most of the certified bulk
        # to the extensions, each an assembly from n_lo > 0
        monkeypatch.setattr(ws, "_initial_truncation", lambda r, m: 50)
        for m in (0, 5):
            assert ws._first_uncertain(m, 20.0, 51, 114) > 51
            assert spectrum_bytes(m, 20.0) == uncertified(spectrum_bytes, m, 20.0)

    @pytest.mark.parametrize("n, m, r", [(3, 40, 20.0), (40, 3, 20.0), (16, 300, 50.0), (0, 2000, 50.0)])
    def test_swapped_indices_are_bit_identical(self, n, m, r):
        assert ws._log_defect_bound(n, m, r) < ws._LOG_SATURATED
        assert bernoulli_prob(n, m, r) == uncertified(bernoulli_prob, n, m, r) == 1.0 - 2.0**-53

    @settings(max_examples=8, deadline=None)
    @given(m=st.integers(0, 12), r=st.floats(5.0, 30.0))
    def test_skip_is_bit_identical_at_random(self, m, r):
        assert spectrum_bytes(m, r) == uncertified(spectrum_bytes, m, r)

    @pytest.mark.parametrize("r", [20.0, 50.0])
    @pytest.mark.parametrize("m", [0, 3, 16])
    def test_last_certified_index_is_saturated(self, m, r):
        n0 = ws._first_uncertain(m, r, 0, ws._initial_truncation(r, m))
        assert n0 > 0
        assert 1 - reference_prob(n0 - 1, m, r) < mpmath.mpf(2) ** -54

    @pytest.mark.parametrize("r", [1e4, 1e8])
    @pytest.mark.parametrize("m", [0, 3, 16])
    def test_float_bound_certifies_no_more_than_exact_one(self, m, r):
        # rounding makes the float bound jitter by ~100 nats at R^2 = 1e16,
        # so probe every index around the bisection's answer
        n0 = ws._first_uncertain(m, r, 0, int(r * r))
        assert r * r / 2 < n0 < r * r
        assert ws._log_defect_bound(n0 - 1, m, r) < ws._LOG_SATURATED
        for n in [*range(n0 - 20, n0 + 20), n0 // 2, n0 // 7, 0]:
            if ws._log_defect_bound(n, m, r) < ws._LOG_SATURATED:
                assert mp_log_defect_bound(n, m, r) < ws._LOG_SATURATED, n

    @pytest.mark.parametrize("m", [0, 3, 16])
    def test_float_bound_is_sound_past_the_double_square(self, m):
        # R^2 = 1e308: lgamma overflows from k ~ 2.5e305, and the terms'
        # total size a little before that, where nothing is certified
        certified = 0
        for n in [10**j for j in range(0, 306, 5)] + [2 * 10**305]:
            try:
                if ws._log_defect_bound(n, m, 1e154) >= ws._LOG_SATURATED:
                    continue
            except OverflowError:
                continue
            assert mp_log_defect_bound(n, m, 1e154) < ws._LOG_SATURATED, n
            certified += 1
        assert certified >= 50

    def test_skip_covers_half_the_first_truncation(self):
        top = ws._initial_truncation(50.0, 16)
        assert ws._first_uncertain(16, 50.0, 0, top) >= top / 2


class TestGammaLadder:
    @pytest.mark.parametrize("r, m", [(0.3, 0), (3.0, 2), (20.0, 8)])
    def test_extended_in_steps_matches_extended_once(self, r, m):
        # build_spectrum's pattern: the initial truncation, then three steps
        n_top = ws._initial_truncation(r, m)
        grow = max(64, math.ceil(r))
        prec = ws._working_prec(m, n_top + 2 * m + 64)
        stepped = ws._GammaLadder(r, prec)
        for i in range(4):
            stepped.extend(n_top + i * grow + m)
        once = ws._GammaLadder(r, prec)
        once.extend(n_top + 3 * grow + m)
        # a rung's low working-precision bits depend on where the series
        # remainder started; its double and every assembled p_n do not
        assert len(stepped._p) == len(once._p)
        assert [libmp.to_float(reg_gamma(stepped, j)) for j in range(len(once._p))] == [
            libmp.to_float(reg_gamma(once, j)) for j in range(len(once._p))
        ]
        size = n_top + 3 * grow
        assert ws._assemble_probs(m, stepped, 0, size) == ws._assemble_probs(
            m, once, 0, size
        )

    @pytest.mark.parametrize("r", [0.3, 3.0, 20.0])
    @pytest.mark.parametrize("stepped", [False, True], ids=["once", "stepped"])
    def test_every_rung_against_mpmath(self, r, stepped):
        # from P(1) ~ 1 through the mode R^2 to past R^2 + 12R; the stepped
        # ladder starts below the mode, where the remainder is a complement
        top = math.ceil(r * r + 12 * r) + 8
        prec = ws._working_prec(0, top)
        ladder = ws._GammaLadder(r, prec)
        for j in ((0, 1, top // 4, top // 2, top) if stepped else (top,)):
            ladder.extend(j)
        with mpmath.workprec(prec + 64):
            x = mpmath.mpf(r) ** 2
            for j in range(top + 1):
                ref = mpmath.gammainc(j + 1, 0, x, regularized=True)
                err = abs(mpmath.mpf(reg_gamma(ladder, j)) - ref) / ref
                # the docstring's ~N ulps of its own size, N = top + 1 rungs
                assert err <= (top + 1) * mpmath.mpf(2) ** (1 - prec), (j, err)

    @settings(max_examples=30, deadline=None)
    @given(
        r=st.floats(0.05, 25.0),
        prec=st.sampled_from([96, 107, 160]),
        steps=st.lists(
            st.tuples(st.integers(0, 800), st.integers(-20, 900)), min_size=1, max_size=4
        ),
    )
    @example(r=20.0, prec=96, steps=[(500, 600)])  # a floor above the top
    def test_floored_ladder_matches_full_ladder(self, r, prec, steps):
        # from the first floor up, the top rung included, a floored ladder's
        # rungs are the fully summed ladder's, bit for bit
        floored, full = ws._GammaLadder(r, prec), ws._GammaLadder(r, prec)
        for top, floor in steps:
            floored.extend(top, floor)
            full.extend(top)
        first_top, first_floor = steps[0]
        low = max(min(first_floor, first_top), 0)
        assert floored.low == low
        assert floored._p[low:] == full._p[low:]

    def test_rungs_far_below_the_mode_are_cheap(self):
        # the remainder of a top below R^2 is the complement of the three
        # terms under it: ~0.1 ms, where a series from the top would run
        # through the mode on integers of ~R^2 bits (~10 s at R = 300)
        ladder = ws._GammaLadder(300.0, 96)
        start = time.perf_counter()
        ladder.extend(1)
        assert time.perf_counter() - start < 1.0
        # 1 - ~e^(-9e4), rounded toward zero
        assert [libmp.to_float(reg_gamma(ladder, j)) for j in range(2)] == [
            1.0 - 2.0**-53
        ] * 2


def from_libmp(value, prec: int) -> tuple[int, int]:
    """A positive libmp value (of at most prec bits) as an (M, e) pair."""
    _, man, exp, bc = value
    return man << (prec - bc), exp - (prec - bc)


def reg_gamma(ladder, j: int):
    """The ladder's P(j+1, R^2) as a libmp value."""
    return libmp.from_man_exp(*ladder._p[j])


def exp_neg_down(x, prec: int):
    """e^(-x) truncated toward zero to prec bits: libmp's exp at 64 more
    bits, truncated again.  libmp's own exp at prec misses the truncation
    by one unit now and then."""
    wide = libmp.mpf_exp(libmp.mpf_neg(x), prec + 64, libmp.round_down)
    return libmp.normalize(*wide, prec, libmp.round_down)


def libmp_ladder(radius: float, prec: int, tops) -> list:
    """The incomplete-gamma ladder in libmp at round_down from the exact R^2
    and the truncated seed, extended to each top in turn: the reference the
    int ladder must match bit for bit."""
    mul, div, add, sub = libmp.mpf_mul, libmp.mpf_div, libmp.mpf_add, libmp.mpf_sub
    rf = libmp.from_float(radius)
    rsq = mul(rf, rf)  # exact
    term = exp_neg_down(rsq, prec)
    p = []
    for j_max in tops:
        start, first = len(p), term
        if start > j_max:
            continue
        for k in range(start + 1, j_max + 2):
            term = div(mul(term, rsq, prec), libmp.from_int(k), prec)
            p.append(term)
        if j_max + 3 <= libmp.to_float(rsq):
            acc = p[start - 1] if start else libmp.fone
            for t in (first, *p[start:]):
                acc = sub(acc, t, prec)
        else:
            _, x_man, x_exp, _ = rsq
            num, den = (x_man << x_exp, 1) if x_exp >= 0 else (x_man, 1 << -x_exp)
            scale = prec + 16
            frac, total, k = 1 << scale, 0, j_max + 1
            while frac:
                k += 1
                frac = frac * num // (den * k)
                total += frac
            acc = mul(term, libmp.from_man_exp(total, -scale), prec)
        for j in range(j_max, start - 1, -1):
            acc = add(acc, p[j], prec)
            p[j] = acc
    return p


def toward_zero(exact: Fraction, libmp_value) -> float:
    """The double a value rounds to toward zero: libmp's to_float of its
    53-bit truncation above 2^-1022, where the two agree, and the exact
    value truncated to a multiple of 2^-1074 below it, where libmp's
    to_float rounds to nearest."""
    if abs(exact) >= Fraction(2) ** -1022:
        return libmp.to_float(libmp_value)
    value = math.ldexp(math.floor(abs(exact) * 2**1074), -1074)
    return -value if exact < 0 else value


@st.composite
def libmp_values(draw, prec: int, exp=st.integers(-1200, 1000)):
    """A positive libmp value of at most prec bits; exact powers of two and
    all-ones mantissas are drawn on purpose."""
    man = draw(
        st.one_of(
            st.integers(1, 2**prec - 1),
            st.sampled_from([1, 2 ** (prec - 1), 2**prec - 1]),
        )
    )
    return libmp.from_man_exp(man, draw(exp))


@st.composite
def operand_pairs(draw):
    """(prec, a, b): b's exponent sits from far above a's to past prec + 4
    below its last kept bit."""
    prec = draw(st.sampled_from([53, 96, 107, 288]))
    a = draw(libmp_values(prec))
    gap = draw(
        st.one_of(
            st.integers(-2 * prec, 3 * prec),
            st.sampled_from([prec - 1, prec, prec + 3, prec + 4, prec + 5]),
        )
    )
    b = draw(libmp_values(prec, st.just(a[2] + a[3] - gap - prec)))
    return prec, a, b


def exact_square(radius: float) -> tuple[int, int]:
    """R^2 exactly, as an (M, e) pair."""
    _, man, exp, _ = libmp.mpf_mul(*[libmp.from_float(radius)] * 2)
    return man, exp


def truncated_square(radius: float, prec: int) -> tuple[int, int]:
    """R^2 truncated toward zero to prec bits, as an (M, e) pair."""
    rf = libmp.from_float(radius)
    _, man, exp, _ = libmp.mpf_mul(rf, rf, prec, libmp.round_down)
    return man, exp


@st.composite
def exp_neg_cases(draw):
    """(prec, man, exp) with x = man 2^exp from 2^-2200 to 2^1400 and man of
    up to 106 bits, the size of an exact R^2."""
    prec = draw(st.sampled_from([53, 96, 120, 288, 864]))
    man = draw(st.integers(1, 2**106 - 1))
    top = draw(st.integers(-2200, 1400))
    return prec, man, top - man.bit_length()


class TestNativeRounding:
    """The ladder's int arithmetic against libmp at round_down, bit for bit."""

    @staticmethod
    def back(pair):
        return libmp.from_man_exp(*pair)

    @settings(max_examples=300, deadline=None)
    @given(operand_pairs())
    def test_sub(self, case):
        prec, a, b = case
        if libmp.mpf_cmp(a, b) == 0:
            return
        if libmp.mpf_cmp(a, b) < 0:
            a, b = b, a
        got = ws._sub(from_libmp(a, prec), from_libmp(b, prec), prec)
        assert self.back(got) == libmp.mpf_sub(a, b, prec, libmp.round_down)

    @settings(max_examples=200, deadline=None)
    @given(
        prec=st.sampled_from([53, 96, 288]),
        data=st.data(),
    )
    def test_to_float(self, prec, data):
        # exponents reach the subnormal range and past it (to zero)
        a = data.draw(libmp_values(prec, st.integers(-1400, 700)))
        exact = Fraction(a[1]) * Fraction(2) ** a[2]
        assert ws._to_float(*from_libmp(a, prec)) == toward_zero(exact, a)

    @settings(max_examples=200, deadline=None)
    @given(case=exp_neg_cases())
    # x < 2^-prec, from R = 1e-200 at level 0
    @example(case=(96, *exact_square(1e-200)))
    # an integral x at a precision past 600 bits, where libmp's exp takes
    # its integer-power path: R = 3 at level 64
    @example(case=(ws._working_prec(64, ws._initial_truncation(3.0, 64) + 192), 9, 0))
    # x ~ 1e400, from R = 1e200
    @example(case=(96, *exact_square(1e200)))
    # R^2 truncated to 96 bits at R = 0.0530448256324705, where libmp's
    # exp at 96 bits and round_down is one unit low
    @example(case=(96, *truncated_square(0.0530448256324705, 96)))
    def test_exp_neg_truncates_toward_zero(self, case):
        prec, man, exp = case
        got_man, got_exp = ws._exp_neg(man, exp, prec)
        assert got_man.bit_length() == prec
        with mpmath.workprec(prec + 128):
            x = mpmath.ldexp(man, exp)
            lo, hi = mpmath.ldexp(got_man, got_exp), mpmath.ldexp(got_man + 1, got_exp)
            if x < 1:  # 1 - e^(-x) = -expm1(-x) keeps its digits where e^(-x) ~ 1
                assert 1 - hi < -mpmath.expm1(-x) <= 1 - lo
            else:
                assert lo <= mpmath.exp(-x) < hi

    @pytest.mark.parametrize("r", [1e-200, 1e-160, 0.3, 1.7, 3.0, 20.0])
    @pytest.mark.parametrize("m", [0, 1, 8])
    def test_ladder_matches_libmp(self, r, m):
        # build_spectrum's steps, and bernoulli_prob's short ladder below
        # the mode; at R = 1e-160 the small rungs are subnormal doubles
        n_top = ws._initial_truncation(r, m)
        prec = ws._working_prec(m, n_top + 2 * m + 64)
        tops = [1, max(int(r * r) - 3, 2), n_top + m, n_top + m + 64]
        ladder = ws._GammaLadder(r, prec)
        for top in tops:
            ladder.extend(top)
        ref = libmp_ladder(r, prec, tops)
        assert [reg_gamma(ladder, j) for j in range(len(ref))] == ref
        assert [ws._to_float(*v) for v in ladder._p] == [
            toward_zero(Fraction(v[1]) * Fraction(2) ** v[2], v) for v in ref
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        r=st.floats(0.05, 25.0),
        prec=st.sampled_from([96, 107, 160]),
        tops=st.lists(st.integers(0, 800), min_size=1, max_size=4),
    )
    def test_random_ladders_match_libmp(self, r, prec, tops):
        ladder = ws._GammaLadder(r, prec)
        for top in tops:
            ladder.extend(top)
        ref = libmp_ladder(r, prec, tops)
        assert [reg_gamma(ladder, j) for j in range(len(ref))] == ref


class TestBitIdentity:
    # sha256 of build_spectrum's probs (little-endian doubles) and tail
    # bound over the grid below, as the libmp ladder and per-index square
    # computed them but with every p_n held below 1 (15 values at levels 8
    # and 16, R = 20, read 1 - 2^-53 where they read 1.0); the int ladder
    # and difference walk must keep every bit
    PINNED = "9e3061e4a327e7a9da150df799f708cd7eb653992dc77de13eea6a4d8511fe60"

    def test_spectrum_grid_digest(self):
        digest = hashlib.sha256()
        for m in (0, 1, 2, 8, 16):
            for r in (0.05, 1.3, 7.7, 20.0):
                spec = build_spectrum(m, r)
                digest.update(np.asarray(spec.probs, dtype="<f8").tobytes())
                digest.update(struct.pack("<d", spec.tail_bound))
        assert digest.hexdigest() == self.PINNED

    # the same digest over the radii and levels the spectrum-sweep benchmark
    # times, which the grid above misses, as the Horner-in-the-falling-
    # factorial assembly computed them, with 171 values of 1.0 held at
    # 1 - 2^-53
    PINNED_LARGE_R = "ecfd74536bc78a12759c35541f52e0864dd6eefbe16e00a6ef5a4a699475f4df"

    def test_large_radius_digest(self):
        digest = hashlib.sha256()
        for m in (3, 8, 16):
            for r in (33.3, 50.0):
                spec = build_spectrum(m, r)
                digest.update(np.asarray(spec.probs, dtype="<f8").tobytes())
                digest.update(struct.pack("<d", spec.tail_bound))
        assert digest.hexdigest() == self.PINNED_LARGE_R

    # the same digest over spectra that extend past their first truncation,
    # computed before the ladder's backward sum had a floor
    PINNED_EXTENSIONS = "f50c8db0981244a512651c7bd70b51383c61c3df8cc12cd1d65febdcc46b913f"

    def test_extension_digest(self):
        digest = hashlib.sha256()
        for m, r in ((32, 10.0), (64, 10.0), (32, 20.0)):
            spec = build_spectrum(m, r)
            assert len(spec.probs) > ws._initial_truncation(r, m) + 1
            digest.update(np.asarray(spec.probs, dtype="<f8").tobytes())
            digest.update(struct.pack("<d", spec.tail_bound))
        assert digest.hexdigest() == self.PINNED_EXTENSIONS


class TestExtensions:
    """A spectrum that extends past its first truncation is the one-shot one."""

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(0, 12), r=st.floats(8.0, 14.0), first=st.integers(0, 30))
    def test_extensions_match_one_shot(self, m, r, first):
        # a small first truncation forces several extensions, each seeding
        # the coefficient walk anew; the one-shot spectrum starts at the
        # final size, at the same working precision
        prec = ws._working_prec(m, 4096)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ws, "_working_prec", lambda level, max_index: prec)
            patch.setattr(ws, "_initial_truncation", lambda radius, level: max(level, first))
            stepped = build_spectrum(m, r)
            assert len(stepped.probs) > max(m, first) + 1 + 64  # two or more extensions
            size = len(stepped.probs)
            patch.setattr(ws, "_initial_truncation", lambda radius, level: size - 1)
            once = build_spectrum(m, r)
        assert once.probs.tobytes() == stepped.probs.tobytes()
        assert once.tail_bound == stepped.tail_bound


class TestPolydiskMoments:
    def test_one_dimensional_disk_equals_ball(self):
        # on C^1 the polydisk and the ball are the same window
        for r in (0.8, 2.0, 5.0):
            rep = polydisk_moments(KernelSpec(1, (0,)), r, tail_tol=1e-12)
            assert rep.mean == pytest.approx(mean_ball(1, r), rel=1e-10)
            assert rep.variance == pytest.approx(
                variance_ball_closed(1, r), rel=1e-9
            )
            assert rep.route is Route.SPECTRUM

    def test_mean_factorizes(self):
        # each coordinate contributes R^2 to the mean regardless of level
        for level in [(0, 0), (1, 2), (3, 0, 2)]:
            spec = KernelSpec(len(level), level)
            rep = polydisk_moments(spec, 2.0, tail_tol=1e-12)
            assert rep.mean == pytest.approx(4.0 ** len(level), rel=1e-10)

    def test_underdispersed(self):
        rep = polydisk_moments(KernelSpec(2, (1, 3)), 3.0)
        assert rep.variance < rep.mean
        assert rep.error_estimate > 0.0

    def test_ratio_form_agrees_with_quotient(self):
        rep = polydisk_moments(KernelSpec(3, (0, 2, 1)), 2.5, tail_tol=1e-12)
        assert rep.ratio == pytest.approx(rep.variance / rep.mean, rel=1e-12)

    def test_zero_mean_gives_nan_ratio(self):
        # at R = 1e-200 every p_n underflows, so S_l = 0 and Var/mean is 0/0
        rep = polydisk_moments(KernelSpec(1), 1e-200)
        assert (rep.mean, rep.variance) == (0.0, 0.0)
        assert math.isnan(rep.ratio)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_error_estimate_is_the_leave_one_out_sum(self, dim):
        # 2 sum_l tail_l prod_(k != l) S_k + 1e-14 mean, the tail part summed
        # exactly here; at D <= 2 each product has at most one factor, so the
        # bits are those of the per-coordinate products
        spec, radius = KernelSpec(dim, tuple(range(dim))), 2.5
        rep = polydisk_moments(spec, radius)
        spectra = [ws._cached_spectrum(m, radius, ws._TAIL_TOL) for m in spec.level]
        sums = [Fraction(s.prob_sum) for s in spectra]
        tails = [
            Fraction(s.tail_bound) * math.prod(sums[:l] + sums[l + 1 :]) for l, s in enumerate(spectra)
        ]
        want = 2 * sum(tails) + Fraction(1e-14 * rep.mean)
        if dim <= 2:
            assert rep.error_estimate == 2.0 * sum(map(float, tails)) + 1e-14 * rep.mean
        assert abs(Fraction(rep.error_estimate) - want) <= 1e-14 * want

    def test_higher_levels_fluctuate_more(self):
        # Var grows with level at fixed radius (flatter one-coordinate profile)
        reps = [
            polydisk_moments(KernelSpec(1, (m,)), 3.0).variance for m in range(4)
        ]
        assert reps == sorted(reps)


class TestBallMoments:
    def test_routes_agree(self):
        closed = ball_moments(2, 4.0, route=Route.CLOSED_FORM)
        integral = ball_moments(2, 4.0, route=Route.INTEGRAL)
        assert closed.variance == pytest.approx(integral.variance, rel=1e-9)
        assert closed.mean == integral.mean
        assert closed.route is Route.CLOSED_FORM
        assert integral.route is Route.INTEGRAL

    def test_rejected_route(self):
        with pytest.raises(UnsupportedConfigurationError):
            ball_moments(1, 1.0, route=Route.SPECTRUM)
        with pytest.raises(UnsupportedConfigurationError, match="'spectrum' does not"):
            ball_moments(1, 1.0, route="spectrum")
        with pytest.raises(ValueError, match="'bogus' is not a valid Route"):
            ball_moments(1, 1.0, route="bogus")

    def test_route_by_name(self):
        for route in Route.CLOSED_FORM, Route.INTEGRAL:
            assert ball_moments(1, 2.0, route.value) == ball_moments(1, 2.0, route)

    def test_report_rejects_over_dispersion(self):
        # the slack is 1e-12 of the mean plus the error estimate
        MomentReport(1.0, 1.0 + 2e-12, 1.0, Route.CLOSED_FORM, 1e-12)
        with pytest.raises(InternalConsistencyError, match="exceeds mean 1.0"):
            MomentReport(1.0, 1.0 + 2e-12, 1.0, Route.CLOSED_FORM, 0.0)
        with pytest.raises(InternalConsistencyError, match="variance 3.5 exceeds"):
            MomentReport(2.0, 3.5, 1.75, Route.SPECTRUM, 1.0)

    @pytest.mark.parametrize(
        "dim, r, route",
        [(2, 1e-170, Route.INTEGRAL), (1, 1e-320, Route.CLOSED_FORM)],
    )
    def test_zero_mean_gives_nan_ratio(self, dim, r, route):
        rep = ball_moments(dim, r, route=route)
        assert rep.mean == 0.0
        assert math.isnan(rep.ratio)


class TestClassOneConstants:
    def test_closed_form_anchors(self):
        assert c_constant(0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)
        assert c_constant(1) == pytest.approx(
            7.0 / (4.0 * math.sqrt(math.pi)), rel=1e-14
        )
        assert c_constant(2) == pytest.approx(1.278242025225385, rel=1e-14)

    def test_monotone_in_level(self):
        vals = [c_constant(m) for m in range(11)]
        assert vals == sorted(vals)

    def test_large_level_asymptote(self):
        # C(m) ~ (8 / pi^2) sqrt(m); relative error is O(1/m)
        m = 1000
        want = 8.0 / math.pi**2 * math.sqrt(m)
        assert c_constant(m) == pytest.approx(want, rel=5e-4)

    def test_level_past_the_cap_is_refused_at_once(self):
        # C(m) sums m terms of its 3F2; past the cap that is over ~30 s
        start = time.process_time()
        for m in (10**8 + 1, 10**12, 10**400):
            with pytest.raises(NumericalBudgetError, match=r"^C\(.*\) takes .* past the budget of 30 s$"):
                c_constant(m)
        assert time.process_time() - start < 0.1
        assert c_constant(1000).hex() == "0x1.9a38c854ff588p+4"

    def test_polydisk_limit_is_a_sum(self):
        spec = KernelSpec(3, (0, 1, 2))
        want = c_constant(0) + c_constant(1) + c_constant(2)
        assert polydisk_limit_constant(spec) == pytest.approx(want, rel=1e-14)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            c_constant(-1)
        with pytest.raises(ValueError):
            c_constant(1.5)


class TestProperties:
    """Invariants of the exact routes over random arguments."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 16), m=st.integers(0, 16), r=st.floats(0.1, 8.0))
    def test_bernoulli_prob_is_symmetric(self, n, m, r):
        # the pointwise assembly at level min(n, m) against the spectrum's
        # at level max(n, m)
        a = bernoulli_prob(n, m, r)
        b = build_spectrum(max(n, m), r).probs[min(n, m)]
        assert a == b or {a, b} == TestExactAssembly.SATURATED, (a, b)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(0, 24),
        r=st.floats(0.1, 6.0),
        lo=st.integers(0, 40),
        left=st.integers(1, 30),
        right=st.integers(1, 30),
    )
    @example(m=20, r=3.0, lo=2, left=3, right=17)  # windows clipped at j = 0
    @example(m=5, r=4.5, lo=37, left=9, right=4)  # an extension past lo = 0
    def test_assembly_does_not_depend_on_the_split(self, m, r, lo, left, right):
        # p_n for n in [lo, hi] from one call, and from calls on [lo, s] and
        # [s + 1, hi], with s anywhere in the range
        s, hi = lo + left - 1, lo + left + right - 1
        ladder = ws._GammaLadder(r, ws._working_prec(m, hi + 2 * m))
        ladder.extend(hi + m)
        whole = ws._assemble_probs(m, ladder, lo, hi)
        parts = ws._assemble_probs(m, ladder, lo, s) + ws._assemble_probs(m, ladder, s + 1, hi)
        assert whole == parts

    @settings(max_examples=15, deadline=None)
    @given(m=st.integers(0, 6), r=st.floats(0.1, 12.0))
    def test_spectrum_mass_within_tail_bound(self, m, r):
        # exact rationals: R^2 - sum p_n is the mass past the truncation plus
        # the downward roundings of the p_n, and tail_bound must cover it
        spec = build_spectrum(m, r)
        gap = Fraction(r) ** 2 - sum(map(Fraction, spec.probs.tolist()))
        assert 0 <= gap <= spec.tail_bound

    @settings(max_examples=20, deadline=None)
    @given(
        dim=st.sampled_from([1, 2, 3]),
        r=st.floats(0.05, 30.0),
        route=st.sampled_from([Route.CLOSED_FORM, Route.INTEGRAL]),
    )
    def test_ball_routes_are_underdispersed(self, dim, r, route):
        rep = ball_moments(dim, r, route)
        assert 0.0 <= rep.ratio < 1.0
        assert rep.variance <= rep.mean

    @settings(max_examples=15, deadline=None)
    @given(
        level=st.lists(st.integers(0, 4), min_size=1, max_size=3),
        r=st.floats(0.1, 6.0),
    )
    def test_spectrum_route_is_underdispersed(self, level, r):
        rep = polydisk_moments(KernelSpec(len(level), tuple(level)), r)
        assert 0.0 <= rep.ratio < 1.0
        assert rep.variance <= rep.mean
