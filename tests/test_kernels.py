"""Kernel evaluation, hermitization, gauge invariance, correlations.

Frozen values come from high-precision side computations:
hermitized level-0 kernel at (x,y) = (1,0) on C^1 is e^(-1/2)/pi, the
two-point level-0 correlation at distance 1 is (1 - e^(-1))/pi^2, and the
m=2 series identity value at (x, y) = (1, 0.5) is 0.4379415875297215.
"""

import cmath
import math

import hashlib
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heisenberg_dpp.exceptions import InternalConsistencyError
from heisenberg_dpp.kernels import (
    MAX_CORRELATION_POINTS,
    ComplexPoint,
    CorrelationMatrix,
    KernelSpec,
    correlation_det,
    correlation_function,
    correlation_matrix,
    gauge_transform,
    hermitized_kernel,
    kernel_eval,
    kernel_series_partial,
)
from heisenberg_dpp.kernels import _EXP_NORMAL_MIN, _pair_terms
from heisenberg_dpp.specfun import laguerre, laguerre_log

RNG = np.random.default_rng(777)


def rand_point(dim: int) -> ComplexPoint:
    return ComplexPoint(
        tuple(RNG.uniform(-1.5, 1.5, size=dim)),
        tuple(RNG.uniform(-1.5, 1.5, size=dim)),
    )


def inner(x: ComplexPoint, y: ComplexPoint) -> complex:
    """x . conj(y), conjugation in the second slot, as the kernels form it."""
    re, im, _ = _pair_terms(x, y)
    return complex(re, im)


class TestComplexPoint:
    def test_roundtrip(self):
        p = ComplexPoint((1.0, 2.0), (0.5, -0.25))
        assert list(p.to_complex()) == [complex(1.0, 0.5), complex(2.0, -0.25)]
        q = ComplexPoint.from_complex([complex(1.0, 0.5), complex(2.0, -0.25)])
        assert q == p
        assert p.dimension == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ComplexPoint((1.0,), (2.0, 3.0))
        with pytest.raises(ValueError):
            ComplexPoint((math.inf,), (0.0,))
        with pytest.raises(ValueError):
            ComplexPoint((), ())


class TestKernelSpec:
    def test_defaults_to_level_zero(self):
        spec = KernelSpec(3)
        assert spec.level == (0, 0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(0)
        with pytest.raises(ValueError):
            KernelSpec(2, (1,))
        with pytest.raises(ValueError):
            KernelSpec(1, (-1,))

    def test_non_integral_level_rejected(self):
        with pytest.raises(ValueError, match=r"^level must be an integer >= 0, got 1\.5$"):
            KernelSpec(1, (1.5,))
        with pytest.raises(ValueError):
            KernelSpec(2, (0, 0.25))
        assert KernelSpec(2, (1.0, 2)).level == (1, 2)


class TestHermitianInner:
    def test_matches_complex_arithmetic(self):
        for _ in range(30):
            dim = int(RNG.integers(1, 4))
            x, y = rand_point(dim), rand_point(dim)
            want = sum(
                a * b.conjugate() for a, b in zip(x.to_complex(), y.to_complex())
            )
            got = inner(x, y)
            assert got == pytest.approx(want, abs=1e-15)

    def test_swap_conjugates_exactly(self):
        for _ in range(30):
            dim = int(RNG.integers(1, 4))
            x, y = rand_point(dim), rand_point(dim)
            assert inner(x, y) == inner(y, x).conjugate()


class TestPointArguments:
    def test_plain_complex_sequence(self):
        spec = KernelSpec(1)
        want = kernel_eval(spec, ComplexPoint((1.0,), (2.0,)), ComplexPoint((0.5,), (0.0,)))
        assert kernel_eval(spec, [1 + 2j], (0.5,)) == want

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="point has dimension 2, spec wants 1"):
            kernel_eval(KernelSpec(1), [1j, 2.0], [0j])
        with pytest.raises(ValueError, match="point has dimension 1, spec wants 2"):
            hermitized_kernel(KernelSpec(2), rand_point(2), rand_point(1))

    def test_raw_kernel_overflows(self):
        # the inner product's real part passes 709
        with pytest.raises(OverflowError, match=r"exp\(900\) overflows; use hermitized"):
            kernel_eval(KernelSpec(1), [30.0], [30.0])
        # each Laguerre factor, L_40(1265^2) ~ 2e200, fits; their product does not
        x, origin = ComplexPoint((1265.0, 1265.0), (0.0, 0.0)), [0j, 0j]
        with pytest.raises(OverflowError, match="kernel_eval overflows double range"):
            kernel_eval(KernelSpec(2, (40, 40)), x, origin)


    def test_raw_kernel_where_the_distance_overflows(self):
        # |x - y|^2 = 1e600: at level 0 its factor is L_0 = 1
        assert kernel_eval(KernelSpec(1, (0,)), [1e300], [0j]) == 1.0 + 0.0j
        assert kernel_eval(KernelSpec(2, (0, 2)), [1e300, 0.5], [0j, 0.25j]) == (
            kernel_eval(KernelSpec(2, (0, 2)), [0j, 0.5], [0j, 0.25j])
        )
        # beside a factor that enters as a log: L_1000(1700) overflows
        root = math.sqrt(425.0)
        assert kernel_eval(KernelSpec(2, (0, 1000)), [1e300, -root], [0j, root]) == (
            kernel_eval(KernelSpec(1, (1000,)), [-root], [root])
        )
        # above level 0 the factor is infinite
        for spec, x in ((KernelSpec(1, (1,)), [1e300]), (KernelSpec(2, (0, 1)), [0j, -1e300j])):
            with pytest.raises(OverflowError, match=r"\|x_l - y_l\|\^2 overflows double range"):
                kernel_eval(spec, x, [0j] * spec.dimension)

    def test_raw_kernel_past_a_laguerre_overflow_matches_mpmath(self):
        # L_1000(1700) overflows, e^(-425) L_1000(1700) ~ -5e182 does not
        spec, root = KernelSpec(1, (1000,)), math.sqrt(425.0)
        x, y = ComplexPoint((-root,), (0.0,)), ComplexPoint((root,), (0.0,))
        inner, t = -root * root, (2.0 * root) * (2.0 * root)  # as the kernel forms them
        with pytest.raises(OverflowError):
            laguerre(1000, 0.0, t)
        with mpmath.workdps(40):
            want = float(mpmath.exp(inner) * mpmath.laguerre(1000, 0, t))
        for a, b in ((x, y), (y, x)):
            value = kernel_eval(spec, a, b)
            assert value.imag == 0.0
            assert value.real == pytest.approx(want, rel=1e-11)
        # the log route keeps the phase of exp(x . conj(y))
        xi, yi = ComplexPoint((-root,), (0.5,)), ComplexPoint((root,), (0.25,))
        inner = complex(-root * root + 0.125, 0.5 * root + root * 0.25)
        with mpmath.workdps(40):
            t = (2.0 * root) * (2.0 * root) + 0.0625
            want = complex(mpmath.exp(mpmath.mpc(inner)) * mpmath.laguerre(1000, 0, t))
        assert kernel_eval(spec, xi, yi) == pytest.approx(want, rel=1e-11)


class TestKernelValues:
    @pytest.mark.parametrize("x, y, want", [
        (1e8, 1e8 + 1.0, math.exp(-0.5) / math.pi),  # Re(x conj(y)) - |x|^2/2 - |y|^2/2 cancels
        (1e200, 1e200, 1.0 / math.pi),  # |x|^2 overflows
        (1e200 + 1e200j, 1e200 + 1e200j, 1.0 / math.pi),  # so do x_i y_r and x_r y_i
    ])
    def test_hermitized_at_large_coordinates(self, x, y, want):
        value = hermitized_kernel(KernelSpec(1), [x], [y])
        assert value == complex(want, 0.0)

    def test_correlation_at_large_coordinates(self):
        # the points coincide in doubles (1e200 + 1 == 1e200): rho_2 = 0
        x = 1e200 + 1e200j
        assert correlation_function(KernelSpec(1), [[x], [x + 1]]) == 0.0
        # far apart, the kernel between them is 0: rho_2 = 1/pi^2
        value = correlation_function(KernelSpec(1), [[x], [-x]])
        assert value == pytest.approx(1.0 / math.pi**2, rel=1e-15)

    def test_inner_product_im_is_antisymmetric_at_large_coordinates(self):
        # the Hermitian check of a correlation matrix compares K(x, y) with
        # a separately computed K(y, x)
        for scale in (1e8, 1e150, 1e300):
            x, y = rand_point(3), rand_point(3)
            x = ComplexPoint(tuple(v * scale for v in x.re), tuple(v * scale for v in x.im))
            near = ComplexPoint(tuple(v + 0.75 for v in x.re), x.im)
            for a, b in ((x, y), (x, near)):
                assert inner(a, b).imag == -inner(b, a).imag
            assert inner(x, x).imag == 0.0

    def test_hermitized_frozen_value(self):
        spec = KernelSpec(1)
        x = ComplexPoint((1.0,), (0.0,))
        y = ComplexPoint((0.0,), (0.0,))
        want = math.exp(-0.5) / math.pi  # = 0.19306470526010783
        assert hermitized_kernel(spec, x, y) == pytest.approx(want, abs=1e-16)
        assert hermitized_kernel(spec, x, y) == pytest.approx(
            0.19306470526010783, abs=2e-16
        )

    def test_diagonal_is_uniform_intensity(self):
        for dim in (1, 2, 3):
            for level in [(0,) * dim, tuple(range(dim))]:
                spec = KernelSpec(dim, level)
                p = rand_point(dim)
                assert hermitized_kernel(spec, p, p) == pytest.approx(
                    1.0 / math.pi**dim, rel=1e-14
                )

    def test_raw_vs_hermitized_gauge_factor(self):
        # the two forms differ by exp(|x|^2/2 - ... ) exactly
        spec = KernelSpec(2, (1, 2))
        x, y = rand_point(2), rand_point(2)
        raw = kernel_eval(spec, x, y)
        herm = hermitized_kernel(spec, x, y)
        nx = sum(v * v for v in x.re) + sum(v * v for v in x.im)
        ny = sum(v * v for v in y.re) + sum(v * v for v in y.im)
        assert herm == pytest.approx(
            raw * math.exp(-0.5 * (nx + ny)) / math.pi**2, rel=1e-12
        )

    def test_level_factor_vanishes_at_laguerre_zero(self):
        # level (0,1) kernel vanishes when |x_2 - y_2|^2 = 1 (L_1 zero)
        spec = KernelSpec(2, (0, 1))
        x = ComplexPoint((0.3, 1.0), (0.1, 0.0))
        y = ComplexPoint((0.3, 0.0), (0.1, 0.0))
        assert abs(kernel_eval(spec, x, y)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("m, t", [(300, 1700.0), (1000, 1700.0), (400, 1500.0)])
    def test_far_pair_at_high_level_matches_mpmath(self, m, t):
        # exp(-t/2) underflows and L_m(t) alone overflows, yet
        # e^(-t/2) L_m(t) is 2.94e-44, -0.01297 and -0.00409 here
        spec = KernelSpec(1, (m,))
        x = ComplexPoint((0.0,), (0.0,))
        y = ComplexPoint((math.sqrt(t),), (0.0,))
        t = y.re[0] * y.re[0]  # the |x - y|^2 the kernel sees
        with pytest.raises(OverflowError):
            laguerre(m, 0.0, t)
        with mpmath.workdps(40):
            want = float(mpmath.exp(-mpmath.mpf(t) / 2) * mpmath.laguerre(m, 0, t) / mpmath.pi)
        for a, b in ((x, y), (y, x)):
            value = hermitized_kernel(spec, a, b)
            assert isinstance(value, complex) and value.imag == 0.0
            assert value.real == pytest.approx(want, rel=1e-10)
        rho = correlation_function(spec, [x, y])
        assert rho == pytest.approx(1.0 / math.pi**2 - want**2, rel=1e-12)

    def test_hermiticity(self):
        spec = KernelSpec(2, (2, 1))
        for _ in range(20):
            x, y = rand_point(2), rand_point(2)
            assert hermitized_kernel(spec, x, y) == pytest.approx(
                hermitized_kernel(spec, y, x).conjugate(), rel=1e-13, abs=1e-300
            )


class TestCorrelations:
    def test_two_point_frozen_value(self):
        spec = KernelSpec(1)
        pts = [ComplexPoint((0.0,), (0.0,)), ComplexPoint((1.0,), (0.0,))]
        want = (1.0 - math.exp(-1.0)) / math.pi**2  # = 0.06404720322516547
        assert correlation_function(spec, pts) == pytest.approx(want, abs=1e-16)
        assert correlation_function(spec, pts) == pytest.approx(
            0.06404720322516547, abs=2e-16
        )

    def test_one_point_is_intensity(self):
        for dim in (1, 2):
            spec = KernelSpec(dim, tuple([1] * dim))
            assert correlation_function(spec, [rand_point(dim)]) == pytest.approx(
                1.0 / math.pi**dim, rel=1e-13
            )

    def test_repulsion(self):
        # determinantal correlations are suppressed at coinciding points
        spec = KernelSpec(1, (1,))
        base = ComplexPoint((0.2,), (0.1,))
        near = ComplexPoint((0.2 + 1e-4,), (0.1,))
        far = ComplexPoint((3.0,), (0.1,))
        assert correlation_function(spec, [base, near]) < 1e-6
        assert correlation_function(spec, [base, far]) > 1e-3

    def test_matrix_properties(self):
        spec = KernelSpec(2, (1, 0))
        pts = [rand_point(2) for _ in range(5)]
        cm = correlation_matrix(spec, pts)
        assert isinstance(cm, CorrelationMatrix)
        m = cm.entries
        full = [[hermitized_kernel(spec, p, q) for q in pts] for p in pts]
        assert np.array_equal(m, np.array(full, dtype=complex))
        assert np.allclose(m, m.conj().T, atol=1e-14)
        assert np.allclose(np.diag(m).real, 1.0 / math.pi**2, rtol=1e-13)

    def test_point_budget(self):
        spec = KernelSpec(1)
        pts = [rand_point(1) for _ in range(MAX_CORRELATION_POINTS + 1)]
        with pytest.raises(ValueError):
            correlation_function(spec, pts)

    def test_nonhermitian_input_rejected(self):
        bad = np.array([[1.0 / math.pi, 0.5], [0.1, 1.0 / math.pi]], dtype=complex)
        with pytest.raises(InternalConsistencyError):
            CorrelationMatrix(bad, dimension=1)

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.full((2, 3), 1.0 / math.pi**2, dtype=complex), ValueError),
            (np.full(2, 1.0 / math.pi**2, dtype=complex), ValueError),
            (np.diag([1.0, 1.01]).astype(complex) / math.pi**2, InternalConsistencyError),
        ],
        ids=["not-square", "one-dimensional", "diagonal-off-intensity"],
    )
    def test_malformed_matrix_rejected(self, bad, error):
        with pytest.raises(error):
            CorrelationMatrix(bad, dimension=2)
        CorrelationMatrix(np.eye(2, dtype=complex) / math.pi**2, dimension=2)

    def test_no_points(self):
        with pytest.raises(ValueError, match="at least one point"):
            correlation_function(KernelSpec(1), [])
        with pytest.raises(ValueError, match="at least one point"):
            correlation_matrix(KernelSpec(2), [])
        # the empty determinant: the builder keeps the (0, 0) shape
        assert correlation_det(lambda a, b: 1.0 + 0.5j, []) == 1.0


class TestGaugeInvariance:
    def test_exponential_gauge(self):
        for trial in range(25):
            dim = int(RNG.integers(1, 4))
            level = tuple(int(v) for v in RNG.integers(0, 3, size=dim))
            spec = KernelSpec(dim, level)
            pts = [rand_point(dim) for _ in range(int(RNG.integers(2, 7)))]
            coeff = RNG.uniform(-0.8, 0.8, size=dim)

            def f(p: ComplexPoint) -> complex:
                s = sum(c * (r + 0.5 * i) for c, r, i in zip(coeff, p.re, p.im))
                return cmath.exp(complex(0.2 * s, s))

            base = lambda a, b: hermitized_kernel(spec, a, b)
            plain = correlation_det(base, pts)
            gauged = correlation_det(gauge_transform(base, f), pts, imag_tol=1e-6)
            assert gauged == pytest.approx(plain, rel=1e-9, abs=1e-300)

    @settings(max_examples=40, deadline=None)
    @given(
        level=st.lists(st.integers(0, 3), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        n_pts=st.integers(1, 6),
        coeffs=st.lists(st.floats(-0.8, 0.8), min_size=7, max_size=7),
    )
    def test_random_gauges(self, level, seed, n_pts, coeffs):
        dim = len(level)
        spec = KernelSpec(dim, tuple(level))
        rng = np.random.default_rng(seed)
        pts = [
            ComplexPoint(tuple(rng.uniform(-1.5, 1.5, dim)),
                         tuple(rng.uniform(-1.5, 1.5, dim)))
            for _ in range(n_pts)
        ]

        def f(p: ComplexPoint) -> complex:
            s = coeffs[-1] + sum(
                a * r + b * i
                for a, b, r, i in zip(coeffs[0::2], coeffs[1::2], p.re, p.im)
            )
            return cmath.exp(complex(s, 0.3 * s))

        base = lambda a, b: hermitized_kernel(spec, a, b)
        plain = correlation_det(base, pts)
        gauged = correlation_det(gauge_transform(base, f), pts, imag_tol=1e-6)
        assert gauged == pytest.approx(plain, rel=1e-9, abs=1e-300)

    def test_raw_and_hermitized_agree_on_correlations(self):
        # the two kernel gauges must produce identical determinants
        spec = KernelSpec(1, (2,))
        pts = [rand_point(1) for _ in range(4)]
        herm = correlation_det(lambda a, b: hermitized_kernel(spec, a, b), pts)
        raw_scaled = correlation_det(
            lambda a, b: kernel_eval(spec, a, b)
            * math.exp(
                -0.5 * (sum(v * v for v in a.re) + sum(v * v for v in a.im))
                - 0.5 * (sum(v * v for v in b.re) + sum(v * v for v in b.im))
            )
            / math.pi,
            pts,
            imag_tol=1e-6,
        )
        assert raw_scaled == pytest.approx(herm, rel=1e-10)

    def test_imag_tol_enforced(self):
        # a 1x1 determinant keeps the imaginary part of the kernel value
        pts = [rand_point(1)]
        with pytest.raises(InternalConsistencyError):
            correlation_det(lambda a, b: 1.0 + 0.5j, pts, imag_tol=1e-12)


class TestSeriesIdentity:
    def test_frozen_value(self):
        got = kernel_series_partial(2, 1.0 + 0.0j, 0.5 + 0.0j, n_terms=120)
        assert got.real == pytest.approx(0.4379415875297215, abs=1e-12)
        assert got.imag == pytest.approx(0.0, abs=1e-15)

    def test_matches_product_form(self):
        from heisenberg_dpp.specfun import laguerre

        for m in range(6):
            for _ in range(20):
                x = complex(RNG.uniform(-1.4, 1.4), RNG.uniform(-1.4, 1.4))
                y = complex(RNG.uniform(-1.4, 1.4), RNG.uniform(-1.4, 1.4))
                got = kernel_series_partial(m, x, y, n_terms=100)
                want = (
                    cmath.exp(x * y.conjugate())
                    * laguerre(m, 0.0, abs(x - y) ** 2)
                    / math.factorial(m)
                )
                assert abs(got - want) <= 1e-10

    def test_coincident_points(self):
        # at x = y = 0 only the n = m term survives: 1/m!... for m=0; 0.5 for m=2
        assert kernel_series_partial(0, 0j, 0j, 50) == pytest.approx(1.0)
        assert kernel_series_partial(2, 0j, 0j, 50) == pytest.approx(0.5)

    def test_bad_points_are_named(self):
        with pytest.raises(ValueError, match=r"y must be finite, got \(inf\+0j\)"):
            kernel_series_partial(1, 1.0, math.inf, 10)
        with pytest.raises(ValueError, match="x must be finite"):
            kernel_series_partial(1, complex(0.0, math.nan), 1.0, 10)
        # |x| past sqrt(DBL_MAX) = 1.34e154: |x|^2 leaves the double range
        with pytest.raises(OverflowError, match=r"\|x\|\^2 overflows double range"):
            kernel_series_partial(1, 1.35e154, 1.0, 10)
        with pytest.raises(OverflowError, match=r"\|y\|\^2 overflows double range"):
            kernel_series_partial(0, 0j, complex(1e308, 1e308), 3)

    def test_overflowing_term_raises(self):
        # |x conj(y)|^n / n! peaks near e^900 at n = 900
        with pytest.raises(OverflowError, match="series term overflows double range"):
            kernel_series_partial(0, 30, 30, 1000)

    def test_truncation_converges(self):
        x, y = 1.2 + 0.3j, -0.4 + 0.9j
        full = kernel_series_partial(3, x, y, 160)
        short = kernel_series_partial(3, x, y, 40)
        assert abs(full - short) < 1e-12


def _bits(value: complex) -> bytes:
    return struct.pack("<dd", value.real, value.imag)


def reference_series(m: int, x: complex, y: complex, n_terms: int) -> complex:
    """kernel_series_partial with one laguerre_log call per factor and term."""
    w = x * y.conjugate()
    abs_w = abs(w)
    arg_w = cmath.phase(w) if abs_w > 0.0 else 0.0
    sq_x = abs(x) ** 2
    sq_y = abs(y) ** 2
    log_m_fact = math.lgamma(m + 1)
    total = 0.0 + 0.0j
    for n in range(n_terms + 1):
        k = n - m
        if k == 0:
            power_log, power_arg = 0.0, 0.0
        elif abs_w == 0.0:
            continue
        else:
            power_log = abs(k) * math.log(abs_w)
            power_arg = k * arg_w
        if k >= 0:
            la, sa = laguerre_log(m, float(k), sq_x)
            lb, sb = laguerre_log(m, float(k), sq_y)
            log_mag = la + lb + power_log - math.lgamma(n + 1)
        else:
            la, sa = laguerre_log(n, float(-k), sq_x)
            lb, sb = laguerre_log(n, float(-k), sq_y)
            log_mag = la + lb + power_log + math.lgamma(n + 1) - 2.0 * log_m_fact
        sign = sa * sb
        if sign == 0.0 or log_mag == -math.inf:
            continue
        if log_mag > 700.0:
            raise OverflowError("series term overflows double range")
        total += sign * math.exp(log_mag) * cmath.exp(1j * power_arg)
    return total


def _distances(x: ComplexPoint, y: ComplexPoint) -> list[float]:
    """|x_l - y_l|^2 per coordinate."""
    return [(xr - yr) * (xr - yr) + (xi - yi) * (xi - yi)
            for xr, xi, yr, yi in zip(x.re, x.im, y.re, y.im)]


def reference_hermitized(spec: KernelSpec, x: ComplexPoint, y: ComplexPoint) -> complex:
    """hermitized_kernel as the inner product's imaginary part, the real
    part -sum |x_l - y_l|^2 / 2 and one laguerre call per coordinate, zero
    below the exponent -800."""
    dist = _distances(x, y)
    exponent = complex(-0.5 * sum(dist), _pair_terms(x, y)[1])
    if exponent.real < -800.0:
        return 0.0 + 0.0j
    value = cmath.exp(exponent) / math.pi ** spec.dimension
    for m, t in zip(spec.level, dist):
        value *= laguerre(m, 0.0, t)
    return value


_coord = st.floats(-25.0, 25.0)


class TestBitIdentity:
    """The vectorised series and the fused hermitized kernel against the
    per-call forms above, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(0, 8),
        n_terms=st.integers(0, 150),
        parts=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=4, max_size=4),
    )
    def test_series_matches_per_term_reference(self, m, n_terms, parts):
        x, y = complex(*parts[:2]), complex(*parts[2:])
        want = reference_series(m, x, y, n_terms)
        assert _bits(kernel_series_partial(m, x, y, n_terms)) == _bits(want)

    def test_series_where_the_recurrence_rescales(self):
        # L_200^(k)(|x|^2) passes 2^512 for the larger indices k
        from heisenberg_dpp.specfun import _laguerre_scaled

        x, y = 1.0 + 0.5j, -0.7 + 1.2j
        assert _laguerre_scaled(200, 1000.0, abs(x) ** 2)[1] > 0
        want = reference_series(200, x, y, 1200)
        assert _bits(kernel_series_partial(200, x, y, 1200)) == _bits(want)

    @settings(max_examples=300, deadline=None)
    @given(
        level=st.lists(st.integers(0, 6), min_size=1, max_size=3),
        coords=st.lists(_coord, min_size=12, max_size=12),
    )
    # exponent near -745: exp() leaves a -0.0 imaginary part, which the
    # product with L_0 = 1.0 turns into +0.0
    @example(level=[0, 0, 0], coords=[0.0, 0.0, 1.625, 0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 17.0, 25.0, 25.0])
    def test_hermitized_matches_per_call_reference(self, level, coords):
        dim = len(level)
        spec = KernelSpec(dim, tuple(level))
        x = ComplexPoint(tuple(coords[0:dim]), tuple(coords[3:3 + dim]))
        y = ComplexPoint(tuple(coords[6:6 + dim]), tuple(coords[9:9 + dim]))
        if any(level) and -0.5 * sum(_distances(x, y)) < _EXP_NORMAL_MIN + 1.0:
            return  # far pair: exp() underflows and the factors enter as logs
        want = reference_hermitized(spec, x, y)
        assert _bits(hermitized_kernel(spec, x, y)) == _bits(want)

    # sha256 of (re, im) little-endian doubles over the grids below, as the
    # per-term laguerre_log series and the per-coordinate laguerre kernel
    # computed them
    PINNED_HERMITIZED = "fb91c9e5cf499237fbf3954207d1526ccb2498aa7cadb99f118ec66ba4e5c814"
    PINNED_SERIES = "40afa1d4e298be390d456970fcd8512105179483c086711bb60c6a9d3c8e559a"

    def test_hermitized_grid_digest(self):
        coords = (0.0, 0.7, -1.3, 2.9, -6.1, 14.2)
        one = [ComplexPoint((a,), (b,)) for a in coords for b in coords[:3]]
        two = [ComplexPoint((a, b), (b, -a)) for a in coords[:5] for b in coords[1:4]]
        three = [ComplexPoint((a, b, 0.5), (b, a, -a)) for a in coords[:4] for b in coords[:3]]
        # level-0 pairs with the exponent near -3200, -800 and in (-800, -708)
        far = [ComplexPoint((s * 40.0,), (s * 3.0,)) for s in (-1.0, 1.0)]
        far += [ComplexPoint((38.5,), (0.0,)), ComplexPoint((-39.5,), (1.0,))]
        cases = [
            *[(KernelSpec(1, (m,)), one) for m in (0, 1, 3, 12, 40)],
            *[(KernelSpec(2, lv), two) for lv in ((0, 0), (2, 1), (5, 0))],
            (KernelSpec(3, (0, 1, 2)), three),
            (KernelSpec(1), far + one[:3]),
        ]
        digest = hashlib.sha256()
        for spec, pts in cases:
            for a in pts:
                for b in pts:
                    digest.update(_bits(hermitized_kernel(spec, a, b)))
        assert digest.hexdigest() == self.PINNED_HERMITIZED

    def test_series_grid_digest(self):
        pts = (0j, 1 + 0j, 0.5 - 0.25j, -1.2 + 0.7j, 2.5 + 1.5j, 3j)
        digest = hashlib.sha256()
        for m in (0, 1, 2, 5, 9):
            for n_terms in (0, 1, 4, 30, 100):
                for x in pts:
                    for y in pts:
                        digest.update(_bits(kernel_series_partial(m, x, y, n_terms)))
        for x, y in ((1.0 + 0.5j, -0.7 + 1.2j), (0.3j, 0.2 + 0j)):
            digest.update(_bits(kernel_series_partial(200, x, y, 1200)))
        assert digest.hexdigest() == self.PINNED_SERIES
