"""Kernel evaluation, hermitization, gauge invariance, correlations.

Frozen values come from high-precision side computations:
hermitized level-0 kernel at (x,y) = (1,0) on C^1 is e^(-1/2)/pi, the
two-point level-0 correlation at distance 1 is (1 - e^(-1))/pi^2, and the
m=2 series identity value at (x, y) = (1, 0.5) is 0.4379415875297215.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    hermitian_inner,
    hermitized_kernel,
    kernel_eval,
    kernel_series_partial,
)
from heisenberg_dpp.specfun import laguerre

RNG = np.random.default_rng(777)


def rand_point(dim: int) -> ComplexPoint:
    return ComplexPoint(
        tuple(RNG.uniform(-1.5, 1.5, size=dim)),
        tuple(RNG.uniform(-1.5, 1.5, size=dim)),
    )


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
        with pytest.raises(ValueError, match="integers"):
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
            got = hermitian_inner(x, y)
            assert got == pytest.approx(want, abs=1e-15)

    def test_swap_conjugates_exactly(self):
        for _ in range(30):
            dim = int(RNG.integers(1, 4))
            x, y = rand_point(dim), rand_point(dim)
            assert hermitian_inner(x, y) == hermitian_inner(y, x).conjugate()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="points live in different dimensions"):
            hermitian_inner(rand_point(1), rand_point(2))


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


class TestKernelValues:
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

    def test_far_pair_underflows_to_exact_zero(self):
        # exponent -|x - y|^2/2 = -850 is past the cutoff, where the level-300
        # Laguerre factor alone would overflow
        spec = KernelSpec(1, (300,))
        x = ComplexPoint((0.0,), (0.0,))
        y = ComplexPoint((math.sqrt(1700.0),), (0.0,))
        with pytest.raises(OverflowError):
            laguerre(300, 0.0, 1700.0)
        for a, b in ((x, y), (y, x)):
            value = hermitized_kernel(spec, a, b)
            assert value == 0j and isinstance(value, complex)
        rho = correlation_function(spec, [x, y])
        assert math.isfinite(rho)
        assert rho == pytest.approx(1.0 / math.pi**2, rel=1e-12)

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

    def test_truncation_converges(self):
        x, y = 1.2 + 0.3j, -0.4 + 0.9j
        full = kernel_series_partial(3, x, y, 160)
        short = kernel_series_partial(3, x, y, 40)
        assert abs(full - short) < 1e-12
