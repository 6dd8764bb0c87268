"""Correlation kernels for the extended Heisenberg family on C^D.

The base process has kernel exp(x . conj(y)) against the Gaussian
reference measure exp(-|x|^2)/pi^D; the level-m member multiplies in one
Laguerre factor per coordinate.  Determinants of these kernels give the
n-point correlation functions.

Correlations are always computed from the hermitized (gauge-equivalent)
kernel, whose exponent has nonpositive real part; it is bounded by
1/pi^D, so determinant evaluation never overflows no matter where the
points sit.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exceptions import InternalConsistencyError
from .specfun import _check_array, _check_complex, _check_dimension, _check_index, _check_nonnegative
from .specfun import _check_real, _check_work, _checked_make, _laguerre_float, laguerre, laguerre_log
from .specfun import _laguerre_scaled_rows

MAX_CORRELATION_POINTS = 12

# Below the first exponent exp() is subnormal or zero, so the hermitized
# kernel takes its Laguerre factors as logs; a kernel whose log lies below
# the second, where exp() is long zero, is returned as 0.
_EXP_NORMAL_MIN = math.log(2.0**-1022)
# exp() of a larger exponent overflows
_EXP_MAX = math.log(sys.float_info.max)
_EXP_UNDERFLOW_CUTOFF = -800.0

# kernel_series_partial forms _SERIES_BLOCK (pair, term) elements at a time.
# A term is 1 + min(m, n_terms) series units (its log, exp, cos and sin, and
# each recurrence step), 0.4 to 0.75 us each (2-core VM), priced at 1 us.
_SERIES_BLOCK = 2**14


class _ComplexPointFields(NamedTuple):
    re: tuple[float, ...]
    im: tuple[float, ...]


class ComplexPoint(_ComplexPointFields):
    """A point of C^D stored as paired real and imaginary coordinates."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, re: tuple[float, ...], im: tuple[float, ...]):
        re = tuple(_check_array("re", re, _check_real)[0].tolist())
        im = tuple(_check_array("im", im, _check_real)[0].tolist())
        if len(re) != len(im) or not re:
            raise ValueError("re and im must be equal-length, nonempty tuples")
        return super().__new__(cls, re, im)

    @classmethod
    def from_complex(cls, values: Sequence[complex]) -> "ComplexPoint":
        return _as_point("values", values)

    def to_complex(self) -> np.ndarray:
        return np.array(self.re, dtype=float) + 1j * np.array(self.im, dtype=float)

    @property
    def dimension(self) -> int:
        return len(self.re)


class _KernelSpecFields(NamedTuple):
    dimension: int
    level: tuple[int, ...]


class KernelSpec(_KernelSpecFields):
    """Which member of the family: complex dimension and Landau levels."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, dimension: int, level: tuple[int, ...] | None = None):
        dimension = _check_dimension(dimension)
        # only a level the caller gave is checked: D zeros need no check
        level = (0,) * dimension if level is None else tuple(_check_index("level", m) for m in level)
        if len(level) != dimension:
            raise ValueError(f"level needs {dimension} entries, got {len(level)}")
        return super().__new__(cls, dimension, level)


def _as_point(name: str, p, dimension: int | None = None) -> ComplexPoint:
    """p, a ComplexPoint or an array argument of complex coordinates."""
    if not isinstance(p, ComplexPoint):
        p = _check_array(name, p, _check_complex)[0]
        p = ComplexPoint(tuple(p.real.tolist()), tuple(p.imag.tolist()))
    if dimension is not None and p.dimension != dimension:
        raise ValueError(f"point has dimension {p.dimension}, spec wants {dimension}")
    return p


def _pair_terms(x: ComplexPoint, y: ComplexPoint) -> tuple[float, float, list[float]]:
    """Re and Im of x . conj(y) and each t_l = |x_l - y_l|^2, in one pass.

    Each coordinate's Im, x_i y_r - x_r y_i, is formed from the midpoint
    (x_l + y_l)/2 and the difference x_l - y_l: exactly 0 on the diagonal
    and finite near it at any magnitude, where the products overflow past
    ~1e154.  Where that form overflows instead (a far pair of large and
    small coordinates), the products are used.  Both forms change sign
    exactly when x and y are swapped.
    """
    re = im = 0.0
    dist = []
    for xr, xi, yr, yi in zip(x.re, x.im, y.re, y.im):
        re += xr * yr + xi * yi
        dr, di = xr - yr, xi - yi
        term = (0.5 * xr + 0.5 * yr) * di - (0.5 * xi + 0.5 * yi) * dr
        im += term if math.isfinite(term) else xi * yr - xr * yi
        dist.append(dr * dr + di * di)
    return re, im, dist


def _from_logs(level, dist, base_re: float, imag: float, divisor: float = 1.0):
    """exp(base_re + i imag) / divisor * prod_l L_{m_l}(t_l) formed from each
    factor's log magnitude and sign, with its log magnitude.  The value is
    None where exp() of that log magnitude overflows."""
    # L_0 = 1, also where t overflowed; its sign 1.0 still multiplies the
    # value, as in the per-coordinate product (a complex times 1.0 turns a
    # -0.0 imaginary part into +0.0)
    logs = [laguerre_log(m, 0.0, t) if m else (0.0, 1.0) for m, t in zip(level, dist)]
    log_mag = base_re + sum(log for log, _ in logs)
    if log_mag > _EXP_MAX:
        return log_mag, None
    value = cmath.exp(complex(log_mag, imag)) / divisor
    for _, sign in logs:
        value *= sign
    return log_mag, value


def kernel_eval(spec: KernelSpec, x, y) -> complex:
    """Raw kernel exp(x . conj(y)) * prod_l L_{m_l}(|x_l - y_l|^2).

    This form grows like exp(|x||y|); arguments whose inner product would
    overflow the double exponent range raise OverflowError, as does a
    value outside it and a coordinate above level 0 whose |x_l - y_l|^2
    overflows (at level 0 that factor is L_0 = 1).  Where a Laguerre factor
    alone leaves the range, the value is formed from the factors' log
    magnitudes and signs.  Use
    :func:`hermitized_kernel` for a bounded, gauge-equivalent variant.
    """
    x, y = _as_point("x", x, spec.dimension), _as_point("y", y, spec.dimension)
    re, im, dist = _pair_terms(x, y)
    if re > 709.0:
        raise OverflowError(f"exp({re:.6g}) overflows; use hermitized_kernel instead")
    if any(m and t == math.inf for m, t in zip(spec.level, dist)):
        raise OverflowError(
            "|x_l - y_l|^2 overflows double range; use hermitized_kernel instead"
        )
    value = cmath.exp(complex(re, im))
    try:
        for m, t in zip(spec.level, dist):
            if m:  # L_0 = 1, also where t overflowed
                value *= laguerre(m, 0.0, t)
        if math.isfinite(value.real) and math.isfinite(value.imag):
            return value
    except OverflowError:
        pass
    # a Laguerre factor or a partial product left the double range
    _, value = _from_logs(spec.level, dist, re, im)
    if value is None:
        raise OverflowError("kernel_eval overflows double range")
    return value


def hermitized_kernel(spec: KernelSpec, x, y) -> complex:
    """Gauge-equivalent bounded kernel used for all correlation work.

    Multiplying the raw kernel by exp(-(|x|^2+|y|^2)/2)/pi^D leaves every
    determinant (hence every correlation function) unchanged and makes the
    exponent's real part -|x - y|^2/2 <= 0.  The diagonal is exactly
    1/pi^D, the one-point intensity.  Where exp() of that real part would
    underflow, each e^(-t/2) L_m(t), t = |x_l - y_l|^2, is formed from
    log |L_m(t)|, so a far pair keeps its value where L_m(t) overflows.
    """
    x, y = _as_point("x", x, spec.dimension), _as_point("y", y, spec.dimension)
    _, im, dist = _pair_terms(x, y)
    # Re(x . conj(y)) - (|x|^2 + |y|^2)/2 = -|x - y|^2/2, formed from the
    # distances: the left side cancels at large coordinates
    exponent = complex(-0.5 * sum(dist), im)
    if exponent.real < _EXP_NORMAL_MIN:
        if not all(map(math.isfinite, dist)):  # that factor's e^(-t/2) is 0
            return 0.0 + 0.0j
        log_mag, value = _from_logs(
            spec.level, dist, exponent.real, im, math.pi ** spec.dimension
        )
        if log_mag < _EXP_UNDERFLOW_CUTOFF:
            return 0.0 + 0.0j
        return value
    value = cmath.exp(exponent) / math.pi ** spec.dimension
    for m, t in zip(spec.level, dist):  # sum(dist) <= 1416: every t is finite
        value *= _laguerre_float(m, 0.0, t)
    return value


def gauge_transform(
    kernel: Callable[[ComplexPoint, ComplexPoint], complex],
    f: Callable[[ComplexPoint], complex],
) -> Callable[[ComplexPoint, ComplexPoint], complex]:
    """Conjugate a kernel by a nonvanishing function: (x, y) -> f(x) K(x,y) / f(y).

    All determinants built from point subsets are invariant under this
    transformation, which is the property the tests exercise.
    """

    def transformed(x: ComplexPoint, y: ComplexPoint) -> complex:
        return f(x) * kernel(x, y) / f(y)

    return transformed


def _det_with_check(matrix: np.ndarray, imag_tol: float) -> float:
    det = complex(np.linalg.det(matrix))
    if abs(det.imag) > imag_tol:
        raise InternalConsistencyError(
            f"determinant imaginary part {det.imag:.3e} exceeds {imag_tol:.1e}"
        )
    return det.real


def _kernel_matrix(kernel, points) -> np.ndarray:
    """The n x n matrix [kernel(x_i, x_j)], each entry evaluated on its own."""
    rows = [[kernel(p, q) for q in points] for p in points]
    return np.array(rows, dtype=complex).reshape(len(points), len(points))


def correlation_det(
    kernel: Callable[[ComplexPoint, ComplexPoint], complex],
    points: Sequence[ComplexPoint],
    imag_tol: float = 1e-8,
) -> float:
    """det[kernel(x_i, x_j)] for an arbitrary kernel callable; an imaginary
    part past ``imag_tol`` >= 0 raises InternalConsistencyError."""
    imag_tol = _check_nonnegative("imag_tol", imag_tol)
    return _det_with_check(_kernel_matrix(kernel, points), imag_tol)


class _CorrelationMatrixFields(NamedTuple):
    entries: np.ndarray
    dimension: int


class CorrelationMatrix(_CorrelationMatrixFields):
    """Hermitized kernel matrix with its structural invariants enforced; the
    Hermitian check compares K(x, y) with a separately computed K(y, x)."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, entries: np.ndarray, dimension: int):
        m = entries
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("correlation matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise InternalConsistencyError("kernel matrix is not Hermitian")
        intensity = 1.0 / math.pi ** dimension
        if np.max(np.abs(np.diag(m) - intensity)) > 1e-12 * intensity:
            raise InternalConsistencyError(
                "kernel matrix diagonal deviates from the one-point intensity"
            )
        return super().__new__(cls, entries, dimension)


def correlation_matrix(spec: KernelSpec, points: Sequence) -> CorrelationMatrix:
    pts = [_as_point("points", p, spec.dimension) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    entries = _kernel_matrix(lambda x, y: hermitized_kernel(spec, x, y), pts)
    return CorrelationMatrix(entries=entries, dimension=spec.dimension)


def correlation_function(spec: KernelSpec, points: Sequence) -> float:
    """n-point correlation rho_n(x_1..x_n) = det of the hermitized kernel matrix.

    Capped at MAX_CORRELATION_POINTS because the determinant route loses
    accuracy and meaning well before large point counts become interesting.
    """
    if len(points) > MAX_CORRELATION_POINTS:
        raise ValueError(
            f"n = {len(points)} exceeds the cap of {MAX_CORRELATION_POINTS}"
        )
    matrix = correlation_matrix(spec, points)
    return _det_with_check(matrix.entries, 1e-8)


def _map(f, values: np.ndarray) -> np.ndarray:
    """f of every element, through Python floats, so `math`'s bits are kept;
    a memoryview hands them over one at a time, without a list."""
    return np.fromiter(map(f, memoryview(values.ravel())), float, values.size).reshape(values.shape)


def kernel_series_partial(m: int, x, y, n_terms: int):
    """Partial sum (n = 0..n_terms) of the one-coordinate eigenfunction series.

    The full series telescopes to exp(x conj(y)) L_m(|x - y|^2) / m!.
    Terms below the diagonal (n < m) are rewritten with the flipped
    Laguerre index so no negative powers appear; all magnitudes accumulate
    in log form so extreme arguments cannot overflow.

    ``x`` and ``y`` are array arguments of equal length (see the `specfun`
    module notes), each element of the result bit-identical to the call on
    that pair alone.  One recurrence gives the Laguerre factors
    of every pair and term, log, exp, cos and sin come from `math`, complex
    products are formed on real and imaginary parts as CPython forms them,
    and each pair's terms are added in order of n, a skipped one as +0.0.
    """
    m, n_terms = _check_index("m", m), _check_index("n_terms", n_terms)
    xs, many_x = _check_array("x", x, _check_complex)
    ys, many_y = _check_array("y", y, _check_complex)
    if xs.size != ys.size:
        raise ValueError(f"x and y need equal lengths, got {xs.size} and {ys.size}")
    xs, ys, pairs, sq = xs.tolist(), ys.tolist(), xs.size, []
    for name, v in [("x", v) for v in xs] + [("y", v) for v in ys]:
        try:
            sq.append(abs(v) ** 2)
        except OverflowError:
            raise OverflowError(f"|{name}|^2 overflows double range ({name} = {v!r})") from None
    sq = np.array(sq)[:, None]
    terms = pairs * (n_terms + 1)
    _check_work(10 * terms * (1 + min(m, n_terms)), "the series of {} terms at level {}", terms, m)
    abs_w, log_w, arg_w = np.zeros((3, pairs))
    for i, (a, b) in enumerate(zip(xs, ys)):
        w = a * b.conjugate()
        abs_w[i] = abs(w)
        if abs_w[i] > 0.0:
            log_w[i], arg_w[i] = math.log(abs(w)), cmath.phase(w)
    log_m_fact, log_2 = math.lgamma(m + 1), math.log(2.0)

    # the terms go _SERIES_BLOCK (pair, term) elements at a time, each
    # pair's running sum entering the next block's accumulate first
    totals = np.zeros((2, pairs))  # real and imaginary parts
    block = max(1, _SERIES_BLOCK // max(pairs, 1))
    for lo in range(0, n_terms + 1 if pairs else 0, block):
        hi = min(lo + block, n_terms + 1)
        n = np.arange(lo, hi)
        # float(n - m) as Python rounds it, past int64 too
        k = np.arange(lo - m, hi - m) if m < 2**62 else np.arange(lo, hi, dtype=object) - m
        k = k.astype(float)
        # L at |x|^2 and |y|^2 for term n: degree n and index m - n below
        # the diagonal (the first d terms), degree m and index n - m from it on
        d = min(max(m - lo, 0), hi - lo)
        value, shift = _laguerre_scaled_rows(np.minimum(n, min(m, n_terms)), np.abs(k), sq)
        va, vb = value[:pairs], value[pairs:]
        keep = (va != 0.0) & (vb != 0.0) & ((abs_w[:, None] > 0.0) | (k == 0.0))
        logs = _map(math.log, np.where(np.vstack((keep, keep)), np.abs(value), 1.0))
        logs += shift * log_2
        power_log, power_arg = np.abs(k) * log_w[:, None], k * arg_w[:, None]
        if lo <= m < hi:
            power_log[:, d] = power_arg[:, d] = 0.0
        log_mag = logs[:pairs] + logs[pairs:] + power_log
        lgam = _map(math.lgamma, n + 1.0)
        log_mag[:, :d] += lgam[:d]
        log_mag[:, :d] -= 2.0 * log_m_fact
        log_mag[:, d:] -= lgam[d:]
        if (log_mag[keep] > 700.0).any():
            raise OverflowError("series term overflows double range")
        f = np.copysign(1.0, va) * np.copysign(1.0, vb) * _map(math.exp, np.where(keep, log_mag, 0.0))
        angle = 0.0 + power_arg  # the imaginary part of 1j * power_arg
        cos, sin = _map(math.cos, angle), _map(math.sin, angle)
        # (f + 0j) * (cos + 1j sin), as cmath.exp(1j a) = cos a + 1j sin a
        terms = np.empty((2, pairs, hi - lo + 1))
        terms[:, :, 0] = totals
        terms[0, :, 1:] = np.where(keep, f * cos - 0.0 * sin, 0.0)
        terms[1, :, 1:] = np.where(keep, f * sin + 0.0 * cos, 0.0)
        totals = np.add.accumulate(terms, axis=2)[:, :, -1]
    if not (many_x or many_y):
        return complex(*totals[:, 0].tolist())
    out = np.empty(pairs, dtype=complex)
    out.real, out.imag = totals
    return out
