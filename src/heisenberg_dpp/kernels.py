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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .exceptions import InternalConsistencyError
from .specfun import _check_dimension, _check_index, laguerre, laguerre_log
from .specfun import _laguerre_float, _laguerre_scaled, _laguerre_scaled_rows

MAX_CORRELATION_POINTS = 12

# Below the first exponent exp() is subnormal or zero, so the hermitized
# kernel takes its Laguerre factors as logs; a kernel whose log lies below
# the second, where exp() is long zero, is returned as 0.
_EXP_NORMAL_MIN = math.log(2.0**-1022)
# exp() of a larger exponent overflows
_EXP_MAX = math.log(sys.float_info.max)
_EXP_UNDERFLOW_CUTOFF = -800.0


@dataclass(frozen=True)
class ComplexPoint:
    """A point of C^D stored as paired real and imaginary coordinates."""

    re: tuple[float, ...]
    im: tuple[float, ...]

    def __post_init__(self):
        re = tuple(float(v) for v in self.re)
        im = tuple(float(v) for v in self.im)
        if len(re) != len(im) or not re:
            raise ValueError("re and im must be equal-length, nonempty tuples")
        if not all(map(math.isfinite, re + im)):
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @classmethod
    def from_complex(cls, values: Sequence[complex]) -> "ComplexPoint":
        vals = [complex(v) for v in values]
        return cls(tuple(v.real for v in vals), tuple(v.imag for v in vals))

    def to_complex(self) -> np.ndarray:
        return np.array(self.re, dtype=float) + 1j * np.array(self.im, dtype=float)

    @property
    def dimension(self) -> int:
        return len(self.re)


@dataclass(frozen=True)
class KernelSpec:
    """Which member of the family: complex dimension and Landau levels."""

    dimension: int
    level: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "dimension", _check_dimension(self.dimension))
        level = self.level
        if level is None:
            level = (0,) * self.dimension
        level = tuple(_check_index("level", m) for m in level)
        if len(level) != self.dimension:
            raise ValueError(
                f"level needs {self.dimension} entries, got {len(level)}"
            )
        object.__setattr__(self, "level", level)


def _as_point(p, dimension: int) -> ComplexPoint:
    if not isinstance(p, ComplexPoint):
        p = ComplexPoint.from_complex(p)
    if p.dimension != dimension:
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
    x = _as_point(x, spec.dimension)
    y = _as_point(y, spec.dimension)
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
    x = _as_point(x, spec.dimension)
    y = _as_point(y, spec.dimension)
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
    """det[kernel(x_i, x_j)] for an arbitrary kernel callable."""
    return _det_with_check(_kernel_matrix(kernel, points), imag_tol)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Hermitized kernel matrix with its structural invariants enforced; the
    Hermitian check compares K(x, y) with a separately computed K(y, x)."""

    entries: np.ndarray
    dimension: int

    def __post_init__(self):
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("correlation matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise InternalConsistencyError("kernel matrix is not Hermitian")
        intensity = 1.0 / math.pi ** self.dimension
        if np.max(np.abs(np.diag(m) - intensity)) > 1e-12 * intensity:
            raise InternalConsistencyError(
                "kernel matrix diagonal deviates from the one-point intensity"
            )


def correlation_matrix(spec: KernelSpec, points: Sequence) -> CorrelationMatrix:
    pts = [_as_point(p, spec.dimension) for p in points]
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


def _series_point(name: str, value) -> tuple[complex, float]:
    """value as a finite complex number, with its squared modulus."""
    value = complex(value)
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    try:
        return value, abs(value) ** 2
    except OverflowError:
        raise OverflowError(f"|{name}|^2 overflows double range ({name} = {value!r})") from None


def kernel_series_partial(m: int, x: complex, y: complex, n_terms: int) -> complex:
    """Partial sum (n = 0..n_terms) of the one-coordinate eigenfunction series.

    The full series telescopes to exp(x conj(y)) L_m(|x - y|^2) / m!.
    Terms below the diagonal (n < m) are rewritten with the flipped
    Laguerre index so no negative powers appear; all magnitudes accumulate
    in log form so extreme arguments cannot overflow.  From the diagonal on,
    one recurrence gives the Laguerre factors of every term.
    """
    m, n_terms = _check_index("m", m), _check_index("n_terms", n_terms)
    x, sq_x = _series_point("x", x)
    y, sq_y = _series_point("y", y)
    w = x * y.conjugate()
    abs_w = abs(w)
    arg_w = cmath.phase(w) if abs_w > 0.0 else 0.0
    log_w = math.log(abs_w) if abs_w > 0.0 else 0.0
    log_m_fact = math.lgamma(m + 1)

    # L at |x|^2 and |y|^2 for term n, as (value, shift): degree n and index
    # m - n below the diagonal, degree m and index n - m from it on
    rows = [[_laguerre_scaled(n, float(m - n), sq) for n in range(min(m, n_terms + 1))]
            for sq in (sq_x, sq_y)]
    value, shift = _laguerre_scaled_rows(m, np.arange(n_terms - m + 1.0), np.array([sq_x, sq_y]))
    for row, v, e in zip(rows, value.tolist(), shift.tolist()):
        row += zip(v, e)

    log_2 = math.log(2.0)
    total = 0.0 + 0.0j
    for n, ((va, ea), (vb, eb)) in enumerate(zip(*rows)):
        k = n - m
        if k == 0:
            power_log, power_arg = 0.0, 0.0
        elif abs_w == 0.0:
            continue
        else:
            power_log = abs(k) * log_w
            power_arg = k * arg_w
        if va == 0.0 or vb == 0.0:
            continue
        la = math.log(abs(va)) + ea * log_2
        lb = math.log(abs(vb)) + eb * log_2
        if k >= 0:
            log_mag = la + lb + power_log - math.lgamma(n + 1)
        else:
            log_mag = la + lb + power_log + math.lgamma(n + 1) - 2.0 * log_m_fact
        if log_mag > 700.0:
            raise OverflowError("series term overflows double range")
        sign = math.copysign(1.0, va) * math.copysign(1.0, vb)
        total += sign * math.exp(log_mag) * cmath.exp(1j * power_arg)
    return total
