"""Large-radius expansions of the ball variance-to-mean ratio.

The ratio for the level-zero process in dimension D admits

    Var/mean ~ (D / (sqrt(pi) R)) * sum_k c_k R^(-2k),

with c_0 = 1 and the signed c_k built from the product coefficients
alpha_k(D) below, as exact rationals.  ``verify`` checks the series against the
exact ratio at finite R, and the test suite checks every coefficient
against the Hankel expansion of the scaled Bessel functions in the
closed form (DLMF 10.40.1), also as rationals.

Asymptotic series are not convergent: evaluation truncates at the
smallest term and reports the first omitted term as the error bound.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .specfun import (
    SpecFunResult,
    _check_dimension,
    _check_index,
    _check_radius,
)

MAX_SERIES_ORDER = 8


def alpha_coefficient(k: int, dimension: int) -> int:
    """Product coefficient alpha_k(D) of the ratio expansion.

    alpha_0 = 1 and alpha_k(D) = prod_{l=-k+1}^{k} (2D + 2l - 1), an exact
    integer: alpha_1(1) = 3, alpha_2(1) = -15 (the factor at l = -1 is
    negative for D = 1).
    """
    k, dimension = _check_index("k", k), _check_dimension(dimension)
    out = 1
    for l in range(-k + 1, k + 1):
        out *= 2 * dimension + 2 * l - 1
    return out


def _check_order(order: int) -> int:
    order = _check_index("order", order)
    if order > MAX_SERIES_ORDER:
        raise ValueError(f"order must be at most {MAX_SERIES_ORDER}, got {order}")
    return order


def _truncate(terms: list[float]) -> tuple[float, float]:
    """Optimal truncation of an asymptotic series: (sum, error bound).

    Sums terms[:-1] up to the smallest one and bounds the error by the
    first term left out; terms[-1] is the term past the requested order,
    the bound when every earlier term is kept.
    """
    acc = terms[0]
    for k in range(1, len(terms) - 1):
        if abs(terms[k]) >= abs(terms[k - 1]):
            return acc, abs(terms[k])  # the series started diverging
        acc += terms[k]
    return acc, abs(terms[-1])


def series_coefficient(k: int, dimension: int) -> Fraction:
    """Signed coefficient c_k = (-1)^k alpha_k(D) / ((2k+1) k! 16^k), exact."""
    num = (-1) ** k * alpha_coefficient(k, dimension)
    return Fraction(num, (2 * k + 1) * math.factorial(k) * 16**k)


def ratio_series_eval(
    dimension: int, radius: float, order: int = MAX_SERIES_ORDER
) -> SpecFunResult:
    """Asymptotic Var/mean for the level-zero ball at large radius.

    Sums c_0..c_order, truncated at the smallest term, times the
    (D / sqrt(pi) R) prefactor, and bounds the error by the prefactor times
    the first term left out (the optimal-truncation rule for alternating
    asymptotic series).
    """
    order = _check_order(order)
    # one coefficient past the order: the first omitted term if all are kept
    coefficients = [series_coefficient(k, dimension) for k in range(order + 2)]
    radius = _check_radius(radius)
    prefactor = dimension / (math.sqrt(math.pi) * radius)
    rr = radius * radius
    terms = []
    scale = 1.0
    for c in coefficients:
        terms.append(float(c) * scale)
        scale /= rr
    acc, omitted = _truncate(terms)
    return SpecFunResult(prefactor * acc, prefactor * omitted)


def c_asymptote(m: int) -> float:
    """Large-level growth of the disk Class-I constant: (8 / pi^2) sqrt(m)."""
    m = _check_index("m", m, 1)
    return 8.0 / (math.pi * math.pi) * math.sqrt(float(m))
