"""Special functions used throughout the package.

Everything downstream (kernel evaluation, window statistics, asymptotic
series) reduces to the functions in this module, so their accuracy budget
is documented here once: each function targets 1e-10 relative accuracy or
better over the parameter ranges the package actually uses, and the
composed tolerances elsewhere assume that budget.

Overflow is reported by raising OverflowError; no function returns inf or
NaN.  Bad arguments raise ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Crossover between the ascending series and the normalized backward
# (Miller) recurrence for the scaled modified Bessel function.  The series
# has only positive terms, so it stays fully accurate up to the crossover;
# the boundary is cross-checked in the tests.
BESSEL_I_SERIES_CUTOFF = 30.0

# The cosine-type Bessel series alternates, so it loses digits much
# earlier than the modified one: at x = 30 the largest term is ~1e11 times
# the result.  Crossovers chosen so every regime keeps ~1e-12 accuracy.
# The Hankel expansion also waits for x >= nu^2/3: its terms first grow
# by about nu^2/(2x) each.
BESSEL_J_SERIES_CUTOFF = 10.0
BESSEL_J_ASYMPTOTIC_CUTOFF = 30.0

_RESCALE_THRESHOLD = 1e250
_RESCALE_FACTOR = 1e-250


@dataclass(frozen=True)
class SpecFunResult:
    """A numerical value together with an absolute error bound."""

    value: float
    abs_error_bound: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite value {self.value!r}")
        if not (self.abs_error_bound >= 0.0):
            raise ValueError(f"negative error bound {self.abs_error_bound!r}")


def _not_a_number(name: str, value) -> ValueError:
    return ValueError(f"{name} must be a number, got {value!r}")


def _check_number(name: str, value) -> None:
    """Refuses str, bytes, bool and arrays, which float() and int() would
    coerce (an array of one element) or refuse without naming the argument.

    The checks skip it for a plain float or int, the common case.
    """
    if isinstance(value, (str, bytes, bool, np.bool_)) or (
        isinstance(value, np.ndarray) and value.ndim
    ):
        raise _not_a_number(name, value)


def _as_float(name: str, value) -> float:
    """float(value) after _check_number; what float() refuses with a
    TypeError (None, a complex) is named the same way."""
    _check_number(name, value)
    try:
        return float(value)
    except TypeError:
        raise _not_a_number(name, value) from None


def _check_real(name: str, value: float) -> float:
    if type(value) is not float:
        value = _as_float(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_nonnegative(name: str, value: float) -> float:
    value = _check_real(name, value)
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _check_nonnegative_array(name: str, value: np.ndarray) -> np.ndarray:
    """A 1-D float array whose elements are all finite and >= 0."""
    if value.ndim != 1 or value.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a float or a 1-D numeric array")
    value = value.astype(float)
    bad = value[~(np.isfinite(value) & (value >= 0.0))]
    if bad.size:
        _check_nonnegative(name, float(bad[0]))  # raises, with the float wording
    return value


def _check_index(name: str, value: int, lo: int = 0) -> int:
    exact = type(value) is int
    if not exact:
        _check_number(name, value)
    try:
        # int() of nan or inf would raise without naming the argument
        bad = not (exact or math.isfinite(value)) or value != int(value) or value < lo
    except TypeError:
        raise _not_a_number(name, value) from None
    if bad:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value}")
    return int(value)


def _check_dimension(dimension: int) -> int:
    return _check_index("dimension", dimension, 1)


def _check_positive(name: str, value: float) -> float:
    if type(value) is not float:
        value = _as_float(name, value)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _check_radius(radius: float) -> float:
    return _check_positive("radius", radius)


def _laguerre_scaled(n: int, alpha: float, x: float) -> tuple[float, int]:
    """(value, shift) with L_n^(alpha)(x) = value * 2**shift.

    The upward recurrence (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha)
    L_{k-1} from L_0 = 1, L_1 = 1 + alpha - x is forward-stable for the
    degrees used here; both iterates are scaled by 2**-512 whenever one
    grows past 2**512, so they stay representable far past the double range.
    A step that would still overflow (|x| near the double range) is redone
    after scaling both iterates below 1 by an exact power of two.  Raises
    OverflowError when 1 + alpha - x, the slope of every step, overflows.
    Checks nothing: n is an int >= 0 and alpha, x are finite floats.
    """
    if n == 0:
        return 1.0, 0
    prev = 1.0
    cur = 1.0 + alpha - x
    if not math.isfinite(cur):
        raise OverflowError(f"laguerre: 1 + alpha - x overflows at alpha={alpha}, x={x}")
    shift = 0
    big, scale = math.ldexp(1.0, 512), math.ldexp(1.0, -512)
    for k in range(1, n):
        step = ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
        if not abs(step) <= big or abs(cur) > big:  # also true for NaN
            if not math.isfinite(step):
                e = max(math.frexp(cur)[1], math.frexp(prev)[1])
                prev, cur, shift = math.ldexp(prev, -e), math.ldexp(cur, -e), shift + e
                step = ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
            if abs(step) > big or abs(cur) > big:
                cur, step, shift = cur * scale, step * scale, shift + 512
        prev, cur = cur, step
    return cur, shift


def _laguerre_scaled_rows(n: int, alpha: np.ndarray, x: np.ndarray):
    """:func:`_laguerre_scaled` at degree n for every pair (x[i], alpha[j]),
    as arrays value[i, j] and shift[i, j], bit for bit: numpy's + - * /
    round as the float operations do.  Where an iterate passes 2**512, and
    the scalar recurrence would rescale, the pair is taken from it.
    """
    x = x[:, None]
    shift = np.zeros((x.size, alpha.size), dtype=int)
    if n == 0:
        return np.ones(shift.shape), shift
    prev, cur = 1.0, 1.0 + alpha - x
    peak = np.abs(cur)
    with np.errstate(over="ignore", invalid="ignore"):  # such pairs are redone below
        for k in range(1, n):
            prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
            np.maximum(peak, np.abs(cur), out=peak)  # NaN propagates
    for i, j in zip(*np.nonzero(~(peak <= math.ldexp(1.0, 512)))):
        cur[i, j], shift[i, j] = _laguerre_scaled(n, float(alpha[j]), float(x[i, 0]))
    return cur, shift


def _laguerre_float(n: int, alpha: float, x: float) -> float:
    """:func:`laguerre` without its argument checks."""
    value, shift = _laguerre_scaled(n, alpha, x)
    # |value| < 2**e, so value * 2**shift is finite exactly when e + shift <= 1024
    if math.isfinite(value) and math.frexp(value)[1] + shift <= 1024:
        return math.ldexp(value, shift)
    raise OverflowError(f"laguerre({n}, {alpha}, {x}) overflows double range")


def laguerre(n: int, alpha: float, x: float) -> float:
    """Generalized Laguerre polynomial L_n^(alpha)(x), by the rescaled
    recurrence shared with :func:`laguerre_log`: any value that fits in a
    double is returned, however large the iterates grew on the way.
    """
    return _laguerre_float(_check_index("n", n), _check_real("alpha", alpha), _check_real("x", x))


def laguerre_log(n: int, alpha: float, x: float) -> tuple[float, float]:
    """(log |L_n^(alpha)(x)|, sign) by the rescaled recurrence shared with
    :func:`laguerre`, so values far outside the double range stay usable.
    sign is 0.0 when the value is exactly zero (log-magnitude -inf).
    Raises OverflowError, as :func:`laguerre` does, when 1 + alpha - x does.
    """
    n, alpha, x = _check_index("n", n), _check_real("alpha", alpha), _check_real("x", x)
    value, shift = _laguerre_scaled(n, alpha, x)
    if value == 0.0:
        return -math.inf, 0.0
    return math.log(abs(value)) + shift * math.log(2.0), math.copysign(1.0, value)


def bessel_i_scaled(nu: int, x: float) -> float:
    """Exponentially scaled modified Bessel function e^(-x) I_nu(x).

    The scaling removes the e^x growth, so the result lies in [0, 1] for
    all x >= 0 and stays representable at arguments ~1e5 where I_nu itself
    overflows.  Ascending series below the crossover; above it, backward
    recurrence normalized with e^(-x) [I_0 + 2 sum_{k>=1} I_k] = 1.
    """
    nu = _check_index("nu", nu)
    x = _check_nonnegative("x", x)
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    if x < BESSEL_I_SERIES_CUTOFF:
        half = 0.5 * x
        term = math.exp(nu * math.log(half) - math.lgamma(nu + 1)) if nu else 1.0
        total = term
        k = 0
        while True:
            k += 1
            term *= half * half / (k * (nu + k))
            total += term
            # a total below ~2.5e-306 makes total * 1e-18 underflow to 0:
            # the terms then run down to 0.0 and end the sum there
            if term < total * 1e-18 or not term:
                break
        return total * math.exp(-x)

    # Miller's algorithm.  The start order only needs I_M/I_nu to be far
    # below the target accuracy; exp(-M^2/(2x)) < 1e-35 suffices.
    start = nu + int(9.5 * math.sqrt(x)) + 20
    f_next = 0.0
    f_cur = 1e-255
    norm = 0.0
    saved = 0.0
    for k in range(start, 0, -1):
        f_prev = f_next + (2.0 * k / x) * f_cur
        norm += 2.0 * f_cur
        if k == nu:
            saved = f_cur
        f_next, f_cur = f_cur, f_prev
        if abs(f_cur) > _RESCALE_THRESHOLD:
            f_next *= _RESCALE_FACTOR
            f_cur *= _RESCALE_FACTOR
            norm *= _RESCALE_FACTOR
            saved *= _RESCALE_FACTOR
    if nu == 0:
        saved = f_cur
    norm += f_cur
    return saved / norm


def _bessel_j_series(nu: int, x: np.ndarray) -> np.ndarray:
    half = 0.5 * x
    if nu:
        lg = math.lgamma(nu + 1)
        # x/2 underflows to 0 at x = 2^-1074, where (x/2)^nu/nu! is 0 as well
        term = np.fromiter(
            (math.exp(nu * math.log(h) - lg) if h else 0.0 for h in half.tolist()), float, x.size
        )
    else:
        term = np.ones_like(x)
    total = term.copy()
    neg_sq = -half * half
    # scratch: step holds term_k/term_(k-1), then |term|; bound holds
    # |total| 1e-18 + 1e-300
    step, bound = np.empty_like(x), np.empty_like(x)
    out = np.empty_like(x)
    live = np.arange(x.size)
    k = 0
    while live.size:
        k += 1
        np.divide(neg_sq, k * (nu + k), out=step)
        term *= step
        total += term
        np.abs(term, out=step)
        np.abs(total, out=bound)
        bound *= 1e-18
        bound += 1e-300
        done = step < bound
        if done.any():
            out[live[done]] = total[done]
            keep = ~done
            live, neg_sq, term, total = live[keep], neg_sq[keep], term[keep], total[keep]
            step, bound = step[: live.size], bound[: live.size]
    return out


def _bessel_j_miller(nu: int, x: np.ndarray) -> np.ndarray:
    starts = [int(v + 18.0 * v ** (1.0 / 3.0)) + nu + 24 for v in x.tolist()]
    starts = [s + s % 2 for s in starts]
    # Descending start order: at step k the running elements, those whose
    # own recurrence has begun (start >= k), are a prefix of the arrays.
    order = sorted(range(x.size), key=starts.__getitem__, reverse=True)
    starts = [starts[i] for i in order]
    xs = x[order]
    f_next = np.empty_like(xs)
    f_cur = np.empty_like(xs)
    norm = np.zeros_like(xs)
    saved = np.zeros_like(xs)
    # |f| grows by at most a factor 2k/x + 1 per step, so unless that bound
    # can carry 1e-255 past the rescale threshold (only at high orders) the
    # rescale cannot fire and its test is skipped.
    top = starts[0]
    may_rescale = top * math.log10(2.0 * top / float(xs.min()) + 1.0) > 500.0
    # views of the running prefix, taken again when it grows; step holds
    # 2 f_cur, then (2k/x) f_cur
    step = np.empty_like(xs)
    n = 0
    for k in range(top, 0, -1):
        if n < xs.size and starts[n] >= k:
            began = n
            while n < xs.size and starts[n] >= k:
                n += 1
            f_next[began:n] = 0.0
            f_cur[began:n] = 1e-255
            x_run, next_run, cur_run = xs[:n], f_next[:n], f_cur[:n]
            norm_run, step_run = norm[:n], step[:n]
        if k % 2 == 0:
            np.multiply(cur_run, 2.0, out=step_run)
            norm_run += step_run
        if k == nu:
            saved[:n] = cur_run
        # f_prev overwrites f_next, then the two buffers swap roles
        np.divide(2.0 * k, x_run, out=step_run)
        step_run *= cur_run
        f_prev = np.subtract(step_run, next_run, out=next_run)
        f_next, f_cur = f_cur, f_next
        next_run, cur_run = cur_run, next_run
        if may_rescale and np.abs(f_prev).max() > _RESCALE_THRESHOLD:
            big = np.flatnonzero(np.abs(f_prev) > _RESCALE_THRESHOLD)
            f_next[big] *= _RESCALE_FACTOR
            f_cur[big] *= _RESCALE_FACTOR
            norm[big] *= _RESCALE_FACTOR
            saved[big] *= _RESCALE_FACTOR
    if nu == 0:
        saved = f_cur
    norm += f_cur  # J_0 enters the even-order normalization once
    out = np.empty_like(x)
    out[order] = saved / norm
    return out


def _bessel_j_asymptotic(nu: int, x: np.ndarray) -> np.ndarray:
    mu = 4.0 * nu * nu
    p_sum = np.ones_like(x)
    q_sum = np.zeros_like(x)
    coeff = np.ones_like(x)
    prev_mag = np.full_like(x, math.inf)
    ratio = np.empty_like(x)  # scratch: coeff_k/coeff_(k-1)
    p_out = np.empty_like(x)
    q_out = np.empty_like(x)
    live = np.arange(x.size)
    xs = x
    k = 0
    while live.size:
        k += 1
        np.multiply(k * 8.0, xs, out=ratio)
        np.divide(mu - (2 * k - 1) ** 2, ratio, out=ratio)
        coeff *= ratio
        mag = np.abs(coeff)
        done = (mag >= prev_mag) | (mag < 1e-18)
        if done.any():
            p_out[live[done]] = p_sum[done]
            q_out[live[done]] = q_sum[done]
            keep = ~done
            live, xs, coeff, mag = live[keep], xs[keep], coeff[keep], mag[keep]
            p_sum, q_sum, ratio = p_sum[keep], q_sum[keep], ratio[: live.size]
        # the sign (-1)^(k//2) or (-1)^((k-1)//2): s - c is s + (-c), bit for bit
        total = p_sum if k % 2 == 0 else q_sum
        if (k // 2) % 2:
            total -= coeff
        else:
            total += coeff
        prev_mag = mag
        if k > 60:
            p_out[live] = p_sum
            q_out[live] = q_sum
            break
    omega = (x - nu * math.pi / 2.0 - math.pi / 4.0).tolist()
    cos = np.fromiter(map(math.cos, omega), float, x.size)
    sin = np.fromiter(map(math.sin, omega), float, x.size)
    return np.sqrt(2.0 / (math.pi * x)) * (p_out * cos - q_out * sin)


def bessel_j(nu: int, x):
    """Bessel function of the first kind J_nu(x) for integer nu >= 0, x >= 0.

    ``x`` is a float or a 1-D float array; the result is of the same kind,
    and each element is bit-identical to the value of that element passed
    alone.  Three regimes: ascending series for x <= 10, normalized
    backward recurrence in the middle, and the Hankel (P, Q) asymptotic
    expansion for x >= max(30, nu^2/3), where the optimally truncated
    error is ~e^(-2x).
    Accurate to ~1e-10 relative through x = 1e4 away from zeros.
    """
    nu = _check_index("nu", nu)
    scalar = not isinstance(x, np.ndarray)
    x = np.array([_check_nonnegative("x", x)]) if scalar else _check_nonnegative_array("x", x)
    out = np.zeros_like(x)
    if nu == 0:
        out[x == 0.0] = 1.0
    series = x <= BESSEL_J_SERIES_CUTOFF
    hankel = x >= max(BESSEL_J_ASYMPTOTIC_CUTOFF, nu * nu / 3.0)
    regimes = (
        (_bessel_j_series, series & (x > 0.0)),
        (_bessel_j_miller, ~series & ~hankel),
        (_bessel_j_asymptotic, hankel),
    )
    for regime, mask in regimes:
        if mask.any():
            out[mask] = regime(nu, x[mask])
    return float(out[0]) if scalar else out


def regularized_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s).

    Lower series for x < s + 1, upper continued fraction (modified Lentz)
    otherwise; both share the prefactor x^s e^(-x) / Gamma(s) evaluated in
    log form.  Monotone in both arguments, with values in [0, 1].
    """
    s = _check_positive("s", s)
    x = _check_nonnegative("x", x)
    if x == 0.0:
        return 0.0
    log_pref = s * math.log(x) - x - math.lgamma(s)
    if x < s + 1.0:
        ap = s
        delta = 1.0 / s
        total = delta
        for _ in range(10000):
            ap += 1.0
            delta *= x / ap
            total += delta
            if abs(delta) < abs(total) * 1e-17:
                break
        value = total * math.exp(log_pref)
        return min(max(value, 0.0), 1.0)

    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    upper = math.exp(log_pref) * h
    return min(max(1.0 - upper, 0.0), 1.0)


def hyp3f2_terminating(a1: float, a2: float, m: int, b1: float, b2: float) -> float:
    """Terminating 3F2(a1, a2, -m; b1, b2; 1), summed by term ratios.

    The third upper parameter is -m, so the series has exactly m+1 terms.
    Using the ratio recurrence keeps each partial term O(sum) even when the
    individual Pochhammer symbols overflow (e.g. m ~ 1000).  A zero lower
    Pochhammer factor before termination raises ValueError.
    """
    a1 = _check_real("a1", a1)
    a2 = _check_real("a2", a2)
    m = _check_index("m", m)
    b1 = _check_real("b1", b1)
    b2 = _check_real("b2", b2)
    term = 1.0
    total = 1.0
    for n in range(m):
        den = (b1 + n) * (b2 + n) * (n + 1)
        if den == 0.0:
            raise ValueError(
                f"lower parameter hits a nonpositive integer at term {n + 1}"
            )
        num = (a1 + n) * (a2 + n) * (n - m)
        if num == 0.0:
            break
        term *= num / den
        total += term
    if not math.isfinite(total):
        raise OverflowError("hyp3f2_terminating overflows double range")
    return total
