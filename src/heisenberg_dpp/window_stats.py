"""Counting statistics in balls and polydisks.

Three independent routes compute the count mean and variance:

* ``closed``   - scaled-Bessel closed form for balls (level zero),
* ``integral`` - Gaussian-damped Bessel integral for balls (level zero),
  by Gauss-Legendre panels under a proven error bound,
* ``spectrum`` - exact Bernoulli spectrum for polydisks (any level),
  based on the fact that the count in a polydisk equals, in distribution,
  an independent sum of Bernoulli variables indexed by the multi-index
  lattice, with per-coordinate success probabilities p_n(R, m).

The routes overlap on the disk (D = 1), where ball and polydisk coincide,
and the overlap is what the verification suite cross-checks.

The p_n are computed from the exact integer expansion of
u^(n-m) L_m^(n-m)(u)^2 into monomials paired with regularized incomplete
gamma values.  The monomial coefficients alternate in sign and grow like
binom(n, m), so nothing is rounded before the sum: the incomplete gamma
values come from a ladder at elevated precision, each is read exactly as
mantissa times a power of two, and the whole sum is formed in integer
arithmetic.  The ladder runs on plain int pairs (M, e) whose every
operation truncates its exact result toward zero to the working
precision, bit for bit what mpmath's libmp gives at round_down; R^2 is
exact, and the seed exp(-R^2) is computed in integers too, so the runtime
needs numpy alone.  Each monomial's coefficient times the factorial it
integrates to, over m! n!, is an integer of degree m in n.  These
integers for successive n come from a forward-difference walk of one
packed polynomial, and each p_n's sum is one dot product of them with
integer weights, the signed ladder mantissas aligned to a common
exponent, that a block of successive n shares: no factorial weight and no
division.  The only rounding outside the ladder is the one to double on
the finished probability, and it is toward zero, subnormals included.
Below n + m = R^2 most p_n are certain: a Laguerre bound certifies
1 - p_n < 2^-55 there, so the assembly would return 1 - 2^-53 (p_n < 1 is
held one ulp below 1), and those indices take that value without it, bit
for bit; nor does the ladder sum its rungs below the first index assembled.
No level is out of range: one work budget, counted in level-0 indices,
refuses a spectrum or a p_n before its ladder is built when it would take
more than about 30 s.
"""

from __future__ import annotations

import enum
import math
from contextlib import suppress
from functools import lru_cache
from itertools import repeat
from math import comb, factorial, perm
from operator import itemgetter, mul
from typing import NamedTuple

import numpy as np

from .exceptions import (
    InternalConsistencyError,
    NumericalBudgetError,
    UnsupportedConfigurationError,
)
from .kernels import KernelSpec
from .specfun import (
    BESSEL_I_SERIES_CUTOFF,
    _HYP3F2_TERM_CAP,
    _check_dimension,
    _check_index,
    _check_positive,
    _check_radius,
    _checked_make,
    _count,
    bessel_i_scaled,
    bessel_j,
    hyp3f2_terminating,
)

# Work budget of the spectrum route, in level-0 indices; see _check_budget.
SPECTRUM_SIZE_CAP = 10_000_000
_TAIL_TOL = 1e-9  # default spectrum tail bound, shared by every route and the CLI
PROB_CONSISTENCY_BAND = 1e-12
# Largest n with n! below the double range: a float divided by a larger
# factorial always overflows, so past it the ball formulas skip to logs.
_FACTORIAL_MAX = 170
# Most Gauss-Legendre panels the integral route uses on [0, 13]: width
# pi/R holds through R ~ 16k, and wider panels answer to the error bound.
INTEGRAL_PANEL_CAP = 1 << 16
# Panels whose nodes the integral route evaluates at once: the lists of
# per-node Python floats that math.exp (and bessel_j's math.cos and math.sin)
# map over into np.fromiter, and the panel rows that fsum reads, hold one
# chunk at a time, ~6 MB.
_INTEGRAL_CHUNK_PANELS = 1 << 12


class WindowKind(enum.Enum):
    BALL = "ball"
    POLYDISK = "polydisk"


class Route(enum.Enum):
    CLOSED_FORM = "closed"
    INTEGRAL = "integral"
    SPECTRUM = "spectrum"
    MONTE_CARLO = "mc"


class _BernoulliSpectrumFields(NamedTuple):
    radius: float
    level: int
    probs: np.ndarray
    tail_bound: float


class BernoulliSpectrum(_BernoulliSpectrumFields):
    """Success probabilities of the Bernoulli representation on one coordinate.

    probs[n] is the probability attached to lattice index n at this radius
    and level; tail_bound certifies that the discarded indices contribute
    at most this much to the mean (and, since p <= 1, to the sum of
    squares as well).  Spectra compare and hash by identity.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, radius: float, level: int, probs: np.ndarray, tail_bound: float):
        if tail_bound < 0.0:
            raise ValueError("tail_bound must be >= 0")
        if len(probs) < level + 1:
            raise ValueError("spectrum truncated before its own level")
        return super().__new__(cls, radius, level, probs, tail_bound)

    @property
    def prob_sum(self) -> float:
        return math.fsum(self.probs.tolist())

    @property
    def prob_sq_sum(self) -> float:
        return math.fsum((self.probs * self.probs).tolist())


class _MomentReportFields(NamedTuple):
    mean: float
    variance: float
    ratio: float
    route: Route
    error_estimate: float


class MomentReport(_MomentReportFields):
    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, mean: float, variance: float, ratio: float, route: Route,
                error_estimate: float):
        slack = 1e-12 * mean + error_estimate
        if variance > mean + slack:
            raise InternalConsistencyError(
                f"variance {variance!r} exceeds mean {mean!r}"
            )
        return super().__new__(cls, mean, variance, ratio, route, error_estimate)


def mean_ball(dimension: int, radius: float) -> float:
    """Expected count in the ball of radius R: R^(2D) / D!, as
    exp(2D ln R - lgamma(D + 1)) where R^(2D) or D! leaves the double range.
    Raises OverflowError when the mean itself does."""
    dimension = _check_dimension(dimension)
    radius = _check_radius(radius)
    if dimension <= _FACTORIAL_MAX:
        with suppress(OverflowError):  # R^(2D) leaves the double range
            return radius ** (2 * dimension) / factorial(dimension)
    try:
        return math.exp(2 * dimension * math.log(radius) - math.lgamma(dimension + 1))
    except OverflowError:
        raise OverflowError(
            f"the ball mean at D={dimension}, R={radius:g} overflows double range"
        ) from None


def variance_ball_closed(dimension: int, radius: float) -> float:
    """Count variance in the ball via the scaled modified-Bessel sum.

    Var = (R^(2D)/D!) e^(-2R^2) sum_{n=0}^{D-1} [I_n(2R^2) + I_{n+1}(2R^2)],
    the mean times :func:`variance_ratio_ball`, which sums the scaled
    e^(-x) I_nu(x) with fsum, so nothing overflows through R ~ 200.
    """
    return mean_ball(dimension, radius) * variance_ratio_ball(dimension, radius)


def variance_ratio_ball(dimension: int, radius: float) -> float:
    """Var/mean for the ball window: the fsum of the closed form's Bessel terms.

    Past the series cutoff, order nu takes nu + 9.5 sqrt(2R^2) + 20 steps
    of Miller's recurrence, one order per nu <= D; more than
    _HYP3F2_TERM_CAP steps in all (about 30 s) raise NumericalBudgetError
    before the first.
    """
    dimension = _check_dimension(dimension)
    radius = _check_radius(radius)
    x = 2.0 * radius * radius
    if x >= BESSEL_I_SERIES_CUTOFF:
        # sqrt(2) R, as 2R^2 overflows from R ~ 1.34e154
        steps = (dimension + 1) * (9.5 * math.sqrt(2.0) * radius + 20 + dimension / 2)
        if steps > _HYP3F2_TERM_CAP:
            raise NumericalBudgetError(
                f"the closed ball route at D={dimension}, R={radius:g} takes "
                f"{steps:.3g} Bessel recurrence steps, past the step cap {_HYP3F2_TERM_CAP}"
            )
    scaled = [bessel_i_scaled(n, x) for n in range(dimension + 1)]
    return math.fsum(scaled[n] + scaled[n + 1] for n in range(dimension))


# ---------------------------------------------------------------------------
# Integral route


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _integral_tol(dimension: int, radius: float) -> float:
    """Absolute error target of the integral-route variance."""
    scale = mean_ball(dimension, radius) * min(1.0, dimension / radius)
    return max(1e-13, 1e-9 * scale)


def _panel_count(radius: float) -> int:
    """Gauss-Legendre panels of the integral route on [0, 13]."""
    return min(max(math.ceil(13.0 * radius / math.pi), 16), INTEGRAL_PANEL_CAP)


def _panel_bounds(dimension: int, radius: np.ndarray, mid: np.ndarray, half: np.ndarray):
    """Bounds on the 12-point rule's error on each panel [mid - half, mid + half]
    of int J_D(kR)^2 / k e^(-k^2/4) dk, R = radius per panel.

    Mapped to t in [-1, 1], the integrand f(mid + half t) is entire.  On
    the Bernstein ellipse E_rho, semi-axes a, b = (rho +- 1/rho)/2, where
    |f| <= M, the (n + 1)-point Gauss rule errs by at most
    (64/15) M rho^-2n / (rho^2 - 1) (Trefethen, SIAM Rev. 50 (2008),
    Thm 4.5), here with n = 11; on the panel, the half-width times that.
    (The rule is exact to degree 2n + 1 = 23, and rho^-24 in place of
    rho^-22 fails: the panel [0, 13/16] at D = 1, R = 1e-3 errs by about
    90 times that figure.)  E_rho maps to points z with
    |Im z| <= y = half b and x0 <= |Re z| <= |z| <= x1, x0 = max(mid - half a, 0),
    x1 = mid + half a.  For integer D, |J_D(w)| <= I_0(|Im w|) (from
    J_D(w) = (1/pi) int_0^pi cos(D t - w sin t) dt) and
    e^-s I_0(s) = (1/pi) int_0^pi e^(-2s sin^2(t/2)) dt <= sqrt(pi/(8s))
    (sin(t/2) >= t/pi), so |J_D(zR)|^2 <= c e^(2Ry), c = min(1, pi/(8Ry)).
    DLMF 10.14.4 gives |J_D(w)| <= |w/2|^D e^|Im w| / D! as well, so with
    r = |z| and r* = 2 (D!)^(1/D) / R,
    |J_D(zR)|^2 / r <= e^(2Ry) min(c, (r/r*)^(2D)) / r.  That rises in r up to
    r* c^(1/(2D)) and falls past it, so its largest value on [x0, x1] is at
    that point clipped to the range.  With |e^(-z^2/4)| <= e^((y^2 - x0^2)/4),
    each panel's bound is one exponential.  Any rho > 1 gives a bound; each
    panel takes the rho that minimizes 2Rhb + (hb)^2/4 - 24 ln rho with
    b ~ rho/2 (h = half; 24 ln rho stands for rho^22 (rho^2 - 1)), at least
    2.  Every array is one value per panel.
    """
    grow = radius * half  # 2Rhb = grow (rho - 1/rho)
    rho = np.maximum(48.0 / (grow + np.sqrt(grow * grow + 12.0 * half * half)), 2.0)
    y = 0.5 * half * (rho - 1.0 / rho)  # half b
    reach = half * rho - y  # half a
    x0 = np.maximum(mid - reach, 0.0)
    ry = radius * y
    log_c = np.minimum(math.log(math.pi / 8.0) - np.log(ry), 0.0)
    log_star = math.lgamma(dimension + 1.0) / dimension + math.log(2.0) - np.log(radius)
    log_r = np.log(np.clip(np.exp(log_star + log_c / (2 * dimension)), x0, mid + reach))
    log_m = 2.0 * ry + 0.25 * (y * y - x0 * x0)
    log_m += np.minimum(2.0 * dimension * (log_r - log_star), log_c) - log_r
    log_m += np.log(64.0 / 15.0 * half) - 22.0 * np.log(rho) - np.log(rho * rho - 1.0)
    return np.exp(log_m)


def _integral_batch(
    dimension: int, radii: list[float], counts: list[int], means: list[float]
) -> list[float]:
    """Integral-route variances at radii, with ball means `means`, on counts
    panels each, from one bessel_j call per _INTEGRAL_CHUNK_PANELS panels.

    Each radius's error is its prefactor times the sum of _panel_bounds over
    its panels plus the cutoff bound: a proof, not a comparison with a
    second rule, so it costs no Bessel value.  It covers the quadrature and
    the cutoff, not the rounding of the node values and of the sums.
    """
    # 12-point Gauss-Legendre on each radius's panels, radius after radius
    edges = [np.linspace(0.0, 13.0, count + 1) for count in counts]
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    panel_radius = np.repeat(radii, counts)
    values = []
    for first in range(0, half.size, _INTEGRAL_CHUNK_PANELS):
        part = slice(first, first + _INTEGRAL_CHUNK_PANELS)
        kappa = (mid[part, None] + half[part, None] * _GL_NODES).ravel()
        j = bessel_j(dimension, kappa * np.repeat(panel_radius[part], _GL_NODES.size))
        damp = np.fromiter(map(math.exp, (-0.25 * kappa * kappa).tolist()), float, kappa.size)
        weighted = _GL_WEIGHTS * (j * j / kappa * damp).reshape(-1, _GL_NODES.size)
        values += [h * math.fsum(row) for h, row in zip(half[part].tolist(), weighted.tolist())]
    with np.errstate(over="ignore"):  # past e^709 a panel's bound is inf
        bounds = _panel_bounds(dimension, panel_radius, mid, half).tolist()
    cutoff_bound = math.exp(-0.25 * 13.0**2) * 2.0 / 13.0**2
    out, start = [], 0
    for radius, count, mean in zip(radii, counts, means):
        fine = math.fsum(values[start : start + count])
        # each panel's exponent is good to ~1e-12: 1 + 2^-26 covers that
        quad_bound = (1.0 + 2.0**-26) * math.fsum(bounds[start : start + count])
        start += count
        prefactor = 2.0 * dimension * mean  # used where a factor leaves the double range
        if dimension - 1 <= _FACTORIAL_MAX:
            with suppress(OverflowError):
                prefactor = 2.0 * radius ** (2 * dimension) / factorial(dimension - 1)
        achieved = prefactor * (quad_bound + cutoff_bound)
        out.append(mean - prefactor * fine)
        tol = _integral_tol(dimension, radius)
        if achieved > tol:
            raise NumericalBudgetError(
                f"variance integral achieved {achieved:.3e} (target {tol:.3e})",
                best_estimate=out[-1],
                achieved_error=achieved,
            )
    return out


def variance_ball_integral(dimension: int, radius):
    """Count variance in the ball via the Gaussian-damped Bessel integral.

    The structure-factor integral
    Var = P * int_0^inf J_D(kR)^2 / k * (1 - e^(-k^2/4)) dk, P = 2 R^(2D)/(D-1)!,
    has an undamped part P * int_0^inf J_D(kR)^2 / k dk = P/(2D) = mean
    (Weber-Schafheitlin, DLMF 10.22), so
    Var = mean - P * int_0^inf J_D(kR)^2 / k * e^(-k^2/4) dk.
    The remaining integrand decays like a Gaussian: cut at k = 13, where
    |J_D| <= 1 bounds the discarded part by e^(-169/4) * 2/169.  On [0, 13]
    it runs through equal 12-point Gauss-Legendre panels, ceil(13 R/pi) of
    them (one per half-period of J_D(kR)^2) but at least 16 (the Gaussian's
    own scale, at small R).  The error is bounded, not estimated: on each
    panel the integrand is entire, and the Gauss rule's error follows from
    a bound on it over a Bernstein ellipse (Trefethen, SIAM Rev. 50 (2008),
    Thm 4.5), with |J_D(w)| <= I_0(|Im w|) and DLMF 10.14.4 for J_D; see
    _panel_bounds.  The bound sums these over the panels, plus the cutoff
    bound, and no second rule is run.  At most INTEGRAL_PANEL_CAP panels
    bound time and memory at large R; past R ~ 16k the panels widen and the
    bound decides: it holds the target through R ~ 23k at D = 1 and ~24.5k
    at D = 20, and refuses R = 32k.

    ``radius`` is a float or a 1-D sequence of radii; the result is of the
    same kind.  Consecutive radii of a sequence share bessel_j calls, as
    long as the batch holds no more nodes than the request's largest radius
    needs alone, so no call is larger than that radius's own; a call takes
    at most _INTEGRAL_CHUNK_PANELS panels, which bounds the per-node floats
    held at once.  Every panel
    keeps its own fsum, so each variance is bit for bit the one its radius
    gets alone.

    The absolute error target is max(1e-13, 1e-9 mean min(1, D/R)); if the
    bound does not meet it, NumericalBudgetError carries the best estimate
    and the bound.  A sequence checks every radius and its mean before any
    quadrature, so an invalid one raises first; of a valid grid, the first
    radius that misses its target raises.
    Independent of the closed form: J rather than I Bessel functions,
    quadrature rather than a finite sum.
    """
    dimension = _check_dimension(dimension)
    radii, many = _radii(radius)
    # an overflowing mean raises before any quadrature
    means = [mean_ball(dimension, r) for r in radii]
    sizes = [_panel_count(r) for r in radii]
    cap = max(sizes, default=0)
    out, first, held = [], 0, 0
    for i, size in enumerate(sizes):
        if held + size > cap:
            out += _integral_batch(dimension, radii[first:i], sizes[first:i], means[first:i])
            first, held = i, 0
        held += size
    if radii:
        out += _integral_batch(dimension, radii[first:], sizes[first:], means[first:])
    return np.array(out) if many else out[0]


def _radii(radius) -> tuple[list[float], bool]:
    """Checked radii from a float or a 1-D sequence, and whether it was one."""
    ndim = np.ndim(radius)
    if ndim > 1:
        raise ValueError("radius must be a float or a 1-D sequence")
    return [_check_radius(r) for r in (radius if ndim else [radius])], bool(ndim)


# ---------------------------------------------------------------------------
# Spectrum route


def _working_prec(level: int, max_index: int) -> int:
    cancellation_bits = level * max(1, math.ceil(math.log2(max(max_index, 2))))
    return 96 + cancellation_bits


def _trunc(man: int, exp: int, prec: int) -> tuple[int, int]:
    """man 2^exp (man >= 0) truncated toward zero to a prec-bit mantissa.

    The ladder's values are such pairs (M, e), and each of its operations
    truncates its exact result so, as libmp does at round_down."""
    shift = man.bit_length() - prec
    return (man >> shift if shift >= 0 else man << -shift), exp + shift


def _sub(a, b, prec: int) -> tuple[int, int]:
    """a - b for a > b > 0, so a's exponent is at least b's."""
    gap = a[1] - b[1]
    if gap > prec + 4:
        # b is under 2^-4 of a's last kept bit, where every b truncates
        # alike: one unit far below that bit stands in for it (libmp's
        # sticky bit), not a shift of a by the whole gap
        return _trunc((a[0] << (prec + 4)) - 1, a[1] - prec - 4, prec)
    return _trunc((a[0] << gap) - b[0], b[1], prec)


@lru_cache(maxsize=32)
def _ln2(bits: int) -> int:
    """ln 2 in `bits` fraction bits, under 2 units low: 2 atanh(1/3)."""
    guard = bits.bit_length() + 8
    power, total, i = (1 << (bits + guard)) // 3, 0, 1
    while power:
        total += power // i
        power //= 9
        i += 2
    return (2 * total) >> guard


def _exp_neg(man: int, exp: int, prec: int) -> tuple[int, int]:
    """e^(-x), x = man 2^exp > 0, truncated toward zero to exactly prec bits.

    With x = k ln 2 + r, e^(-r) is the alternating Taylor series in fixed
    point with s = prec + guard fraction bits.  A floored term is short by
    at most 2 units of 2^-s, and r is off by at most 2k + 1 units of its
    finer scale.  When both ends of the error interval truncate alike, so
    does e^(-x); else the guard doubles.  e^(-x) is never dyadic for x > 0.
    """
    top = man.bit_length() + exp  # x < 2^top
    if top <= -prec:
        return (1 << prec) - 1, -prec  # 1 - 2^-prec < 1 - x < e^(-x) < 1
    guard = 32
    while True:
        s = prec + guard
        w = s + max(top, 0) + 2  # fraction bits of the reduction: 2k < 2^(w-s)
        wide = -(-w // 256) * 256  # one cached ln 2 serves nearby w
        fixed = man << (exp + w) if exp + w >= 0 else man >> -(exp + w)
        k, r = divmod(fixed, _ln2(wide) >> (wide - w))
        r_err = ((2 * k + 1) >> (w - s)) + 2  # in units of 2^-s
        r >>= w - s
        term, total, n = 1 << s, 1 << s, 0
        while term:
            n += 1
            term = term * r // (n << s)
            total += -term if n & 1 else term
        err = 2 * n + r_err + 4  # e^(-r) has slope ~1: r's error passes through
        lo = _trunc(total - err, -s - k, prec)
        if lo == _trunc(total + err, -s - k, prec):
            return lo
        guard *= 2


def _to_float(num: int, exp: int) -> float:
    """num 2^exp truncated toward zero to a double: to 53 bits, and below
    2^-1022 to the bits a subnormal keeps, down to 2^-1074.  Above 2^-1022
    this is libmp's to_float of mpf_pos(..., 53, round_down)."""
    if num < 0:
        return -_to_float(-num, exp)
    drop = num.bit_length() - 53
    if exp + drop < -1074:
        drop = -1074 - exp
    if drop > 0:
        num >>= drop
        exp += drop
    return math.ldexp(num, exp)  # exact: at most 53 bits, none below 2^-1074


class _GammaLadder:
    """P(j+1, R^2) for j = 0..N at fixed binary precision.

    With t_j = r^j e^(-r)/j!, each extension sums the positive terms
    P(j+1) = t_(j+1) + P(j+2) backward from the remainder past its top: a
    series when the top lies past the Poisson mode, else the complement of
    the terms below it, which is then at least 1/2.  No ladder value comes
    from a subtraction that can lose relative accuracy, so every one is good
    to ~N ulps of its own size, near 1 and deep in the tail alike.

    Rungs are (M, e) int pairs, and every step truncates toward zero as
    _trunc does, so every rung equals, bit for bit, what the same steps give
    in libmp at round_down.  R^2 is exact, the square of the radius's 53-bit
    mantissa, and the seed e^(-R^2) is truncated toward zero by _exp_neg.

    The first extension sums backward only down to its floor, the lowest
    rung a reader needs, and always sums the top rung, where a later
    extension's complement starts; rungs below `low` keep their terms t_(j+1).
    The forward terms still run from j = 0, as every rung's bits depend on
    them, and the summed rungs are those of a full sum, bit for bit.  A later
    extension sums every rung it adds.
    """

    def __init__(self, radius: float, prec: int):
        self.radius, self.prec = radius, prec
        num, den = float(radius).as_integer_ratio()  # den is a power of two
        self.rsq = num * num, 2 - 2 * den.bit_length()  # R^2 exactly, as (M, e)
        self._term = _exp_neg(*self.rsq, prec)  # t_(len(_p))
        self._p = []
        self.low = 0

    def extend(self, j_max: int, floor: int = 0) -> None:
        prec, p = self.prec, self._p
        num, r_exp = self.rsq
        start, first = len(p), self._term
        if start > j_max:
            return
        if not start:
            self.low = max(min(floor, j_max), 0)
        stop = start or self.low  # the backward sum's last rung
        # p[j] holds t_(j+1) until the backward sum replaces it with P(j+1).
        # A step truncates the exact product with R^2 = num 2^r_exp to prec
        # bits, then the quotient by k, of prec or prec + 1 bits, again.
        man, exp = first
        k = start + 1
        while k <= j_max + 1:  # in runs of k of one bit length
            bits = k.bit_length()
            for k in range(k, min(1 << bits, j_max + 2)):
                man *= num
                shift = man.bit_length() - prec
                man = ((man >> shift) << bits) // k
                drop = man.bit_length() - prec
                man >>= drop
                exp += r_exp + shift - bits + drop
                p.append((man, exp))
            k += 1
        term = self._term = p[-1]
        if (j_max + 3) << -r_exp <= num:
            # Below the Poisson mode the remainder P(j_max + 2) is at least
            # 1/2 (the median exceeds R^2 - ln 2), so its complement loses
            # nothing and costs only the terms at hand, where the series
            # would run through the mode on integers of ~R^2 bits.
            acc = p[start - 1] if start else (1 << (prec - 1), 1 - prec)  # P(0) = 1
            for t in (first, *p[start:]):
                acc = _sub(acc, t, prec)
        else:
            # sum_(k > K) t_k = t_K sum_(i >= 1) prod_(l <= i) r^2/(K + l)
            # with K = j_max + 1 > R^2 - 2, the sum in integers with
            # prec + 16 fraction bits; past the first factor (below 2) the
            # factors are below 1, so a product under one unit stays so.
            scale = prec + 16
            frac, total, k = 1 << scale, 0, j_max + 1
            while frac:
                k += 1
                frac = (frac * num >> -r_exp) // k
                total += frac
            acc = _trunc(term[0] * total, term[1] - scale, prec)
        # An addend wholly below the other's last kept bit (gap >= prec)
        # leaves the other as it is.
        acc_man, acc_exp = acc
        for j in range(j_max, stop - 1, -1):
            man, exp = p[j]
            gap = exp - acc_exp
            if not acc_man or gap >= prec:
                acc_man, acc_exp = man, exp
            elif gap > -prec:
                if gap >= 0:
                    man, exp = (man << gap) + acc_man, acc_exp
                else:
                    man = (acc_man << -gap) + man
                shift = man.bit_length() - prec
                acc_man, acc_exp = man >> shift, exp + shift
            p[j] = (acc_man, acc_exp)


# Indices per block of shared ladder weights in _assemble_probs: the weights
# cost about 2m/_BLOCK + 1 shifts of ladder mantissas per index on top of
# each index's 2m + 1 products; the block size touches no output bit.  On
# the spectrum-sweep benchmark 32 ran 1.6% faster than 16 (5 of 5 runs) and
# 4% faster than 8 (10 s runs); 64 was within the spread of repeated runs.
_BLOCK = 32


def _seed_coeffs(m: int, n: int, slot: int) -> int:
    """A(n) = sum_k a_k(n) X^k packed with X = 2^(8 slot), for m >= 1.

    a_k(n) = d_k(n) j!/(m! n!), j = n - m + k, where d = c * c and
    c_i = binom(n, m-i) m!/i!, is the integer
    sum_i binom(m, k-i) binom(n, m-i) binom(j, i), 0 when j < 0.  It is
    formed from the packed square of the c_i (Kronecker substitution) by one
    exact division per slot by m! n!/b!, b = max(n - m, 0), after d_k takes
    the factor j!/b!; a remainder raises InternalConsistencyError.
    """
    m_fact = factorial(m)
    c = [comb(n, m - i) * (m_fact // factorial(i)) for i in range(m + 1)]
    size = (2 * max(c).bit_length() + (m + 1).bit_length() + 7) // 8  # d_k <= (m + 1) max(c)^2
    packed = int.from_bytes(b"".join(ci.to_bytes(size, "little") for ci in c), "little")
    squared = (packed * packed).to_bytes((2 * m + 1) * size, "little")
    b = max(n - m, 0)
    denom = m_fact * perm(n, n - b)
    fact, out = 1, []  # j!/b!
    for k in range(2 * m + 1):
        j = n - m + k
        if j > b:
            fact *= j
        d = int.from_bytes(squared[k * size : (k + 1) * size], "little")
        a, rest = divmod(d * fact, denom)
        if rest:
            raise InternalConsistencyError(f"a_{k}(n) at n={n}, level {m} is not an integer")
        out.append(a.to_bytes(slot, "little"))
    return int.from_bytes(b"".join(out), "little")


def _assemble_probs(m: int, ladder: _GammaLadder, n_lo: int, n_hi: int) -> list[float]:
    """p_n at level m for n = n_lo..n_hi from the ladder, one rounding each.

    Reading each ladder value exactly as P_j = M_j 2^e_j, p_n is
    sum_k (-1)^k a_k(n) M_j 2^e_j over j = n-m+k >= 0, with the integer
    coefficients a_k(n) of _seed_coeffs: (m!/n!) times the coefficients of
    u^(n-m) L_m^(n-m)(u)^2, each times the j! its monomial integrates to.
    Packed into one integer, A(n) = sum_k a_k(n) X^k is a polynomial of
    degree m in n, walked by forward differences from m + 1 seeds: each
    further index costs m big-int adds, and n < m needs no care, as the
    slots with j < 0 hold 0 there.  The indices go in blocks of _BLOCK that
    share one integer weight per ladder value,
    H_j = (-1)^j M_j 2^(e_j - e_min), with e_min the least exponent in the
    block's window (zero weights stand for j < 0).  Since
    (-1)^k = (-1)^(n-m) (-1)^j, each index's sum S = (-1)^(n-m) sum_k a_k
    H_(n-m+k) is one dot product of the unpacked A(n) with a slice of the
    weights, and p_n = S 2^e_min is rounded once, toward zero, to 53 bits.
    p_n < 1 at every finite R, so the result is held to [0, 1 - 2^-53].
    That is what every index does whose 1 - p_n _log_defect_bound certifies
    below 2^-55, so the indices before the first one it does not certify,
    n0 (the bound rises with n: bisection finds it), take 1 - 2^-53
    unassembled.  The ladder is extended to n_hi + m here, and as no p_n
    reads a rung below n0 - m, its backward sum stops there.
    """
    n0 = _first_uncertain(m, ladder.radius, n_lo, n_hi)
    ladder.extend(n_hi + m, n0 - m)
    if n0 <= n_hi and max(n0 - m, 0) < ladder.low:
        raise InternalConsistencyError(f"p_{n0} reads ladder rungs below {ladder.low}, not summed")
    rungs, raws = ladder._p, []
    if m == 0:
        raws = [_to_float(man, exp) for man, exp in rungs[n0 : n_hi + 1]]
    elif n0 <= n_hi:
        # sum_k a_k(n) <= 2^m binom(2n + m, m) (binom(j, i) <= binom(n + m, i),
        # then Vandermonde), which rises with n: the slots fit every A(n) to
        # n_hi.  Only A(n) itself is unpacked; its differences may borrow.
        slot = (m + comb(2 * n_hi + m, m).bit_length() + 7) // 8
        diffs = [_seed_coeffs(m, n, slot) for n in range(n0, min(n_hi, n0 + m) + 1)]
        order = len(diffs) - 1
        for k in range(1, order + 1):
            for i in range(order, k - 1, -1):
                diffs[i] -= diffs[i - 1]
        span = 2 * m + 1
        width = span * slot
        slots = itemgetter(*[slice(k * slot, (k + 1) * slot) for k in range(span)])
        little = repeat("little")
        for lo in range(n0, n_hi + 1, _BLOCK):
            end = min(lo + _BLOCK, n_hi + 1)
            base = max(lo - m, 0)
            window = rungs[base : end + m]
            e_min = min([exp for _, exp in window])
            weights = [0] * (base - lo + m)  # j = lo - m .. base - 1
            weights += [
                -(man << (exp - e_min)) if j & 1 else man << (exp - e_min)
                for j, (man, exp) in enumerate(window, base)
            ]
            for w, n in enumerate(range(lo, end)):
                packed = diffs[0].to_bytes(width, "little")
                for i in range(order):
                    diffs[i] += diffs[i + 1]
                a = map(int.from_bytes, slots(packed), little)
                total = sum(map(mul, a, weights[w : w + span]))
                raws.append(_to_float(-total if (n - m) & 1 else total, e_min))
    probs = np.array(raws)
    bad = ~((probs >= -PROB_CONSISTENCY_BAND) & (probs <= 1.0 + PROB_CONSISTENCY_BAND))
    if bad.any():
        i = int(bad.argmax())
        raise InternalConsistencyError(
            f"p_{n0 + i} at level {m} evaluated to {raws[i]!r}, outside [0, 1]"
        )
    return [1.0 - 2.0**-53] * (n0 - n_lo) + np.clip(probs, 0.0, 1.0 - 2.0**-53).tolist()


# Natural log of 2^-1138: a p_n certified below it lies 64 binary orders
# under the smallest subnormal, so the assembly would return 0.0 for it
# whatever the few-ulp rounding of lgamma and log in the bound.
_LOG_UNDERFLOW = -1138 * math.log(2.0)


def _log_prob_bound(n: int, m: int, radius: float) -> float:
    """log of an upper bound on p_n(R, m), from Szego's Laguerre bound.

    p is symmetric, so take n >= m.  |L_m^(n-m)(u)| <= C(n, m) e^(u/2) for
    u >= 0 (Szego, Orthogonal Polynomials, 7.21.3) turns the integrand into
    at most C(n, m)^2 u^(n-m), so p_n <= (m!/n!) C(n, m)^2 R^(2k) / k with
    k = n - m + 1, which is n! R^(2k) / (m! (n - m)!^2 k).
    """
    n, m = max(n, m), min(n, m)
    k = n - m + 1
    return (
        math.lgamma(n + 1) - math.lgamma(m + 1) - 2.0 * math.lgamma(k)
        + 2.0 * k * math.log(radius) - math.log(k)
    )


# Natural log of 2^-55: a 1 - p_n certified below it puts p_n in
# (1 - 2^-54, 1), where the assembly, exact to far below 2^-54, truncates
# and clamps every value to 1 - 2^-53.
_LOG_SATURATED = -55 * math.log(2.0)


def _log_defect_bound(n: int, m: int, radius: float) -> float:
    """log of an upper bound on 1 - p_n(R, m); inf unless n + m < R^2.

    With a = max(n, m), b = min(n, m) and u >= R^2 > a, the coefficients of
    L_b^(a-b) bounded term by term (C(a, b-i) <= a^(b-i)/(b-i)!) give
    |L_b^(a-b)(u)| <= (u + a)^b/b! <= (2u)^b/b!.  So with k = a + b,
    1 - p_n = (b!/a!) int_(R^2)^inf u^(a-b) e^(-u) L^2 du is at most
    4^b C(k, b) P(Poisson(R^2) <= k) <= 4^b C(k, b) e^(-R^2) (e R^2/k)^k
    (Chernoff).  The bound falls as R^2 grows, so R^2 is rounded down; its
    log is 2 log R, as the double R^2 overflows from R = 2^512.  Each term
    is off by a few ulps of its own size: 2^-40 of their total covers that.
    """
    a, b = max(n, m), min(n, m)
    k = a + b
    rsq = math.nextafter(radius * radius, 0.0)
    if not k < rsq:
        return math.inf
    log_rsq = 2.0 * math.log(radius)
    log_k = math.log(k) if k else 0.0
    terms = (
        b * math.log(4.0), math.lgamma(k + 1), -math.lgamma(a + 1), -math.lgamma(b + 1),
        k - rsq, k * (log_rsq - log_k),
    )
    size = sum(map(abs, terms[:4])) + rsq + k * (1.0 + abs(log_rsq) + log_k)
    return sum(terms) + 2.0**-40 * size


def _first_uncertain(m: int, radius: float, n_lo: int, n_hi: int) -> int:
    """Least n in [n_lo, n_hi] that _log_defect_bound leaves uncertified,
    n_hi + 1 if none: the bound rises with n, so bisect."""
    while n_lo <= n_hi:
        mid = (n_lo + n_hi) // 2
        if _log_defect_bound(mid, m, radius) < _LOG_SATURATED:
            n_lo = mid + 1
        else:
            n_hi = mid - 1
    return n_lo


def _check_budget(indices: int, level: int, radius: float, what: str = "spectrum") -> None:
    """Raise NumericalBudgetError when `indices` p_n at `level` weigh more
    than SPECTRUM_SIZE_CAP level-0 indices.

    An index at level m weighs w(m) = (m + 1)(1 + (m/24)^2) level-0 ones:
    3 us w(m) bounds build_spectrum's time per index from above, within a
    factor of 6 (0.75 to 1.0 us at level 0, 12 to 15 us at 16, 52 to 63 us
    at 32 and 0.48 to 0.55 ms at 64, CPU time at R = 10 and 20 on a 2-core
    VM), so the cap stands for at most about 30 s of work at any level.
    The count includes the indices that the saturation certificate spares
    the assembly (over half of them from R ~ 50), so the bound errs further
    high as R grows.
    """
    work = indices * (level + 1) * (576 + level * level)  # 576 w(m) per index
    if work > 576 * SPECTRUM_SIZE_CAP:
        weighed = f" at level {level} ({_count(work // 576)} at level 0)" if level else ""
        raise NumericalBudgetError(
            f"{what} needs {_count(indices)} indices{weighed} at radius {radius:g}, "
            f"past the size cap {SPECTRUM_SIZE_CAP}"
        )


def bernoulli_prob(n: int, m: int, radius: float) -> float:
    """Success probability p_n(R, m) of lattice index n at level m.

    Equals (m!/n!) int_0^(R^2) u^(n-m) e^(-u) [L_m^(n-m)(u)]^2 du, evaluated
    in closed form: the integrand expands exactly into monomials, each
    integrating to a factorial times a regularized incomplete gamma.  p is
    symmetric in (n, m), so it is assembled at the lower of the two levels.
    Clamped to [0, 1 - 2^-53]; a value outside [0, 1] by more than the
    1e-12 consistency band raises InternalConsistencyError instead.
    Returns 0.0 without a ladder when Szego's bound certifies that p_n
    rounds to it, and 1 - 2^-53, as the assembly would, when
    _log_defect_bound certifies 1 - p_n < 2^-55 (only for n + m < R^2).
    Otherwise the work budget (see _check_budget) counts the n + m ladder
    rungs as level-0 indices and the one assembly as an index at the lower
    level, and raises NumericalBudgetError, before the ladder, when either
    passes it.  The ladder sums only the 2m + 1 rungs the assembly reads.
    """
    n, m = _check_index("n", n), _check_index("m", m)
    radius = _check_radius(radius)
    n, m = max(n, m), min(n, m)
    try:
        if _log_prob_bound(n, m, radius) < _LOG_UNDERFLOW:
            return 0.0
        if _log_defect_bound(n, m, radius) < _LOG_SATURATED:
            return 1.0 - 2.0**-53
    except OverflowError:  # n past the double range: the budget answers
        pass
    _check_budget(n + m, 0, radius, f"p_{_count(n)} at level {m}")
    _check_budget(1, m, radius, f"p_{_count(n)}")
    return _assemble_probs(m, _GammaLadder(radius, _working_prec(m, n + m)), n, n)[0]


def _initial_truncation(radius: float, level: int) -> int:
    # from R = 2^512 (~1.34e154) the double R^2 overflows; ceil(R)^2 stands in
    rsq = radius * radius if radius < 2.0**512 else math.ceil(radius) ** 2
    return max(level, math.ceil(rsq) + 12 * math.ceil(radius) + 50)


def build_spectrum(m: int, radius: float, tail_tol: float = _TAIL_TOL) -> BernoulliSpectrum:
    """All Bernoulli probabilities at one level, with a certified tail bound.

    The mean constraint sum_n p_n = R^2 (all levels share unit intensity
    over pi) plus monotone partial sums certify the truncation: the tail
    bound is R^2 minus the partial sum, rounded up, extended until it drops
    below tail_tol.  Raises NumericalBudgetError when the indices at hand
    pass the work budget (see _check_budget), checked before the ladder is
    built and before each extension, and when an extension no longer
    shrinks the bound: a tail_tol below the rounding of the sum cannot be
    certified.
    """
    m = _check_index("m", m)
    radius = _check_radius(radius)
    tail_tol = _check_positive("tail_tol", tail_tol)

    n_top = _initial_truncation(radius, m)
    _check_budget(n_top, m, radius)
    ladder = _GammaLadder(radius, _working_prec(m, n_top + 2 * m + 64))
    probs = _assemble_probs(m, ladder, 0, n_top)
    mean = _to_float(*ladder.rsq)
    # R^2 - sum p_n exceeds mean - fsum(probs) by less than the roundings of
    # R^2 (down), of the sum and of the difference: two ulps of the mean.
    slack = 2.0 * math.ulp(mean)
    previous = math.inf
    while True:
        tail = mean - math.fsum(probs) + slack
        if tail <= tail_tol:
            break
        # The p_n decay past the bulk, so an extension that leaves the
        # rounded sum unchanged means no later one can reach tail_tol.
        if tail >= previous:
            raise NumericalBudgetError(
                f"spectrum tail bound {tail:.3e} stuck above the target "
                f"{tail_tol:.3e} at {len(probs)} indices",
                achieved_error=tail,
            )
        previous = tail
        grow = max(64, math.ceil(radius))
        _check_budget(len(probs) + grow, m, radius)
        probs.extend(_assemble_probs(m, ladder, n_top + 1, n_top + grow))
        n_top += grow
    return BernoulliSpectrum(
        radius=radius,
        level=m,
        probs=np.array(probs, dtype=float),
        tail_bound=max(tail, 0.0),
    )


@lru_cache(maxsize=128)
def _cached_spectrum(m: int, radius: float, tail_tol: float) -> BernoulliSpectrum:
    return build_spectrum(m, radius, tail_tol)


def polydisk_moments(
    spec: KernelSpec, radius: float, tail_tol: float = _TAIL_TOL
) -> MomentReport:
    """Exact count moments in the polydisk of common radius R.

    With S_l = sum_n p_n and Q_l = sum_n p_n^2 per coordinate,
    mean = prod S_l, variance = prod S_l - prod Q_l, and the ratio uses
    the cancellation-free form 1 - prod(Q_l / S_l), NaN if some S_l is 0.
    """
    radius = _check_radius(radius)
    spectra = [_cached_spectrum(m, radius, tail_tol) for m in spec.level]
    sums = [s.prob_sum for s in spectra]
    sq_sums = [s.prob_sq_sum for s in spectra]
    mean = math.prod(sums)
    variance = mean - math.prod(sq_sums)
    ratio = 1.0 - math.prod(q / s if s else math.nan for q, s in zip(sq_sums, sums))
    tail_err = sum(
        spectra[l].tail_bound * math.prod(sums[:l] + sums[l + 1 :])
        for l in range(len(spectra))
    )
    return MomentReport(
        mean=mean,
        variance=variance,
        ratio=ratio,
        route=Route.SPECTRUM,
        error_estimate=2.0 * tail_err + 1e-14 * mean,
    )


def ball_moments(dimension: int, radius, route: Route = Route.CLOSED_FORM):
    """Mean/variance/ratio for the ball window of the level-zero process;
    the ratio is NaN when the mean underflows to 0.

    ``radius`` is a float or a 1-D sequence, and the result a MomentReport
    or a list of them, each bit for bit the one its radius gets alone.  All
    radii are checked first; on the integral route a sequence goes to
    variance_ball_integral whole, to share bessel_j calls.
    """
    route = Route(route)
    if route not in (Route.CLOSED_FORM, Route.INTEGRAL):
        raise UnsupportedConfigurationError(
            f"route {route.value!r} does not apply to the ball closed forms"
        )
    dimension = _check_dimension(dimension)
    radii, many = _radii(radius)
    if route == Route.CLOSED_FORM:
        variances = [variance_ball_closed(dimension, r) for r in radii]
    else:
        variances = variance_ball_integral(dimension, radii).tolist()
    reports = []
    for r, variance in zip(radii, variances):
        mean = mean_ball(dimension, r)
        ratio = variance / mean if mean else math.nan
        err = 1e-12 * variance if route == Route.CLOSED_FORM else _integral_tol(dimension, r)
        reports.append(MomentReport(mean, variance, ratio, route, err))
    return reports if many else reports[0]


# ---------------------------------------------------------------------------
# Class-I constants


def c_constant(m: int) -> float:
    """Exact Class-I constant of the level-m disk process.

    C(m) = (2 Gamma(m + 3/2) / (pi m!)) 3F2(-1/2, -1/2, -m; 1, -1/2 - m; 1),
    the limit of R * Var/mean as R -> inf.  The gamma ratio runs through
    log-gamma so large m cannot overflow.  A level past
    _HYP3F2_TERM_CAP (C(m) sums m terms) raises NumericalBudgetError
    before the sum.
    """
    m = _check_index("m", m)
    if m > _HYP3F2_TERM_CAP:
        raise NumericalBudgetError(
            f"C({_count(m)}) sums {_count(m)} terms of its 3F2, "
            f"past the level cap {_HYP3F2_TERM_CAP}"
        )
    prefactor = 2.0 * math.exp(math.lgamma(m + 1.5) - math.lgamma(m + 1.0)) / math.pi
    return prefactor * hyp3f2_terminating(-0.5, -0.5, m, 1.0, -0.5 - m)


def polydisk_limit_constant(spec: KernelSpec) -> float:
    """Limit of R * Var/mean for the polydisk: one C(m_l) per coordinate."""
    return math.fsum(c_constant(m) for m in spec.level)
