"""Stochastic verification of polydisk counts via the Bernoulli dual.

The polydisk count equals, in distribution, a sum of independent
Bernoulli variables, one per multi-index cell n, with success parameter
prod_l p_{n_l}.  Sampling that sum directly (no point configurations, no
matrix diagonalization) gives an estimator whose mean and variance can be
checked against the exact spectrum route.

Cells with parameter below ``cell_prob_floor`` are pooled into a single
binomial draw whose per-trial probability is the pooled mean divided by
the pooled cell count, which preserves the aggregate mean exactly.

The kept cells are split by q = min(p, 1 - p).  A dense cell, with
q >= ``DENSE_Q``, is drawn directly from one 16-bit digit d of a raw
generator word: it is hit when d < T = floor(p 2^16), and at a tie
d = T (probability 2^-16) when one uniform double falls below the
fraction f = p 2^16 - T.  A dense p is at least DENSE_Q > 2^-6, so p
is a multiple of 2^-58 and f, in [0, 1), one of 2^-42: f is exact, a
53-bit uniform falls below it with probability exactly f, and P(hit) =
(T + f) 2^-16 = p exactly.
Every other kept cell is sampled by exact thinning.  A sparse cell with
p > 1/2 counts as a sure hit minus a Bernoulli(1 - p) miss, so it is
drawn through q < ``DENSE_Q``, and cells with p in {0, 1} cost nothing.
Since 1{Poisson(lambda) >= 1} is Bernoulli(1 - exp(-lambda)), a cell
with lambda = -log1p(-q) is hit exactly when a Poisson process of rate
lambda puts a point on it.  The sparse cells are grouped into dyadic
bands of lambda.  Replicas are drawn in steps of r whole rows, with r
chosen so that a step expects about ``STEP_CANDIDATES`` candidates.  A
step draws, for each band of k cells with largest rate lambda_max,
Poisson(r k lambda_max) candidates at uniform positions on the band's
k x r (cell, replica) grid, which is the same Poisson process as
Poisson(k lambda_max) candidates per replica at uniform cell indices
(Devroye 1986, splitting of a Poisson process).  Each candidate is kept
with probability lambda_j / lambda_max, and one sort over every band of
the step finds the distinct kept (cell, replica) pairs, whose count per
replica, signed by band, is the replica's band count.  The thinning is
exact in distribution up to the rounding of q, lambda and the acceptance
ratio in doubles.  A dense cell has p(1 - p) >= DENSE_Q (1 - DENSE_Q),
and a band's candidate rate is below 2 sum(lambda), which is below 6
times its cells' variance; so a replica costs at most
kappa_2 (1 / (DENSE_Q (1 - DENSE_Q)) + 6) dense draws and candidates,
with kappa_2 the variance of the kept cells' count, instead of one draw
per cell.  A dense draw costs about 0.73 ns (a quarter of a raw word,
a compare, a count and a tie test) and a candidate (a position, a
uniform, a sort and a count) about 28 ns (2-core Xeon VM, levels (0, 0)
and (2, 2) at R = 10), so a cell is cheaper to thin than to draw below
q ~ 0.73 / 28.  ``DENSE_Q`` = 0.03 comes from the benchmark's mc-gate
workload (``bench/run.py``, 10 s runs of this sampler at seeds 411-414,
median reference seconds per pass): 0.1145 at DENSE_Q = 0.02, 0.1147 at
0.03, 0.1164 at 0.04 and 0.1191 at 0.05.  0.02 and 0.03 differ by less
than the spread of repeated runs; 0.03 keeps the bound on draws per
replica above lower, at no measured cost.

Determinism contract: replicas are split into consecutive blocks of
``BLOCK_REPLICAS`` (the last one may be shorter), and block b draws all
of its replicas from one PCG64DXSM generator seeded by
SeedSequence(master_seed, spawn_key=(b,)), an independent child of the
master seed.  Within a block come first the dense words: the (replica,
cell) pairs in row-major order take the 16-bit quarters of consecutive
raw 64-bit words, lowest quarter first (bits 0-15, 16-31, 32-47, then
48-63 of each word, on any host), and the last word may leave up to
three quarters unused.  Then one double per tie, in the same order;
then the band steps, each a Poisson count per band, the positions and
the acceptance uniforms; then the pooled binomial.  Results are
bit-for-bit reproducible for a fixed (seed, replicas, spec, R, floor),
and each block's counts depend only on (seed, b, its replica count, the
cell model), so blocks can be evaluated in any order.  The generator,
the word layout, ``BLOCK_REPLICAS``, ``STEP_CANDIDATES`` and ``DENSE_Q``
are part of that contract: changing any of them changes the streams.
They are module constants, not settings.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .exceptions import NumericalBudgetError
from .kernels import KernelSpec
from .specfun import _check_index, _check_radius, _check_real, _checked_make
from .window_stats import _TAIL_TOL, BernoulliSpectrum, _cached_spectrum

# Bounds the memory of the kept-cell array and of the thinning plan built
# from it (a few doubles per cell): at the cap the kept grid alone is 160 MB.
KEPT_CELL_CAP = 20_000_000
# Cells of the multi-index outer product formed at a time (8 MB of doubles).
_OUTER_CHUNK_CELLS = 1 << 20

# Replicas drawn from one generator, the expected thinning candidates of
# one step of whole replica rows (~0.2 MB of temporaries; a step holds at
# least one replica), and the smallest q = min(p, 1 - p) of a cell drawn
# from a raw word instead of by thinning.  All three are part of the
# determinism contract: changing any changes the streams.
BLOCK_REPLICAS = 256
STEP_CANDIDATES = 1 << 12
DENSE_Q = 0.03
# Dense draws made at a time (3 bytes each: a digit and a mask byte), in
# whole rows whose digits fill whole words; the rows take the words in
# row-major order, so this does not change the stream.  mc-gate ran 11%
# faster than with 2^13 (8 of 8 paired runs).
_DENSE_CHUNK = 1 << 16


# The records below are NamedTuples, as every record of the package is: a
# frozen dataclass took 0.4 ms (5 fields) to 0.8 ms (12 fields) of each
# import to build, a NamedTuple about 0.05 ms.
class _McConfigFields(NamedTuple):
    replicas: int
    seed: int
    cell_prob_floor: float


class McConfig(_McConfigFields):
    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, replicas: int, seed: int, cell_prob_floor: float = 0.0):
        replicas = _check_index("replicas", replicas, 1)
        seed = _check_index("seed", seed)
        if seed >= 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
        floor = _check_real("cell_prob_floor", cell_prob_floor)
        if not 0.0 <= floor < 1.0:
            raise ValueError(f"cell_prob_floor must lie in [0, 1), got {floor}")
        return super().__new__(cls, replicas, seed, floor)


class CellCounts(NamedTuple):
    """How the sampler split the multi-index grid: the cells kept above the
    floor, of which ``dense`` are drawn from 16-bit digits and ``banded``
    are thinned; ``sure`` of the sparse cells have p > 1/2 and count as hits
    before their band's misses; ``pooled`` cells share one binomial."""

    kept: int
    dense: int
    banded: int
    sure: int
    pooled: int


class _McEstimateFields(NamedTuple):
    mean_hat: float
    var_hat: float
    se_mean: float
    se_var: float
    replicas: int
    # set by estimate_moments
    cells: CellCounts | None


class McEstimate(_McEstimateFields):
    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, mean_hat: float, var_hat: float, se_mean: float, se_var: float,
                replicas: int, cells: CellCounts | None = None):
        if se_mean < 0 or se_var < 0 or var_hat < 0:
            raise ValueError("standard errors and var_hat must be >= 0")
        return super().__new__(cls, mean_hat, var_hat, se_mean, se_var, replicas, cells)


class _CellModel(NamedTuple):
    """Flattened multi-index grid: kept cell parameters plus pooled rest.

    Every kept cell is in exactly one of three groups.  ``dense`` holds p of
    the cells with q = min(p, 1 - p) >= DENSE_Q and ``dense_words`` their
    thresholds T = floor(p 2^16) as uint16; a tie is decided by the
    fraction p 2^16 - T, formed when one occurs.  The others form a thinning
    plan: ``sure`` counts those with p > 1/2, and the cells with q > 0 are
    cut into dyadic bands of lambda = -log1p(-q), first the bands of cells
    with p <= 1/2 (sign +1), then those with p > 1/2 (sign -1).  ``ratios``
    holds every band's acceptance ratios lambda / lambda_max end to end;
    band b owns the ``band_sizes[b]`` ratios from ``band_starts[b]`` on,
    has the sign ``band_signs[b]`` and the Poisson candidate rate
    ``band_rates[b]`` = k * lambda_max per replica.  Cells with q = 0 are
    certain and sit in no band.
    """

    kept: np.ndarray
    dense: np.ndarray
    dense_words: np.ndarray
    pooled_count: int
    pooled_prob: float
    pooled_mass: float
    sure: int
    band_signs: np.ndarray
    band_rates: np.ndarray
    band_sizes: np.ndarray
    band_starts: np.ndarray
    ratios: np.ndarray


def _thinning_bands(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ratios lambda / lambda_max, sizes k and rates k * lambda_max of the
    dyadic bands of lambda = -log1p(-q) over the cells with q > 0."""
    lam = q[q > 0.0]
    if lam.size == 0:
        return lam, np.zeros(0, dtype=np.int64), lam
    np.negative(np.log1p(np.negative(lam, out=lam), out=lam), out=lam)
    lam.sort()
    lo, hi = np.frexp(lam[[0, -1]])[1]
    sizes = np.diff(np.searchsorted(lam, np.ldexp(1.0, np.arange(lo, hi + 1))), prepend=0)
    sizes = sizes[sizes > 0]  # empty bands dropped
    top = lam[np.cumsum(sizes) - 1]
    lam /= np.repeat(top, sizes)
    return lam, sizes, sizes * top


def _build_cells(spectra: list[BernoulliSpectrum], floor: float) -> _CellModel:
    if not spectra:
        raise ValueError("spectra must be nonempty")
    kept = np.array([1.0])
    total_cells = 1
    for sp in spectra:
        total_cells *= len(sp.probs)
        # A prefix product below the floor can only shrink further, so
        # pruning progressively never drops a cell that should be kept.
        # Row chunks of the outer product keep the grid in row-major order
        # and stop at the cap before the whole product is ever formed.
        rows = max(1, _OUTER_CHUNK_CELLS // len(sp.probs))
        pieces = []
        size = 0
        # (an empty grid still makes one, empty, chunk)
        for r0 in range(0, max(kept.size, 1), rows):
            out = np.multiply.outer(kept[r0 : r0 + rows], sp.probs).ravel()
            pieces.append(out[out >= floor] if floor > 0.0 else out)
            size += pieces[-1].size
            if size > KEPT_CELL_CAP:
                raise NumericalBudgetError(
                    f"multi-index grid has more than {KEPT_CELL_CAP} cells above "
                    f"the floor {floor:g}; raise the floor or shrink the radius",
                    achieved_error=float(size),
                )
        kept = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    total_mass = math.prod(sp.prob_sum for sp in spectra)
    kept_mass = float(np.sum(kept))
    pooled_mass = max(total_mass - kept_mass, 0.0)
    pooled_count = total_cells - kept.size
    pooled_prob = pooled_mass / pooled_count if pooled_count > 0 else 0.0
    # 1 - p is exact for p >= 1/2, so the complement loses nothing.
    is_dense = (kept >= DENSE_Q) & (1.0 - kept >= DENSE_Q)
    sparse = kept[~is_dense]
    high = sparse > 0.5
    low_ratios, low_sizes, low_rates = _thinning_bands(sparse[~high])
    high_ratios, high_sizes, high_rates = _thinning_bands(1.0 - sparse[high])
    sizes = np.concatenate([low_sizes, high_sizes])
    dense = kept[is_dense]
    return _CellModel(
        kept=kept,
        dense=dense,
        dense_words=np.ldexp(dense, 16).astype(np.uint16),
        pooled_count=int(pooled_count),
        pooled_prob=min(pooled_prob, 1.0),
        pooled_mass=pooled_mass,
        sure=int(np.count_nonzero(high)),
        band_signs=np.repeat([1, -1], [low_sizes.size, high_sizes.size]),
        band_rates=np.concatenate([low_rates, high_rates]),
        band_sizes=sizes,
        band_starts=np.cumsum(sizes) - sizes,
        ratios=np.concatenate([low_ratios, high_ratios]),
    )


def _dense_hits(model: _CellModel, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Dense hits of ``rows`` replicas: the (replica, cell) pairs in
    row-major order take the 16-bit quarters of raw words in turn, lowest
    quarter first; the ties, in the same order, then take one double each."""
    size = model.dense_words.size
    hits = np.zeros(rows, dtype=np.int64)
    # a row sums fewer than 2^16 ones in 16 bits, which numpy adds fastest:
    # mc-gate ran 13% slower summing in int64 (8 of 8 paired runs)
    dtype = np.uint16 if size < 1 << 16 else np.int64
    # a multiple of 4 / gcd(size, 4) rows fills whole words, so only the
    # block's last chunk may leave quarters of its last word unused
    unit = 4 // math.gcd(size, 4)
    step = -(-max(1, _DENSE_CHUNK // size) // unit) * unit
    ties = []
    for r0 in range(0, rows, step):
        r = min(step, rows - r0)
        raw = rng.bit_generator.random_raw(-(-r * size // 4))
        # little-endian words seen as little-endian quarters: the value
        # mod 2^16 first on any host (no copy on a little-endian one)
        digits = raw.astype("<u8", copy=False).view("<u2")[: r * size].reshape(r, size)
        below = digits < model.dense_words
        hits[r0 : r0 + r] += np.add.reduce(below.view(np.uint8), axis=1, dtype=dtype)
        tie = np.equal(digits, model.dense_words, out=below)
        if np.count_nonzero(tie):  # probability 2^-16 per pair
            ties.append(np.flatnonzero(tie) + r0 * size)
    if ties:
        at_row, at_cell = np.divmod(np.concatenate(ties), size)
        # p 2^16 is exact, and so is its fraction p 2^16 - T
        frac = np.ldexp(model.dense[at_cell], 16) - model.dense_words[at_cell]
        won = rng.random(at_row.size) < frac
        np.add.at(hits, at_row[won], 1)
    return hits


def _draw_block(model: _CellModel, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Counts of ``rows`` replicas, all drawn from the one generator ``rng``."""
    counts = np.full(rows, model.sure, dtype=np.int64)
    if model.dense.size:
        counts += _dense_hits(model, rows, rng)
    if model.band_rates.size:
        # the cells of the sign +1 bands come first in ``ratios``
        plus = int(np.sum(model.band_sizes[model.band_signs > 0]))
        step = max(1, int(STEP_CANDIDATES // max(float(np.sum(model.band_rates)), 1.0)))
        for r0 in range(0, rows, step):
            r = min(step, rows - r0)
            candidates = rng.poisson(r * model.band_rates)
            if not candidates.any():
                continue
            # a uniform position on the band's cell x replica grid of the
            # step: pos = (band start + cell) * r + replica
            pos = rng.integers(np.repeat(r * model.band_sizes, candidates))
            pos += np.repeat(r * model.band_starts, candidates)
            pos = pos[rng.random(pos.size) < model.ratios[pos // r]]
            # sorted, repeat hits on one (cell, replica) are adjacent
            pos.sort()
            first = np.empty(pos.size, dtype=bool)
            first[:1] = True
            np.not_equal(pos[1:], pos[:-1], out=first[1:])
            pos = pos[first]
            split = np.searchsorted(pos, plus * r)
            counts[r0 : r0 + r] += np.bincount(pos[:split] % r, minlength=r)
            counts[r0 : r0 + r] -= np.bincount(pos[split:] % r, minlength=r)
    if model.pooled_count > 0 and model.pooled_prob > 0.0:
        counts += rng.binomial(model.pooled_count, model.pooled_prob, size=rows)
    return counts


def _block_rng(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.PCG64DXSM(ss))


def estimate_moments(
    spec: KernelSpec, radius: float, cfg: McConfig, tail_tol: float = _TAIL_TOL
) -> McEstimate:
    """Empirical polydisk count moments over cfg.replicas independent draws.

    The variance standard error uses the fourth-moment formula
    Var(s^2) = (m4 - s^4 (n-3)/(n-1)) / n.  Bit-for-bit reproducible for a
    fixed (seed, replicas, spec, R, floor): replica block b (replicas
    b * BLOCK_REPLICAS onward) draws from its own SeedSequence child,
    so evaluation order cannot matter.
    """
    radius = _check_radius(radius)
    spectra = [_cached_spectrum(m, radius, tail_tol) for m in spec.level]
    model = _build_cells(spectra, cfg.cell_prob_floor)
    n = cfg.replicas
    counts = np.concatenate([
        _draw_block(model, min(BLOCK_REPLICAS, n - start), _block_rng(cfg.seed, b))
        for b, start in enumerate(range(0, n, BLOCK_REPLICAS))
    ])
    mean_hat = float(np.mean(counts))
    cells = CellCounts(
        kept=model.kept.size,
        dense=model.dense.size,
        banded=model.ratios.size,
        sure=model.sure,
        pooled=model.pooled_count,
    )
    if n == 1:
        return McEstimate(mean_hat, 0.0, 0.0, 0.0, 1, cells)
    centered = counts.astype(np.float64) - mean_hat
    var_hat = float(np.dot(centered, centered)) / (n - 1)
    se_mean = math.sqrt(var_hat / n)
    m4 = float(np.mean(centered**4))
    var_of_var = max(m4 - var_hat * var_hat * (n - 3) / (n - 1), 0.0) / n
    return McEstimate(
        mean_hat=mean_hat,
        var_hat=var_hat,
        se_mean=se_mean,
        se_var=math.sqrt(var_of_var),
        replicas=n,
        cells=cells,
    )
