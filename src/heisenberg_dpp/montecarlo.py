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
q >= ``DENSE_Q``, is drawn directly: it is hit when one uniform double
falls below p.  Every other kept cell is sampled by exact thinning.  A
sparse cell with p > 1/2 counts as a sure hit minus a Bernoulli(1 - p)
miss, so it is drawn through q < ``DENSE_Q``, and cells with p in {0, 1}
cost nothing.  Since 1{Poisson(lambda) >= 1} is Bernoulli(1 - exp(-lambda)),
a cell with lambda = -log1p(-q) is hit exactly when a Poisson process of
rate lambda puts a point on it.  The sparse cells are grouped into dyadic
bands of lambda; per replica a band of k cells with largest rate
lambda_max draws Poisson(k lambda_max) candidates at uniform cell
indices, keeps each with probability lambda_j / lambda_max, and the
replica's band count is the number of distinct kept cells.  Both draws
are exact in distribution up to the rounding of p, q, lambda and the
acceptance ratio in doubles.  A dense cell has p(1 - p) >= DENSE_Q
(1 - DENSE_Q), and a band's candidate rate is below 2 sum(lambda), which
is below 6 times its cells' variance; so a replica costs at most
kappa_2 (1 / (DENSE_Q (1 - DENSE_Q)) + 6) uniforms and candidates, with
kappa_2 the variance of the kept cells' count, instead of one uniform per
cell.  A dense uniform costs a few nanoseconds; a candidate (an index, a
uniform, a key, a sort) several times that, which is why cells near
q = 1/2 are not thinned.

Determinism contract: replicas are split into consecutive blocks of
``BLOCK_REPLICAS`` (the last one may be shorter), and block b draws all
of its replicas (the dense uniforms row by row, then the band candidates,
then the pooled binomial) from one Philox generator keyed by
SeedSequence(master_seed, spawn_key=(b,)), a counter-based split of the
master seed.  Results are bit-for-bit reproducible for a fixed
(seed, replicas, spec, R, floor), and each block's counts depend only on
(seed, b, its replica count, the cell model), so blocks can be evaluated
in any order.  ``DENSE_Q`` and ``BLOCK_REPLICAS`` are part of that
contract: changing either changes the streams.  They are module
constants, not settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalBudgetError
from .kernels import KernelSpec
from .specfun import _check_index, _check_radius
from .window_stats import BernoulliSpectrum, _cached_spectrum

# Bounds the memory of the kept-cell array and of the thinning plan built
# from it (a few doubles per cell): at the cap the kept grid alone is 160 MB.
KEPT_CELL_CAP = 20_000_000
# Cells of the multi-index outer product formed at a time (8 MB of doubles).
_OUTER_CHUNK_CELLS = 1 << 20

# Replicas drawn from one generator, the thinning candidates handled per
# vectorised step (~0.2 MB of temporaries; a step holds at least one
# replica's candidates of a band), and the smallest q = min(p, 1 - p) of
# a cell drawn by one uniform instead of by thinning.  All three are part
# of the determinism contract: changing any changes the streams.
BLOCK_REPLICAS = 256
_CANDIDATE_CHUNK = 1 << 12
DENSE_Q = 0.15
# Dense uniforms drawn at a time (64 kB, and at least one replica's row).
# Rows are consumed in row-major order, so this does not change the stream.
_DENSE_CHUNK = 1 << 13


@dataclass(frozen=True)
class McConfig:
    replicas: int
    seed: int
    cell_prob_floor: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "replicas", _check_index("replicas", self.replicas, 1))
        object.__setattr__(self, "seed", _check_index("seed", self.seed))
        if self.seed >= 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if not 0.0 <= self.cell_prob_floor < 1.0:
            raise ValueError(
                f"cell_prob_floor must lie in [0, 1), got {self.cell_prob_floor}"
            )


@dataclass(frozen=True)
class McEstimate:
    mean_hat: float
    var_hat: float
    se_mean: float
    se_var: float
    replicas: int

    def __post_init__(self):
        if self.se_mean < 0 or self.se_var < 0 or self.var_hat < 0:
            raise ValueError("standard errors and var_hat must be >= 0")


@dataclass(frozen=True, eq=False)
class _CellModel:
    """Flattened multi-index grid: kept cell parameters plus pooled rest.

    Every kept cell is in exactly one of three groups.  ``dense`` holds p of
    the cells with q = min(p, 1 - p) >= DENSE_Q, each drawn as u < p.  The
    others form a thinning plan: ``sure`` counts those with p > 1/2, and
    each dyadic band of lambda = -log1p(-q) over the cells with q > 0 has a
    sign (+1 for p <= 1/2, -1 for p > 1/2), a Poisson candidate rate
    k * lambda_max and its cells' acceptance ratios lambda / lambda_max.
    Cells with q = 0 are certain and sit in no band.
    """

    kept: np.ndarray
    dense: np.ndarray
    pooled_count: int
    pooled_prob: float
    pooled_mass: float
    sure: int
    band_signs: tuple[int, ...]
    band_rates: np.ndarray
    band_ratios: tuple[np.ndarray, ...]


def _thinning_bands(q: np.ndarray, sign: int) -> list[tuple[int, float, np.ndarray]]:
    """(sign, k * lambda_max, lambda / lambda_max) per dyadic band of lambda."""
    lam = q[q > 0.0]
    if lam.size == 0:
        return []
    np.negative(np.log1p(np.negative(lam, out=lam), out=lam), out=lam)
    lam.sort()
    lo, hi = np.frexp(lam[[0, -1]])[1]
    bands = []
    for band in np.split(lam, np.searchsorted(lam, np.ldexp(1.0, np.arange(lo, hi)))):
        if band.size:
            rate = band.size * band[-1]
            band /= band[-1]  # in place: the ratios are views of lam
            bands.append((sign, rate, band))
    return bands


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
                    best_estimate=None,
                    achieved_error=float(size),
                )
        kept = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    total_mass = math.prod(sp.prob_sum for sp in spectra)
    kept_mass = float(np.sum(kept))
    pooled_mass = max(total_mass - kept_mass, 0.0)
    pooled_count = total_cells - kept.size
    pooled_prob = pooled_mass / pooled_count if pooled_count > 0 else 0.0
    # 1 - p is exact for p >= 1/2, so the complement loses nothing.
    dense = (kept >= DENSE_Q) & (1.0 - kept >= DENSE_Q)
    sparse = kept[~dense]
    high = sparse > 0.5
    bands = _thinning_bands(sparse[~high], 1) + _thinning_bands(1.0 - sparse[high], -1)
    return _CellModel(
        kept=kept,
        dense=kept[dense],
        pooled_count=int(pooled_count),
        pooled_prob=min(pooled_prob, 1.0),
        pooled_mass=pooled_mass,
        sure=int(np.count_nonzero(high)),
        band_signs=tuple(sign for sign, _, _ in bands),
        band_rates=np.array([rate for _, rate, _ in bands]),
        band_ratios=tuple(ratios for _, _, ratios in bands),
    )


def _band_hits(
    ratios: np.ndarray, rate: float, candidates: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Distinct accepted cells per replica, given each replica's candidate count."""
    k = ratios.size
    hits = np.zeros(candidates.size, dtype=np.int64)
    rows_per_step = max(1, int(_CANDIDATE_CHUNK // max(rate, 1.0)))
    for r0 in range(0, candidates.size, rows_per_step):
        counts = candidates[r0 : r0 + rows_per_step]
        rows = counts.size
        cells = rng.integers(k, size=int(counts.sum()))
        accepted = rng.random(cells.size) < ratios[cells]
        # key = replica * k + cell; sorted, repeat hits on a cell are adjacent
        keys = np.repeat(np.arange(0, rows * k, k), counts)
        keys += cells
        keys = keys[accepted]
        keys.sort()
        per_replica = np.diff(np.searchsorted(keys, np.arange(0, (rows + 1) * k, k)))
        repeats = keys[1:][keys[1:] == keys[:-1]] // k
        hits[r0 : r0 + rows] = per_replica - np.bincount(repeats, minlength=rows)
    return hits


def _draw_block(model: _CellModel, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Counts of ``rows`` replicas, all drawn from the one generator ``rng``."""
    counts = np.full(rows, model.sure, dtype=np.int64)
    if model.dense.size:
        step = max(1, _DENSE_CHUNK // model.dense.size)
        for r0 in range(0, rows, step):
            u = rng.random((min(step, rows - r0), model.dense.size))
            counts[r0 : r0 + step] += np.count_nonzero(u < model.dense, axis=1)
    if model.band_rates.size:
        candidates = rng.poisson(model.band_rates, size=(rows, model.band_rates.size))
        for b in np.flatnonzero(candidates.any(axis=0)):
            hits = _band_hits(model.band_ratios[b], model.band_rates[b], candidates[:, b], rng)
            counts += model.band_signs[b] * hits
    if model.pooled_count > 0 and model.pooled_prob > 0.0:
        counts += rng.binomial(model.pooled_count, model.pooled_prob, size=rows)
    return counts


def _block_rng(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.Philox(ss))


def estimate_moments(
    spec: KernelSpec, radius: float, cfg: McConfig, tail_tol: float = 1e-9
) -> McEstimate:
    """Empirical polydisk count moments over cfg.replicas independent draws.

    The variance standard error uses the fourth-moment formula
    Var(s^2) = (m4 - s^4 (n-3)/(n-1)) / n.  Bit-for-bit reproducible for a
    fixed (seed, replicas, spec, R, floor): replica block b (replicas
    b * BLOCK_REPLICAS onward) draws from its own counter-split generator,
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
    if n == 1:
        return McEstimate(mean_hat, 0.0, 0.0, 0.0, 1)
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
    )
