"""Stochastic verification of polydisk counts via the Bernoulli dual.

The polydisk count equals, in distribution, a sum of independent
Bernoulli variables, one per multi-index cell n, with success parameter
prod_l p_{n_l}.  Sampling that sum directly (no point configurations, no
matrix diagonalization) gives an estimator whose mean and variance can be
checked against the exact spectrum route.

Cells with parameter below ``cell_prob_floor`` are pooled into a single
binomial draw whose per-trial probability is the pooled mean divided by
the pooled cell count, which preserves the aggregate mean exactly and
keeps the per-replica cost proportional to the effective support.

Determinism contract: replica i draws from a Philox generator keyed by
SeedSequence(master_seed, spawn_key=(i,)), a counter-based split of the
master seed, so results are bit-for-bit reproducible for a fixed
(seed, replicas, spec, R, floor) regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalBudgetError
from .kernels import KernelSpec
from .specfun import _check_index, _check_radius
from .window_stats import BernoulliSpectrum, _cached_spectrum

# Per-replica work is one uniform per kept cell; past ~2e7 kept cells a
# 1e5-replica run stops being a desk-scale job.
KEPT_CELL_CAP = 20_000_000


@dataclass(frozen=True)
class McConfig:
    replicas: int
    seed: int
    cell_prob_floor: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "replicas", _check_index("replicas", self.replicas, 1))
        if not 0 <= self.seed < 2**64:
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
    """Flattened multi-index grid: kept cell parameters plus pooled rest."""

    kept: np.ndarray
    pooled_count: int
    pooled_prob: float
    pooled_mass: float


def _build_cells(spectra: list[BernoulliSpectrum], floor: float) -> _CellModel:
    if not spectra:
        raise ValueError("spectra must be nonempty")
    kept = np.array([1.0])
    total_cells = 1
    for sp in spectra:
        total_cells *= len(sp.probs)
        # A prefix product below the floor can only shrink further, so
        # pruning progressively never drops a cell that should be kept.
        out = np.multiply.outer(kept, sp.probs).ravel()
        kept = out[out >= floor] if floor > 0.0 else out
        if kept.size > KEPT_CELL_CAP:
            raise NumericalBudgetError(
                f"multi-index grid has {kept.size} cells above the floor "
                f"{floor:g}; raise the floor or shrink the radius",
                best_estimate=None,
                achieved_error=float(kept.size),
            )
    total_mass = math.prod(sp.prob_sum for sp in spectra)
    kept_mass = float(np.sum(kept))
    pooled_mass = max(total_mass - kept_mass, 0.0)
    pooled_count = total_cells - kept.size
    pooled_prob = pooled_mass / pooled_count if pooled_count > 0 else 0.0
    return _CellModel(
        kept=kept,
        pooled_count=int(pooled_count),
        pooled_prob=min(pooled_prob, 1.0),
        pooled_mass=pooled_mass,
    )


def _draw(model: _CellModel, rng: np.random.Generator) -> int:
    hits = int(np.count_nonzero(rng.random(model.kept.size) < model.kept))
    if model.pooled_count > 0 and model.pooled_prob > 0.0:
        hits += int(rng.binomial(model.pooled_count, model.pooled_prob))
    return hits


def _replica_rng(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def estimate_moments(
    spec: KernelSpec, radius: float, cfg: McConfig, tail_tol: float = 1e-9
) -> McEstimate:
    """Empirical polydisk count moments over cfg.replicas independent draws.

    The variance standard error uses the fourth-moment formula
    Var(s^2) = (m4 - s^4 (n-3)/(n-1)) / n.  Bit-for-bit reproducible for a
    fixed (seed, replicas, spec, R, floor); replicas use disjoint
    counter-split generators, so evaluation order cannot matter.
    """
    radius = _check_radius(radius)
    spectra = [_cached_spectrum(m, radius, tail_tol) for m in spec.level]
    model = _build_cells(spectra, cfg.cell_prob_floor)
    counts = np.empty(cfg.replicas, dtype=np.int64)
    for i in range(cfg.replicas):
        counts[i] = _draw(model, _replica_rng(cfg.seed, i))
    n = cfg.replicas
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
