"""Bernoulli-sum sampler: determinism, exactness, cost, pooling soundness."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import heisenberg_dpp.montecarlo as mc
from heisenberg_dpp.exceptions import NumericalBudgetError
from heisenberg_dpp.kernels import KernelSpec
from heisenberg_dpp.montecarlo import McConfig, McEstimate, estimate_moments
from heisenberg_dpp.window_stats import (
    BernoulliSpectrum,
    build_spectrum,
    polydisk_moments,
)


def draw_count(spectra, rng) -> int:
    """One draw of the polydisk count from the sampler's unpooled cell grid."""
    return int(mc._draw_block(mc._build_cells(spectra, 0.0), 1, rng)[0])


def block_counts(model, replicas, seed) -> np.ndarray:
    """Counts by the per-block protocol, written out by hand."""
    return np.concatenate([
        mc._draw_block(model, min(mc.BLOCK_REPLICAS, replicas - start), mc._block_rng(seed, b))
        for b, start in enumerate(range(0, replicas, mc.BLOCK_REPLICAS))
    ])


def poisson_binomial_pmf(model) -> np.ndarray:
    """Exact pmf of the kept cells plus the pooled binomial, by convolution.

    The factors are convolved in pairs, level by level, as a balanced tree
    of direct convolutions.  No FFT: a sure or an impossible cell must
    leave exact zeros at the ends of the support.  Each factor is kept as
    (offset, values) with its leading and trailing exact zeros cut off, so
    the tails that underflow as the tree grows are not convolved again.
    """

    def trim(offset, values):
        if values[0] and values[-1]:
            return offset, values
        nonzero = np.flatnonzero(values)
        return offset + nonzero[0], values[nonzero[0] : nonzero[-1] + 1]

    factors = [trim(0, np.array([1.0 - p, p])) for p in model.kept]
    n = model.pooled_count
    if n:
        factors.append(trim(0, scipy.stats.binom.pmf(np.arange(n + 1), n, model.pooled_prob)))
    while len(factors) > 1:
        pairs = [
            trim(oa + ob, np.convolve(a, b))
            for (oa, a), (ob, b) in zip(factors[0::2], factors[1::2])
        ]
        factors = pairs + factors[2 * len(pairs):]
    pmf = np.zeros(model.kept.size + n + 1)
    offset, values = factors[0] if factors else (0, np.array([1.0]))
    pmf[offset : offset + values.size] = values
    return pmf


def bernoulli_cumulant_polys(order: int) -> list[np.polynomial.Polynomial]:
    """kappa_r(p) of Bernoulli(p), r = 1..order, from kappa_{r+1} = p(1-p) kappa_r'."""
    p = np.polynomial.Polynomial([0.0, 1.0])
    polys = [p]
    for _ in range(order - 1):
        polys.append(p * (1 - p) * polys[-1].deriv())
    return polys


def model_cumulants(model, order: int) -> list[float]:
    """Exact cumulants of the cell model from the power sums sum p^j."""
    power_sums = [float(np.sum(model.kept**j)) for j in range(order + 1)]
    out = []
    for poly in bernoulli_cumulant_polys(order):
        kept = sum(c * power_sums[j] for j, c in enumerate(poly.coef))
        out.append(kept + model.pooled_count * poly(model.pooled_prob))
    return out


def toy_spectrum(probs, radius=1.0, level=0) -> BernoulliSpectrum:
    arr = np.asarray(probs, dtype=float)
    return BernoulliSpectrum(radius=radius, level=level, probs=arr, tail_bound=0.0)


def dense_and_sparse_probs(dense: int) -> list[float]:
    """``dense`` dense cells beside three sparse ones."""
    return [*np.linspace(0.3, 0.7, dense), 0.01, 0.002, 0.999]


def assert_cell_partition(model) -> None:
    """Every kept cell is certain, dense, or in exactly one dyadic band."""
    p = model.kept
    q = np.minimum(p, 1.0 - p)
    dense = q >= mc.DENSE_Q
    assert model.dense.tobytes() == p[dense].tobytes()
    sparse = p[~dense]
    high = sparse > 0.5
    assert model.sure == np.count_nonzero(high)
    banded = 0
    for sign, q_side in ((1, sparse[~high]), (-1, 1.0 - sparse[high])):
        # the sparse cells' lambda, cut into this sign's bands in lambda order
        lam = np.sort(-np.log1p(-q_side[q_side > 0.0]))
        side = [(rate, model.ratios[start : start + size]) for s, rate, start, size in
                zip(model.band_signs, model.band_rates, model.band_starts, model.band_sizes)
                if s == sign]
        sizes = [ratios.size for _, ratios in side]
        assert sum(sizes) == lam.size
        for (rate, ratios), band in zip(side, np.split(lam, np.cumsum(sizes)[:-1])):
            assert np.unique(np.frexp(band)[1]).size == 1
            assert rate == band.size * band[-1]
            assert ratios.tobytes() == (band / band[-1]).tobytes()
        banded += lam.size
    assert model.band_signs.size == model.band_sizes.size == model.band_rates.size
    # the bands tile ``ratios`` end to end, the sign +1 bands first
    assert model.band_starts.tolist() == (np.cumsum(model.band_sizes) - model.band_sizes).tolist()
    assert model.ratios.size == np.sum(model.band_sizes)
    assert np.all(np.diff(model.band_signs) <= 0)
    assert np.count_nonzero(q == 0.0) + model.dense.size + banded == p.size


class TestMcConfig:
    def test_ok(self):
        cfg = McConfig(replicas=10, seed=3, cell_prob_floor=0.25)
        assert cfg.replicas == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(replicas=0, seed=1)
        with pytest.raises(ValueError):
            McConfig(replicas=5, seed=-1)
        with pytest.raises(ValueError):
            McConfig(replicas=5, seed=2**64)
        with pytest.raises(ValueError):
            McConfig(replicas=5, seed=1, cell_prob_floor=1.0)

    def test_seed_must_be_integral(self):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            McConfig(replicas=5, seed=1.5)
        assert McConfig(replicas=5, seed=2**64 - 1).seed == 2**64 - 1

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            McEstimate(1.0, -0.5, 0.0, 0.0, 2)


class TestSampleCount:
    def test_all_zero_probs_give_zero(self):
        spec = toy_spectrum([0.0, 0.0, 0.0])
        rng = np.random.default_rng(5)
        assert all(draw_count([spec], rng) == 0 for _ in range(20))

    def test_sure_cells_always_fire(self):
        spec = toy_spectrum([1.0, 0.0, 1.0])
        rng = np.random.default_rng(5)
        assert all(draw_count([spec], rng) == 2 for _ in range(20))

    def test_count_bounded_by_cells(self):
        spec = toy_spectrum([0.5, 0.5])
        rng = np.random.default_rng(0)
        draws = [draw_count([spec, spec], rng) for _ in range(200)]
        assert all(0 <= d <= 4 for d in draws)
        assert len(set(draws)) > 1  # actually random

    def test_empty_spectra_rejected(self):
        with pytest.raises(ValueError):
            draw_count([], np.random.default_rng(0))


class TestCellModel:
    def test_floor_pools_mass_exactly(self):
        spec_a = toy_spectrum([0.5, 0.01, 0.3])
        spec_b = toy_spectrum([0.4, 0.02])
        model = mc._build_cells([spec_a, spec_b], floor=0.05)
        total = spec_a.prob_sum * spec_b.prob_sum
        # every unit of mean ends up either kept or pooled
        assert float(np.sum(model.kept)) + model.pooled_mass == pytest.approx(
            total, rel=1e-12
        )
        assert model.pooled_count + model.kept.size == 6
        assert np.all(model.kept >= 0.05)

    def test_zero_floor_keeps_everything(self):
        spec = toy_spectrum([0.2, 0.7])
        model = mc._build_cells([spec, spec], floor=0.0)
        assert model.kept.size == 4
        assert model.pooled_count == 0
        assert model.pooled_mass == 0.0

    def test_certain_cells_cost_nothing(self):
        model = mc._build_cells([toy_spectrum([1.0, 0.0, 1.0])], floor=0.0)
        assert model.sure == 2
        assert model.band_rates.size == 0

    def test_cells_are_certain_dense_or_banded(self):
        spec = toy_spectrum([0.5, 0.3, 0.01, 1e-9, 0.7, 0.999, 1.0 - 2**-53, 1.0])
        model = mc._build_cells([spec, spec], floor=0.0)
        assert model.dense.size and model.band_rates.size and model.sure
        assert_cell_partition(model)

    def test_dense_threshold_is_inclusive(self):
        q = mc.DENSE_Q
        model = mc._build_cells([toy_spectrum([q, 1.0 - q, np.nextafter(q, 0.0)])], floor=0.0)
        assert model.dense.tolist() == [q, 1.0 - q]
        assert model.band_rates.size == 1
        assert_cell_partition(model)

    def test_cell_cap_raises(self, monkeypatch):
        monkeypatch.setattr(mc, "KEPT_CELL_CAP", 3)
        spec = toy_spectrum([0.5, 0.5])
        with pytest.raises(NumericalBudgetError):
            mc._build_cells([spec, spec], floor=0.0)

    @pytest.mark.parametrize("floor", [0.0, 1e-3])
    def test_row_chunks_keep_the_grid(self, monkeypatch, floor):
        spectra = [toy_spectrum(np.linspace(0.9, 1e-4, n)) for n in (7, 5, 6)]
        whole = mc._build_cells(spectra, floor)
        # a chunk smaller than a row: one row of the outer product at a time
        monkeypatch.setattr(mc, "_OUTER_CHUNK_CELLS", 2)
        chunked = mc._build_cells(spectra, floor)
        assert chunked.kept.tobytes() == whole.kept.tobytes()
        assert chunked.pooled_count == whole.pooled_count
        assert np.array_equal(block_counts(chunked, 50, 3), block_counts(whole, 50, 3))

    def test_floor_can_empty_the_grid(self):
        model = mc._build_cells([toy_spectrum([0.0]), toy_spectrum([0.5])], floor=1e-3)
        assert model.kept.size == 0
        assert model.pooled_count == 1

    def test_cell_cap_stops_before_the_full_product(self, monkeypatch):
        monkeypatch.setattr(mc, "KEPT_CELL_CAP", 20)
        monkeypatch.setattr(mc, "_OUTER_CHUNK_CELLS", 4)
        spec = toy_spectrum([0.5] * 4)
        with pytest.raises(NumericalBudgetError) as exc_info:
            mc._build_cells([spec, spec, spec], floor=0.0)
        # 16 cells pass; the third factor raises after six 4-cell chunks of 64
        assert exc_info.value.achieved_error == 24.0


class TestDeterminism:
    def test_bit_for_bit_repeatable(self):
        spec = KernelSpec(2, (0, 1))
        cfg = McConfig(replicas=64, seed=123456789, cell_prob_floor=1e-10)
        a = estimate_moments(spec, 2.0, cfg)
        b = estimate_moments(spec, 2.0, cfg)
        assert a == b

    def test_seed_changes_stream(self):
        spec = KernelSpec(1, (0,))
        a = estimate_moments(spec, 2.0, McConfig(replicas=64, seed=1))
        b = estimate_moments(spec, 2.0, McConfig(replicas=64, seed=2))
        assert a != b

    @pytest.mark.parametrize("rows_per_step", [1, 3, 7, mc.BLOCK_REPLICAS])
    def test_dense_chunk_leaves_the_stream(self, monkeypatch, rows_per_step):
        # 303 replicas: a full block and a 47-row block.  A chunk holds
        # rows_per_step rows rounded up to a multiple of 4, 2 or 4 rows for
        # dense sizes 1, 2 or 3 mod 4, so that its digits fill whole words;
        # the 47-row block ends in a partial chunk at every step above one row
        spectra = [build_spectrum(m, 3.0, 1e-9) for m in (0, 1)]
        models = [mc._build_cells(spectra, 0.0)]
        models += [mc._build_cells([toy_spectrum(dense_and_sparse_probs(n))], 0.0)
                   for n in (100, 101, 102, 103)]
        assert {model.dense.size % 4 for model in models} == {0, 1, 2, 3}
        for model in models:
            assert model.dense.size and model.band_rates.size
            whole = block_counts(model, 303, 4242)
            with monkeypatch.context() as patch:
                patch.setattr(mc, "_DENSE_CHUNK", rows_per_step * model.dense.size)
                assert np.array_equal(block_counts(model, 303, 4242), whole)

    @pytest.mark.parametrize("rows", [1, 5, 6])
    def test_dense_quarters_in_row_major_order_lowest_first(self, rows):
        # three dense cells: the pair (replica i, cell j) takes quarter
        # 3 i + j, quarter k of word k div 4 being bits 16 (k mod 4) on
        probs = [0.2, 0.5, 0.7]
        model = mc._build_cells([toy_spectrum(probs)], 0.0)
        words = mc._block_rng(77, 0).bit_generator.random_raw((3 * rows + 3) // 4)
        quarters = np.stack([words >> np.uint64(16 * k) & np.uint64(0xFFFF) for k in range(4)], axis=1)
        digits = quarters.ravel()[: 3 * rows].reshape(rows, 3)
        want = np.count_nonzero(digits < model.dense_words, axis=1)
        assert model.dense_words.dtype == np.uint16
        assert model.dense_words.tolist() == [math.floor(p * 2**16) for p in probs]
        assert np.array_equal(mc._draw_block(model, rows, mc._block_rng(77, 0)), want)

    def test_block_generators_are_disjoint(self):
        # same master seed, different block index: independent streams
        r0 = mc._block_rng(42, 0).random(8)
        r1 = mc._block_rng(42, 1).random(8)
        r0_again = mc._block_rng(42, 0).random(8)
        assert np.array_equal(r0, r0_again)
        assert not np.array_equal(r0, r1)


class TestEstimates:
    def test_single_replica(self):
        est = estimate_moments(KernelSpec(1, (0,)), 1.0, McConfig(replicas=1, seed=9))
        assert est.replicas == 1
        assert est.var_hat == 0.0 and est.se_mean == 0.0

    def test_mean_within_three_se(self):
        spec = KernelSpec(1, (1,))
        exact = polydisk_moments(spec, 2.0)
        est = estimate_moments(spec, 2.0, McConfig(replicas=4000, seed=77))
        assert abs(est.mean_hat - exact.mean) <= 3.0 * est.se_mean

    def test_variance_within_three_se(self):
        spec = KernelSpec(1, (0,))
        exact = polydisk_moments(spec, 2.0)
        est = estimate_moments(spec, 2.0, McConfig(replicas=4000, seed=78))
        assert abs(est.var_hat - exact.variance) <= 3.0 * est.se_var

    def test_pooling_preserves_mean(self):
        # aggressive floor: aggregate mean must stay unbiased
        spec = KernelSpec(1, (2,))
        exact = polydisk_moments(spec, 2.5)
        cfg = McConfig(replicas=4000, seed=101, cell_prob_floor=5e-3)
        est = estimate_moments(spec, 2.5, cfg)
        assert abs(est.mean_hat - exact.mean) <= 3.0 * est.se_mean

    def test_counts_underdispersed(self):
        spec = KernelSpec(2, (0, 0))
        est = estimate_moments(spec, 2.0, McConfig(replicas=3000, seed=55))
        assert est.var_hat < est.mean_hat

    def test_matches_hand_rolled_replicas(self):
        # estimate_moments must be exactly the stated per-block protocol;
        # 300 replicas are one full block and one partial block
        spec = KernelSpec(1, (0,))
        cfg = McConfig(replicas=300, seed=31415)
        est = estimate_moments(spec, 1.5, cfg)
        model = mc._build_cells([build_spectrum(0, 1.5, 1e-9)], 0.0)
        counts = block_counts(model, 300, 31415)
        assert counts.size == 300
        assert est.mean_hat == pytest.approx(np.mean(counts), rel=1e-15)
        assert est.var_hat == pytest.approx(np.var(counts, ddof=1), rel=1e-12)
        # a full block draws the same counts whatever follows it
        first = estimate_moments(spec, 1.5, McConfig(replicas=256, seed=31415))
        assert first.mean_hat == pytest.approx(np.mean(counts[:256]), rel=1e-15)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            estimate_moments(KernelSpec(1), math.inf, McConfig(replicas=2, seed=0))

    @pytest.mark.parametrize("replicas", [1, 20])
    def test_estimate_carries_cell_counts(self, replicas):
        spectra = [build_spectrum(m, 3.0, 1e-9) for m in (0, 1)]
        cfg = McConfig(replicas=replicas, seed=5, cell_prob_floor=1e-6)
        cells = estimate_moments(KernelSpec(2, (0, 1)), 3.0, cfg).cells
        p = mc._build_cells(spectra, 1e-6).kept
        q = np.minimum(p, 1.0 - p)
        assert cells.kept == p.size and cells.kept + cells.pooled == math.prod(
            len(sp.probs) for sp in spectra
        )
        assert cells.dense == np.count_nonzero(q >= mc.DENSE_Q)
        assert cells.banded == np.count_nonzero((q > 0.0) & (q < mc.DENSE_Q))
        assert cells.sure == np.count_nonzero((p > 0.5) & (q < mc.DENSE_Q))
        assert cells.dense and cells.banded and cells.sure and cells.pooled

    def test_se_var_fourth_moment_formula(self):
        est = estimate_moments(
            KernelSpec(1, (0,)), 2.0, McConfig(replicas=500, seed=12)
        )
        assert est.se_var > 0.0
        # rough scale: se of s^2 for a near-binomial count is O(var/sqrt(n))
        assert est.se_var < est.var_hat


# p = 0 and p = 1 are certain, 1 - 2^-53 is the largest double below 1,
# 1/2 sits on the complement boundary and 1e-300 is a band of its own.
EDGE_PROBS = [0.0, 1.0, 1.0 - 2.0**-53, 0.5, 1e-300, 1e-3, 0.3, 0.8]
# every cell drawn by one uniform (no sure count, no band); not symmetric
# about 1/2, so drawing 1 - p for p would show
ALL_DENSE_PROBS = [0.2, 0.35, 0.5, 0.65, 0.8, 0.25, 0.3, 0.4, 0.6, 0.75]
# sparse cells of both signs whose band rates add up past STEP_CANDIDATES,
# so that every band step holds a single replica: each cell adds at least
# its lambda > q >= 0.9 DENSE_Q, and the 2 ceil(0.6 STEP_CANDIDATES /
# DENSE_Q) cells add at least 1.08 STEP_CANDIDATES
_SPARSE_Q = np.linspace(
    0.9 * mc.DENSE_Q, mc.DENSE_Q, math.ceil(0.6 * mc.STEP_CANDIDATES / mc.DENSE_Q), endpoint=False
)
MANY_SPARSE_PROBS = np.r_[_SPARSE_Q, 1.0 - _SPARSE_Q].tolist()
# every sparse cell has p > 1/2: sign -1 bands only, beside dense and sure cells
HIGH_SPARSE_PROBS = [[0.9, 0.95, 0.99, 0.999, 0.86, 1.0], [1.0, 0.97, 0.5]]


class TestExactness:
    @pytest.mark.parametrize(
        "probs",
        [
            [EDGE_PROBS],
            [EDGE_PROBS, [1.0, 0.5, 0.05]],
            [[0.02, 0.6, 0.97], [0.4, 0.999], [0.75, 0.1]],
            pytest.param([ALL_DENSE_PROBS], id="all-dense"),
            pytest.param([MANY_SPARSE_PROBS], id="one-replica-steps"),
            pytest.param(HIGH_SPARSE_PROBS, id="negative-bands-only"),
        ],
    )
    def test_histogram_matches_poisson_binomial(self, probs):
        model = mc._build_cells([toy_spectrum(p) for p in probs], 0.0)
        pmf = poisson_binomial_pmf(model)
        n = 40 * mc.BLOCK_REPLICAS
        observed = np.bincount(block_counts(model, n, 2718), minlength=pmf.size)
        assert observed.size == pmf.size
        assert observed[pmf == 0.0].sum() == 0
        # lump the sparse tails so every chi-square cell expects >= 5
        expected = n * pmf
        dense = np.flatnonzero(expected >= 5.0)
        cuts = np.r_[0, np.arange(dense[0] + 1, dense[-1] + 1)]
        obs, exp = np.add.reduceat(observed, cuts), np.add.reduceat(expected, cuts)
        assert scipy.stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue > 1e-3

    def test_all_dense_case_has_no_thinning(self):
        model = mc._build_cells([toy_spectrum(ALL_DENSE_PROBS)], 0.0)
        assert model.dense.tobytes() == model.kept.tobytes()
        assert model.sure == 0 and model.band_rates.size == 0

    def test_many_sparse_case_steps_one_replica(self):
        model = mc._build_cells([toy_spectrum(MANY_SPARSE_PROBS)], 0.0)
        assert model.dense.size == 0 and set(model.band_signs.tolist()) == {1, -1}
        assert np.sum(model.band_rates) > mc.STEP_CANDIDATES

    def test_high_sparse_case_has_only_negative_bands(self):
        model = mc._build_cells([toy_spectrum(p) for p in HIGH_SPARSE_PROBS], 0.0)
        assert model.dense.size and model.sure and model.band_rates.size
        assert np.all(model.band_signs == -1)

    def test_near_certain_cell_never_misses(self):
        # 1 - 2^-53 misses with probability 2^-53; 1e-300 hits with 1e-300
        model = mc._build_cells([toy_spectrum([1.0 - 2.0**-53, 1e-300, 1.0])], 0.0)
        assert np.all(block_counts(model, 1000, 5) == 2)

    @pytest.mark.parametrize(
        "level, radius, floor",
        [((0, 0), 3.0, 0.0), ((1, 2), 3.0, 1e-12), ((0, 0), 10.0, 1e-12)],
    )
    def test_k_statistics_match_model_cumulants(self, level, radius, floor):
        spectra = [build_spectrum(m, radius, 1e-9) for m in level]
        model = mc._build_cells(spectra, floor)
        n = 16 * mc.BLOCK_REPLICAS
        counts = block_counts(model, n, 1618).astype(np.float64)
        k1, k2, k3, k4, _, k6 = model_cumulants(model, 6)
        # exact sampling variances of the k-statistics (Kendall & Stuart)
        var = [
            k2 / n,
            k4 / n + 2 * k2**2 / (n - 1),
            k6 / n + 9 * (k2 * k4 + k3**2) / (n - 1) + 6 * n * k2**3 / ((n - 1) * (n - 2)),
        ]
        for r, exact, v in zip((1, 2, 3), (k1, k2, k3), var):
            z = abs(scipy.stats.kstat(counts, r) - exact) / math.sqrt(v)
            assert z <= 4.0, (r, z)


class TiedWords:
    """A stand-in block generator: its raw words put the digit of every dense
    (replica, cell) pair at the cell's threshold T plus ``offset``, and its
    doubles come from a real generator."""

    def __init__(self, model, offset: int, seed: int):
        self.bit_generator = self
        self.doubles = np.random.default_rng(seed)
        self.digits = (model.dense_words.astype(np.int64) + offset).astype(np.uint64)

    def random_raw(self, size):
        # every chunk of the dense draw starts a row, so its digit k belongs
        # to cell k mod (dense cells); digit k is bits 16 (k mod 4) on of
        # word k div 4
        digits = np.resize(self.digits, 4 * size).reshape(size, 4)
        return np.bitwise_or.reduce(digits << np.uint64(16) * np.arange(4, dtype=np.uint64), axis=1)

    def random(self, size):
        return self.doubles.random(size)


def tie_fractions(model) -> np.ndarray:
    """The fraction p 2^16 - T of each dense cell, which decides its ties."""
    return np.ldexp(model.dense, 16) - model.dense_words


class TestDenseTies:
    # p = (T + f) 2^-16 with T = floor(p 2^16): a digit d hits below T,
    # misses above it, and at d == T hits with probability f exactly
    FRACS = [0.25, 0.5, 0.75, 0.0, 2.0**-37]

    def model(self):
        probs = [math.ldexp(math.floor((0.3 + 0.1 * j) * 2**16) + f, -16)
                 for j, f in enumerate(self.FRACS)]
        model = mc._build_cells([toy_spectrum(probs)], 0.0)
        assert model.dense.tolist() == probs and tie_fractions(model).tolist() == self.FRACS
        return model

    @pytest.mark.parametrize("offset, hits", [(-1, 5), (1, 0)])
    def test_threshold_neighbours_decide_without_a_double(self, offset, hits):
        rng = TiedWords(self.model(), offset, 1)
        state = rng.doubles.bit_generator.state
        assert mc._draw_block(self.model(), 300, rng).tolist() == [hits] * 300
        assert rng.doubles.bit_generator.state == state

    @pytest.mark.parametrize("rows_per_step", [1, 7, mc.BLOCK_REPLICAS])
    def test_ties_take_one_double_each_in_row_major_order(self, monkeypatch, rows_per_step):
        # five dense cells: chunks of 4, 8 or 256 rows, each of which leaves
        # 4001 rows ending in mid-chunk
        model = self.model()
        monkeypatch.setattr(mc, "_DENSE_CHUNK", rows_per_step * model.dense.size)
        rows = 4001
        counts = mc._draw_block(model, rows, TiedWords(model, 0, 2))
        u = np.random.default_rng(2).random((rows, model.dense.size))
        assert np.array_equal(counts, np.count_nonzero(u < tie_fractions(model), axis=1))
        # the hit rate at a tie is its fraction: within 4 sigma of sum f
        fracs = np.array(self.FRACS)
        sigma = math.sqrt(rows * float(np.sum(fracs * (1.0 - fracs))))
        assert abs(int(counts.sum()) - rows * float(fracs.sum())) <= 4.0 * sigma


def draws_within_bound(model) -> bool:
    """Dense draws plus expected band candidates per replica, against kappa_2."""
    kappa2 = float(np.sum(model.kept * (1.0 - model.kept)))
    draws = model.dense.size + float(np.sum(model.band_rates))
    return draws <= kappa2 * (1.0 / (mc.DENSE_Q * (1.0 - mc.DENSE_Q)) + 6.0)


def candidates_within_bound(model) -> bool:
    """Expected band candidates per replica, against the sparse cells' variance."""
    p = model.kept
    sparse = p[np.minimum(p, 1.0 - p) < mc.DENSE_Q]
    return float(np.sum(model.band_rates)) <= 6.0 * float(np.sum(sparse * (1.0 - sparse)))


class TestCost:
    @pytest.mark.parametrize("level, radius", [((0,), 1.0), ((0, 0), 5.0), ((2, 2), 5.0), ((1,), 30.0)])
    def test_draws_per_replica_bounded_by_variance(self, level, radius):
        model = mc._build_cells([build_spectrum(m, radius, 1e-9) for m in level], 1e-12)
        assert draws_within_bound(model)
        assert candidates_within_bound(model)


class TestStreamIdentity:
    # sha256 of block_counts (little-endian int64) for fixed models, seeds
    # and replica counts: the block generator, the dense/sparse split,
    # DENSE_Q, BLOCK_REPLICAS, STEP_CANDIDATES and the draw order inside a
    # block fix these streams
    PINNED = {
        "edge": "cd95a937768678e97aaf8466416e57af5b966cfa94a773fb16c7b02b07fcc0bc",
        "level-00": "91dde33730cd74a7ba4c1b445099ec3ac09513a7a9f48b5ea74db4866012a891",
        "level-12-floor": "30effda06af08748f1d4ff2e84ff4d9c0cdf50621b79f6a3714ffea0f2648662",
    }

    @staticmethod
    def _model(name):
        if name == "edge":
            return mc._build_cells([toy_spectrum(EDGE_PROBS), toy_spectrum([1.0, 0.5, 0.05])], 0.0)
        level, floor = ((0, 0), 0.0) if name == "level-00" else ((1, 2), 1e-12)
        return mc._build_cells([build_spectrum(m, 3.0, 1e-9) for m in level], floor)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_block_counts_digest(self, name):
        counts = block_counts(self._model(name), 600, 20261018)
        digest = hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest()
        assert digest == self.PINNED[name]


dense_probability = st.one_of(
    st.sampled_from([mc.DENSE_Q, 1.0 - mc.DENSE_Q, 0.5, np.nextafter(1.0 - mc.DENSE_Q, 0.0)]),
    st.floats(mc.DENSE_Q, 1.0 - mc.DENSE_Q),
)


class TestDenseExactness:
    @settings(max_examples=500, deadline=None)
    @given(p=dense_probability)
    def test_threshold_and_fraction_split_p_exactly(self, p):
        model = mc._build_cells([toy_spectrum([p])], 0.0)
        assert model.dense.tolist() == [p]
        # T = floor(p 2^16) fits its uint16, and the tie fraction f the
        # sampler forms is p 2^16 - T exactly, a multiple of 2^-53 in [0, 1),
        # so a 53-bit uniform falls below it with probability exactly f
        t = int(model.dense_words[0])
        f = float(tie_fractions(model)[0])
        assert model.dense_words.dtype == np.uint16 and t == math.floor(p * 2**16)
        assert Fraction(t) + Fraction(f) == Fraction(p) * 2**16
        assert 0.0 <= f < 1.0 and (Fraction(f) * 2**53).denominator == 1


probability = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0 - 2.0**-53, 0.5, 1e-300]),
    st.floats(0.0, 1.0),
)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        probs=st.lists(st.lists(probability, min_size=1, max_size=6), min_size=1, max_size=2),
        floor=st.sampled_from([0.0, 1e-3, 0.2]),
        rows=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_counts_bounded_and_repeatable(self, probs, floor, rows, seed):
        model = mc._build_cells([toy_spectrum(p) for p in probs], floor)
        counts = mc._draw_block(model, rows, mc._block_rng(seed, 0))
        assert counts.shape == (rows,)
        assert counts.min() >= np.count_nonzero(model.kept == 1.0)
        assert counts.max() <= model.kept.size + model.pooled_count
        again = mc._draw_block(model, rows, mc._block_rng(seed, 0))
        assert np.array_equal(counts, again)

    @settings(max_examples=100, deadline=None)
    @given(
        probs=st.lists(st.lists(probability, min_size=1, max_size=8), min_size=1, max_size=2),
        floor=st.sampled_from([0.0, 1e-3, 0.2]),
    )
    def test_cells_partition_and_cost(self, probs, floor):
        model = mc._build_cells([toy_spectrum(p) for p in probs], floor)
        assert_cell_partition(model)
        assert draws_within_bound(model)
        assert candidates_within_bound(model)
