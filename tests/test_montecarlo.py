"""Bernoulli-sum sampler: determinism, exactness, pooling soundness."""

import math

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
    """Exact pmf of the kept cells plus the pooled binomial, by convolution."""
    pmf = np.array([1.0])
    for p in model.kept:
        pmf = np.convolve(pmf, [1.0 - p, p])
    n = model.pooled_count
    if n:
        pmf = np.convolve(pmf, scipy.stats.binom.pmf(np.arange(n + 1), n, model.pooled_prob))
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

    def test_bands_are_dyadic_in_lambda(self):
        spec = toy_spectrum([0.5, 0.3, 0.01, 1e-9, 0.7, 0.999, 1.0 - 2**-53, 1.0])
        model = mc._build_cells([spec, spec], floor=0.0)
        high = model.kept > 0.5
        assert model.sure == np.count_nonzero(high)
        for sign, q in ((1, model.kept[~high]), (-1, 1.0 - model.kept[high])):
            lam = np.sort(-np.log1p(-q[q > 0.0]))
            bands = [
                ratios * (rate / ratios.size)
                for s, rate, ratios in zip(model.band_signs, model.band_rates, model.band_ratios)
                if s == sign
            ]
            for band in bands:
                assert band.max() / band.min() < 2.0
                assert np.unique(np.frexp(band)[1]).size == 1
            assert np.sort(np.concatenate(bands)) == pytest.approx(lam, rel=1e-15)
        assert all(ratios.max() == 1.0 for ratios in model.band_ratios)

    def test_cell_cap_raises(self, monkeypatch):
        monkeypatch.setattr(mc, "KEPT_CELL_CAP", 3)
        spec = toy_spectrum([0.5, 0.5])
        with pytest.raises(NumericalBudgetError):
            mc._build_cells([spec, spec], floor=0.0)


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


class TestExactness:
    @pytest.mark.parametrize(
        "probs",
        [
            [EDGE_PROBS],
            [EDGE_PROBS, [1.0, 0.5, 0.05]],
            [[0.02, 0.6, 0.97], [0.4, 0.999], [0.75, 0.1]],
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
