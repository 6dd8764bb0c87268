"""Bernoulli-sum sampler: determinism, unbiasedness, pooling soundness."""

import math

import numpy as np
import pytest

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
    return mc._draw(mc._build_cells(spectra, 0.0), rng)


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

    def test_replica_generators_are_disjoint(self):
        # same master seed, different replica index: independent streams
        r0 = mc._replica_rng(42, 0).random(8)
        r1 = mc._replica_rng(42, 1).random(8)
        r0_again = mc._replica_rng(42, 0).random(8)
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
        # estimate_moments must be exactly the stated per-replica protocol
        spec = KernelSpec(1, (0,))
        cfg = McConfig(replicas=16, seed=31415)
        est = estimate_moments(spec, 1.5, cfg)
        spectra = [build_spectrum(0, 1.5, 1e-9)]
        counts = [
            draw_count(spectra, mc._replica_rng(31415, i)) for i in range(16)
        ]
        assert est.mean_hat == pytest.approx(np.mean(counts), rel=1e-15)
        assert est.var_hat == pytest.approx(np.var(counts, ddof=1), rel=1e-12)

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
