"""High-point counting and exceedance exponents."""

import math

import numpy as np
import pytest

from levelsim import mc
from levelsim.gff import (
    GAMMA,
    ProbeRefusedError,
    coarse_exceedance_probe,
    estimate_daviaud_exponent,
    expected_level_count,
    level_set,
    level_threshold,
    sample_fields,
)


class TestThreshold:
    def test_closed_form(self):
        assert GAMMA == math.sqrt(2.0 / math.pi)
        assert level_threshold(64, 0.5) == pytest.approx(GAMMA * math.log(64.0))
        assert level_threshold(100, 1.0) == pytest.approx(2.0 * GAMMA * math.log(100.0))

    def test_validation(self):
        with pytest.raises(ValueError, match="grid side"):
            level_threshold(3, 0.5)
        with pytest.raises(ValueError, match="positive"):
            level_threshold(64, 0.0)


class TestLevelSet:
    def test_counts_crafted_sites(self):
        field = np.zeros((16, 16))
        thr = level_threshold(16, 0.4)
        field[3, 5] = thr  # ties count
        field[7, 7] = thr + 1.0
        field[10, 2] = thr - 1e-9
        out = level_set(field, 0.4)
        assert out.count == 2
        assert out.threshold == pytest.approx(thr)
        assert sorted(map(tuple, out.sites)) == [(3, 5), (7, 7)]

    def test_monotone_in_eta(self):
        field = sample_fields(32, 1, mc.replica_rng(70, 0))[0]
        counts = [level_set(field, eta).count for eta in (0.2, 0.4, 0.6, 0.8)]
        assert counts == sorted(counts, reverse=True)

    def test_validation(self):
        field = np.zeros((16, 16))
        with pytest.raises(ValueError, match="eta"):
            level_set(field, 1.0)
        with pytest.raises(ValueError, match="square"):
            level_set(np.zeros((16, 8)), 0.5)


class TestExpectedCount:
    def test_matches_simulation(self):
        grid_n, eta = 32, 0.3
        oracle = expected_level_count(grid_n, eta)
        thr = level_threshold(grid_n, eta)
        counts = []
        for i in range(6):
            fields = sample_fields(grid_n, 500, mc.replica_rng(71, i))
            counts.append((fields >= thr).sum(axis=(1, 2)))
        est = mc.summarize(np.concatenate(counts).astype(float))
        assert est.within(oracle, 4.0)

    def test_decreases_in_eta(self):
        a = expected_level_count(64, 0.3)
        b = expected_level_count(64, 0.7)
        assert a > b > 0.0


class TestDaviaud:
    def test_exponent_tracks_eta(self):
        low = estimate_daviaud_exponent([32, 64, 128], 0.3, replicas=40, seed=72)
        high = estimate_daviaud_exponent([32, 64, 128], 0.6, replicas=40, seed=72)
        assert low.limit == pytest.approx(2.0 * (1.0 - 0.09))
        assert high.limit == pytest.approx(2.0 * (1.0 - 0.36))
        # finite-size exponents sit below 2 and order the two levels correctly
        assert low.fit.slope > high.fit.slope
        assert low.fit.slope < 2.0
        for est in (low, high):
            assert len(est.points) == 3
            assert [p.grid_n for p in est.points] == [32, 64, 128]
            for p in est.points:
                assert p.counts.replicas == 40
                assert p.dropped == p.counts.zero_count

    def test_replica_mapping_per_size(self):
        est = estimate_daviaud_exponent(
            [16, 32], 0.4, replicas={16: 30, 32: 12}, seed=73
        )
        assert [p.counts.replicas for p in est.points] == [30, 12]

    def test_high_eta_drops_zero_counts(self):
        est = estimate_daviaud_exponent([16], 0.9, replicas=60, seed=74)
        point = est.points[0]
        assert point.dropped > 0
        if point.exponent is not None:
            assert point.exponent.replicas == 60 - point.dropped

    def test_validation(self):
        with pytest.raises(ValueError, match="eta"):
            estimate_daviaud_exponent([32], 1.2, replicas=5, seed=0)
        with pytest.raises(ValueError, match="increasing"):
            estimate_daviaud_exponent([64, 32], 0.5, replicas=5, seed=0)
        with pytest.raises(ValueError, match="grid size"):
            estimate_daviaud_exponent([], 0.5, replicas=5, seed=0)
        with pytest.raises(ValueError, match="replicas"):
            estimate_daviaud_exponent([32], 0.5, replicas=0, seed=0)


class TestCoarseTailProbe:
    def test_refuses_hopeless_budget(self):
        with pytest.raises(ProbeRefusedError) as info:
            coarse_exceedance_probe(64, 0.0, 2.0, replicas=100, seed=75)
        err = info.value
        assert err.replicas == 100
        assert err.predicted_probability == pytest.approx(64.0 ** (-6.0))
        assert "increase replicas" in str(err)

    def test_low_level_max_exceeds_often(self):
        probe = coarse_exceedance_probe(32, 0.0, 0.2, replicas=60, seed=76)
        assert probe.predicted_exponent == pytest.approx(2.0 * (0.04 - 1.0))
        assert probe.predicted_probability == 1.0
        assert probe.estimate.mean > 0.95
        assert probe.exponent is not None and probe.exponent < 0.1

    def test_box_scale_route(self):
        probe = coarse_exceedance_probe(32, 0.5, 0.3, replicas=40, seed=77)
        assert probe.zeta == 0.5
        assert probe.threshold == pytest.approx(level_threshold(32, 0.3))
        assert 0.0 <= probe.estimate.mean <= 1.0
        assert probe.estimate.replicas == 40

    def test_validation(self):
        with pytest.raises(ValueError, match="zeta"):
            coarse_exceedance_probe(32, 1.0, 0.5, replicas=10, seed=0)
        with pytest.raises(ValueError, match="b must"):
            coarse_exceedance_probe(32, 0.0, 0.0, replicas=10, seed=0)
        with pytest.raises(ValueError, match="replicas"):
            coarse_exceedance_probe(32, 0.0, 0.5, replicas=0, seed=0)
