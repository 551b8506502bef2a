"""High-point counting and exceedance exponents."""

import math

import numpy as np
import pytest
import scipy.fft
from scipy import stats

from levelsim import mc
from levelsim import tolerances as tol
from levelsim.gff import (
    GAMMA,
    GreenOperator,
    coarse_exceedance_probe,
    estimate_daviaud_exponent,
    expected_level_count,
    level_threshold,
    levels,
    rounding_flip_bound,
    sample,
    sample_fields,
    spectral_scale,
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
    def test_monotone_in_eta(self):
        field = sample_fields(32, 1, mc.replica_rng(70, 0))[0]
        counts = [
            int((field >= level_threshold(32, eta)).sum()) for eta in (0.2, 0.4, 0.6, 0.8)
        ]
        assert counts == sorted(counts, reverse=True)


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

    def test_bitwise_the_sum_of_gaussian_tails(self):
        # scipy.stats is the oracle only; the package evaluates the tail by ndtr
        for grid_n, eta in ((16, 0.2), (32, 0.5), (64, 0.9)):
            thr = level_threshold(grid_n, eta)
            variances = GreenOperator(grid_n).diagonal()
            with np.errstate(divide="ignore"):
                expected = float(stats.norm.sf(thr / np.sqrt(variances)).sum())
            assert expected_level_count(grid_n, eta) == expected


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
        with pytest.raises(tol.WorkRefusedError) as info:
            coarse_exceedance_probe(64, 0.0, 2.0, replicas=100, seed=75)
        err = info.value
        assert err.stage == "gff.coarse_exceedance_probe"
        assert err.limit == 10 / 100
        assert err.predicted == pytest.approx(64.0 ** (-6.0))
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


def largest_float32_below(thr):
    """The largest float32 strictly below thr; where float32 rounds thr down
    this is np.float32(thr) itself."""
    x = np.float32(thr)
    return x if float(x) < thr else np.nextafter(x, np.float32(-np.inf))


class TestFloat32Consumers:
    """Level counts and the zeta = 0 probe read float32 interiors and compare
    them with the threshold exactly."""

    def crafted(self, monkeypatch, grid_n, thr, above_sites):
        """Stub the float32 route: every interior site just below thr, except
        the first `above_sites` sites of each field, just above it."""
        below = largest_float32_below(thr)
        above = np.nextafter(below, np.float32(np.inf))
        assert float(below) < thr <= float(above)

        def crafted(n, size, rng):
            assert n == grid_n
            out = np.full((size, n - 2, n - 2), below, dtype=np.float32)
            out.reshape(size, -1)[:, :above_sites] = above
            return out

        monkeypatch.setattr(levels, "sample_interiors_float32", crafted)

    def test_counts_compare_exactly(self, monkeypatch):
        grid_n, eta = 64, 0.3
        thr = level_threshold(grid_n, eta)
        # float32 rounds this threshold down, so a comparison against the
        # rounded threshold would count every site below it
        assert float(np.float32(thr)) < thr
        self.crafted(monkeypatch, grid_n, thr, above_sites=3)
        est = estimate_daviaud_exponent([grid_n], eta, replicas=5, seed=80)
        assert est.points[0].counts.mean == 3.0
        assert est.points[0].counts.stderr == 0.0

    def test_probe_compares_exactly(self, monkeypatch):
        grid_n, b = 64, 0.5
        thr = level_threshold(grid_n, b)
        assert float(np.float32(thr)) < thr
        self.crafted(monkeypatch, grid_n, thr, above_sites=0)
        probe = coarse_exceedance_probe(grid_n, 0.0, b, replicas=20, seed=81)
        assert probe.estimate.mean == 0.0
        self.crafted(monkeypatch, grid_n, thr, above_sites=1)
        probe = coarse_exceedance_probe(grid_n, 0.0, b, replicas=20, seed=81)
        assert probe.estimate.mean == 1.0

    def test_consumers_match_float64_on_their_own_streams(self):
        grid_n, eta, b, replicas = 64, 0.3, 0.9, 100
        block = levels._field_block(grid_n)
        delta = tol.FIELD_FLOAT32_DELTA

        def twin(size, rng):
            # the same float32 normals, scaled and transformed in float64
            n = grid_n - 2
            noise = sample._standard_normal_float32(rng, (size, n, n)).astype(np.float64)
            noise *= spectral_scale(grid_n)
            return scipy.fft.dstn(noise, type=1, norm="ortho", axes=(1, 2))

        def double(seed):
            return np.concatenate(
                [
                    twin(min(block, replicas - k), mc.replica_rng(seed, i))
                    for i, k in enumerate(range(0, replicas, block))
                ]
            )

        est = estimate_daviaud_exponent([grid_n], eta, replicas=replicas, seed=82)
        fields = double(mc.derive_seed(82, grid_n))
        thr = level_threshold(grid_n, eta)
        counts = (fields >= thr).sum(axis=(1, 2))
        near = (np.abs(fields - thr) < delta).sum()
        assert abs(round(est.points[0].counts.mean * replicas) - counts.sum()) <= near

        probe = coarse_exceedance_probe(grid_n, 0.0, b, replicas=replicas, seed=83)
        maxima = double(83).max(axis=(1, 2))
        hits = (maxima >= probe.threshold).sum()
        near = (np.abs(maxima - probe.threshold) < delta).sum()
        assert abs(round(probe.estimate.mean * replicas) - hits) <= near

    def test_oversized_requests_are_refused_before_sampling(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("sampling started before the budget check")

        monkeypatch.setattr(levels.mc, "map_blocks", never)
        with pytest.raises(tol.WorkRefusedError, match="field budget"):
            estimate_daviaud_exponent([200_000], 0.3, replicas=1, seed=0)
        with pytest.raises(tol.WorkRefusedError, match="field budget"):
            coarse_exceedance_probe(200_000, 0.0, 1.0, replicas=10, seed=0)


class TestWorkerSetting:
    """The threshold maps run on every usable CPU when numpy's BLAS is
    pinned and serially otherwise; their results are the same at any CPU
    count, pinned or not."""

    def test_results_do_not_depend_on_it(self, monkeypatch):
        runs = {
            "daviaud": lambda: estimate_daviaud_exponent([16, 32], 0.3, {16: 150, 32: 70}, 86),
            "flat": lambda: coarse_exceedance_probe(32, 0.0, 0.4, replicas=300, seed=87),
            "boxes": lambda: coarse_exceedance_probe(32, 0.5, 0.3, replicas=40, seed=88),
        }
        # repr: exact for floats, and equal where both sides are nan
        results = {name: {repr(run())} for name, run in runs.items()}
        for cpus in (1, 4):
            for pinned in (False, True):
                monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
                monkeypatch.setattr(mc, "_BLAS_PINNED", pinned)
                for name, run in runs.items():
                    results[name].add(repr(run()))
        assert all(len(seen) == 1 for seen in results.values()), results


class TestRoundingFlipBound:
    def test_matches_per_site_sum(self):
        grid_n, delta = 16, tol.FIELD_FLOAT32_DELTA
        thr = level_threshold(grid_n, 0.6)
        green = GreenOperator(grid_n)
        sites = [(r, c) for r in range(1, grid_n - 1) for c in range(1, grid_n - 1)]
        sigmas = [math.sqrt(green.variance(site)) for site in sites]
        brute = sum(
            2.0 * delta * stats.norm.pdf((thr - delta) / s) / s for s in sigmas
        )
        exact = sum(
            stats.norm.cdf((thr + delta) / s) - stats.norm.cdf((thr - delta) / s)
            for s in sigmas
        )
        bound = rounding_flip_bound(grid_n, thr)
        assert bound == pytest.approx(brute, rel=1e-9)
        # a bound on sum_s P(|X_s - u| < delta), and a tight one
        assert exact <= bound <= exact * (1.0 + 1e-3)

    def test_only_float32_estimates_carry_it(self):
        flat = coarse_exceedance_probe(32, 0.0, 0.3, replicas=20, seed=84)
        assert flat.rounding_flip_bound == rounding_flip_bound(32, flat.threshold)
        boxes = coarse_exceedance_probe(32, 0.5, 0.3, replicas=20, seed=84)
        assert boxes.rounding_flip_bound is None
        est = estimate_daviaud_exponent([16, 32], 0.3, replicas=5, seed=85)
        assert [p.rounding_flip_bound for p in est.points] == [
            rounding_flip_bound(n, level_threshold(n, 0.3)) for n in (16, 32)
        ]
