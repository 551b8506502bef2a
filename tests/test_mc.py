"""Seed derivation, deterministic parallel execution, and aggregation."""

import math

import numpy as np
import pytest

from levelsim import mc


class TestDeriveSeed:
    def test_deterministic(self):
        assert mc.derive_seed(12345, 678) == mc.derive_seed(12345, 678)

    def test_collision_free_in_index(self):
        n = 1_000_000
        seeds = {mc.derive_seed(900, i) for i in range(n)}
        assert len(seeds) == n

    def test_distinct_across_masters(self):
        masters = {mc.derive_seed(m, 0) for m in range(1000)}
        assert len(masters) == 1000

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            mc.derive_seed(1, -1)

    def test_64_bit_range(self):
        for i in (0, 1, 17, 2**20):
            s = mc.derive_seed(2**63, i)
            assert 0 <= s < 2**64


class TestReplicaRng:
    def test_streams_are_reproducible(self):
        a = mc.replica_rng(7, 3).random(4)
        b = mc.replica_rng(7, 3).random(4)
        assert np.array_equal(a, b)

    def test_streams_differ_by_index(self):
        draws = [mc.replica_rng(7, i).random() for i in range(50)]
        assert len(set(draws)) == 50


class TestReplicaPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            mc.ReplicaPlan(0, 1)
        with pytest.raises(ValueError):
            mc.ReplicaPlan(5, 1, max_concurrency=0)


class TestParallelMap:
    def test_preserves_replica_order(self):
        plan = mc.ReplicaPlan(100, 5, max_concurrency=8)
        sequential = [mc.replica_rng(5, i).random() for i in range(100)]
        assert mc.parallel_map(plan, lambda rng: rng.random()) == sequential

    def test_concurrency_does_not_change_results(self):
        task = lambda rng: float(rng.random() < 0.5)
        runs = [
            mc.parallel_map(mc.ReplicaPlan(200, 42, max_concurrency=c), task)
            for c in (1, 2, 8)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_worker_exceptions_propagate(self):
        def task(rng):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            mc.parallel_map(mc.ReplicaPlan(3, 1, max_concurrency=2), task)


class TestSummarize:
    def test_known_values(self):
        est = mc.summarize([1.0, 2.0, 3.0, 4.0])
        assert est.mean == pytest.approx(2.5)
        # sample std of 1..4 is sqrt(5/3)
        assert est.stderr == pytest.approx(math.sqrt(5.0 / 3.0) / 2.0)
        assert est.replicas == 4
        assert est.zero_count == 0

    def test_permutation_invariant(self):
        values = list(np.random.default_rng(3).normal(size=40))
        shuffled = values[::-1]
        a, b = mc.summarize(values), mc.summarize(shuffled)
        assert a.mean == pytest.approx(b.mean, rel=1e-12)
        assert a.stderr == pytest.approx(b.stderr, rel=1e-12)

    def test_zero_count_and_single_value(self):
        est = mc.summarize([0.0, 0.0, 1.0])
        assert est.zero_count == 2
        single = mc.summarize([5.0])
        assert math.isnan(single.stderr)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mc.summarize([])

    def test_within(self):
        est = mc.Estimate(mean=1.0, stderr=0.1, replicas=10)
        assert est.within(1.25, 3.0)
        assert not est.within(1.5, 3.0)


class TestRunReplicas:
    def test_constant_task(self):
        est = mc.run_replicas(mc.ReplicaPlan(50, 8), lambda rng: 2.5)
        assert est.mean == 2.5
        assert est.stderr == 0.0

    def test_uniform_mean(self):
        est = mc.run_replicas(mc.ReplicaPlan(4000, 21), lambda rng: rng.random())
        assert est.within(0.5, 3.5)


class TestBinomialEstimate:
    def test_normal_interval_when_counts_large(self):
        est = mc.binomial_estimate(40, 100)
        se = math.sqrt(0.4 * 0.6 / 100)
        assert est.mean == pytest.approx(0.4)
        assert est.stderr == pytest.approx(se)
        assert est.ci_low == pytest.approx(0.4 - 1.959963984540054 * se)
        assert est.ci_high == pytest.approx(0.4 + 1.959963984540054 * se)

    def test_exact_interval_for_rare_events(self):
        # zero successes: upper endpoint solves (1-hi)^n = alpha/2
        n = 200
        est = mc.binomial_estimate(0, n)
        assert est.ci_low == 0.0
        assert est.ci_high == pytest.approx(1.0 - 0.025 ** (1.0 / n), rel=1e-9)
        full = mc.binomial_estimate(n, n)
        assert full.ci_high == 1.0
        assert full.ci_low == pytest.approx(0.025 ** (1.0 / n), rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            mc.binomial_estimate(1, 0)
        with pytest.raises(ValueError):
            mc.binomial_estimate(5, 4)
        with pytest.raises(ValueError):
            mc.clopper_pearson(1, 0)


class TestFitExponent:
    def test_recovers_exact_line(self):
        x = [0.0, 1.0, 2.0, 3.0]
        y = [3.0 * v + 1.0 for v in x]
        fit = mc.fit_exponent(x, y)
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert max(abs(r) for r in fit.residuals) < 1e-12
        assert fit.slope_stderr == pytest.approx(0.0, abs=1e-12)

    def test_noisy_slope_recovery(self):
        rng = np.random.default_rng(14)
        x = np.linspace(0.0, 5.0, 60)
        y = -2.0 * x + 0.7 + rng.normal(scale=0.05, size=x.size)
        fit = mc.fit_exponent(x, y)
        assert abs(fit.slope + 2.0) < 4.0 * fit.slope_stderr
        assert abs(fit.slope + 2.0) <= 0.05 * 2.0

    def test_two_points_have_nan_stderr(self):
        fit = mc.fit_exponent([0.0, 1.0], [1.0, 2.0])
        assert fit.slope == pytest.approx(1.0)
        assert math.isnan(fit.slope_stderr)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            mc.fit_exponent([1.0], [2.0])
        with pytest.raises(ValueError):
            mc.fit_exponent([1.0, 1.0], [2.0, 3.0])
        with pytest.raises(ValueError):
            mc.fit_exponent([1.0, 2.0], [1.0, 2.0, 3.0])
