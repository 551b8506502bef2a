"""Branching-process growth caps, tail bounds, block simulation, exact convolution."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from levelsim import gw, mc, pipelines
from levelsim import tolerances as tol


def plan_of(laws, initial):
    return gw.GwPlan(initial=initial, laws=tuple(laws))


class TestOffspringLaw:
    def test_means(self):
        assert gw.OffspringLaw.poisson(1.5).mean == pytest.approx(1.5)
        assert gw.OffspringLaw.geometric(0.5).mean == pytest.approx(2.0)
        assert gw.OffspringLaw.deterministic(3).mean == pytest.approx(3.0)
        table = gw.OffspringLaw.table({1: 0.5, 2: 0.3, 3: 0.2})
        assert table.mean == pytest.approx(1.7)

    def test_max_support(self):
        assert gw.OffspringLaw.deterministic(3).max_support == 3
        assert gw.OffspringLaw.table({0: 0.5, 4: 0.5}).max_support == 4
        assert gw.OffspringLaw.poisson(2.0).max_support is None
        assert gw.OffspringLaw.geometric(0.3).max_support is None

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            gw.OffspringLaw.geometric(0.0)
        with pytest.raises(ValueError):
            gw.OffspringLaw.poisson(-1.0)
        with pytest.raises(ValueError):
            gw.OffspringLaw.table({})
        with pytest.raises(ValueError):
            gw.OffspringLaw.table({0: 0.4, 1: 0.4})

    def test_geometric_mgf_divergence(self):
        law = gw.OffspringLaw.geometric(0.5)
        radius = -math.log1p(-0.5)
        assert math.isfinite(law.log_mgf(radius - 1e-3))
        with pytest.raises(gw.DivergentMgfError):
            law.log_mgf(radius)


class TestBSequence:
    def test_recursion_anchor(self):
        assert gw.b_sequence(3, 1.5, (2.0, 1.0)) == (3, 9, 13)

    def test_unit_means_double_each_step(self):
        seq = gw.b_sequence(1, 2.0, (1.0,) * 8)
        assert seq == tuple(2**i for i in range(9))

    def test_cap_dominates_every_prefix(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            initial = int(rng.integers(1, 50))
            growth = 1.0 + rng.uniform(0.01, 1.0)
            means = tuple(rng.uniform(0.2, 3.0) for _ in range(n))
            seq = gw.b_sequence(initial, growth, means)
            for i in range(1, n + 1):
                cap = gw.growth_cap(initial, growth, means[:i])
                assert seq[i] <= cap * (1.0 + 1e-12) + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            gw.b_sequence(0, 1.5, (1.0,))
        with pytest.raises(ValueError):
            gw.b_sequence(1, 1.0, (1.0,))
        with pytest.raises(ValueError):
            gw.b_sequence(1, 1.5, (0.0,))


class TestMgfCondition:
    def test_deterministic_law_any_rate_above_one(self):
        law = gw.OffspringLaw.deterministic(4)
        for alpha in (1.0001, 1.5, 3.0):
            assert gw.verify_mgf_condition(law, 0.7, alpha).satisfied

    def test_poisson_flips_as_lambda_grows(self):
        law = gw.OffspringLaw.poisson(2.5)
        assert gw.verify_mgf_condition(law, 0.15, 1.1).satisfied
        assert not gw.verify_mgf_condition(law, 0.5, 1.1).satisfied

    def test_table_law_by_direct_summation(self):
        law = gw.OffspringLaw.table({0: 0.5, 2: 0.5})
        lam, alpha = 0.1, 1.2
        lhs = math.log(0.5 + 0.5 * math.exp(2 * lam))
        rhs = alpha * lam * 1.0
        check = gw.verify_mgf_condition(law, lam, alpha)
        assert check.log_mgf == pytest.approx(lhs, rel=1e-12)
        assert check.margin == pytest.approx(rhs - lhs, rel=1e-9)
        assert check.satisfied == (lhs <= rhs)

    def test_rejects_bad_arguments(self):
        law = gw.OffspringLaw.poisson(1.0)
        with pytest.raises(ValueError):
            gw.verify_mgf_condition(law, 0.0, 1.1)
        with pytest.raises(ValueError):
            gw.verify_mgf_condition(law, 0.1, 1.0)


class TestPropBound:
    def test_single_generation_display(self):
        law = gw.OffspringLaw.poisson(1.5)
        plan = plan_of([law], 100)
        bound = gw.prop_bound(plan, alpha=1.1, delta=0.1, lambdas=(0.15,))
        expected = min(1.0, math.exp(-0.1 * 100 * 0.15 / 1.2 + 0.15))
        assert bound.probability == pytest.approx(expected, rel=1e-12)
        assert bound.count_threshold == math.ceil(bound.threshold)

    def test_deterministic_growth_stays_under_threshold(self):
        laws = [gw.OffspringLaw.deterministic(2)] * 5
        plan = plan_of(laws, 3)
        bound = gw.prop_bound(plan, alpha=1.05, delta=0.05, lambdas=(0.3,) * 5)
        # Z_5 = 3 * 2^5 = 96 deterministically, under the (alpha+delta)^5 cap
        assert 3 * 2**5 < bound.threshold
        est = gw.empirical_exceedance(plan, bound.threshold, mc.ReplicaPlan(200, 99))
        assert est.estimate.mean == 0.0
        assert est.censored == 0

    def test_rejects_failing_mgf_with_generation_index(self):
        law = gw.OffspringLaw.poisson(2.5)
        plan = plan_of([law] * 3, 10)
        with pytest.raises(ValueError, match="generation 0"):
            gw.prop_bound(plan, alpha=1.1, delta=0.1, lambdas=(0.5, 0.5, 0.5))

    def test_rejects_lambda_count_mismatch(self):
        plan = plan_of([gw.OffspringLaw.poisson(1.0)] * 2, 5)
        with pytest.raises(ValueError, match="one lambda per generation"):
            gw.prop_bound(plan, alpha=1.1, delta=0.1, lambdas=(0.1,))

    def test_exact_exceedance_within_bound(self):
        # initial counts are large enough that the bound is informative (< 1)
        cases = [
            ([{1: 0.5, 2: 0.3, 3: 0.2}] * 2, 150, 1.1, 0.1, 0.1),
            ([{0: 0.2, 1: 0.3, 2: 0.5}] * 2, 100, 1.2, 0.2, 0.15),
            ([{2: 1.0}] * 2, 200, 1.05, 0.05, 0.3),
        ]
        for tables, initial, alpha, delta, lam in cases:
            laws = [gw.OffspringLaw.table(t) for t in tables]
            plan = plan_of(laws, initial)
            bound = gw.prop_bound(plan, alpha, delta, (lam, lam))
            assert bound.probability < 1.0
            exact = gw.exact_exceedance(plan, bound.threshold)
            assert exact <= bound.probability + 1e-15


class TestSimulation:
    def test_deterministic_doubling(self):
        laws = [gw.OffspringLaw.deterministic(2)] * 10
        counts, censored = gw.simulate_gw(plan_of(laws, 1), mc.replica_rng(0, 0), 10)
        assert (counts[:, -1] == 1024).all()
        assert not censored.any()

    def test_extinction_is_absorbing(self):
        laws = [gw.OffspringLaw.table({0: 1.0})] + [gw.OffspringLaw.poisson(2.0)] * 3
        counts, _ = gw.simulate_gw(plan_of(laws, 5), mc.replica_rng(1, 0), 4)
        assert (counts == [5, 0, 0, 0, 0]).all()

    def test_critical_poisson_mean_matches_initial(self):
        laws = [gw.OffspringLaw.poisson(1.0)] * 5
        plan = plan_of(laws, 100)
        finals = mc.map_blocks(
            mc.ReplicaPlan(10_000, 1234),
            tol.GW_BLOCK,
            lambda rng, size: gw.simulate_gw(plan, rng, size)[0][:, -1],
        )
        assert mc.summarize(finals).within(100.0, 3.0)

    def test_mixed_laws_run(self):
        laws = [
            gw.OffspringLaw.geometric(0.6),
            gw.OffspringLaw.poisson(1.2),
            gw.OffspringLaw.table({0: 0.3, 1: 0.4, 2: 0.3}),
        ]
        counts, _ = gw.simulate_gw(plan_of(laws, 50), mc.replica_rng(3, 0), 8)
        assert counts.shape == (8, 4)
        assert (counts >= 0).all()


class TestBlockLaws:
    @pytest.mark.parametrize(
        "law",
        [
            gw.OffspringLaw.deterministic(2),
            gw.OffspringLaw.geometric(0.5),
            gw.OffspringLaw.poisson(1.5),
            gw.OffspringLaw.table({0: 0.2, 1: 0.3, 2: 0.5}),
        ],
        ids=["deterministic", "geometric", "poisson", "table"],
    )
    def test_block_mixes_extinct_and_live_replicas(self, law):
        counts = np.array([0, 1000, 0, 1, 0, 40_000], dtype=np.int64)
        totals = law.sample_totals(counts, mc.replica_rng(12, 0))
        assert totals.dtype == np.int64
        assert (totals[counts == 0] == 0).all()
        for c, z in zip(counts[1::2], totals[1::2]):
            # sums of c i.i.d. offspring numbers stay within 6 sd of c * mean
            sd = math.sqrt(c * 2.0)  # every law here has variance <= 2
            assert abs(z - c * law.mean) <= 6.0 * sd + 1e-9

    def test_geometric_after_extinct_generation(self):
        laws = [gw.OffspringLaw.table({0: 1.0}), gw.OffspringLaw.geometric(0.5)]
        counts, censored = gw.simulate_gw(plan_of(laws, 3), mc.replica_rng(2, 0), 50)
        assert (counts[:, 1:] == 0).all()
        assert not censored.any()

    def test_table_law_generation_two_matches_exact_pmf(self):
        plan = plan_of([gw.OffspringLaw.table({0: 0.2, 1: 0.3, 2: 0.5})] * 2, 4)
        finals = mc.map_blocks(
            mc.ReplicaPlan(20_000, 13),
            tol.GW_BLOCK,
            lambda rng, size: gw.simulate_gw(plan, rng, size)[0][:, -1],
        )
        tail = np.array([gw.exact_exceedance(plan, j) for j in range(18)])
        pmf = tail[:-1] - tail[1:]
        observed = np.bincount(finals, minlength=pmf.size)
        assert observed.size == pmf.size
        # pool the sparse upper and lower tails so every expected count is >= 5
        expected = pmf * finals.size
        keep = expected >= 5.0
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        assert stats.chisquare(obs, exp).pvalue > 1e-3

    def test_deterministic_growth_censors_without_overflow(self):
        # Z_5 = 10**15 passes the cap; Z_7 would be 10**21 and wrap int64
        laws = [gw.OffspringLaw.deterministic(1000)] * 8
        plan = plan_of(laws, 1)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            counts, censored = gw.simulate_gw(plan, mc.replica_rng(4, 0), 3)
            est = gw.empirical_exceedance(plan, 1e30, mc.ReplicaPlan(5, 4))
        assert (counts[:, :6] == [10**i for i in range(0, 18, 3)]).all()
        assert (counts[:, 6:] == 0).all()
        assert censored.all()
        assert est.censored == 5 and est.estimate.mean == 1.0

    def test_cap_that_could_overflow_is_refused(self):
        plan = plan_of([gw.OffspringLaw.deterministic(10**7)], 1)
        with pytest.raises(ValueError, match="overflows int64"):
            gw.simulate_gw(plan, mc.replica_rng(4, 0), 1)


class TestExceedance:
    def test_zero_threshold_is_certain(self):
        plan = plan_of([gw.OffspringLaw.poisson(1.0)] * 2, 3)
        est = gw.empirical_exceedance(plan, 0.0, mc.ReplicaPlan(500, 2))
        assert est.estimate.mean == 1.0

    def test_unreachable_threshold_is_impossible(self):
        plan = plan_of([gw.OffspringLaw.table({0: 0.5, 2: 0.5})] * 2, 2)
        # max reachable population is 2 * 2 * 2 = 8
        est = gw.empirical_exceedance(plan, 9.0, mc.ReplicaPlan(500, 2))
        assert est.estimate.mean == 0.0

    def test_censored_runs_count_as_exceedances(self, monkeypatch):
        monkeypatch.setattr(tol, "GW_POPULATION_CAP", 10)
        laws = [gw.OffspringLaw.deterministic(3)] * 4
        plan = plan_of(laws, 2)
        est = gw.empirical_exceedance(plan, 100.0, mc.ReplicaPlan(50, 7))
        # growth passes the cap in every run before the final generation
        assert est.censored == 50
        assert est.estimate.mean == 1.0

    def test_exact_agrees_with_simulation(self):
        plan = plan_of([gw.OffspringLaw.table({0: 0.2, 1: 0.3, 2: 0.5})] * 2, 4)
        exact = gw.exact_exceedance(plan, 7.0)
        est = gw.empirical_exceedance(plan, 7.0, mc.ReplicaPlan(20_000, 5))
        assert 0.0 < exact < 1.0
        assert abs(est.estimate.mean - exact) < 4.0 * max(est.estimate.stderr, 1e-4)

    def test_exact_rejects_unbounded_support(self):
        plan = plan_of([gw.OffspringLaw.poisson(1.0)], 2)
        with pytest.raises(ValueError, match="unbounded support"):
            gw.exact_exceedance(plan, 3.0)

    def test_exact_rejects_huge_state_space(self):
        plan = plan_of([gw.OffspringLaw.deterministic(500)], 1000)
        with pytest.raises(ValueError, match="state space"):
            gw.exact_exceedance(plan, 1e6)

    def test_exact_refuses_before_any_convolution(self, monkeypatch):
        # the first generation reaches 150001 states, within the limit; only
        # the last one, at 300001, exceeds it
        laws = [
            gw.OffspringLaw.table({0: 0.5, 150_000: 0.5}),
            gw.OffspringLaw.deterministic(2),
        ]
        plan = plan_of(laws, 1)
        assert 150_001 <= tol.EXACT_STATE_LIMIT < 300_001
        calls = []
        real = np.convolve

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "convolve", counting)
        with pytest.raises(ValueError, match="state space 300001"):
            gw.exact_exceedance(plan, 1.0)
        assert calls == []

    def test_gw_verify_draws_one_stream_per_block(self, monkeypatch):
        calls = []
        real = mc.replica_rng

        def counting(master_seed, index):
            calls.append(index)
            return real(master_seed, index)

        monkeypatch.setattr(mc, "replica_rng", counting)
        report = pipelines.run_gw_verify(5, replicas=2 * tol.GW_BLOCK + 1)
        assert calls == [0, 1, 2] * len(report.estimates)
