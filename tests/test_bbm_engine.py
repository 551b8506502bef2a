"""Branching diffusion engines and their counting estimators."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from levelsim import mc
from levelsim import tolerances as tol
from levelsim.bbm import engine, estimators
from levelsim.bbm import (
    BbmRunConfig,
    NoDataError,
    check_nbbm_dominance,
    count_at_or_above,
    estimate_level_exponent,
    estimate_max_tail,
    expected_count_oracle,
    refuse_doomed_horizon,
    replica_counts,
    sample_positions,
    simulate_bbm,
    simulate_nbbm,
)


class TestRunConfig:
    def test_defaults_single_snapshot_at_end(self):
        cfg = BbmRunConfig(2.5)
        assert cfg.snapshot_times == (2.5,)

    def test_validation(self):
        with pytest.raises(ValueError):
            BbmRunConfig(0.0)
        with pytest.raises(ValueError):
            BbmRunConfig(1.0, snapshot_times=(0.5, 0.5))
        with pytest.raises(ValueError):
            BbmRunConfig(1.0, snapshot_times=(0.5, 1.5))
        with pytest.raises(ValueError):
            BbmRunConfig(1.0, snapshot_times=())


class TestChronologicalEngine:
    def test_starts_as_single_particle_at_origin(self):
        cfg = BbmRunConfig(1.0, snapshot_times=(0.0, 1.0))
        pops = simulate_bbm(cfg, mc.replica_rng(1, 0))
        assert pops[0].count == 1
        assert pops[0].positions[0] == 0.0

    def test_counts_never_decrease(self):
        cfg = BbmRunConfig(3.0, snapshot_times=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0))
        for seed in range(5):
            pops = simulate_bbm(cfg, mc.replica_rng(seed, 0))
            counts = [p.count for p in pops]
            assert counts == sorted(counts)

    def test_population_cap_raises_with_progress(self, monkeypatch):
        monkeypatch.setattr(tol, "BBM_PARTICLE_CAP", 64)
        with pytest.raises(tol.WorkRefusedError) as info:
            simulate_bbm(BbmRunConfig(50.0), mc.replica_rng(3, 0))
        err = info.value
        assert (err.stage, err.quantity) == ("bbm.simulate_bbm", "particles")
        # the refused branch would make the 65th particle
        assert (err.predicted, err.limit) == (65, 64)
        assert 0.0 < err.reached < 50.0
        assert str(err).startswith("a population of 65 would exceed the cap of 64 at time ")

    def test_population_size_is_geometric(self):
        # binary splitting at rate 1 makes the count at t=1 geometric(e^-1)
        counts = np.array(
            [
                simulate_bbm(BbmRunConfig(1.0), mc.replica_rng(61, i))[-1].count
                for i in range(2000)
            ]
        )
        p = math.exp(-1.0)
        edges = list(range(1, 11))
        observed = [int((counts == k).sum()) for k in edges]
        observed.append(int((counts > edges[-1]).sum()))
        expected = [2000 * p * (1 - p) ** (k - 1) for k in edges]
        expected.append(2000 * (1 - p) ** edges[-1])
        assert stats.chisquare(observed, expected).pvalue > 0.001

    def test_tagged_node_is_standard_brownian(self):
        # a uniformly picked particle at t=2 is exactly N(0, 2)
        t = 2.0
        values = []
        for i in range(2000):
            rng = mc.replica_rng(67, i)
            final = simulate_bbm(BbmRunConfig(t), rng)[-1]
            values.append(final.positions[int(rng.integers(final.count))])
        ks = stats.kstest(values, stats.norm(scale=math.sqrt(t)).cdf)
        assert ks.pvalue > 0.001


class TestLineage:
    def test_lineage_is_a_path_through_the_tree(self):
        cfg = BbmRunConfig(3.0, snapshot_times=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0))
        pops = simulate_bbm(cfg, mc.replica_rng(6, 0))
        # the first snapshot descends from the root, and no particle dies, so
        # every particle of a snapshot has a descendant at the next one
        assert pops[0].ancestors.tolist() == [0] * pops[0].count
        for early, late in zip(pops, pops[1:]):
            assert late.ancestors.dtype == np.int64
            assert late.ancestors.shape == late.positions.shape
            descendants = np.bincount(late.ancestors, minlength=early.count)
            assert descendants.size == early.count
            assert descendants.min() >= 1

    def test_ancestor_steps_are_brownian(self):
        # a uniformly picked particle at t=3.5 moved N(0, 1/2) since its
        # ancestor at t=3. About a third of them were born in between; naming
        # any other particle as their ancestor adds the spread of two lines
        # since they split, a variance of order t.
        cfg = BbmRunConfig(3.5, snapshot_times=(3.0, 3.5))
        values = []
        for i in range(1000):
            rng = mc.replica_rng(73, i)
            early, late = simulate_bbm(cfg, rng)
            k = int(rng.integers(late.count))
            values.append(late.positions[k] - early.positions[late.ancestors[k]])
        ks = stats.kstest(values, stats.norm(scale=math.sqrt(0.5)).cdf)
        assert ks.pvalue > 0.001


class TestVectorizedSweep:
    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            sample_positions(0.0, mc.replica_rng(1, 0))

    def test_tagged_particle_is_standard_brownian(self):
        # a uniformly chosen particle at time t is exactly N(0, t)
        t = 2.0
        values = []
        for i in range(3000):
            rng = mc.replica_rng(17, i)
            xs = sample_positions(t, rng)
            values.append(float(xs[int(rng.integers(xs.size))]))
        arr = np.asarray(values)
        assert abs(arr.mean()) < 3.5 * math.sqrt(t / arr.size)
        var_se = t * math.sqrt(2.0 / (arr.size - 1))
        assert abs(arr.var(ddof=1) - t) < 3.5 * var_se
        ks = stats.kstest(arr, stats.norm(scale=math.sqrt(t)).cdf)
        assert ks.pvalue > 0.01

    def test_population_size_is_geometric(self):
        # binary splitting at rate 1 makes the count geometric(e^-t)
        t = 1.0
        counts = np.array(
            [sample_positions(t, mc.replica_rng(23, i)).size for i in range(2000)]
        )
        est = mc.summarize(counts)
        assert est.within(math.exp(t), 3.5)
        p = math.exp(-t)
        edges = list(range(1, 11))
        observed = [int((counts == k).sum()) for k in edges]
        observed.append(int((counts > edges[-1]).sum()))
        expected = [2000 * p * (1 - p) ** (k - 1) for k in edges]
        expected.append(2000 * (1 - p) ** edges[-1])
        chi = stats.chisquare(observed, expected)
        assert chi.pvalue > 0.001

    def test_mean_count_matches_exponential_growth(self):
        t = 3.0
        est = mc.run_replicas(
            mc.ReplicaPlan(2000, 29),
            lambda rng: float(sample_positions(t, rng).size),
        )
        assert est.within(math.exp(t), 3.5)

    def test_particle_cap(self, monkeypatch):
        monkeypatch.setattr(tol, "BBM_PARTICLE_CAP", 100)
        with pytest.raises(tol.WorkRefusedError):
            sample_positions(12.0, mc.replica_rng(1, 0))


class TestBlockSweep:
    @pytest.mark.parametrize("t", [1.0, 5.0, 8.0])
    def test_size_one_counts_match_sample_positions_draw_for_draw(self, t):
        for i in range(10):
            xs = sample_positions(t, mc.replica_rng(83, i))
            for level in (-math.inf, 0.0, 0.8 * t):
                counts = count_at_or_above(t, level, mc.replica_rng(83, i), 1)
                assert counts.dtype == np.int64
                assert counts.tolist() == [int((xs >= level).sum())]

    def test_block_counts_reduce_the_waves(self):
        t, size, level = 3.0, 40, 1.0
        waves = list(engine._waves(t, mc.replica_rng(89, 0), size))
        xs = np.concatenate([x for x, _ in waves])
        ids = np.concatenate([rep for _, rep in waves])
        assert set(ids.tolist()) == set(range(size))
        brute = [int((xs[ids == r] >= level).sum()) for r in range(size)]
        counts = count_at_or_above(t, level, mc.replica_rng(89, 0), size)
        assert counts.tolist() == brute
        population = count_at_or_above(t, -math.inf, mc.replica_rng(89, 0), size)
        assert population.tolist() == np.bincount(ids, minlength=size).tolist()

    @pytest.mark.parametrize("t, replicas, streams", [(4.0, 2500, 3), (8.0, 43, 3)])
    def test_one_stream_per_block(self, t, replicas, streams, monkeypatch):
        block = max(1, tol.BBM_BLOCK_PARTICLES // math.ceil(math.exp(t)))
        assert -(-replicas // block) == streams
        keys = []
        real = mc.replica_rng

        def counted(master, index):
            keys.append(index)
            return real(master, index)

        monkeypatch.setattr(mc, "replica_rng", counted)
        assert replica_counts(t, 0.0, replicas, 5).shape == (replicas,)
        assert keys == list(range(streams))

    def test_block_population_is_geometric(self):
        # each replica of a block grows its own Yule tree: Geometric(e^-t).
        # At t=2 a sweep that mixes up the children's replica ids fails this.
        t, size = 2.0, 2000
        counts = count_at_or_above(t, -math.inf, mc.replica_rng(101, 0), size)
        p = math.exp(-t)
        edges = list(range(1, 21))
        observed = [int((counts == k).sum()) for k in edges]
        observed.append(int((counts > edges[-1]).sum()))
        expected = [size * p * (1 - p) ** (k - 1) for k in edges]
        expected.append(size * (1 - p) ** edges[-1])
        assert stats.chisquare(observed, expected).pvalue > 0.001

    def test_block_mean_count_matches_oracle(self):
        t, x = 3.0, 0.5
        counts = count_at_or_above(t, x * t, mc.replica_rng(103, 0), 2000)
        assert mc.summarize(counts).within(expected_count_oracle(t, x), 3.5)

    def test_particle_cap_trips_inside_a_block(self, monkeypatch):
        monkeypatch.setattr(tol, "BBM_PARTICLE_CAP", 100)
        with pytest.raises(tol.WorkRefusedError) as info:
            list(engine._waves(6.0, mc.replica_rng(107, 0), 8))
        err = info.value
        assert (err.stage, err.quantity) == ("bbm.count_at_or_above", "particles")
        assert err.limit == 100
        assert err.predicted > 100
        assert 0.0 < err.reached < 6.0

    def test_nan_level_is_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            count_at_or_above(4.0, math.nan, mc.replica_rng(1, 0), 3)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.size.to_bytes(8, "little"))
        h.update(a.tobytes())
    return h.hexdigest()


class TestStreamPins:
    """SHA-256 of the sweep's outputs, which fix every reported count.

    Any change to what the generation-wave sweep draws, in which order, or
    to the arithmetic on those draws moves these digests; the draw-for-draw
    test above would not see a change both consumers share.
    """

    @pytest.mark.parametrize(
        "t, digest",
        [
            (1.0, "1ceb815440271b43664392b7be70d967c309831a3be2b1183f93d06b4458fdbb"),
            (5.0, "3d9d9a77605536ff45acccf7370d69ab9dd0606b1405c3d974172fe88971fd43"),
            (8.0, "f86b7aa0c645b0e98d4f46b6d2c5d9626c367f5220ef5666270c7dc07c5bd95b"),
        ],
    )
    def test_sample_positions(self, t, digest):
        xs = [sample_positions(t, mc.replica_rng(83, i)) for i in range(6)]
        assert _digest(xs) == digest

    @pytest.mark.parametrize(
        "t, size, digest",
        [
            (8.0, 1, "6f7ae261876ff1466b1c1e4aa069d746c026ddea2d4b5d053d797172957f40a3"),
            (8.0, 21, "93efb086f4d4fd1d82f97f5dc4fae8c7706f413c10a624d9c7ad03acce1b7065"),
            (4.0, 1191, "3bf5500b5cbe64f8a05e7e86014b4367b1a775cd1f2537524a9c81d592079580"),
        ],
    )
    def test_count_at_or_above(self, t, size, digest):
        counts = [
            count_at_or_above(t, level, mc.replica_rng(83, size), size)
            for level in (-math.inf, 0.0, 0.5 * t)
        ]
        assert all(c.dtype == np.int64 for c in counts)
        assert _digest(counts) == digest

    def test_particle_cap_progress(self, monkeypatch):
        monkeypatch.setattr(tol, "BBM_PARTICLE_CAP", 100)
        with pytest.raises(tol.WorkRefusedError) as info:
            list(engine._waves(6.0, mc.replica_rng(107, 0), 8))
        assert (info.value.reached, info.value.predicted) == (1.252483518734882, 115)

    # the chronological engine: sorted, so the pins fix the draws and not the
    # order in which the engine stores its particles
    _SNAPSHOTS = BbmRunConfig(5.0, snapshot_times=(0.0, 1.0, 2.5, 4.0, 5.0))

    def test_simulate_bbm(self):
        arrays = [
            np.sort(pop.positions)
            for seed in range(4)
            for pop in simulate_bbm(self._SNAPSHOTS, mc.replica_rng(113, seed))
        ]
        assert _digest(arrays) == (
            "b40322cd5f0d30f24746a869a2a8fe532bd6cc32ab200190947d93945f107037"
        )

    @pytest.mark.parametrize(
        "cap, digest",
        [
            (1, "4e9b8182f5b974f34234ad16ca9b893b4a2c5eddfc5632ee7fa3109471a625dc"),
            (10, "3e28006bff4c1537790c397c6b89b0ba77a8a33f6c7dc2753fc301d84ca77c8c"),
            (math.inf, "372eef86fa6e9dcb0541e697e5c1cc71232cae4f18e4a1cb3505025aa7cdc95f"),
        ],
    )
    def test_simulate_nbbm(self, cap, digest):
        arrays = []
        for seed in range(4):
            run = simulate_nbbm(self._SNAPSHOTS, cap, mc.replica_rng(127, seed))
            for snap in run.snapshots:
                arrays += [
                    np.sort(snap.positions),
                    np.array([snap.bbm_max_position]),
                    np.array([snap.bbm_count], dtype=np.int64),
                ]
        assert _digest(arrays) == digest


class TestDoomedHorizon:
    def test_threshold_is_the_geometric_tail(self):
        # P(N_16 > 10^7) = (1 - e^-16)^(10^7) = 0.3246: three replicas expect
        # 0.97 over the guard and pass, four expect 1.30 and are refused
        refuse_doomed_horizon(16.0, 3)
        with pytest.raises(tol.WorkRefusedError) as info:
            refuse_doomed_horizon(16.0, 4)
        err = info.value
        assert err.reached is None
        assert err.stage == "bbm.refuse_doomed_horizon"
        assert err.quantity == f"replicas above {tol.BBM_PARTICLE_CAP} particles"
        assert err.predicted == pytest.approx(4 * (-math.expm1(-16.0)) ** tol.BBM_PARTICLE_CAP)
        assert err.limit == 1.0
        assert "refused before sampling" in str(err)

    def test_shipped_horizons_pass(self):
        refuse_doomed_horizon(tol.BIGGINS_T, tol.BIGGINS_REPLICAS)
        refuse_doomed_horizon(tol.NBBM_T, tol.NBBM_REPLICAS)

    def test_estimators_refuse_before_any_draw(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("sampling started at a doomed horizon")

        monkeypatch.setattr(estimators, "count_at_or_above", never)
        monkeypatch.setattr(estimators, "simulate_nbbm", never)
        with pytest.raises(tol.WorkRefusedError):
            estimate_level_exponent(20.0, 0.5, replicas=200, seed=1)
        with pytest.raises(tol.WorkRefusedError):
            estimate_max_tail(20.0, 1.6, replicas=200, seed=1)
        with pytest.raises(tol.WorkRefusedError):
            check_nbbm_dominance(20.0, 10, replicas=1000, seed=1)


class TestCappedSystem:
    def test_infinite_cap_matches_free_run_draw_for_draw(self):
        cfg = BbmRunConfig(3.0, snapshot_times=(1.0, 2.0, 3.0))
        for seed in range(5):
            pops = simulate_bbm(cfg, mc.replica_rng(seed, 0))
            traj = simulate_nbbm(cfg, math.inf, mc.replica_rng(seed, 0))
            for pop, snap in zip(pops, traj.snapshots):
                assert np.array_equal(pop.positions, snap.positions)
                assert snap.bbm_count == pop.count

    def test_cap_one_keeps_exactly_one_particle(self):
        cfg = BbmRunConfig(4.0, snapshot_times=(1.0, 2.0, 3.0, 4.0))
        traj = simulate_nbbm(cfg, 1, mc.replica_rng(2, 0))
        assert all(s.count == 1 for s in traj.snapshots)
        assert all(s.dominated for s in traj.snapshots)

    def test_cap_one_survivor_is_standard_brownian(self):
        # both children start where the parent branched, so culling one of
        # them leaves the survivor on a single Brownian path: N(0, s) at s
        times = (0.5, 1.0, 2.0, 3.0)
        cfg = BbmRunConfig(3.0, snapshot_times=times)
        runs = [simulate_nbbm(cfg, 1, mc.replica_rng(71, i)) for i in range(1000)]
        for k, s in enumerate(times):
            values = [run.snapshots[k].positions[0] for run in runs]
            ks = stats.kstest(values, stats.norm(scale=math.sqrt(s)).cdf)
            assert ks.pvalue > 0.001, (s, ks.pvalue)

    def test_capped_positions_are_free_positions(self):
        # the coupling keeps the capped system inside the free one, float for
        # float; only _run returns the coupled free populations alongside
        cfg = BbmRunConfig(4.0, snapshot_times=(1.0, 2.0, 3.0, 4.0))
        for cap in (1, 3, 10):
            for seed in range(10):
                free, capped = engine._run(cfg, mc.replica_rng(seed, cap), cap)
                for pop, snap in zip(free, capped):
                    assert snap.count == min(cap, pop.count)
                    assert set(snap.positions.tolist()) <= set(pop.positions.tolist())
                    assert snap.bbm_count == pop.count

    def test_cap_is_never_exceeded(self):
        cfg = BbmRunConfig(5.0, snapshot_times=(2.5, 5.0))
        for seed in range(5):
            traj = simulate_nbbm(cfg, 4, mc.replica_rng(seed, 0))
            assert all(s.count <= 4 for s in traj.snapshots)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_nbbm(BbmRunConfig(1.0), 0.5, mc.replica_rng(1, 0))

    def test_dominance_sweep_is_clean(self):
        sweep = check_nbbm_dominance(
            3.0, 5, replicas=50, seed=31, snapshot_times=(1.0, 2.0, 3.0)
        )
        assert sweep.all_dominated

    def test_planted_breaches_come_back_in_replica_then_time_order(self, monkeypatch):
        # a stand-in engine whose capped max beats the free one at chosen
        # snapshots of chosen replicas, each replica read off its stream's key
        planted = {3: (2, 0), 7: (1,), 12: (0, 1, 2)}
        replica_of = {mc.derive_seed(5, i): i for i in range(20)}

        def breaching(cfg, cap_n, rng):
            replica = replica_of[int(rng.bit_generator.state["state"]["key"][0])]
            return engine.NbbmTrajectory(tuple(
                engine.NbbmSnapshot(s, np.array([1.0 if j in planted.get(replica, ()) else -1.0]),
                                    0.0, 1)
                for j, s in enumerate(cfg.snapshot_times)
            ))

        monkeypatch.setattr(estimators, "simulate_nbbm", breaching)
        sweep = check_nbbm_dominance(2.0, 5, replicas=20, seed=5, snapshot_times=(0.5, 1, 2))
        assert sweep.violations == (
            (3, 0.5), (3, 2.0), (7, 1.0), (12, 0.5), (12, 1.0), (12, 2.0)
        )
        assert all(type(i) is int and type(s) is float for i, s in sweep.violations)
        assert not sweep.all_dominated


class TestLevelCounting:
    def test_oracle_values(self):
        assert expected_count_oracle(2.0, 0.0) == pytest.approx(math.exp(2.0) / 2.0)
        assert expected_count_oracle(3.0, 0.2) > expected_count_oracle(3.0, 0.9)
        with pytest.raises(ValueError):
            expected_count_oracle(0.0, 0.5)
        # bitwise e^t * norm.sf; scipy.stats is the oracle only, the package
        # evaluates the tail by ndtr
        for t in (0.5, 1.0, 3.0, 6.0, 12.0, 48.0):
            for x in np.linspace(-2.0, 3.0, 41):
                x = float(x)
                expected = math.exp(t) * float(stats.norm.sf(x * math.sqrt(t)))
                assert expected_count_oracle(t, x) == expected

    def test_empirical_count_matches_oracle(self):
        t, x = 3.0, 0.5
        est = mc.run_replicas(
            mc.ReplicaPlan(2000, 37),
            lambda rng: float((sample_positions(t, rng) >= x * t).sum()),
        )
        assert est.within(expected_count_oracle(t, x), 3.5)


class TestLevelExponent:
    def test_structure_and_oracle_agreement(self):
        result = estimate_level_exponent(3.0, 0.5, replicas=300, seed=9)
        assert result.limit == pytest.approx(0.875)
        # the counts it averages: the same replicas, on the same streams
        counts = replica_counts(3.0, 1.5, 300, 9).astype(float)
        assert mc.summarize(counts).within(expected_count_oracle(3.0, 0.5), 3.5)
        assert result.dropped == int((counts == 0).sum())
        assert result.exponent.replicas == 300 - result.dropped
        assert result.exponent.mean == mc.summarize(np.log(counts[counts > 0]) / 3.0).mean

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_level_exponent(3.0, 1.5, replicas=10, seed=1)
        with pytest.raises(ValueError):
            estimate_level_exponent(3.0, 0.0, replicas=10, seed=1)
        with pytest.raises(ValueError):
            estimate_level_exponent(0.0, 0.5, replicas=10, seed=1)

    def test_all_zero_counts_raise(self):
        with pytest.raises(NoDataError):
            estimate_level_exponent(1.0, 1.41, replicas=4, seed=2)


class TestMaxTail:
    def test_subcritical_level_is_almost_surely_hit(self):
        tail = estimate_max_tail(5.0, 0.4, replicas=300, seed=43)
        assert tail.estimate.mean > 0.8
        assert tail.decay is not None and tail.decay < 0.1
        assert tail.limit == pytest.approx(-0.92)

    def test_supercritical_decay_beats_rate_function(self):
        tail = estimate_max_tail(2.0, 2.0, replicas=3000, seed=47)
        assert 0.0 < tail.estimate.mean < 0.1
        # P(max >= x t) <= e^{-psi(x) t} so the measured decay exceeds psi
        assert tail.decay > 1.0
        assert tail.decay_upper < tail.decay

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_is_refused(self, x, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("sampled before validating x")

        monkeypatch.setattr(estimators, "count_at_or_above", never)
        with pytest.raises(ValueError, match="finite"):
            estimate_max_tail(4.0, x, replicas=10, seed=1)

    def test_zero_hits_reported_via_upper_limit(self):
        tail = estimate_max_tail(2.0, 4.0, replicas=50, seed=53)
        assert tail.estimate.mean == 0.0
        assert tail.decay is None
        assert tail.decay_upper > 0.0
