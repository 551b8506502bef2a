"""The coarse lattice of the path argument and its E1/E2 events."""

import math

import numpy as np
import pytest

from levelsim import mc
from levelsim.bbm import (
    BbmRunConfig,
    BbmPopulation,
    DiscretizationPlan,
    check_events,
    default_cutoff,
    e2_failure_bound,
    simulate_bbm,
)


class TestDiscretizationPlan:
    def test_grid_geometry(self):
        plan = DiscretizationPlan(t=16.0, delta=0.75)
        assert plan.steps == 2
        assert plan.mesh == pytest.approx(2.0)  # default delta_prime = 1/4
        assert np.allclose(plan.times(), [0.0, 8.0, 16.0])

    def test_last_step_clipped_to_horizon(self):
        plan = DiscretizationPlan(t=10.0, delta=0.6)
        times = plan.times()
        assert times[-1] == 10.0
        assert plan.steps == math.ceil(10.0**0.4)
        assert np.all(np.diff(times) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscretizationPlan(t=0.0)
        with pytest.raises(ValueError):
            DiscretizationPlan(t=4.0, delta=0.5)
        with pytest.raises(ValueError):
            DiscretizationPlan(t=4.0, delta=1.0)
        with pytest.raises(ValueError):
            DiscretizationPlan(t=4.0, delta=0.75, delta_prime=0.5)
        with pytest.raises(ValueError):
            DiscretizationPlan(t=4.0, cutoff=0.0)

    def test_default_cutoff(self):
        assert default_cutoff(2.0) == pytest.approx(5.0)
        assert default_cutoff(1.0) == pytest.approx(2.0 * math.sqrt(2.0) + 1.0)
        plan = DiscretizationPlan(t=4.0)
        assert plan.cutoff == pytest.approx(default_cutoff(math.sqrt(2.0)))


class TestEvents:
    def _run(self, plan, seed):
        cfg = BbmRunConfig(plan.t, snapshot_times=tuple(plan.times()))
        return simulate_bbm(cfg, mc.replica_rng(seed, 0))

    def test_typical_run_satisfies_both_events(self):
        plan = DiscretizationPlan(t=4.0, delta=0.75)
        report = check_events(self._run(plan, 8), plan)
        assert report.e1
        assert report.e2
        assert report.threshold == pytest.approx(16.0 * math.exp(4.0**0.75))
        assert report.e1_violations == ()
        assert report.e2_violations == ()

    def test_shifted_positions_violate_confinement(self):
        plan = DiscretizationPlan(t=4.0, delta=0.75)
        pops = self._run(plan, 8)
        shift = 2.0 * plan.cutoff * plan.t
        moved = BbmPopulation(
            pops[1].time, pops[1].node_ids, pops[1].positions + shift, pops[1].tree
        )
        report = check_events([pops[0], moved, pops[2]], plan)
        assert not report.e1
        assert report.e2
        assert all(idx == 1 for idx, _, _ in report.e1_violations)
        assert all(abs(p) > plan.cutoff * plan.t for _, _, p in report.e1_violations)
        assert len(report.e1_violations) == moved.count

    def test_missing_snapshot_rejected(self):
        plan = DiscretizationPlan(t=4.0, delta=0.75)
        pops = self._run(plan, 8)
        with pytest.raises(ValueError, match="grid time"):
            check_events(pops[:-1], plan)

    def test_burst_failures_stay_under_union_bound(self):
        plan = DiscretizationPlan(t=4.0, delta=0.75)
        bound = e2_failure_bound(plan)
        assert bound < 1e-5
        failures = sum(
            not check_events(self._run(plan, seed), plan).e2 for seed in range(30)
        )
        assert failures == 0

    def test_union_bound_formula(self):
        plan = DiscretizationPlan(t=4.0, delta=0.75)
        grid = plan.times()
        k = math.ceil(plan.t**2 * math.exp(plan.t**plan.delta))
        expected = sum(
            math.exp(float(grid[i]))
            * (1.0 - math.exp(-float(grid[i + 1] - grid[i]))) ** (k - 1)
            for i in range(len(grid) - 1)
        )
        assert e2_failure_bound(plan) == pytest.approx(min(1.0, expected), rel=1e-12)
