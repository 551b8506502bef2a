"""The coarse lattice of the path argument and its E1/E2 events."""

import math

import numpy as np
import pytest

from levelsim import mc, tolerances as tol
from levelsim.bbm import (
    BbmRunConfig,
    BbmPopulation,
    DiscretizationPlan,
    check_events,
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

    def test_default_cutoff(self):
        # the E1 box [-C t, C t] has C = 2 sqrt(2) + 1 at every horizon
        assert tol.PATH_BOX_C == pytest.approx(2.0 * math.sqrt(2.0) + 1.0)
        for t in (4.0, 16.0):
            plan = DiscretizationPlan(t=t)
            box = tol.PATH_BOX_C * t
            for edge, inside in ((box, True), (np.nextafter(box, np.inf), False)):
                pops = [
                    BbmPopulation(s, np.array([0.0, -edge]), np.zeros(2, dtype=np.int64))
                    for s in plan.times()
                ]
                assert check_events(pops, plan).e1 is inside


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
        shift = 2.0 * tol.PATH_BOX_C * plan.t
        moved = BbmPopulation(pops[1].time, pops[1].positions + shift, pops[1].ancestors)
        report = check_events([pops[0], moved, pops[2]], plan)
        assert not report.e1
        assert report.e2
        assert report.e1_violations == tuple(
            (1, k, float(p)) for k, p in enumerate(moved.positions)
        )
        assert all(abs(p) > tol.PATH_BOX_C * plan.t for _, _, p in report.e1_violations)

    def test_missing_snapshot_rejected(self):
        plan = DiscretizationPlan(t=4.0, delta=0.75)
        pops = self._run(plan, 8)
        with pytest.raises(ValueError, match="grid time"):
            check_events(pops[:-1], plan)

    @pytest.mark.parametrize("below", [0, 1])
    def test_descendant_burst_violates_e2(self, below):
        # hand-built snapshots: particle 1 at s_1 has ceil(threshold) - below
        # descendants at s_2, the other two particles one each
        plan = DiscretizationPlan(t=4.0, delta=0.75)
        s0, s1, s2 = plan.times()
        burst = math.ceil(plan.t**2 * math.exp(plan.t**plan.delta)) - below
        ancestors = np.array([0] + [1] * burst + [2])
        pops = [
            BbmPopulation(s0, np.zeros(1), np.zeros(1, dtype=np.int64)),
            BbmPopulation(s1, np.zeros(3), np.zeros(3, dtype=np.int64)),
            BbmPopulation(s2, np.zeros(ancestors.size), ancestors),
        ]
        report = check_events(pops, plan)
        assert report.e1
        assert report.e2 is bool(below)
        assert report.e2_violations == (() if below else ((1, 1, burst),))

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
