"""Branching Brownian motion: exact event-driven simulation, capped-system
coupling, level counting with closed-form oracles, the exact finite-horizon
laws of the maximum and the level counts from the Fisher-KPP equation, and
the E1/E2 events on the coarse lattice of the path argument."""

from .engine import (
    BbmPopulation,
    BbmRunConfig,
    NbbmSnapshot,
    NbbmTrajectory,
    count_at_or_above,
    refuse_doomed_horizon,
    sample_positions,
    simulate_bbm,
    simulate_nbbm,
)
from .estimators import (
    DominanceSweep,
    LevelExponent,
    MaxTail,
    NoDataError,
    check_nbbm_dominance,
    estimate_level_exponent,
    estimate_max_tail,
    expected_count_oracle,
    replica_counts,
)
from .kpp import log_count_rate, max_tail_probability, solve_kpp
from .paths import (
    DiscretizationPlan,
    EventReport,
    check_events,
    e2_failure_bound,
)

__all__ = [
    "BbmPopulation",
    "BbmRunConfig",
    "DiscretizationPlan",
    "DominanceSweep",
    "EventReport",
    "LevelExponent",
    "MaxTail",
    "NbbmSnapshot",
    "NbbmTrajectory",
    "NoDataError",
    "check_events",
    "check_nbbm_dominance",
    "count_at_or_above",
    "e2_failure_bound",
    "estimate_level_exponent",
    "estimate_max_tail",
    "expected_count_oracle",
    "log_count_rate",
    "max_tail_probability",
    "refuse_doomed_horizon",
    "replica_counts",
    "sample_positions",
    "simulate_bbm",
    "simulate_nbbm",
    "solve_kpp",
]
