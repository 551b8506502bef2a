"""Counting estimators for the branching diffusion.

The mean population at time t is e^t exactly, and the mean count at or above
level x*t is e^t times a Gaussian upper tail, because a uniformly tagged line
of descent is a standard Brownian path independent of the branching. Those
two closed forms are the oracles every estimator here is tested against.

The counting estimators draw their replicas in blocks of about
BBM_BLOCK_PARTICLES particles, one stream per block, each block one
generation-wave sweep reduced to per-replica counts (replica_counts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .. import mc, tolerances as tol
from ..rates import psi
from .engine import (
    BbmRunConfig,
    count_at_or_above,
    refuse_doomed_horizon,
    sample_positions,  # kept for perfbench/spans.py, which rebinds it here
    simulate_nbbm,
)

__all__ = [
    "expected_count_oracle",
    "replica_counts",
    "NoDataError",
    "LevelExponent",
    "estimate_level_exponent",
    "MaxTail",
    "estimate_max_tail",
    "DominanceSweep",
    "check_nbbm_dominance",
]


def expected_count_oracle(t: float, x: float) -> float:
    """Exact mean of N(t, x): e^t * P(N(0, t) >= x*t)."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    return math.exp(t) * float(ndtr(-x * math.sqrt(t)))


def replica_counts(t: float, level: float, replicas: int, seed: int) -> np.ndarray:
    """N(t, level) for each replica, as int64, by blocks of count_at_or_above.

    A block holds max(1, BBM_BLOCK_PARTICLES // ceil(e^t)) replicas, about
    that many particles at the mean population e^t, and block b draws from
    mc.replica_rng(seed, b). Level -inf counts the population. A horizon that
    must trip the population guard is refused before any draw.
    """
    refuse_doomed_horizon(t, replicas)
    block = max(1, tol.BBM_BLOCK_PARTICLES // math.ceil(math.exp(t)))
    return mc.map_blocks(
        mc.ReplicaPlan(replicas, seed),
        block,
        lambda rng, size: count_at_or_above(t, level, rng, size),
    )


class NoDataError(RuntimeError):
    """Every replica produced a zero count; no exponent can be formed."""


@dataclass(frozen=True)
class LevelExponent:
    """Average of per-replica log N(t,x)/t with zero counts set aside."""

    t: float
    x: float
    exponent: mc.Estimate
    counts: mc.Estimate
    dropped: int
    limit: float


def estimate_level_exponent(
    t: float,
    x: float,
    replicas: int,
    seed: int,
) -> LevelExponent:
    if not 0 < x < math.sqrt(2):
        raise ValueError(f"x must lie in (0, sqrt(2)), got {x}")
    counts = replica_counts(t, x * t, replicas, seed).astype(float)
    nonzero = counts[counts > 0]
    if nonzero.size == 0:
        raise NoDataError(
            f"all {replicas} replicas had N(t={t}, x={x}) = 0; "
            "increase t*(1 - x^2/2) or replicas"
        )
    exponent = mc.summarize(np.log(nonzero) / t)
    return LevelExponent(
        t,
        x,
        exponent,
        mc.summarize(counts),
        int((counts == 0).sum()),
        1.0 - 0.5 * x * x,
    )


@dataclass(frozen=True)
class MaxTail:
    """Binomial estimate of P(max position >= x*t) with its decay rate."""

    t: float
    x: float
    estimate: mc.Estimate
    decay: float | None
    decay_upper: float
    limit: float


def estimate_max_tail(
    t: float,
    x: float,
    replicas: int,
    seed: int,
) -> MaxTail:
    """Estimate P(max >= x*t); -log(p)/t approaches x^2/2 - 1 above the front.

    With zero successes the point decay is undefined and the reported lower
    bound on it comes from the exact upper confidence limit.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    hits = int(np.count_nonzero(replica_counts(t, x * t, replicas, seed)))
    estimate = mc.binomial_estimate(hits, replicas)
    decay = None if estimate.mean == 0 else -math.log(estimate.mean) / t
    decay_upper = -math.log(estimate.ci_high) / t
    return MaxTail(t, x, estimate, decay, decay_upper, psi(x))


@dataclass(frozen=True)
class DominanceSweep:
    """Pathwise check that the capped maximum never beats the free one."""

    t: float
    cap_n: float
    replicas: int
    violations: tuple[tuple[int, float], ...]

    @property
    def all_dominated(self) -> bool:
        return not self.violations


def check_nbbm_dominance(
    t: float,
    cap_n: float,
    replicas: int,
    seed: int,
    snapshot_times: tuple[float, ...] | None = None,
) -> DominanceSweep:
    """Run coupled pairs over derived seeds; report (replica, time) breaches.

    The chronological engine runs one replica at a time, one stream each, and
    a free replica expects e^t - 1 branch events. A sweep that expects more
    than NBBM_EVENTS_MAX in all is refused before any draw.
    """
    cfg = BbmRunConfig(t, snapshot_times)
    refuse_doomed_horizon(t, replicas)
    expected_events = replicas * math.expm1(t)
    if expected_events > tol.NBBM_EVENTS_MAX:
        raise tol.WorkRefusedError(
            f"t={t:g} with {replicas} replicas expects {expected_events:.3g} branch "
            f"events, above the budget of {tol.NBBM_EVENTS_MAX:.3g}; refused before "
            "sampling: lower t or replicas",
            "bbm.check_nbbm_dominance", "branch events", expected_events,
            tol.NBBM_EVENTS_MAX,
        )

    def task(rng) -> list[float]:
        trajectory = simulate_nbbm(cfg, cap_n, rng)
        return [s.time for s in trajectory.snapshots if not s.dominated]

    plan = mc.ReplicaPlan(replicas, seed)
    violations = []
    for index, bad_times in enumerate(mc.parallel_map(plan, task)):
        violations.extend((index, bt) for bt in bad_times)
    return DominanceSweep(t, float(cap_n), replicas, tuple(violations))
