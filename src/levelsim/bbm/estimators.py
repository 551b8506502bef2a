"""Counting estimators for the branching diffusion.

The mean population at time t is e^t exactly, and the mean count at or above
level x*t is e^t times a Gaussian upper tail, because a uniformly tagged line
of descent is a standard Brownian path independent of the branching. Those
two closed forms are the oracles every estimator here is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as _stats

from .. import mc
from ..rates import psi
from .engine import BbmRunConfig, sample_positions, simulate_nbbm

__all__ = [
    "expected_count_oracle",
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
    return math.exp(t) * float(_stats.norm.sf(x * math.sqrt(t)))


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
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")

    def task(rng) -> int:
        positions = sample_positions(t, rng)
        return int((positions >= x * t).sum())

    plan = mc.ReplicaPlan(replicas, seed)
    counts = np.asarray(mc.parallel_map(plan, task), dtype=float)
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
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")

    def task(rng) -> bool:
        positions = sample_positions(t, rng)
        return bool(positions.max() >= x * t)

    plan = mc.ReplicaPlan(replicas, seed)
    hits = mc.parallel_map(plan, task)
    estimate = mc.binomial_estimate(sum(bool(h) for h in hits), replicas)
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
    """Run coupled pairs over derived seeds; report (replica, time) breaches."""
    cfg = BbmRunConfig(t, snapshot_times)

    def task(rng) -> list[float]:
        trajectory = simulate_nbbm(cfg, cap_n, rng)
        return [s.time for s in trajectory.snapshots if not s.dominated]

    plan = mc.ReplicaPlan(replicas, seed)
    violations = []
    for index, bad_times in enumerate(mc.parallel_map(plan, task)):
        violations.extend((index, bt) for bt in bad_times)
    return DominanceSweep(t, float(cap_n), replicas, tuple(violations))
