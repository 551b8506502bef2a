"""The time/space lattice of the path argument and its E1/E2 events.

A run over [0, t] is observed at the grid times s_i = i*t^delta (the last
step is clipped to t); the space mesh is t^delta_prime. E1 confines every
particle to [-C*t, C*t] at each s_i, with C = PATH_BOX_C; E2 caps each
particle's one-step descendant count at t^2 * e^(t^delta). Both read the
run's snapshots at the grid times: E2 counts, for each particle at s_i, the
particles at s_{i+1} whose ancestor index names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import tolerances as tol
from .engine import BbmPopulation

__all__ = [
    "DiscretizationPlan",
    "EventReport",
    "check_events",
    "e2_failure_bound",
]


@dataclass(frozen=True)
class DiscretizationPlan:
    """Lattice geometry for horizon t.

    delta in (1/2, 1) sets the coarse step t^delta; delta_prime, constrained
    to (0, 2*delta - 1), sets the space mesh t^delta_prime (default: the
    midpoint of its range).
    """

    t: float
    delta: float = 0.75
    delta_prime: float | None = None

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError(f"t must be positive, got {self.t}")
        if not 0.5 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (1/2, 1), got {self.delta}")
        if self.delta_prime is None:
            object.__setattr__(self, "delta_prime", (2.0 * self.delta - 1.0) / 2.0)
        if not 0.0 < self.delta_prime < 2.0 * self.delta - 1.0:
            raise ValueError(
                f"delta_prime must lie in (0, {2 * self.delta - 1}), got {self.delta_prime}"
            )

    @property
    def steps(self) -> int:
        """M = ceil(t^(1-delta)); s_M = t exactly, so the last step may be short."""
        return max(1, math.ceil(self.t ** (1.0 - self.delta)))

    @property
    def mesh(self) -> float:
        return self.t**self.delta_prime

    def times(self) -> np.ndarray:
        coarse = self.t**self.delta
        grid = [i * coarse for i in range(self.steps)]
        grid.append(self.t)
        return np.array(grid)


@dataclass(frozen=True)
class EventReport:
    """Outcome of the confinement and offspring-burst checks on one run."""

    e1: bool
    e2: bool
    threshold: float
    e1_violations: tuple[tuple[int, int, float], ...]
    e2_violations: tuple[tuple[int, int, int], ...]


def check_events(
    populations: Sequence[BbmPopulation], plan: DiscretizationPlan
) -> EventReport:
    """E1: every particle inside [-C*t, C*t] at each grid time. E2: each
    particle's descendant count one grid step later stays below t^2*e^(t^delta).

    populations are one run's snapshots at exactly plan.times(), each with
    its ancestors indexing the previous one's positions. Violations carry
    (grid index, particle index at that grid time, position | count).
    """
    grid = plan.times()
    times = [pop.time for pop in populations]
    if not np.array_equal(times, grid):
        raise ValueError(
            f"snapshot times {times} are not the grid times {grid.tolist()}"
        )
    bound = tol.PATH_BOX_C * plan.t
    e1_violations = [
        (i, int(k), float(pop.positions[k]))
        for i, pop in enumerate(populations)
        for k in np.flatnonzero(np.abs(pop.positions) > bound)
    ]
    threshold = plan.t**2 * math.exp(plan.t**plan.delta)
    e2_violations = []
    for i, pop in enumerate(populations[1:]):
        counts = np.bincount(pop.ancestors)
        e2_violations += [
            (i, int(k), int(counts[k])) for k in np.flatnonzero(counts >= threshold)
        ]
    return EventReport(
        not e1_violations,
        not e2_violations,
        threshold,
        tuple(e1_violations),
        tuple(e2_violations),
    )


def e2_failure_bound(plan: DiscretizationPlan) -> float:
    """Union bound on P(E2 fails): sum over grid steps of e^(s_i) times the
    geometric tail (1 - e^(-step))^(ceil(threshold) - 1)."""
    grid = plan.times()
    threshold = math.ceil(plan.t**2 * math.exp(plan.t**plan.delta))
    total = 0.0
    for i in range(len(grid) - 1):
        step = float(grid[i + 1] - grid[i])
        total += math.exp(float(grid[i])) * (1.0 - math.exp(-step)) ** (threshold - 1)
    return min(1.0, total)
