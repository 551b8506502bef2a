"""Branching Brownian motion with exact randomness.

Particles branch into two at rate 1 and move as standard Brownian motions;
each Gaussian step is drawn exactly over the time it spans, so neither engine
has a discretization bias. The chronological engine keeps the genealogy and
is uniformized: with n live particles the next branch comes Exp(1)/n later,
at a uniformly picked particle. Positions are settled lazily: a particle's
when it branches, the capped members' before the leftmost is culled, and all
at each snapshot. sample_positions is a vectorized sweep that returns only
the time-t positions, for replica-heavy estimators; it consumes randomness in
a different order, so the engines match in distribution, not draw for draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator

__all__ = [
    "BbmRunConfig",
    "BbmTree",
    "BbmPopulation",
    "NbbmSnapshot",
    "NbbmTrajectory",
    "PopulationCapError",
    "simulate_bbm",
    "simulate_nbbm",
    "sample_positions",
]

DEFAULT_PARTICLE_CAP = 10**7


class PopulationCapError(RuntimeError):
    """Population guard tripped; carries how far the run got."""

    def __init__(self, time_reached: float, population: int, cap: int):
        self.time_reached = time_reached
        self.population = population
        self.cap = cap
        super().__init__(
            f"population {population} exceeded cap {cap} at time {time_reached:.6g}"
        )


@dataclass(frozen=True)
class BbmRunConfig:
    """Run horizon, observation times and the population guard."""

    t_end: float
    snapshot_times: tuple[float, ...] | None = None
    particle_cap: int = DEFAULT_PARTICLE_CAP

    def __post_init__(self):
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.particle_cap < 1:
            raise ValueError(f"particle_cap must be >= 1, got {self.particle_cap}")
        times = self.snapshot_times
        if times is None:
            object.__setattr__(self, "snapshot_times", (float(self.t_end),))
            return
        times = tuple(float(s) for s in times)
        if len(times) == 0:
            raise ValueError("need at least one snapshot time")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"snapshot times must be strictly increasing, got {times}")
        if times[0] < 0.0 or times[-1] > self.t_end:
            raise ValueError(f"snapshot times must lie in [0, {self.t_end}], got {times}")
        object.__setattr__(self, "snapshot_times", times)


class BbmTree:
    """Append-only genealogy: parent pointers and birth times per node."""

    def __init__(self):
        self.parent: list[int] = [-1]
        self.birth_time: list[float] = [0.0]

    def ancestor_at(self, node: int, time: float) -> int:
        """The unique ancestor of node alive at the given time."""
        if not 0 <= node < len(self.parent):
            raise ValueError(f"node {node} not in tree of size {len(self.parent)}")
        while self.birth_time[node] > time:
            node = self.parent[node]
        return node


@dataclass(frozen=True)
class BbmPopulation:
    """Immutable snapshot: node ids (sorted) and positions at one time."""

    time: float
    node_ids: np.ndarray
    positions: np.ndarray
    tree: BbmTree = field(repr=False)

    @property
    def count(self) -> int:
        return int(self.node_ids.size)

    def position_of(self, node: int) -> float:
        idx = int(np.searchsorted(self.node_ids, node))
        if idx >= self.node_ids.size or self.node_ids[idx] != node:
            raise KeyError(f"node {node} not alive at time {self.time}")
        return float(self.positions[idx])


@dataclass(frozen=True)
class NbbmSnapshot:
    """Capped-system snapshot paired with its driving free population."""

    time: float
    positions: np.ndarray
    bbm_max_position: float
    bbm_count: int

    @property
    def count(self) -> int:
        return int(self.positions.size)

    @property
    def max_position(self) -> float:
        return float(self.positions.max())

    @property
    def dominated(self) -> bool:
        return self.max_position <= self.bbm_max_position


@dataclass(frozen=True)
class NbbmTrajectory:
    cap_n: float
    snapshots: tuple[NbbmSnapshot, ...]

    @property
    def dominated(self) -> bool:
        return all(s.dominated for s in self.snapshots)


def _run(
    cfg: BbmRunConfig, rng: Generator, cap_n: float
) -> tuple[list[BbmPopulation], list[NbbmSnapshot]]:
    tree = BbmTree()
    # slot i holds a live particle: node id, position as settled at time
    # last[i], and whether it belongs to the capped system
    pos, last = np.zeros(64), np.zeros(64)
    node, member = np.zeros(64, dtype=np.int64), np.ones(64, dtype=bool)
    n = members = 1
    now = 0.0

    def settle(idx, to_time: float) -> None:
        dt = to_time - last[idx]
        pos[idx] += rng.standard_normal(dt.size) * np.sqrt(dt)
        last[idx] = to_time

    populations: list[BbmPopulation] = []
    culled_snaps: list[NbbmSnapshot] = []
    for s_time in cfg.snapshot_times:
        while True:
            now += rng.standard_exponential() / n
            if now > s_time:
                break
            if n + 1 > cfg.particle_cap:
                raise PopulationCapError(now, n, cfg.particle_cap)
            i = int(rng.random() * n)
            pos[i] += rng.standard_normal() * math.sqrt(now - last[i])
            last[i] = now
            if n == pos.size:
                pos, last, node, member = (
                    np.concatenate([a, np.zeros_like(a)]) for a in (pos, last, node, member)
                )
            # a binary tree with n leaves has 2n - 1 nodes: the children of
            # this branch are nodes 2n - 1 and 2n
            parent = int(node[i])
            node[i], node[n] = 2 * n - 1, 2 * n
            tree.parent += [parent, parent]
            tree.birth_time += [now, now]
            pos[n], last[n], member[n] = pos[i], now, member[i]
            n += 1
            members += int(member[i])
            if members > cap_n:
                idx = member[:n].nonzero()[0]
                settle(idx, now)
                member[idx[pos[idx].argmin()]] = False
                members -= 1
        # the clock is memoryless, so the draw that overshot s_time is dropped
        now = s_time
        settle(slice(0, n), s_time)
        order = np.argsort(node[:n])
        values = pos[order]
        populations.append(BbmPopulation(s_time, node[order], values, tree))
        culled_snaps.append(
            NbbmSnapshot(s_time, values[member[order]], float(values.max()), n)
        )
    return populations, culled_snaps


def simulate_bbm(cfg: BbmRunConfig, rng: Generator) -> list[BbmPopulation]:
    """Exact simulation; one population per snapshot time."""
    populations, _ = _run(cfg, rng, math.inf)
    return populations


def simulate_nbbm(cfg: BbmRunConfig, cap_n: float, rng: Generator) -> NbbmTrajectory:
    """Capped system coupled to its free run (the N-BBM).

    The capped population is a subset of the free one: both children of a
    member stay members, and when a branch pushes the member count over
    cap_n, the members are settled to the branch time and the leftmost is
    dropped. cap_n = inf keeps every particle and consumes draws identically
    to simulate_bbm. Each snapshot carries the free-run maximum, so dominance
    of the free maximum is checkable exactly per run.
    """
    if not (math.isinf(cap_n) or cap_n >= 1):
        raise ValueError(f"cap_n must be >= 1 or inf, got {cap_n}")
    _, culled = _run(cfg, rng, float(cap_n))
    return NbbmTrajectory(float(cap_n), tuple(culled))


def sample_positions(
    t: float, rng: Generator, particle_cap: int = DEFAULT_PARTICLE_CAP
) -> np.ndarray:
    """Positions of every particle at time t, by generation-wave sweeps.

    Same branching law as the chronological engine. Each sweep settles the
    whole pending cohort at once: particles whose Exp(1) lifetime outlives t
    are finished with one Gaussian step, the rest branch in place into two.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    birth_t = np.zeros(1)
    birth_x = np.zeros(1)
    finished: list[np.ndarray] = []
    done_count = 0
    while birth_t.size:
        life = rng.standard_exponential(birth_t.size)
        step = rng.standard_normal(birth_t.size)
        branch_t = birth_t + life
        done = branch_t >= t
        finished.append(birth_x[done] + step[done] * np.sqrt(t - birth_t[done]))
        done_count += int(done.sum())
        cont_t = branch_t[~done]
        cont_x = birth_x[~done] + step[~done] * np.sqrt(life[~done])
        birth_t = np.repeat(cont_t, 2)
        birth_x = np.repeat(cont_x, 2)
        if done_count + birth_t.size > particle_cap:
            reached = float(cont_t.min()) if cont_t.size else t
            raise PopulationCapError(reached, done_count + birth_t.size, particle_cap)
    return np.concatenate(finished)
