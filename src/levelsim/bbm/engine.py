"""Event-driven branching diffusion with exact randomness.

Particles carry rate-1 exponential branch clocks and move as standard
Brownian motions; increments are drawn exactly between events, so the sampler
itself has no time-discretization bias. Two engines share the same law: the
chronological engine keeps the full genealogy and supports capped-population
culling, while sample_positions is a vectorized sweep that returns only the
time-t positions and is the workhorse for replica-heavy estimators (it
consumes randomness in a different order, so the two engines match in
distribution, not draw for draw).
"""

from __future__ import annotations

import heapq
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
    seed: int | None = None

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

    def __len__(self) -> int:
        return len(self.parent)

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


class _DrawBuffer:
    """Block-buffered scalar draws; refills keep the stream order fixed."""

    __slots__ = ("_rng", "_size", "_norm", "_ni", "_exp", "_ei")

    def __init__(self, rng: Generator, size: int = 4096):
        self._rng = rng
        self._size = size
        self._norm = rng.standard_normal(size)
        self._ni = 0
        self._exp = rng.standard_exponential(size)
        self._ei = 0

    def normal(self) -> float:
        if self._ni == self._size:
            self._norm = self._rng.standard_normal(self._size)
            self._ni = 0
        v = self._norm[self._ni]
        self._ni += 1
        return v

    def exponential(self) -> float:
        if self._ei == self._size:
            self._exp = self._rng.standard_exponential(self._size)
            self._ei = 0
        v = self._exp[self._ei]
        self._ei += 1
        return v


def _resolve_rng(cfg: BbmRunConfig, rng: Generator | None) -> Generator:
    if rng is not None:
        return rng
    if cfg.seed is None:
        raise ValueError("pass a Generator or set cfg.seed")
    from .. import mc

    return mc.replica_rng(cfg.seed, 0)


def _run(
    cfg: BbmRunConfig, rng: Generator, cap_n: float | None
) -> tuple[list[BbmPopulation], list[NbbmSnapshot]]:
    draws = _DrawBuffer(rng)
    tree = BbmTree()
    pos: dict[int, float] = {0: 0.0}
    last: dict[int, float] = {0: 0.0}
    capped = cap_n is not None and not math.isinf(cap_n)
    members: set[int] = {0}
    heap: list[tuple[float, int, int]] = [(float(draws.exponential()), 0, 0)]
    seq = 1

    def advance(node: int, to_time: float) -> float:
        dt = to_time - last[node]
        if dt > 0.0:
            pos[node] += float(draws.normal()) * math.sqrt(dt)
            last[node] = to_time
        return pos[node]

    populations: list[BbmPopulation] = []
    culled_snaps: list[NbbmSnapshot] = []
    for s_time in cfg.snapshot_times:
        while heap and heap[0][0] <= s_time:
            branch_time, _, node = heapq.heappop(heap)
            if len(pos) + 1 > cfg.particle_cap:
                raise PopulationCapError(branch_time, len(pos), cfg.particle_cap)
            here = advance(node, branch_time)
            del pos[node], last[node]
            was_member = node in members
            members.discard(node)
            for _ in range(2):
                child = len(tree)
                tree.parent.append(node)
                tree.birth_time.append(branch_time)
                pos[child] = here
                last[child] = branch_time
                heapq.heappush(heap, (branch_time + float(draws.exponential()), seq, child))
                seq += 1
                if was_member:
                    members.add(child)
            if capped and len(members) > cap_n:
                # The capped system sheds its leftmost particle the moment the
                # branch pushes it over; positions of members are settled at
                # the branch instant before comparing.
                for m in sorted(members):
                    advance(m, branch_time)
                members.remove(min(members, key=lambda m: (pos[m], m)))

        ids = sorted(pos)
        values = np.array([advance(n, s_time) for n in ids])
        id_arr = np.array(ids, dtype=np.int64)
        populations.append(BbmPopulation(s_time, id_arr, values, tree))
        member_values = np.array([pos[m] for m in sorted(members)])
        culled_snaps.append(
            NbbmSnapshot(s_time, member_values, float(values.max()), len(ids))
        )
    return populations, culled_snaps


def simulate_bbm(cfg: BbmRunConfig, rng: Generator | None = None) -> list[BbmPopulation]:
    """Exact simulation; one population per snapshot time."""
    populations, _ = _run(cfg, _resolve_rng(cfg, rng), None)
    return populations


def simulate_nbbm(
    cfg: BbmRunConfig, cap_n: float, rng: Generator | None = None
) -> NbbmTrajectory:
    """Capped system coupled to its free run.

    The capped population is maintained as a subset of the free one: both
    children of a member stay members, and an overflow immediately removes
    the leftmost member. cap_n = inf keeps every particle and consumes draws
    identically to simulate_bbm. Each snapshot carries the free-run maximum,
    so dominance of the free maximum is checkable exactly per run.
    """
    if not (math.isinf(cap_n) or cap_n >= 1):
        raise ValueError(f"cap_n must be >= 1 or inf, got {cap_n}")
    _, culled = _run(cfg, _resolve_rng(cfg, rng), float(cap_n))
    return NbbmTrajectory(float(cap_n), tuple(culled))


def sample_positions(
    t: float, rng: Generator, particle_cap: int = DEFAULT_PARTICLE_CAP
) -> np.ndarray:
    """Positions of every particle at time t, by generation-wave sweeps.

    Same branching law as the chronological engine. Each sweep settles the
    whole pending cohort at once: particles whose branch clock outlives t are
    finished with one Gaussian step, the rest branch in place into two.
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
