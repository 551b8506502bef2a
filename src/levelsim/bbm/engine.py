"""Branching Brownian motion with exact randomness.

Particles branch into two at rate 1 and move as standard Brownian motions;
each Gaussian step is drawn exactly over the time it spans, so neither engine
has a discretization bias. The chronological engine is uniformized: with n
live particles the next branch comes Exp(1)/n later, at a uniformly picked
particle. Positions are settled lazily: a particle's when it branches, the
capped members' before the leftmost is culled, and all at each snapshot.
Each particle carries the index of its ancestor in the previous snapshot; a
branch's new child copies it, and each snapshot hands the indices out and
then resets every particle's to its own, so the engine keeps one step of
genealogy and no tree.

The generation-wave sweep keeps no genealogy: it settles a block of
independent replicas at once, each started by one particle at the origin,
and hands each wave's finished particles with their replica ids to one of
two consumers. sample_positions returns one replica's time-t positions;
count_at_or_above reduces every wave to per-replica counts at a level, so a
block's memory stays at its live cohort, and the counting estimators run on
it in replica blocks. Each wave of n pending particles draws n Exp(1)
lifetimes, then n standard normal steps, from the block's one stream, and
does its arithmetic in place in the wave's own buffers; that draw order fixes
every count the estimators report. The sweep consumes randomness in a
different order from the chronological engine, so the two match in
distribution, not draw for draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .. import tolerances as tol

__all__ = [
    "BbmRunConfig",
    "BbmPopulation",
    "NbbmSnapshot",
    "NbbmTrajectory",
    "PopulationCapError",
    "simulate_bbm",
    "simulate_nbbm",
    "sample_positions",
    "count_at_or_above",
    "refuse_doomed_horizon",
]

class PopulationCapError(RuntimeError):
    """Population guard tripped; carries how far the run got."""

    def __init__(
        self, time_reached: float, population: int, cap: int, message: str | None = None
    ):
        self.time_reached = time_reached
        self.population = population
        self.cap = cap
        super().__init__(
            message
            or f"population {population} exceeded cap {cap} at time {time_reached:.6g}"
        )


@dataclass(frozen=True)
class BbmRunConfig:
    """Run horizon and observation times."""

    t_end: float
    snapshot_times: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
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


@dataclass(frozen=True)
class BbmPopulation:
    """Immutable snapshot at one time: the positions, and for each particle
    the index into the previous snapshot's positions of the particle it
    descends from (all 0 at the first snapshot: the root)."""

    time: float
    positions: np.ndarray
    ancestors: np.ndarray

    @property
    def count(self) -> int:
        return int(self.positions.size)


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
    # slot i holds a live particle: position as settled at time last[i], the
    # index of its ancestor in the previous snapshot, and whether it belongs
    # to the capped system
    pos, last = np.zeros(64), np.zeros(64)
    ancestor, member = np.zeros(64, dtype=np.int64), np.ones(64, dtype=bool)
    n = members = 1
    now = 0.0
    cap = tol.BBM_PARTICLE_CAP  # the population guard, read once per run

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
            if n + 1 > cap:
                raise PopulationCapError(now, n, cap)
            i = int(rng.random() * n)
            pos[i] += rng.standard_normal() * math.sqrt(now - last[i])
            last[i] = now
            if n == pos.size:
                pos, last, ancestor, member = (
                    np.concatenate([a, np.zeros_like(a)])
                    for a in (pos, last, ancestor, member)
                )
            pos[n], last[n] = pos[i], now
            ancestor[n], member[n] = ancestor[i], member[i]
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
        values = pos[:n].copy()
        populations.append(BbmPopulation(s_time, values, ancestor[:n].copy()))
        culled_snaps.append(
            NbbmSnapshot(s_time, values[member[:n]], float(values.max()), n)
        )
        ancestor[:n] = np.arange(n)
    return populations, culled_snaps


def simulate_bbm(cfg: BbmRunConfig, rng: Generator) -> list[BbmPopulation]:
    """Exact simulation; one population per snapshot time, each with the
    index of every particle's ancestor in the one before."""
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


def refuse_doomed_horizon(t: float, replicas: int) -> None:
    """Raise PopulationCapError, before any draw, when the guard must trip.

    One replica's population at time t is Geometric(e^-t), so it exceeds the
    guard, cap = BBM_PARTICLE_CAP, with probability (1 - e^-t)^cap. Runs that
    expect at least one such replica among theirs are refused; time_reached 0
    says nothing was drawn.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    cap = tol.BBM_PARTICLE_CAP
    tail = math.exp(cap * math.log1p(-math.exp(-t)))
    if replicas * tail >= 1.0:
        raise PopulationCapError(
            0.0,
            0,
            cap,
            f"t={t:g} expects {replicas * tail:.3g} of {replicas} replicas to exceed "
            f"the population cap {cap}; refused before sampling",
        )


def _waves(t: float, rng: Generator, size: int):
    """Generation waves of `size` replicas; yields each wave's finished
    (positions, replica ids).

    Each wave settles the whole pending cohort at once: particles whose Exp(1)
    lifetime outlives t are finished with one Gaussian step to time t, the
    rest take the step to their branch time and split in place into two. The
    guard counts the block's particles, finished and pending, against
    BBM_PARTICLE_CAP.

    Draw order: a wave of n pending particles draws n lifetimes, then n
    steps, and forms branch_t = birth_t + life, x = birth_x + step *
    sqrt(min(life, t - birth_t)) and live = branch_t < t. The arithmetic runs
    in the wave's own buffers: the births turn into branch times and
    positions in place, and the steps are drawn into the lifetimes' buffer
    once the branch times are formed. The only new arrays are one span
    buffer, the finished particles' copies (compress) and the children (one
    repeated index, three takes), so a sweep peaks at about 50 bytes per
    particle of its largest cohort. Every yielded array is a copy the
    consumer owns.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    birth_t = np.zeros(size)
    birth_x = np.zeros(size)
    rep = np.arange(size)
    done_count = 0
    cap = tol.BBM_PARTICLE_CAP
    while birth_t.size:
        n = birth_t.size
        buf = rng.standard_exponential(n)
        span = np.subtract(t, birth_t)
        np.minimum(buf, span, out=span)
        birth_t += buf  # branch times
        rng.standard_normal(out=buf)  # steps
        np.sqrt(span, out=span)
        span *= buf
        birth_x += span  # positions
        del buf, span
        live = birth_t < t
        done = ~live
        yield birth_x.compress(done), rep.compress(done)
        pick = live.nonzero()[0].repeat(2)
        done_count += n - pick.size // 2
        if done_count + pick.size > cap:
            reached = float(birth_t[live].min()) if pick.size else t
            raise PopulationCapError(reached, done_count + pick.size, cap)
        birth_t = birth_t.take(pick)
        birth_x = birth_x.take(pick)
        rep = rep.take(pick)


def sample_positions(t: float, rng: Generator) -> np.ndarray:
    """Positions of every particle of one replica at time t.

    Same branching law as the chronological engine, by the generation-wave
    sweep at a block of one.
    """
    return np.concatenate([x for x, _ in _waves(t, rng, 1)])


def count_at_or_above(t: float, level: float, rng: Generator, size: int) -> np.ndarray:
    """Per-replica int64 counts of particles at or above level at time t.

    One generation-wave sweep over a block of `size` replicas, reduced wave by
    wave, so the block never holds all its final positions. At size 1 it
    consumes the same draws as sample_positions; level -inf counts the
    population. A NaN level is refused, since no position compares with it.
    """
    if math.isnan(level):
        raise ValueError("level must not be NaN")
    counts = np.zeros(size, dtype=np.int64)
    for x, rep in _waves(t, rng, size):
        counts += np.bincount(rep.compress(x >= level), minlength=size)
    return counts
