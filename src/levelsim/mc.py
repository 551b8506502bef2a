"""Deterministic parallel Monte Carlo harness.

Every estimator in this package draws its randomness through this module:
a master seed plus a replica index is mapped to an independent Philox
counter-based stream, replicas are executed by a deterministic parallel map,
and aggregation runs in replica-index order. Results are therefore
bit-identical for a fixed (master seed, plan) at any worker count.

The worker count is one scoped setting, ``with workers(n):``, read by every
map in this module; the default is 1 (serial). Pool threads start with a
fresh context, so a map nested inside a pool task runs serially.

Vectorized tasks run in replica blocks (``map_blocks``): one stream per block
of consecutive replicas, keyed like a replica's, as in the counter-based
design of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
(SC'11). Results then depend on the plan and the block size, never on the
workers. The field samplers, the Galton-Watson sweep and the branching
Brownian motion counting estimators run in blocks; ``parallel_map``, one
stream per replica, now serves only the N-BBM dominance sweep, whose
chronological engine runs one replica at a time, and ``run_replicas``.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.random import Generator, Philox
from scipy import stats as _stats

__all__ = [
    "ReplicaPlan",
    "Estimate",
    "ExponentFit",
    "workers",
    "derive_seed",
    "replica_rng",
    "parallel_map",
    "map_blocks",
    "summarize",
    "run_replicas",
    "binomial_estimate",
    "clopper_pearson",
    "fit_exponent",
]

# SplitMix64 finalizer constants (Steele, Lea, Flood 2014). The finalizer is a
# bijection on 64-bit words, and the Weyl increment is odd, so for a fixed
# master seed the derived seeds are injective in the replica index mod 2**64.
_WEYL = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def derive_seed(master_seed: int, index: int) -> int:
    """Derive the 64-bit stream key for one replica.

    SplitMix64 finalizer applied to master_seed + index * WEYL. Collision-free
    in `index` for a fixed master seed (bijection composed with an injection),
    in particular far beyond 2**32 replicas.
    """
    if index < 0:
        raise ValueError(f"replica index must be >= 0, got {index}")
    z = (int(master_seed) + index * _WEYL) & _MASK
    z ^= z >> 30
    z = (z * _MIX1) & _MASK
    z ^= z >> 27
    z = (z * _MIX2) & _MASK
    z ^= z >> 31
    return z


def replica_rng(master_seed: int, index: int) -> Generator:
    """Counter-based generator for one replica (Philox4x64-10, key set directly)."""
    return Generator(Philox(key=derive_seed(master_seed, index)))


@dataclass(frozen=True)
class ReplicaPlan:
    """How a Monte Carlo run is organized.

    replicas: number of independent replicas.
    master_seed: explicit seed; no entropy is ever pulled from the OS.

    The worker count is not part of the plan: results do not depend on it,
    and it is set for a whole run by ``with workers(n):``.
    """

    replicas: int
    master_seed: int

    def __post_init__(self):
        if self.replicas <= 0:
            raise ValueError(f"replicas must be positive, got {self.replicas}")


@dataclass(frozen=True)
class Estimate:
    """Aggregate of a scalar-per-replica Monte Carlo run."""

    mean: float
    stderr: float
    replicas: int
    zero_count: int = 0
    ci_low: float = float("nan")
    ci_high: float = float("nan")

    def within(self, target: float, multiple: float) -> bool:
        """|mean - target| <= multiple * stderr, the standard MC agreement check."""
        return abs(self.mean - target) <= multiple * self.stderr


_WORKERS: contextvars.ContextVar[int] = contextvars.ContextVar("workers", default=1)


@contextlib.contextmanager
def workers(n: int) -> Iterator[None]:
    """Run the maps inside the block on n threads; the default is 1 (serial).

    Results do not depend on n. The previous value comes back when the block
    exits, also by an exception.
    """
    if n < 1:
        raise ValueError(f"workers must be >= 1, got {n}")
    token = _WORKERS.set(n)
    try:
        yield
    finally:
        _WORKERS.reset(token)


def _map_indices(count: int, call: Callable[[int], object]) -> list:
    """call(i) for i in range(count), serially or on the current workers(n)
    threads, returned in index order. Exceptions in workers propagate."""
    n = _WORKERS.get()
    if n == 1:
        return [call(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(call, range(count)))


def parallel_map(plan: ReplicaPlan, task: Callable[[Generator], object]) -> list:
    """Run task once per replica, each with its own derived stream.

    Returns results in replica-index order regardless of completion order, so
    any aggregation applied to the returned list is concurrency-independent.
    Exceptions in workers propagate.
    """
    return _map_indices(plan.replicas, lambda i: task(replica_rng(plan.master_seed, i)))


def map_blocks(
    plan: ReplicaPlan, block: int, task: Callable[[Generator, int], np.ndarray]
) -> np.ndarray:
    """Run task(rng, size) once per block of `block` consecutive replicas.

    Block b holds replicas b*block onward, `size` of them (the last block may
    be short), and draws from its own stream replica_rng(master_seed, b), so
    block=1 reproduces parallel_map's streams. The task returns one value per
    replica along its first axis; the blocks' values are concatenated in
    replica order. Exceptions in workers propagate.
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")

    def run(b: int) -> np.ndarray:
        size = min(block, plan.replicas - b * block)
        values = np.asarray(task(replica_rng(plan.master_seed, b), size))
        if values.shape[:1] != (size,):
            raise ValueError(
                f"block task returned shape {values.shape} for a block of {size}"
            )
        return values

    return np.concatenate(_map_indices(-(-plan.replicas // block), run))


def _normal_ci(mean: float, stderr: float) -> tuple[float, float]:
    half = 1.959963984540054 * stderr
    return mean - half, mean + half


def clopper_pearson(successes: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Exact binomial CI; used when the normal approximation is untrustworthy."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    alpha = 1.0 - level
    if successes == 0:
        lo = 0.0
    else:
        lo = float(_stats.beta.ppf(alpha / 2, successes, trials - successes + 1))
    if successes == trials:
        hi = 1.0
    else:
        hi = float(_stats.beta.ppf(1 - alpha / 2, successes + 1, trials - successes))
    return lo, hi


def summarize(values: Sequence[float]) -> Estimate:
    """Mean, stderr and a 95% normal CI of per-replica scalar values."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("no values to summarize")
    mean = float(arr.mean())
    if arr.size > 1:
        stderr = float(arr.std(ddof=1) / math.sqrt(arr.size))
    else:
        stderr = float("nan")
    zero_count = int(np.count_nonzero(arr == 0.0))
    lo, hi = _normal_ci(mean, stderr)
    return Estimate(mean, stderr, int(arr.size), zero_count, lo, hi)


def run_replicas(plan: ReplicaPlan, task: Callable[[Generator], float]) -> Estimate:
    """Scalar Monte Carlo: mean, stderr and a 95% normal CI over replicas."""
    return summarize(parallel_map(plan, task))


def binomial_estimate(successes: int, trials: int) -> Estimate:
    """Estimate of an event probability.

    Normal-approximation stderr; Clopper-Pearson interval whenever fewer than
    10 successes (or fewer than 10 failures) make the normal CI untrustworthy.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
    stderr = math.sqrt(p * (1.0 - p) / trials)
    if successes < 10 or trials - successes < 10:
        lo, hi = clopper_pearson(successes, trials)
    else:
        lo, hi = _normal_ci(p, stderr)
    return Estimate(p, stderr, trials, int(successes == 0), lo, hi)


@dataclass(frozen=True)
class ExponentFit:
    """OLS fit y ~ intercept + slope * x for exponent extraction."""

    slope: float
    intercept: float
    slope_stderr: float
    residuals: tuple[float, ...] = field(default_factory=tuple)


def fit_exponent(x: Sequence[float], y: Sequence[float]) -> ExponentFit:
    """Least-squares slope with stderr; rejects degenerate abscissae."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be 1-d sequences of equal length")
    n = xa.size
    if n < 2:
        raise ValueError("need at least two points to fit a slope")
    if np.ptp(xa) == 0.0:
        raise ValueError("abscissae are all equal; slope is undefined")
    xm = xa - xa.mean()
    sxx = float(xm @ xm)
    slope = float(xm @ ya) / sxx
    intercept = float(ya.mean() - slope * xa.mean())
    resid = ya - (intercept + slope * xa)
    if n > 2:
        sigma2 = float(resid @ resid) / (n - 2)
        slope_stderr = math.sqrt(sigma2 / sxx)
    else:
        slope_stderr = float("nan")
    return ExponentFit(slope, intercept, slope_stderr, tuple(float(r) for r in resid))
