"""Deterministic parallel Monte Carlo harness.

Every estimator in this package draws its randomness through this module:
a master seed plus a replica index is mapped to an independent Philox
counter-based stream, replicas are executed by a deterministic map, and
aggregation runs in replica-index order. Results are therefore bit-identical
for a fixed (master seed, plan) at any thread count.

The code, not the caller, picks a map's thread count, in ``map_blocks``.
Three maps spend their time in numpy kernels that run without the GIL
(Philox normal fills and one-thread BLAS products) and say so with their
blocks' working set (``map_blocks(..., gil_free_bytes=...)``): the two
float32 threshold field maps and decompose-var's box draws. They run on
every CPU the process may use, but on no more threads than the field budget
holds blocks; every other map runs serially. Importing this module sets
numpy's OpenBLAS and scipy's (a separate copy, behind scipy.linalg) to one
thread each for the rest of the process, so every product and every banded
factorization gives the same bits at any thread count and on any host
default; where numpy's pin is unavailable, those three maps too run
serially. The calling thread is one of a map's threads.

Vectorized tasks run in replica blocks (``map_blocks``): one stream per block
of consecutive replicas, keyed like a replica's, as in the counter-based
design of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
(SC'11). Results then depend on the plan and the block size, never on the
threads. The field samplers, the Galton-Watson sweep and the branching
Brownian motion counting estimators run in blocks; ``parallel_map``, one
stream per replica, now serves only the N-BBM dominance sweep, whose
chronological engine runs one replica at a time, and ``run_replicas``.

Two exact routines sit beside the estimators: ``clopper_pearson``, the exact
binomial interval, and ``ks_two_sample``, the exact two-sample
Kolmogorov-Smirnov test on samples of equal size. Both use only
``scipy.special`` and plain arithmetic.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy import special

from . import tolerances as tol

__all__ = [
    "ReplicaPlan",
    "Estimate",
    "ExponentFit",
    "derive_seed",
    "replica_rng",
    "parallel_map",
    "map_blocks",
    "summarize",
    "run_replicas",
    "binomial_estimate",
    "clopper_pearson",
    "ks_two_sample",
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


# Philox(key=...) seeds a default SeedSequence() from OS entropy before it sets
# the key. replica_rng seeds this fixed sequence instead and then replaces the
# whole state with the one Philox(key=...) ends in, so no entropy is read.
_FIXED_SEQUENCE = SeedSequence(0)
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)


def replica_rng(master_seed: int, index: int) -> Generator:
    """Counter-based generator for one replica (Philox4x64-10, key set directly)."""
    bits = Philox(_FIXED_SEQUENCE)
    bits.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": _ZERO_WORDS,
            "key": np.array([derive_seed(master_seed, index), 0], dtype=np.uint64),
        },
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return Generator(bits)


@dataclass(frozen=True)
class ReplicaPlan:
    """How a Monte Carlo run is organized.

    replicas: number of independent replicas.
    master_seed: explicit seed; no entropy is ever pulled from the OS.

    The thread count is not part of the plan: results do not depend on it,
    and ``map_blocks`` chooses it per map.
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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# (getter, setter) symbol pairs of the OpenBLAS builds numpy and scipy ship
# or link
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _blas_extensions() -> tuple[str, str]:
    """Files of the extension modules through which numpy's matmul and
    scipy.linalg's LAPACK calls reach their OpenBLAS: numpy's
    _multiarray_umath and scipy.linalg's _flapack."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath
    from scipy.linalg import _flapack

    return _multiarray_umath.__file__, _flapack.__file__


def _openblas(extension: str) -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the OpenBLAS the extension
    module at path extension calls, or None. Looked up through the
    extension's handle, which also resolves its dependencies' symbols."""
    import ctypes

    try:
        lib = ctypes.CDLL(extension)
    except OSError:
        return None
    for get, put in _OPENBLAS_SYMBOLS:
        if hasattr(lib, get) and hasattr(lib, put):
            getter, setter = getattr(lib, get), getattr(lib, put)
            getter.restype = ctypes.c_int
            setter.argtypes = (ctypes.c_int,)
            setter.restype = None
            return getter, setter
    return None


def _pin_blas() -> bool:
    """Set numpy's and scipy's OpenBLAS to one thread each; returns whether
    numpy's could be set, the one the threaded maps' products run on."""
    numpy_blas, scipy_blas = (_openblas(path) for path in _blas_extensions())
    for blas in (numpy_blas, scipy_blas):
        if blas is not None:
            blas[1](1)
    return numpy_blas is not None


# Pinned once, at import, and never restored: every product, float32 or
# float64, in a map or not, and every scipy.linalg factorization and banded
# solve (the dense field route) then runs on one BLAS thread, so a report is
# a function of its seed alone, and small products and the first factor of a
# process skip OpenBLAS's thread start.
_BLAS_PINNED = _pin_blas()


def _map_indices(
    count: int,
    stream: Callable[[int], Generator],
    call: Callable[[int, Generator], object],
    threads: int = 1,
) -> list:
    """call(i, stream(i)) for i in range(count), returned in index order.

    Runs on `threads` threads (at most one per index), the calling thread one
    of them; indices go out one at a time, each with its stream, under the
    map's lock, so the streams are made one at a time and in index order.
    After a failure no further index goes out, and the exception of the
    lowest failed index propagates once every thread has stopped.
    """
    n = min(threads, count)
    if n <= 1:
        return [call(i, stream(i)) for i in range(count)]
    results: list = [None] * count
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    cursor = 0

    # a thread records what it raised and stops; the caller re-raises it
    # once the others have stopped too
    def work() -> None:
        nonlocal cursor
        while True:
            with lock:
                if cursor == count or errors:
                    return
                i = cursor
                cursor += 1
                try:
                    rng = stream(i)
                except BaseException as exc:
                    errors[i] = exc
                    return
            try:
                results[i] = call(i, rng)
            except BaseException as exc:
                with lock:
                    errors[i] = exc
                return

    with ThreadPoolExecutor(max_workers=n - 1) as pool:
        futures = [pool.submit(work) for _ in range(n - 1)]
        work()
        for future in futures:
            future.result()
    if errors:
        raise errors[min(errors)]
    return results


def parallel_map(plan: ReplicaPlan, task: Callable[[Generator], object]) -> list:
    """Run task once per replica, each with its own derived stream.

    Runs serially and returns results in replica-index order. Exceptions
    in the task propagate.
    """
    return _map_indices(
        plan.replicas,
        lambda i: replica_rng(plan.master_seed, i),
        lambda i, rng: task(rng),
    )


def map_blocks(
    plan: ReplicaPlan,
    block: int,
    task: Callable[[Generator, int], np.ndarray],
    *,
    gil_free_bytes: int | None = None,
) -> np.ndarray:
    """Run task(rng, size) once per block of `block` consecutive replicas.

    Block b holds replicas b*block onward, `size` of them (the last block may
    be short), and draws from its own stream replica_rng(master_seed, b), so
    block=1 reproduces parallel_map's streams. The task returns one value per
    replica along its first axis; the blocks' values are concatenated in
    replica order. The exception of the lowest failed block propagates.

    gil_free_bytes marks blocks whose time goes to GIL-free numpy kernels
    (Philox fills, one-thread BLAS products) and gives one full block's
    working set: the map runs on every usable CPU, but on no more threads
    than FIELD_BYTES_MAX // gil_free_bytes (one at least), and serially if
    the import-time pin did not take. Every other map runs serially, as
    threads only slowed the maps whose time goes to the interpreter.
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")

    def run(b: int, rng: Generator) -> np.ndarray:
        size = min(block, plan.replicas - b * block)
        values = np.asarray(task(rng, size))
        if values.shape[:1] != (size,):
            raise ValueError(
                f"block task returned shape {values.shape} for a block of {size}"
            )
        return values

    def stream(b: int) -> Generator:
        return replica_rng(plan.master_seed, b)

    blocks = -(-plan.replicas // block)
    threads = 1
    if gil_free_bytes is not None and _BLAS_PINNED:
        # as many blocks at once as the field budget holds
        fit = tol.FIELD_BYTES_MAX // gil_free_bytes
        threads = max(1, min(_usable_cpus(), fit))
    return np.concatenate(_map_indices(blocks, stream, run, threads))


def _normal_ci(mean: float, stderr: float) -> tuple[float, float]:
    half = 1.959963984540054 * stderr
    return mean - half, mean + half


def clopper_pearson(successes: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Exact binomial CI; used when the normal approximation is untrustworthy.

    The bounds are beta quantiles, taken as betaincinv(a, b, q), which is
    how scipy's beta.ppf evaluates them.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level {level} outside (0, 1)")
    alpha = 1.0 - level
    if successes == 0:
        lo = 0.0
    else:
        lo = float(special.betaincinv(successes, trials - successes + 1, alpha / 2))
    if successes == trials:
        hi = 1.0
    else:
        hi = float(special.betaincinv(successes + 1, trials - successes, 1 - alpha / 2))
    return lo, hi


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Exact two-sided two-sample Kolmogorov-Smirnov test for equal sizes n.

    Returns (h/n, p) with h = max |#{a <= x} - #{b <= x}| over the pooled
    sample and p = P(D_{n,n} >= h/n) under the null, by the Horner form of
    the reflection series 2 * sum_k (-1)^(k+1) C(2n, n-kh) / C(2n, n) that
    scipy's ks_2samp(method="exact") uses; h = 0 gives p = 1.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n = a.size
    if a.shape != (n,) or b.shape != (n,) or n == 0:
        raise ValueError(
            f"need two non-empty 1-d samples of equal size, got {a.shape} and {b.shape}"
        )
    pooled = np.concatenate((a, b))
    gaps = np.searchsorted(a, pooled, side="right") - np.searchsorted(b, pooled, side="right")
    h = int(np.abs(gaps).max())
    if h == 0:
        return 0.0, 1.0
    tail = 0.0
    for k in range(n // h, -1, -1):
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        tail = term * (1.0 - tail)
    return h / n, min(2 * tail, 1.0)


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
