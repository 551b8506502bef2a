"""Level sets and exceedance exponents of the zero-boundary field.

Sites where the field reaches 2*gamma*eta*log N, with gamma = sqrt(2/pi),
form the eta-level set; its cardinality grows like N**(2(1 - eta**2)). The
coarse-tail probe estimates the chance that some box at scale zeta carries a
coarse value above 2*gamma*b*log N, which decays like
N**(-2(b**2/(1-zeta) - (1-zeta))). Both are slow-convergence exponents, so
estimators report per-size values and trends rather than a single number.

The daviaud level counts and the coarse probe at zeta = 0 only ask whether a
site is at or above the threshold, so they read float32 interiors from
sample_interiors_float32: float32 Box-Muller normals on their own Philox
streams, scaled and transformed in float32. A hit or a count can then differ
from its float64 twin, the float64 transform of the same normals, only where
a value lies within FIELD_FLOAT32_DELTA of the threshold, and
rounding_flip_bound, reported beside each such estimate, bounds how often
that happens. Their thresholds are compared exactly: each is replaced by the
smallest float32 not below it, whatever numpy's promotion rules. The zeta > 0
probe averages field values in harmonic_at and stays on float64.

Both threshold maps run through _threshold_map: their blocks are float32 sine
products, so mc runs them on every usable CPU, each on the one BLAS thread mc
pins numpy's OpenBLAS to at import. Their float32 bits depend neither on the
thread count nor on the host's default BLAS thread count; the float32 log,
sin and cos of the normals follow numpy's CPU dispatch, so they are fixed
per CPU feature set. The zeta > 0 probe stays serial: its blocks call
sample_fields and harmonic_at, which a tracer may wrap, and threads raised
its peak memory more than they saved.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.random import Generator
from scipy.special import ndtr

from .. import mc
from .. import tolerances as tol
from .decompose import harmonic_at
from .green import GreenOperator
from .grid import Box, flat_partition
from .sample import sample_fields, sample_interiors_float32

__all__ = [
    "GAMMA",
    "level_threshold",
    "expected_level_count",
    "rounding_flip_bound",
    "DaviaudPoint",
    "DaviaudEstimate",
    "estimate_daviaud_exponent",
    "CoarseTailProbe",
    "coarse_exceedance_probe",
]

# Kept in closed form; exponent measurements are sensitive to the threshold
# constant, so it is never truncated to a decimal literal.
GAMMA = math.sqrt(2.0 / math.pi)


def level_threshold(grid_n: int, level: float) -> float:
    """Threshold 2*gamma*level*log N shared by level sets (level = eta) and
    coarse exceedance events (level = b)."""
    if grid_n < 4:
        raise ValueError(f"grid side must be >= 4, got {grid_n}")
    if level <= 0:
        raise ValueError(f"level fraction must be positive, got {level}")
    return 2.0 * GAMMA * level * math.log(grid_n)


def expected_level_count(grid_n: int, eta: float) -> float:
    """Exact mean level-set size: each site contributes the upper Gaussian
    tail of threshold / sqrt(G(x, x)), summed over the interior."""
    thr = level_threshold(grid_n, eta)
    variances = GreenOperator(grid_n).diagonal()
    # Boundary sites have variance 0; thr/0 = inf gives them tail mass 0.
    with np.errstate(divide="ignore"):
        return float(ndtr(-(thr / np.sqrt(variances))).sum())


def rounding_flip_bound(grid_n: int, threshold: float) -> float:
    """Bound on the chance that a float32 field's maximum falls on the other
    side of threshold u than its float64 twin's, and on the expected change
    of its count at or above u: sum over interior sites s of
    P(|X_s - u| < delta) <= 2 delta phi((u - delta)/sigma_s)/sigma_s, with
    delta = FIELD_FLOAT32_DELTA and sigma_s^2 = G(s, s). The density is taken
    at u - delta, its largest value on the window for u > delta."""
    delta = tol.FIELD_FLOAT32_DELTA
    variances = GreenOperator(grid_n).diagonal()[1:-1, 1:-1]
    # the normal density in closed form: scipy's pdf holds several copies of
    # the (N-2)^2 sites, which set the peak memory of a daviaud run
    density = np.exp(-0.5 * (threshold - delta) ** 2 / variances)
    density /= np.sqrt(2.0 * math.pi * variances)
    return float(2.0 * delta * density.sum())


def _float32_threshold(threshold: float) -> np.float32:
    """The smallest float32 not below threshold: a float32 value x has
    x >= threshold exactly when x >= this, under any promotion rule."""
    thr32 = np.float32(threshold)
    # compared in float64: numpy 2 would round threshold to float32 here too
    if float(thr32) < threshold:
        thr32 = np.nextafter(thr32, np.float32(np.inf))
    return thr32


@dataclass(frozen=True)
class DaviaudPoint:
    """Level-set statistics at one grid size; rounding_flip_bound bounds the
    expected change of one replica's count from the float32 transform."""

    grid_n: int
    counts: mc.Estimate
    exponent: mc.Estimate | None
    dropped: int
    rounding_flip_bound: float


@dataclass(frozen=True)
class DaviaudEstimate:
    """Per-size exponents plus the cross-size regression."""

    eta: float
    limit: float
    points: tuple[DaviaudPoint, ...]
    fit: mc.ExponentFit


def _field_block(grid_n: int) -> int:
    """Fields per replica block at side N: about FIELD_BLOCK_SITES sites."""
    return max(1, tol.FIELD_BLOCK_SITES // (grid_n * grid_n))


def _threshold_map(
    plan: mc.ReplicaPlan,
    grid_n: int,
    threshold: float,
    reduce: Callable[[np.ndarray, np.float32], np.ndarray],
) -> tuple[np.ndarray, float]:
    """reduce(interiors, thr32) over float32 field blocks at side N, with
    thr32 the exact float32 stand-in for threshold; returns the replicas'
    values and rounding_flip_bound(grid_n, threshold).

    The map is BLAS-bound, so it runs on every usable CPU.
    """
    thr32 = _float32_threshold(threshold)

    def task(rng: Generator, size: int) -> np.ndarray:
        return reduce(sample_interiors_float32(grid_n, size, rng), thr32)

    # the bound's Green diagonal refuses an oversized N before any block runs
    flip_bound = rounding_flip_bound(grid_n, threshold)
    return mc.map_blocks(plan, _field_block(grid_n), task, blas_bound=True), flip_bound


def _replicas_for(replicas: int | Mapping[int, int], grid_n: int) -> int:
    if isinstance(replicas, Mapping):
        count = int(replicas[grid_n])
    else:
        count = int(replicas)
    if count < 1:
        raise ValueError(f"replicas must be >= 1, got {count} for N={grid_n}")
    return count


def estimate_daviaud_exponent(
    grid_sizes: Sequence[int],
    eta: float,
    replicas: int | Mapping[int, int],
    seed: int,
) -> DaviaudEstimate:
    """Measure log(#level set)/log N across grid sizes.

    Zero-count replicas cannot contribute a log and are dropped from the
    exponent average; the drop count is reported per size. The regression
    slope is fitted to log mean counts against log N.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    sizes = [int(n) for n in grid_sizes]
    if len(sizes) == 0:
        raise ValueError("need at least one grid size")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"grid sizes must be strictly increasing, got {sizes}")

    points = []
    for grid_n in sizes:
        plan = mc.ReplicaPlan(
            _replicas_for(replicas, grid_n), mc.derive_seed(seed, grid_n)
        )
        counts, flip_bound = _threshold_map(
            plan,
            grid_n,
            level_threshold(grid_n, eta),
            lambda interiors, thr32: (interiors >= thr32).sum(axis=(1, 2)),
        )
        counts = counts.astype(float)
        count_est = mc.summarize(counts)
        nonzero = counts[counts > 0]
        exponent = None
        if nonzero.size > 0:
            exponent = mc.summarize(np.log(nonzero) / math.log(grid_n))
        points.append(
            DaviaudPoint(
                grid_n, count_est, exponent, int((counts == 0).sum()), flip_bound
            )
        )

    usable = [(p.grid_n, p.counts.mean) for p in points if p.counts.mean > 0]
    if len(usable) >= 2:
        fit = mc.fit_exponent(
            [math.log(n) for n, _ in usable], [math.log(m) for _, m in usable]
        )
    else:
        fit = mc.ExponentFit(float("nan"), float("nan"), float("nan"), ())
    limit = 2.0 * (1.0 - eta * eta)
    return DaviaudEstimate(eta, limit, tuple(points), fit)


@dataclass(frozen=True)
class CoarseTailProbe:
    """One-size estimate of the coarse exceedance probability. At zeta = 0,
    rounding_flip_bound bounds the chance that one replica's hit flips from
    the float32 transform; at zeta > 0 the probe is float64 and it is None."""

    grid_n: int
    zeta: float
    b: float
    threshold: float
    estimate: mc.Estimate
    exponent: float | None
    predicted_exponent: float
    predicted_probability: float
    rounding_flip_bound: float | None


def coarse_exceedance_probe(
    grid_n: int,
    zeta: float,
    b: float,
    replicas: int,
    seed: int,
) -> CoarseTailProbe:
    """Estimate P(some scale-zeta box has coarse value >= 2*gamma*b*log N).

    zeta = 0 reduces to the maximum of the field. The decay exponent
    -log(p)/log N tends to 2(b**2/(1-zeta) - (1-zeta)) for b > 1-zeta; the
    probe refuses to run when that prediction puts fewer than 10 expected
    successes in the replica budget.
    """
    if not 0.0 <= zeta < 1.0:
        raise ValueError(f"zeta must lie in [0, 1), got {zeta}")
    if b <= 0.0:
        raise ValueError(f"b must be positive, got {b}")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    predicted_exponent = 2.0 * (b * b / (1.0 - zeta) - (1.0 - zeta))
    # N**(-e) is at least 1 for e <= 0; past the float range, where N**(-e)
    # overflows converting N, it comes from log N, which takes any int
    if predicted_exponent <= 0.0:
        predicted_probability = 1.0
    elif grid_n < 2**1000:
        predicted_probability = grid_n ** (-predicted_exponent)
    else:
        predicted_probability = math.exp(-predicted_exponent * math.log(grid_n))
    if predicted_probability < 10.0 / replicas:
        raise tol.WorkRefusedError(
            f"predicted exceedance probability {predicted_probability:.3g} is below "
            f"10/replicas = {10.0 / replicas:.3g}; increase replicas or lower b",
            "gff.coarse_exceedance_probe", "exceedance probability",
            predicted_probability, 10.0 / replicas,
        )

    thr = level_threshold(grid_n, b)
    plan = mc.ReplicaPlan(replicas, seed)
    flip_bound: float | None = None
    if zeta == 0.0:
        hits, flip_bound = _threshold_map(
            plan, grid_n, thr, lambda interiors, thr32: interiors.max(axis=(1, 2)) >= thr32
        )
    else:

        @functools.cache
        def boxes() -> list[Box]:
            # tiled once the first block has passed the field budget: at a grid
            # too large to sample the tiles alone could exhaust memory
            side = max(1, round(grid_n**zeta))
            return flat_partition(Box(0, 0, grid_n, grid_n), side)

        def coarse(rng, size) -> np.ndarray:
            fields = sample_fields(grid_n, size, rng)
            hits = np.zeros(size, dtype=bool)
            for box in boxes():
                hits |= harmonic_at(fields, box, box.center()) >= thr
            return hits

        hits = mc.map_blocks(plan, _field_block(grid_n), coarse)
    estimate = mc.binomial_estimate(int(hits.sum()), replicas)
    exponent = None
    if estimate.mean > 0:
        exponent = -math.log(estimate.mean) / math.log(grid_n)
    return CoarseTailProbe(
        grid_n,
        zeta,
        b,
        thr,
        estimate,
        exponent,
        predicted_exponent,
        predicted_probability,
        flip_bound,
    )
