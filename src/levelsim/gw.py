"""Inhomogeneous Galton-Watson populations and the exponential growth cap.

A population starts at Z_0 = ell and each generation i reproduces through its
own offspring law with mean m_i. Under a per-generation moment condition
E[e^{lam_i nu_i}] <= e^{alpha lam_i m_i} (alpha > 1), the population stays
below max(ell, (alpha+delta)^n * ell * max_i prod_{j>=i} m_j) except with
probability at most n * exp(-delta*ell*min(lam)/(alpha+delta) + max(lam)).
`prop_bound` evaluates that cap and bound; `empirical_exceedance` probes it
in replica blocks, `simulate_gw` on `mc.map_blocks` with one draw per
generation per block; `exact_exceedance` convolves tiny cases exactly so the
bound can be checked with zero statistical tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.random import Generator

from . import mc
from . import tolerances as tol

__all__ = [
    "OffspringLaw",
    "DivergentMgfError",
    "MgfCheck",
    "verify_mgf_condition",
    "GwPlan",
    "b_sequence",
    "growth_cap",
    "PropBound",
    "prop_bound",
    "ExceedanceEstimate",
    "empirical_exceedance",
    "exact_exceedance",
]

class DivergentMgfError(ValueError):
    """Moment generating function is infinite at the requested argument."""


@dataclass(frozen=True)
class OffspringLaw:
    """One reproduction law. Build through the classmethods.

    kind: 'geometric' | 'poisson' | 'table'.
    geometric is supported on {1, 2, ...} with P(k) = (1-p)^(k-1) p.
    table maps nonnegative integer counts to probabilities summing to 1;
    deterministic(k) is the table with the single entry k.
    """

    kind: str
    param: float = 0.0
    pmf: tuple[tuple[int, float], ...] = ()

    @classmethod
    def deterministic(cls, k: int) -> "OffspringLaw":
        if k < 0 or k != int(k):
            raise ValueError(f"offspring count must be a nonnegative integer, got {k}")
        return cls.table({k: 1.0})

    @classmethod
    def geometric(cls, p: float) -> "OffspringLaw":
        if not 0.0 < p <= 1.0:
            raise ValueError(f"geometric parameter must lie in (0, 1], got {p}")
        return cls("geometric", p)

    @classmethod
    def poisson(cls, mean: float) -> "OffspringLaw":
        if mean < 0:
            raise ValueError(f"poisson mean must be >= 0, got {mean}")
        return cls("poisson", mean)

    @classmethod
    def table(cls, probabilities: dict[int, float]) -> "OffspringLaw":
        if not probabilities:
            raise ValueError("table law needs at least one entry")
        items = tuple(sorted((int(k), float(p)) for k, p in probabilities.items()))
        if any(k < 0 for k, _ in items):
            raise ValueError("table law supports nonnegative counts only")
        if any(p <= 0 for _, p in items):
            raise ValueError("table law probabilities must be positive")
        total = math.fsum(p for _, p in items)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"table law probabilities sum to {total}, not 1")
        return cls("table", 0.0, items)

    @property
    def mean(self) -> float:
        if self.kind == "geometric":
            return 1.0 / self.param
        if self.kind == "poisson":
            return self.param
        return math.fsum(k * p for k, p in self.pmf)

    @property
    def max_support(self) -> int | None:
        """Largest possible count, or None for unbounded laws."""
        if self.kind == "table":
            return self.pmf[-1][0]
        return None

    def log_mgf(self, lam: float) -> float:
        """log E[e^{lam * nu}]; raises DivergentMgfError past the geometric radius."""
        if self.kind == "poisson":
            return self.param * math.expm1(lam)
        if self.kind == "geometric":
            p = self.param
            radius = -math.log1p(-p) if p < 1.0 else math.inf
            if lam >= radius:
                raise DivergentMgfError(
                    f"geometric(p={p}) mgf diverges at lam={lam} >= {radius}"
                )
            return math.log(p) + lam - math.log1p(-(1.0 - p) * math.exp(lam))
        terms = [math.log(p) + lam * k for k, p in self.pmf]
        peak = max(terms)
        return peak + math.log(math.fsum(math.exp(t - peak) for t in terms))

    def sample_totals(self, counts: np.ndarray, rng: Generator) -> np.ndarray:
        """Exact draws of the sum of counts[r] i.i.d. offspring numbers, one per
        entry of the int64 array `counts`.

        Uses the closed form of the convolution (Poisson sums are Poisson,
        geometric sums are shifted negative binomials, table laws thin
        sequentially through binomials), so one call draws every entry in
        O(1) vectorized RNG calls regardless of population sizes.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if (counts < 0).any():
            raise ValueError("counts must be >= 0")
        if self.kind == "poisson":
            return rng.poisson(self.param * counts)
        if self.kind == "geometric":
            # negative_binomial rejects n = 0, so extinct entries draw nothing
            totals = counts.copy()
            live = counts > 0
            totals[live] += rng.negative_binomial(counts[live], self.param)
            return totals
        totals = np.zeros_like(counts)
        remaining = counts.copy()
        mass_left = 1.0
        for k, p in self.pmf[:-1]:
            draw = rng.binomial(remaining, min(1.0, p / mass_left))
            totals += k * draw
            remaining -= draw
            mass_left -= p
        totals += self.pmf[-1][0] * remaining
        return totals

    def pmf_array(self) -> np.ndarray:
        """Dense pmf over 0..max_support; finite-support laws only."""
        top = self.max_support
        if top is None:
            raise ValueError(f"{self.kind} law has unbounded support")
        arr = np.zeros(top + 1)
        for k, p in self.pmf:
            arr[k] = p
        return arr


@dataclass(frozen=True)
class MgfCheck:
    """Outcome of the per-generation moment condition.

    slack = alpha*lam*mean - log mgf(lam); satisfied iff slack >= 0.
    """

    satisfied: bool
    slack: float
    log_mgf: float
    log_bound: float


def verify_mgf_condition(law: OffspringLaw, lam: float, alpha: float) -> MgfCheck:
    """Check E[e^{lam nu}] <= e^{alpha lam mean} at lam > 0, alpha > 1."""
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if alpha <= 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    lhs = law.log_mgf(lam)
    rhs = alpha * lam * law.mean
    return MgfCheck(lhs <= rhs, rhs - lhs, lhs, rhs)


@dataclass(frozen=True)
class GwPlan:
    """Initial count plus one offspring law per generation."""

    initial: int
    laws: tuple[OffspringLaw, ...]

    def __post_init__(self):
        if self.initial < 1:
            raise ValueError(f"initial population must be >= 1, got {self.initial}")
        if not self.laws:
            raise ValueError("plan needs at least one generation")

    @property
    def generations(self) -> int:
        return len(self.laws)

    def means(self) -> tuple[float, ...]:
        return tuple(law.mean for law in self.laws)


def b_sequence(
    initial: int, growth: float, means: Sequence[float]
) -> tuple[int, ...]:
    """Dominating integer recursion b_{i+1} = max(floor(growth*m_i*b_i), initial).

    growth plays the role of alpha+delta (> 1). Arithmetic is exact: the float
    inputs are taken at their binary values and the floor is computed over
    rationals, so the sequence is reproducible at any magnitude.
    """
    if initial < 1:
        raise ValueError(f"initial must be >= 1, got {initial}")
    if growth <= 1.0:
        raise ValueError(f"growth factor must exceed 1, got {growth}")
    if any(m <= 0 for m in means):
        raise ValueError("generation means must be positive")
    g = Fraction(growth)
    seq = [int(initial)]
    for m in means:
        nxt = math.floor(g * Fraction(m) * seq[-1])
        seq.append(max(nxt, int(initial)))
    return tuple(seq)


def growth_cap(initial: int, growth: float, means: Sequence[float]) -> float:
    """Closed-form cap max(ell, growth^n * ell * max_i prod_{j=i}^{n-1} m_j).

    Dominates every term of b_sequence (checked exactly in tests).
    """
    if not means:
        raise ValueError("need at least one generation")
    n = len(means)
    best_tail = max(math.prod(means[i:]) for i in range(n))
    return max(float(initial), growth**n * initial * best_tail)


@dataclass(frozen=True)
class PropBound:
    """Growth threshold and the probability bound that goes with it.

    threshold is real-valued; counting uses ceil(threshold). probability is
    clamped to [0, 1].
    """

    threshold: float
    probability: float


def prop_bound(
    plan: GwPlan, alpha: float, delta: float, lambdas: Sequence[float]
) -> PropBound:
    """Bound P(Z_n >= cap) given per-generation mgf certificates.

    Verifies the moment condition for every generation first and rejects with
    the failing index, so a reported bound is always backed by its hypotheses.
    """
    if alpha <= 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if len(lambdas) != plan.generations:
        raise ValueError(
            f"need one lambda per generation ({plan.generations}), got {len(lambdas)}"
        )
    means = plan.means()
    if any(m <= 0 for m in means):
        raise ValueError("proposition requires strictly positive generation means")
    for i, (law, lam) in enumerate(zip(plan.laws, lambdas)):
        check = verify_mgf_condition(law, lam, alpha)
        if not check.satisfied:
            raise ValueError(
                f"mgf condition fails at generation {i}: "
                f"log mgf {check.log_mgf:.6g} > bound {check.log_bound:.6g}"
            )
    n = plan.generations
    threshold = growth_cap(plan.initial, alpha + delta, means)
    exponent = (
        -delta * plan.initial * min(lambdas) / (alpha + delta) + max(lambdas)
    )
    return PropBound(threshold, min(1.0, n * math.exp(exponent)))


def simulate_gw(
    plan: GwPlan, rng: Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """`size` independent trajectories and the replicas censored at the cap.

    Returns the counts Z_0..Z_n as a (size, n+1) int64 array, drawn by one
    `sample_totals` call per generation, and a boolean mask of the replicas
    whose count passed GW_POPULATION_CAP. A censored replica draws no more,
    and its later generations read 0. Extinction is absorbing.
    """
    cap = tol.GW_POPULATION_CAP
    top = max(law.max_support or 0 for law in plan.laws)
    if cap * top >= 2**63:
        raise ValueError(
            f"population cap {cap} times offspring count {top} overflows int64"
        )
    counts = np.zeros((size, plan.generations + 1), dtype=np.int64)
    counts[:, 0] = plan.initial
    censored = np.zeros(size, dtype=bool)
    for i, law in enumerate(plan.laws):
        live = ~censored
        counts[live, i + 1] = law.sample_totals(counts[live, i], rng)
        censored |= counts[:, i + 1] > cap
    return counts, censored


@dataclass(frozen=True)
class ExceedanceEstimate:
    """Empirical P(Z_n >= threshold); censored runs count as exceedances."""

    estimate: mc.Estimate
    count_threshold: int
    censored: int


def empirical_exceedance(
    plan: GwPlan,
    threshold: float,
    replica_plan: mc.ReplicaPlan,
) -> ExceedanceEstimate:
    """Monte Carlo exceedance probability at ceil(threshold)."""
    k = math.ceil(threshold)

    def task(rng: Generator, size: int) -> np.ndarray:
        counts, censored = simulate_gw(plan, rng, size)
        return np.stack([censored | (counts[:, -1] >= k), censored], axis=1)

    hits, censored = mc.map_blocks(replica_plan, tol.GW_BLOCK, task).sum(axis=0)
    return ExceedanceEstimate(
        estimate=mc.binomial_estimate(int(hits), replica_plan.replicas),
        count_threshold=k,
        censored=int(censored),
    )


def exact_exceedance(plan: GwPlan, threshold: float) -> float:
    """Exact P(Z_n >= ceil(threshold)) by generation-wise convolution.

    Finite-support laws only; the reachable state space must stay within
    EXACT_STATE_LIMIT entries at every generation, or WorkRefusedError is
    raised. Both are checked before any convolution. Intended for the tiny
    cases that anchor the statistical checks with zero tolerance.
    """
    k = math.ceil(threshold)
    limit = tol.EXACT_STATE_LIMIT
    reach = plan.initial  # largest population generation i can reach
    for law in plan.laws:
        if law.max_support is None:
            raise ValueError(f"{law.kind} law has unbounded support")
        reach *= law.max_support
        if reach + 1 > limit:
            raise tol.WorkRefusedError(
                f"state space {reach + 1} exceeds limit {limit}; "
                "exact convolution is for tiny cases",
                "gw.exact_exceedance", "states", reach + 1, limit,
            )
    dist = np.zeros(plan.initial + 1)
    dist[plan.initial] = 1.0
    for law in plan.laws:
        step = law.pmf_array()
        top = dist.size - 1
        new_dist = np.zeros(top * (step.size - 1) + 1)
        new_dist[0] += dist[0]
        conv = np.ones(1)  # 0-fold convolution: point mass at 0
        for z in range(1, top + 1):
            conv = np.convolve(conv, step)
            if dist[z] != 0.0:
                new_dist[: conv.size] += dist[z] * conv
        dist = new_dist
    if k >= dist.size:
        return 0.0
    return float(dist[max(k, 0):].sum())
