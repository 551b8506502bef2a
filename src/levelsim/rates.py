"""Closed-form rate functions and independent grid certification.

Three families of closed forms live here:

* psi(x) = x^2/2 - 1, the decay rate of the maximal-displacement tail of
  branching Brownian motion at speed x > sqrt(2);
* rate_i(a, x) = x^2/(2(1-a)) - 1, the decay rate of the probability that at
  least e^{at} particles sit above the ray xt;
* rate_j(a, eta) = 2 eta^2/(1-a) - 2 = 2 * rate_i(a, sqrt(2) eta), its
  lattice free field analogue (exponent measured against log N instead of t).

Each rate equals the value of a constrained supremum over Brownian / field
profiles; `solve_bbm_variational` and `solve_gff_variational` return the
closed-form maximizers, and `grid_certify` re-derives the suprema by honest
grid search with refinement so the closed forms never certify themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SQRT2",
    "psi",
    "rate_i",
    "rate_j",
    "VariationalSolution",
    "solve_bbm_variational",
    "solve_gff_variational",
    "SupremumProblem",
    "GridOracleConfig",
    "InfeasibleProblemError",
    "bbm_supremum_problem",
    "gff_supremum_problem",
    "grid_certify",
]

SQRT2 = math.sqrt(2.0)

# Rounding allowance on the lower edge of the admissible region of rate_i.
_BOUNDARY_SLACK = 1e-14


def psi(x: float) -> float:
    """Large-deviation rate of P(max displacement >= xt) for x > sqrt(2).

    Defined for all x > 0; nonnegative iff x >= sqrt(2) (below the front the
    probability does not decay and the rate is reported as the negative growth
    exponent of the same formula).
    """
    if x <= 0:
        raise ValueError(f"speed x must be positive, got {x}")
    return 0.5 * x * x - 1.0


def _check_i_domain(a: float, x: float) -> None:
    if x <= 0:
        raise ValueError(f"speed x must be positive, got {x}")
    lower = max(0.0, 1.0 - 0.5 * x * x)
    # Exact lower-boundary queries are accepted (continuous extension);
    # a = 1 is not (the rate diverges). The slack admits a boundary computed
    # another way, e.g. rate_j's 1 - eta^2 against 1 - (sqrt(2) eta)^2 / 2,
    # which can land a few ulps below this one.
    if a < lower - _BOUNDARY_SLACK or a >= 1.0:
        raise ValueError(
            f"growth exponent a={a} outside admissible [{lower}, 1) for x={x}"
        )


def rate_i(a: float, x: float) -> float:
    """Decay rate of P(#particles above xt >= e^{at}).

    Admissible region: x > 0, (1 - x^2/2)^+ <= a < 1 (closed at the lower
    boundary, where the formula continuously extends; equals 0 there when
    x <= sqrt(2)).
    """
    _check_i_domain(a, x)
    return x * x / (2.0 * (1.0 - a)) - 1.0


def rate_j(a: float, eta: float) -> float:
    """Free-field analogue: decay rate (in log N) for level eta, growth a.

    Admissible: 0 < eta < 1, 1 - eta^2 <= a < 1, exactly the admissible
    region of rate_i at speed sqrt(2) eta; there rate_j(a, eta) equals
    2 * rate_i(a, sqrt(2) eta).
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"level eta must lie in (0, 1), got {eta}")
    lower = 1.0 - eta * eta
    if a < lower or a >= 1.0:
        raise ValueError(
            f"growth exponent a={a} outside admissible [{lower}, 1) for eta={eta}"
        )
    return 2.0 * eta * eta / (1.0 - a) - 2.0


@dataclass(frozen=True)
class VariationalSolution:
    """Certified or closed-form solution of a constrained supremum.

    value is the supremum (per unit t for the time-scaled problem);
    maximizer holds the full coordinate tuple; constraint_residual is the
    absolute violation of the active constraint at the maximizer.
    """

    value: float
    maximizer: tuple[float, ...]
    constraint_residual: float


def solve_bbm_variational(a: float, x: float, t: float = 1.0) -> VariationalSolution:
    """Closed-form maximizer of the branching path supremum.

    sup over 0 < s < t, y <= xt with (t-s) - (xt-y)^2/(2(t-s)) = at of
    (s - y^2/(2s)) / t. Value equals -rate_i(a, x); the solution scales
    linearly in t (solved at t=1 internally). Strict-interior maximizer
    required: exact lower-boundary a is rejected here (s* degenerates to 0)
    even though rate_i accepts it.
    """
    _check_i_domain(a, x)
    if t <= 0:
        raise ValueError(f"horizon t must be positive, got {t}")
    one_a = 1.0 - a
    denom = x * x - 2.0 * one_a * one_a
    numer = x * x - 2.0 * one_a
    if numer <= 0.0:
        raise ValueError(
            f"query (a={a}, x={x}) sits on the domain boundary; "
            "the maximizer degenerates (s* = 0)"
        )
    # denom > numer > 0 inside the admissible region since 1 - a < 1.
    s_star = one_a * numer / denom
    y_star = x * s_star / one_a
    value = s_star - y_star * y_star / (2.0 * s_star)
    residual = abs((1.0 - s_star) - (x - y_star) ** 2 / (2.0 * (1.0 - s_star)) - a)
    return VariationalSolution(
        value=value,
        maximizer=(s_star * t, y_star * t),
        constraint_residual=residual,
    )


def solve_gff_variational(eta: float, a: float) -> VariationalSolution:
    """Closed-form maximizer of the field profile supremum.

    sup over 0 < s < 1, y >= eta, s - (y-b)^2/s >= a of (1-s) - b^2/(1-s).
    Value equals -(eta^2/(1-a) - 1) = -rate_j(a, eta)/2; the constraint is
    active at the maximizer. Strict-interior maximizer required: the exact
    lower-boundary a is rejected here (s* degenerates to 1) even though
    rate_j accepts it.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"level eta must lie in (0, 1), got {eta}")
    lower = 1.0 - eta * eta
    if a >= 1.0 or a < lower:
        raise ValueError(
            f"growth exponent a={a} outside admissible [{lower}, 1) for eta={eta}"
        )
    if a == lower:
        raise ValueError(
            f"query (eta={eta}, a={a}) sits on the domain boundary; "
            "the maximizer degenerates (s* = 1)"
        )
    one_a = 1.0 - a
    # a > 1 - eta^2 forces 1 - a < eta^2 <= eta, so the denominator is positive.
    denom = eta * eta - one_a * one_a
    s_star = a * eta * eta / denom
    b_star = (eta * eta - one_a) * eta / denom
    y_star = eta
    value = (1.0 - s_star) - b_star * b_star / (1.0 - s_star)
    residual = abs(s_star - (y_star - b_star) ** 2 / s_star - a)
    return VariationalSolution(
        value=value,
        maximizer=(s_star, b_star, y_star),
        constraint_residual=residual,
    )


class InfeasibleProblemError(ValueError):
    """Raised when a supremum problem has an empty feasible grid."""


@dataclass(frozen=True)
class GridOracleConfig:
    """Grid certification parameters.

    resolution: grid points per free axis (>= 16);
    refinement_levels: total passes, each shrinking the window 10x around the
    incumbent (>= 1); padding: widening applied to nominal variable bounds.
    """

    resolution: int = 48
    refinement_levels: int = 6
    padding: float = 0.0

    def __post_init__(self):
        if self.resolution < 16:
            raise ValueError(f"resolution must be >= 16, got {self.resolution}")
        if self.refinement_levels < 1:
            raise ValueError(
                f"refinement_levels must be >= 1, got {self.refinement_levels}"
            )
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")


@dataclass(frozen=True)
class SupremumProblem:
    """Constrained supremum over a box of free variables.

    objective and feasible act on per-axis coordinate arrays (vectorized);
    expand maps a free-variable point to the full maximizer tuple; residual
    reports the active-constraint violation at a free-variable point.
    Equality constraints and monotone inner minimizations are eliminated
    analytically by the builders below, never by the grid itself.
    """

    bounds: tuple[tuple[float, float], ...]
    objective: Callable[..., np.ndarray]
    feasible: Callable[..., np.ndarray]
    expand: Callable[..., tuple[float, ...]]
    residual: Callable[..., float]


def bbm_supremum_problem(a: float, x: float) -> SupremumProblem:
    """Grid form of the branching path problem at t = 1.

    The equality constraint (1-s) - (x-y)^2/(2(1-s)) = a pins y given s:
    y = x - sqrt(2(1-s)(1-s-a)) (the root with y <= x). One free variable s,
    feasible iff 0 < s and s <= 1 - a; the declared bounds stop at 1 - a so
    the grid resolves thin windows when a is close to 1.
    """

    def _gap(s):
        one_s = 1.0 - np.asarray(s, dtype=float)
        return x - np.sqrt(np.maximum(2.0 * one_s * (one_s - a), 0.0))

    def objective(s):
        s = np.asarray(s, dtype=float)
        y = _gap(s)
        with np.errstate(divide="ignore", invalid="ignore"):
            return s - y * y / (2.0 * s)

    def feasible(s):
        s = np.asarray(s, dtype=float)
        return (s > 0.0) & (1.0 - s >= a)

    def expand(s):
        return (float(s), float(_gap(s)))

    def residual(s):
        s, y = float(s), float(_gap(s))
        return abs((1.0 - s) - (x - y) ** 2 / (2.0 * (1.0 - s)) - a)

    return SupremumProblem(
        bounds=((0.0, 1.0 - a),),
        objective=objective,
        feasible=feasible,
        expand=expand,
        residual=residual,
    )


def gff_supremum_problem(a: float, eta: float) -> SupremumProblem:
    """Grid form of the field profile problem.

    The objective (1-s) - b^2/(1-s) falls in |b|, and at fixed s the
    constraint s - (y-b)^2/s >= a with y >= eta admits exactly the b with
    b >= eta - sqrt(s(s-a)), so the inner choice is
    b = max(eta - sqrt(s(s-a)), 0). One free variable s remains, feasible
    iff a <= s < 1; the grid never has to chase the thin (s, b) valley
    that opens up as a approaches 1.
    """

    def _b_inner(s):
        s = np.asarray(s, dtype=float)
        slack = np.sqrt(np.maximum(s * (s - a), 0.0))
        return np.maximum(eta - slack, 0.0)

    def objective(s):
        s = np.asarray(s, dtype=float)
        b = _b_inner(s)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (1.0 - s) - b * b / (1.0 - s)

    def feasible(s):
        s = np.asarray(s, dtype=float)
        return (s >= a) & (s < 1.0) & (s > 0.0)

    def expand(s):
        return (float(s), float(_b_inner(s)), eta)

    def residual(s):
        b = float(_b_inner(s))
        gap = float(s) - (eta - b) ** 2 / float(s) - a
        # Inequality constraint: only violations count as residual.
        return max(0.0, -gap)

    return SupremumProblem(
        bounds=((a, 1.0),),
        objective=objective,
        feasible=feasible,
        expand=expand,
        residual=residual,
    )


def grid_certify(problem: SupremumProblem, cfg: GridOracleConfig | None = None) -> VariationalSolution:
    """Certify a supremum by grid search with iterative window refinement.

    Each level lays a full grid over the current window, keeps the best
    feasible point (the previous incumbent always remains a candidate, so the
    certified value improves monotonically), then shrinks the window 10x
    around the incumbent, clipped to the padded original bounds. Raises
    InfeasibleProblemError if no grid point is ever feasible.
    """
    if cfg is None:
        cfg = GridOracleConfig()
    lo = np.array([b[0] - cfg.padding for b in problem.bounds], dtype=float)
    hi = np.array([b[1] + cfg.padding for b in problem.bounds], dtype=float)
    ndim = lo.size
    window_lo, window_hi = lo.copy(), hi.copy()
    best_point: np.ndarray | None = None
    best_value = -math.inf

    for _ in range(cfg.refinement_levels):
        axes = [
            np.linspace(window_lo[d], window_hi[d], cfg.resolution) for d in range(ndim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = [m.ravel() for m in mesh]
        if best_point is not None:
            coords = [
                np.concatenate([c, [best_point[d]]]) for d, c in enumerate(coords)
            ]
        mask = problem.feasible(*coords)
        if not mask.any():
            if best_point is None:
                # Shrinking an infeasible window never helps: report now.
                raise InfeasibleProblemError(
                    f"no feasible grid point in bounds {problem.bounds} "
                    f"at resolution {cfg.resolution}"
                )
        else:
            values = np.where(mask, problem.objective(*coords), -np.inf)
            k = int(np.argmax(values))
            if values[k] > best_value:
                best_value = float(values[k])
                best_point = np.array([c[k] for c in coords])
        span = (window_hi - window_lo) / 10.0
        center = best_point if best_point is not None else (window_lo + window_hi) / 2
        window_lo = np.maximum(center - span / 2.0, lo)
        window_hi = np.minimum(center + span / 2.0, hi)

    assert best_point is not None
    return VariationalSolution(
        value=best_value,
        maximizer=problem.expand(*best_point),
        constraint_residual=problem.residual(*best_point),
    )
