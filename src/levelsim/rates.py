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
closed-form maximizers. `certify_bbm` and `certify_gff` re-derive the suprema
without the closed forms: each eliminates every variable but the time split
s analytically and maximizes over s by a one-variable grid search with
window refinement, so the closed forms never certify themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "psi",
    "rate_i",
    "rate_j",
    "VariationalSolution",
    "solve_bbm_variational",
    "solve_gff_variational",
    "certify_bbm",
    "certify_gff",
]

# Rounding allowance on the lower edge of the admissible region of rate_i.
_BOUNDARY_SLACK = 1e-14

# Grid certification: passes over the window, points per pass, and the factor
# by which each pass shrinks the window around the incumbent.
_GRID_PASSES = 6
_GRID_POINTS = 48
_GRID_SHRINK = 10.0


def psi(x: float) -> float:
    """Large-deviation rate of P(max displacement >= xt) for x > sqrt(2).

    Defined for all x > 0; nonnegative iff x >= sqrt(2) (below the front the
    probability does not decay and the rate is reported as the negative growth
    exponent of the same formula).
    """
    if x <= 0:
        raise ValueError(f"speed x must be positive, got {x}")
    return 0.5 * x * x - 1.0


def _i_lower(a: float, x: float) -> float:
    """Check (a, x) against the admissible region of rate_i; return its lower a."""
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
    return lower


def _j_lower(eta: float, a: float) -> float:
    """Check (eta, a) against the admissible region of rate_j; return its lower a."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"level eta must lie in (0, 1), got {eta}")
    lower = 1.0 - eta * eta
    if a < lower or a >= 1.0:
        raise ValueError(
            f"growth exponent a={a} outside admissible [{lower}, 1) for eta={eta}"
        )
    return lower


def rate_i(a: float, x: float) -> float:
    """Decay rate of P(#particles above xt >= e^{at}).

    Admissible region: x > 0, (1 - x^2/2)^+ <= a < 1 (closed at the lower
    boundary, where the formula continuously extends; equals 0 there when
    x <= sqrt(2)).
    """
    _i_lower(a, x)
    return x * x / (2.0 * (1.0 - a)) - 1.0


def rate_j(a: float, eta: float) -> float:
    """Free-field analogue: decay rate (in log N) for level eta, growth a.

    Admissible: 0 < eta < 1, 1 - eta^2 <= a < 1, exactly the admissible
    region of rate_i at speed sqrt(2) eta; there rate_j(a, eta) equals
    2 * rate_i(a, sqrt(2) eta).
    """
    _j_lower(eta, a)
    return 2.0 * eta * eta / (1.0 - a) - 2.0


@dataclass(frozen=True)
class VariationalSolution:
    """Certified or closed-form solution of a constrained supremum.

    value is the supremum; maximizer holds the full coordinate tuple;
    constraint_residual is the absolute violation of the active constraint
    at the maximizer.
    """

    value: float
    maximizer: tuple[float, ...]
    constraint_residual: float


def solve_bbm_variational(a: float, x: float) -> VariationalSolution:
    """Closed-form maximizer of the branching path supremum.

    sup over 0 < s < 1, y <= x with (1-s) - (x-y)^2/(2(1-s)) = a of
    s - y^2/(2s), the path problem at horizon t = 1 (it scales linearly in
    t). Value equals -rate_i(a, x). Strict-interior maximizer required: the
    exact lower-boundary a is rejected here (s* degenerates to 0 for
    x <= sqrt(2) and to 1 above) even though rate_i accepts it.
    """
    lower = _i_lower(a, x)
    one_a = 1.0 - a
    denom = x * x - 2.0 * one_a * one_a
    numer = x * x - 2.0 * one_a
    if a <= lower or numer <= 0.0:
        raise ValueError(
            f"query (a={a}, x={x}) sits on the domain boundary; "
            "the maximizer degenerates (s* = 0 or 1)"
        )
    # denom > numer > 0 inside the admissible region since 1 - a < 1.
    s_star = one_a * numer / denom
    y_star = x * s_star / one_a
    value = s_star - y_star * y_star / (2.0 * s_star)
    residual = abs((1.0 - s_star) - (x - y_star) ** 2 / (2.0 * (1.0 - s_star)) - a)
    return VariationalSolution(value, (s_star, y_star), residual)


def solve_gff_variational(eta: float, a: float) -> VariationalSolution:
    """Closed-form maximizer of the field profile supremum.

    sup over 0 < s < 1, y >= eta, s - (y-b)^2/s >= a of (1-s) - b^2/(1-s).
    Value equals -(eta^2/(1-a) - 1) = -rate_j(a, eta)/2; the constraint is
    active at the maximizer. Strict-interior maximizer required: the exact
    lower-boundary a is rejected here (s* degenerates to 1) even though
    rate_j accepts it.
    """
    if a == _j_lower(eta, a):
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
    return VariationalSolution(value, (s_star, b_star, y_star), residual)


def _grid_max(
    objective: Callable[[np.ndarray], np.ndarray], lo: float, hi: float
) -> tuple[float, float]:
    """Maximize a vectorized objective over [lo, hi]; return (s, value).

    The objective is -inf where a point is infeasible. Each pass lays a grid
    over the window, keeps the best point (the previous incumbent remains a
    candidate, so the value improves monotonically), then shrinks the window
    around it, clipped to [lo, hi]. Raises ValueError when the first pass
    finds no feasible point: shrinking an infeasible window never helps.
    """
    window_lo, window_hi = lo, hi
    best_s: float | None = None
    best_value = -math.inf
    for _ in range(_GRID_PASSES):
        s = np.linspace(window_lo, window_hi, _GRID_POINTS)
        if best_s is not None:
            s = np.append(s, best_s)
        values = objective(s)
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_s, best_value = float(s[k]), float(values[k])
        elif best_s is None:
            raise ValueError(f"no feasible grid point in [{lo}, {hi}]")
        span = (window_hi - window_lo) / _GRID_SHRINK
        window_lo = max(best_s - span / 2.0, lo)
        window_hi = min(best_s + span / 2.0, hi)
    return best_s, best_value


def certify_bbm(a: float, x: float) -> VariationalSolution:
    """Grid certificate of the branching path supremum at t = 1.

    The equality constraint (1-s) - (x-y)^2/(2(1-s)) = a pins y given s:
    y = x - sqrt(2(1-s)(1-s-a)) (the root with y <= x). One free variable s
    remains, feasible iff 0 < s <= 1 - a; the window stops at 1 - a so the
    grid resolves thin windows when a is close to 1.
    """
    _i_lower(a, x)

    def path_end(s):
        one_s = 1.0 - s
        return x - np.sqrt(np.maximum(2.0 * one_s * (one_s - a), 0.0))

    def objective(s):
        y = path_end(s)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where((s > 0.0) & (1.0 - s >= a), s - y * y / (2.0 * s), -np.inf)

    s, value = _grid_max(objective, 0.0, 1.0 - a)
    y = float(path_end(s))
    residual = abs((1.0 - s) - (x - y) ** 2 / (2.0 * (1.0 - s)) - a)
    return VariationalSolution(value, (s, y), residual)


def certify_gff(eta: float, a: float) -> VariationalSolution:
    """Grid certificate of the field profile supremum.

    The objective (1-s) - b^2/(1-s) falls in |b|, and at fixed s the
    constraint s - (y-b)^2/s >= a with y >= eta admits exactly the b with
    b >= eta - sqrt(s(s-a)), so the inner choice is
    b = max(eta - sqrt(s(s-a)), 0). One free variable s remains, feasible
    iff a <= s < 1; the grid never has to chase the thin (s, b) valley
    that opens up as a approaches 1.
    """
    _j_lower(eta, a)

    def inner_b(s):
        return np.maximum(eta - np.sqrt(np.maximum(s * (s - a), 0.0)), 0.0)

    def objective(s):
        b = inner_b(s)
        with np.errstate(divide="ignore", invalid="ignore"):
            value = (1.0 - s) - b * b / (1.0 - s)
        return np.where((s >= a) & (s < 1.0) & (s > 0.0), value, -np.inf)

    s, value = _grid_max(objective, a, 1.0)
    b = float(inner_b(s))
    # Inequality constraint: only violations count as residual.
    residual = max(0.0, -(s - (eta - b) ** 2 / s - a))
    return VariationalSolution(value, (s, b, eta), residual)
