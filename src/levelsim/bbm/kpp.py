"""Exact finite-horizon laws of the branching diffusion via the Fisher-KPP
equation.

For binary branching at rate 1 with standard Brownian displacements, let
N_t(y) be the number of particles at or above y at time t. For s in [0, 1]
and a = 1 - s, McKean (1975) shows that

    w(t, y) = 1 - E[s^{N_t(y)}]  solves  w_t = w_yy / 2 + w - w^2,
    w(0, y) = a * 1{y <= 0}.

With a = 1 this is w = P(max_t >= y), the law of the maximum. As a -> 0,
w / a tends to the first moment E N_t(y). A batch of amplitudes gives the
mean log-count through Frullani's integral log n = int_0^inf (e^-u - e^-nu)
du / u, which for N >= 0 reads

    E[log N; N > 0] = int_0^inf (w_{1-e^-u} - (1 - e^-u) w_1)(t, y) du / u.

The solver is Strang splitting: the exact logistic flow for half a step on
each side of a Crank-Nicolson heat step. The first two heat steps are each
taken as two implicit-Euler half steps (Rannacher's start), which damps the
grid-scale oscillation Crank-Nicolson would otherwise carry away from the
jump in the initial data. One symmetric tridiagonal factorization per step size serves
every amplitude of the batch.

The y grid is finite, with a reflecting wall on the left and an absorbing
wall on the right. A wall misplaces only particles whose path travels
past it, and both walls sit `margin = sqrt(t log(1/truncation) / 2)` beyond
every query point and the origin. By the Brownian-bridge crossing bound
exp(-2 d d' / t) <= exp(-2 margin^2 / t), at most a `truncation` share of the
counted particles is misplaced. The same share bounds each cut-off tail of
the Frullani quadrature.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .estimators import expected_count_oracle

__all__ = ["solve_kpp", "max_tail_probability", "log_count_rate"]


def _logistic(w: np.ndarray, tau: float) -> None:
    """Exact flow of w' = w - w^2 over time tau, in place."""
    den = 1.0 - w
    den *= math.exp(-tau)
    den += w
    w /= den


def solve_kpp(
    amplitudes: Sequence[float],
    points: Sequence[tuple[float, float]],
    dy: float,
    dt: float,
    truncation: float,
) -> np.ndarray:
    """w_a(t, y) for every query point (rows) and amplitude a (columns).

    Each point is a (t, y) pair with t > 0; values between grid nodes are
    interpolated linearly in log w. Time steps are at most dt, shortened so
    that every query time is hit exactly.
    """
    amps = np.asarray(amplitudes, dtype=float)
    if amps.ndim != 1 or amps.size == 0 or not np.all((amps > 0) & (amps <= 1)):
        raise ValueError("amplitudes must be a non-empty 1-d sequence in (0, 1]")
    pts = [(float(t), float(y)) for t, y in points]
    if not pts:
        raise ValueError("need at least one (t, y) query point")
    if not min(t for t, _ in pts) > 0:
        raise ValueError("query times must be positive")
    if not (dy > 0 and dt > 0):
        raise ValueError(f"grid steps must be positive, got dy={dy}, dt={dt}")
    if not 0 < truncation < 1:
        raise ValueError(f"truncation must lie in (0, 1), got {truncation}")

    times = sorted({t for t, _ in pts})
    ys = [y for _, y in pts]
    margin = math.sqrt(times[-1] * math.log(1.0 / truncation) / 2.0)
    j_lo = math.ceil((margin - min(0.0, *ys)) / dy)
    # the interpolation reads the node above the highest query point, which
    # a margin below dy (a tiny t) would otherwise leave off the grid
    top = max(0.0, *ys)
    j_hi = max(math.ceil((top + margin) / dy), math.floor(top / dy) + 2)
    grid = np.arange(-j_lo, j_hi) * dy
    n = grid.size

    # columns are contiguous, as the LAPACK solve expects
    w = np.zeros((n, amps.size), order="F")
    w[:j_lo] = amps
    w[j_lo] = 0.5 * amps  # the jump's midpoint value at y = 0

    def factor(h: float):
        # I - (h/2) L for L = (1/2) d^2/dy^2, reflecting at node 0 (row 0
        # halved to make the matrix symmetric), absorbing past node n-1
        r = h / (4.0 * dy * dy)
        diag = np.full(n, 1.0 + 2.0 * r)
        diag[0] = 0.5 + r
        d, e, info = dpttrf(diag, np.full(n - 1, -r))
        if info != 0:
            raise np.linalg.LinAlgError(f"tridiagonal factorization failed ({info})")
        return r, d, e

    def heat(w: np.ndarray, r: float, d, e, implicit: bool) -> np.ndarray:
        if implicit:  # two implicit-Euler half steps with the same matrix
            for _ in range(2):
                w[0] *= 0.5
                w, _ = dpttrs(d, e, w, overwrite_b=1)
            return w
        rhs = np.empty_like(w)
        rhs[1:-1] = w[:-2] + w[2:]
        rhs[1:-1] *= r
        rhs[1:-1] += (1.0 - 2.0 * r) * w[1:-1]
        rhs[0] = (0.5 - r) * w[0] + r * w[1]
        rhs[-1] = (1.0 - 2.0 * r) * w[-1] + r * w[-2]
        w, _ = dpttrs(d, e, rhs, overwrite_b=1)
        return w

    out = np.empty((len(pts), amps.size))
    t_now = 0.0
    steps_taken = 0
    for t_next in times:
        steps = max(1, math.ceil((t_next - t_now) / dt - 1e-9))
        h = (t_next - t_now) / steps
        r, d, e = factor(h)
        # consecutive logistic half steps merge into one full step
        _logistic(w, 0.5 * h)
        for k in range(steps):
            if k:
                _logistic(w, h)
            w = heat(w, r, d, e, implicit=steps_taken < 2)
            steps_taken += 1
        _logistic(w, 0.5 * h)
        t_now = t_next
        for i, (t, y) in enumerate(pts):
            if t == t_now:
                out[i] = _read(w, (y - grid[0]) / dy)
    return out


def _read(w: np.ndarray, index: float) -> np.ndarray:
    """Row of w at a fractional node index, linear in log w between nodes."""
    lo = int(math.floor(index + 1e-9))
    frac = index - lo
    if frac < 1e-9:
        row = w[lo]
    else:
        row = np.exp((1.0 - frac) * np.log(w[lo]) + frac * np.log(w[lo + 1]))
    if not np.all(row > 0):
        raise FloatingPointError("non-positive KPP solution at a query point; refine the grid")
    return row


def max_tail_probability(
    ts: Sequence[float], x: float, dy: float, dt: float, truncation: float
) -> np.ndarray:
    """P(max_t >= x t) at each t, from one solve with amplitude 1."""
    return solve_kpp([1.0], [(t, x * t) for t in ts], dy, dt, truncation)[:, 0]


def log_count_rate(
    t: float, x: float, dy: float, dt: float, truncation: float
) -> float:
    """E[log N_t(xt) | N_t(xt) > 0] / t, the mean the level-exponent
    estimator measures, by Frullani's integral over one batched solve.

    The integrand f(u) = E[e^-u - e^-uN; N > 0] lies between 0, u E N and
    e^-u, so cutting the integral at u_lo = truncation / E N and at
    u_hi = log(1/truncation) drops at most `truncation` at each end. In
    v = log u the integrand is analytic in the strip |Im v| < pi/2, so the
    trapezoid rule with step pi^2 / log(1/truncation) errs by about
    `truncation` as well.
    """
    if not truncation < math.exp(-1.0):
        raise ValueError(f"truncation must lie below 1/e, got {truncation}")
    level = math.log(1.0 / truncation)
    step = math.pi**2 / level
    v_lo = math.log(truncation / expected_count_oracle(t, x))
    nodes = np.arange(v_lo, math.log(level) + step, step)
    a = -np.expm1(-np.exp(nodes))
    w = solve_kpp(np.concatenate(([1.0], a)), [(t, x * t)], dy, dt, truncation)[0]
    mean_log = step * float(np.sum(w[1:] - a * w[0]))
    return mean_log / (float(w[0]) * t)
