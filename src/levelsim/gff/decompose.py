"""Harmonic splitting of a field over nested boxes.

Over a box D the field splits as field = harmonic + residual, where harmonic
extends the frame values of D (green.dirichlet_extend) and the residual is a
zero-boundary field on D independent of everything outside. harmonic_at reads
the harmonic part at one site as a weighted sum of frame values, the row that
harmonic_measure returns. Read at a child box's center it gives the coarse
value of the field at that scale; differences of coarse values across one
nesting step, both read at the child's center, are the increments whose
variances grow linearly in the scale gap."""

from __future__ import annotations

import numpy as np

from .green import _lock, _lu
# kept for perfbench/spans.py, whose SITES rebind dirichlet_extend here
from .green import dirichlet_extend  # noqa: F401
from .grid import Box

__all__ = ["harmonic_measure", "harmonic_at"]

# harmonic-measure rows in box-local coordinates, keyed by (height, width,
# local site); translation invariance makes one row serve every such box
_row_cache: dict[tuple[int, int, int, int], tuple[np.ndarray, ...]] = {}


def _require_site(box: Box, site: tuple[int, int]) -> tuple[int, int]:
    r, c = site
    if not (box.row0 <= r < box.row_end and box.col0 <= c < box.col_end):
        raise ValueError(f"site {site} is outside {box}")
    return r - box.row0, c - box.col0


def harmonic_measure(
    box: Box, site: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row of the harmonic measure of box seen from site.

    The harmonic extension over box at site is sum(weights * field[rows, cols]).
    rows, cols list every frame site in row-major order; corners get weight 0.
    Frame sites and boxes of side <= 2 give the delta row (site, 1.0).
    """
    lr, lc = _require_site(box, site)
    height, width = box.height, box.width
    if height <= 2 or width <= 2 or lr in (0, height - 1) or lc in (0, width - 1):
        return np.array([site[0]]), np.array([site[1]]), np.ones(1)
    key = (height, width, lr, lc)
    with _lock:
        row = _row_cache.get(key)
    if row is None:
        row = _solve_row(height, width, lr, lc)
        with _lock:
            row = _row_cache.setdefault(key, row)
    rows, cols, weights = row
    return rows + box.row0, cols + box.col0, weights


def _solve_row(height: int, width: int, lr: int, lc: int) -> tuple[np.ndarray, ...]:
    # The interior value at site is e_site' L^-1 b, where b adds each non-corner
    # frame value to its inward neighbour; so one transposed solve g = L^-T e_site
    # weights frame site w by g at the inward neighbour of w.
    nr, nc = height - 2, width - 2
    e = np.zeros(nr * nc)
    e[(lr - 1) * nc + (lc - 1)] = 1.0
    g = _lu(nr, nc).solve(e, trans="T").reshape(nr, nc)
    r = np.arange(height)[:, None]
    c = np.arange(width)[None, :]
    edge_r = (r == 0) | (r == height - 1)
    edge_c = (c == 0) | (c == width - 1)
    rows, cols = np.nonzero(edge_r | edge_c)
    weights = g[np.clip(rows, 1, nr) - 1, np.clip(cols, 1, nc) - 1]
    weights[(edge_r & edge_c)[rows, cols]] = 0.0
    weights.setflags(write=False)  # callers share the cached row
    return rows, cols, weights


def harmonic_at(fields: np.ndarray, box: Box, site: tuple[int, int]) -> np.ndarray:
    """Harmonic extension over box evaluated at one site, batched.

    fields is (k, N, N) or (N, N); returns (k,) or a scalar to match. Frame
    sites and boxes of side <= 2 reduce to the raw field values.
    """
    fields = np.asarray(fields, dtype=float)
    rows, cols, weights = harmonic_measure(box, site)
    vals = fields[..., rows, cols] @ weights
    return float(vals) if fields.ndim == 2 else vals
