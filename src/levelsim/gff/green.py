"""Killed-walk Green's function and discrete Dirichlet solves.

The zero-boundary field on the N x N grid has covariance G(x, y) = expected
visits to y of a simple random walk from x killed on the boundary frame,
i.e. G = (I - P)^{-1} = 4 (4I - A)^{-1} on the (N-2)^2 interior. Two
independent routes are exposed: sparse LU solves (columns of G, Dirichlet
extensions) and the product-sine spectral form (full diagonal); tests play
them against each other. The spectral basis, the sine matrix (cached once
per N) and the mode gaps, lives here and is shared with the field sampler.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .. import tolerances as tol
from .grid import Box

__all__ = [
    "FieldTooLargeError",
    "interior_laplacian",
    "GreenOperator",
    "dirichlet_extend",
]

_lock = threading.Lock()
_lu_cache: dict[tuple[int, int], spla.SuperLU] = {}
# keyed by (N, dtype): the float32 copy serves the sampler's threshold route
_sine_cache: dict[tuple[int, np.dtype], np.ndarray] = {}


class FieldTooLargeError(RuntimeError):
    """Raised before allocation when the working set of a field request, or
    of the Green diagonal, exceeds tolerances.FIELD_BYTES_MAX."""


def interior_laplacian(n_rows: int, n_cols: int) -> sp.csc_matrix:
    """Five-point Laplacian (diagonal 4) on an n_rows x n_cols interior block."""
    tr = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n_rows, n_rows))
    tc = sp.diags([-1.0, -1.0], [-1, 1], shape=(n_cols, n_cols))
    mat = sp.kron(tr, sp.identity(n_cols)) + sp.kron(sp.identity(n_rows), tc)
    # kron of the row tridiagonal already carries the diagonal 4; the column
    # part contributes the remaining two neighbor couplings.
    return mat.tocsc()


def _sine_matrix(grid_n: int, dtype=np.float64) -> np.ndarray:
    """Orthonormal DST-I matrix sqrt(2/(n+1)) sin(pi j k/(n+1)), j, k = 1..n,
    n = N - 2: the product-sine eigenbasis of the interior walk (symmetric).
    Computed in float64 and cast once to dtype."""
    key = (grid_n, np.dtype(dtype))
    with _lock:
        sine = _sine_cache.get(key)
        if sine is None:
            n = grid_n - 2
            k = np.arange(1, n + 1)
            sine = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
            sine = sine.astype(dtype, copy=False)
            _sine_cache[key] = sine
    return sine


def _mode_gaps(grid_n: int) -> np.ndarray:
    """Spectral gaps 1 - lam_{jk} of the interior walk on the mode grid,
    lam_{jk} = (cos(pi j/(N-1)) + cos(pi k/(N-1)))/2 for j, k = 1..N-2.
    Not cached: the sampler caches its own scale (1 - lam)^{-1/2}."""
    n = grid_n - 2
    theta = np.pi * np.arange(1, n + 1) / (n + 1)
    return 1.0 - 0.5 * (np.cos(theta)[:, None] + np.cos(theta)[None, :])


def _lu(n_rows: int, n_cols: int) -> spla.SuperLU:
    key = (n_rows, n_cols)
    with _lock:
        lu = _lu_cache.get(key)
        if lu is None:
            lu = spla.splu(interior_laplacian(n_rows, n_cols))
            _lu_cache[key] = lu
    return lu


class GreenOperator:
    """Green's function access for one grid size.

    Entries and columns come from sparse LU solves of (4I - A) g = 4 e_y;
    the diagonal additionally has a closed spectral form through the
    orthogonal sine basis, kept as an independent route.
    """

    def __init__(self, grid_n: int):
        if grid_n < 3:
            raise ValueError(f"grid must have an interior, got N={grid_n}")
        self.grid_n = grid_n
        self.n = grid_n - 2

    def is_boundary(self, site: tuple[int, int]) -> bool:
        r, c = site
        if not (0 <= r < self.grid_n and 0 <= c < self.grid_n):
            raise ValueError(f"site {site} outside the {self.grid_n} grid")
        return r in (0, self.grid_n - 1) or c in (0, self.grid_n - 1)

    def column(self, site: tuple[int, int]) -> np.ndarray:
        """G(., site) as a full (N, N) array; identically zero for boundary sites."""
        out = np.zeros((self.grid_n, self.grid_n))
        if self.is_boundary(site):
            return out
        n = self.n
        rhs = np.zeros(n * n)
        rhs[(site[0] - 1) * n + (site[1] - 1)] = 4.0
        g = _lu(n, n).solve(rhs)
        out[1:-1, 1:-1] = g.reshape(n, n)
        return out

    def entry(self, x: tuple[int, int], y: tuple[int, int]) -> float:
        """G(x, y); zero whenever either site is on the boundary."""
        if self.is_boundary(x) or self.is_boundary(y):
            return 0.0
        return float(self.column(y)[x])

    def variance(self, site: tuple[int, int]) -> float:
        return self.entry(site, site)

    def diagonal(self) -> np.ndarray:
        """All G(x, x) as a full (N, N) array, via the spectral closed form.

        With S the orthogonal sine basis and walk eigenvalues
        lam_{jk} = (cos(pi j/(N-1)) + cos(pi k/(N-1)))/2,
        G(x, x) = sum_{jk} (S_{xj} S_{xk})^2 / (1 - lam_{jk}) which evaluates
        as T sigma T' with T = S*S elementwise. Refused with
        FieldTooLargeError before allocation above the field budget.
        """
        # the cached sine matrix, T, the inverse gaps, T sigma and the output
        nbytes = 5 * 8 * self.n * self.n
        if nbytes > tol.FIELD_BYTES_MAX:
            raise FieldTooLargeError(
                f"the Green diagonal at N={self.grid_n} needs about "
                f"{nbytes / 2**30:.3g} GiB, above the "
                f"{tol.FIELD_BYTES_MAX / 2**30:g} GiB field budget; use a smaller grid"
            )
        sine = _sine_matrix(self.grid_n)
        t = sine * sine
        out = np.zeros((self.grid_n, self.grid_n))
        out[1:-1, 1:-1] = t @ (1.0 / _mode_gaps(self.grid_n)) @ t.T
        return out

    def dense_matrix(self) -> np.ndarray:
        """Full interior Green matrix, small grids only (validation backend)."""
        if self.grid_n > tol.DENSE_GREEN_N_MAX:
            raise ValueError(
                f"dense Green matrix limited to N <= {tol.DENSE_GREEN_N_MAX}, "
                f"got {self.grid_n}"
            )
        n = self.n
        lu = _lu(n, n)
        rhs = 4.0 * np.eye(n * n)
        return lu.solve(rhs)


def dirichlet_extend(field: np.ndarray, box: Box) -> np.ndarray:
    """Harmonic extension inside box of the field's values on the box frame.

    Returns an (height, width) array equal to the field on the frame and
    discrete-harmonic (exact mean-value property, up to LU roundoff) at
    interior sites. Boxes of side <= 2 are all frame.
    """
    sub = field[box.slices()]
    if box.height <= 2 or box.width <= 2:
        return sub.copy()
    nr, nc = box.height - 2, box.width - 2
    rhs = np.zeros((nr, nc))
    rhs[0, :] += sub[0, 1:-1]
    rhs[-1, :] += sub[-1, 1:-1]
    rhs[:, 0] += sub[1:-1, 0]
    rhs[:, -1] += sub[1:-1, -1]
    interior = _lu(nr, nc).solve(rhs.ravel()).reshape(nr, nc)
    out = sub.copy()
    out[1:-1, 1:-1] = interior
    return out
