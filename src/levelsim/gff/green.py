"""Killed-walk Green's function and discrete Dirichlet solves.

The zero-boundary field on the N x N grid has covariance G(x, y) = expected
visits to y of a simple random walk from x killed on the boundary frame,
i.e. G = (I - P)^{-1} = 4 (4I - A)^{-1} on the (N-2)^2 interior. Three
independent routes are exposed, and tests play them against each other:

- sparse LU (SuperLU) solves give columns and entries of G, the oracle that
  shares nothing with the samplers; this is SuperLU's only job;
- the product-sine spectral form gives the diagonal of G, and solves
  4I - A on any r x c box interior in the box's own sine basis, where its
  eigenvalues are 4 - 2cos(pi j/(r+1)) - 2cos(pi k/(c+1)): Dirichlet
  extensions (dirichlet_extend) and harmonic-measure rows (decompose.py),
  with no factorization at any box size;
- the banded Cholesky factor of 4I - A (LAPACK dpbtrf) gives rows of
  chol(G), the dense sampler's route.

The spectral basis, the sine matrix (cached once per side) and the mode
gaps, lives here and is shared with the field sampler.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from decimal import Decimal

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dtbtrs

from .. import tolerances as tol
from .grid import Box

__all__ = [
    "interior_laplacian",
    "GreenOperator",
    "dirichlet_extend",
]

_lock = threading.Lock()
# keyed by n: the SuperLU factors of the n x n interior's 4I - A
_lu_cache: dict[int, spla.SuperLU] = {}
# keyed by N: the banded upper Cholesky factor of the interior 4I - A
_band_cache: dict[int, np.ndarray] = {}
# keyed by (N, dtype): the float32 copy serves the sampler's threshold route
_sine_cache: dict[tuple[int, np.dtype], np.ndarray] = {}
# keyed by (rows, cols): inverse eigenvalues of 4I - A on a box interior
_inverse_eigen_cache: dict[tuple[int, int], np.ndarray] = {}


def _gib(nbytes: int) -> str:
    """nbytes in GiB to three figures, by Decimal past the float range."""
    return f"{nbytes / 2**30 if nbytes < 2**1000 else Decimal(nbytes >> 30):.3g}"


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
    Computed and cached in float64; another dtype casts the cached matrix."""
    key = (grid_n, np.dtype(dtype))
    with _lock:
        sine = _sine_cache.get(key)
        if sine is None:
            exact = _sine_cache.get((grid_n, np.dtype(np.float64)))
            if exact is None:
                n = grid_n - 2
                k = np.arange(1, n + 1)
                exact = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
                _sine_cache[grid_n, np.dtype(np.float64)] = exact
            sine = _sine_cache[key] = exact.astype(dtype, copy=False)
    return sine


def _mode_gaps(grid_n: int) -> np.ndarray:
    """Spectral gaps 1 - lam_{jk} of the interior walk on the mode grid,
    lam_{jk} = (cos(pi j/(N-1)) + cos(pi k/(N-1)))/2 for j, k = 1..N-2.
    Not cached: the sampler caches its own scale (1 - lam)^{-1/2}."""
    n = grid_n - 2
    theta = np.pi * np.arange(1, n + 1) / (n + 1)
    return 1.0 - 0.5 * (np.cos(theta)[:, None] + np.cos(theta)[None, :])


def _lu(n: int) -> spla.SuperLU:
    with _lock:
        lu = _lu_cache.get(n)
        if lu is None:
            lu = _lu_cache[n] = spla.splu(interior_laplacian(n, n))
    return lu


def _inverse_eigenvalues(rows: int, cols: int) -> np.ndarray:
    """1 / (4 - 2cos(pi j/(rows+1)) - 2cos(pi k/(cols+1))), j = 1..rows,
    k = 1..cols: the inverse eigenvalues of 4I - A on a rows x cols box
    interior, on the mode grid of its product-sine basis. Read-only."""
    key = (rows, cols)
    with _lock:
        inverse = _inverse_eigen_cache.get(key)
        if inverse is None:
            tr = 2.0 * np.cos(np.pi * np.arange(1, rows + 1) / (rows + 1))
            tc = 2.0 * np.cos(np.pi * np.arange(1, cols + 1) / (cols + 1))
            inverse = 1.0 / (4.0 - tr[:, None] - tc[None, :])
            inverse.setflags(write=False)
            _inverse_eigen_cache[key] = inverse
    return inverse


def _box_solve(rhs: np.ndarray) -> np.ndarray:
    """x with (4I - A) x = rhs on the rows x cols box interior rhs covers,
    in the box's sine basis: x = S_r ((S_r rhs S_c) / lambda) S_c."""
    rows, cols = rhs.shape
    left, right = _sine_matrix(rows + 2), _sine_matrix(cols + 2)
    return left @ ((left @ rhs @ right) * _inverse_eigenvalues(rows, cols)) @ right


def _box_frame_solve(rows: int, cols: int, site: tuple[int, int]) -> np.ndarray:
    """g = (4I - A)^{-1} e_site on a rows x cols box interior, on the
    interior's outermost rows and columns only (zero inside them); site is
    interior-local. g's sine coefficients are S_r[site row] S_c[site col]
    / lambda, so each outer line costs one vector-matrix product with them
    and one with a sine matrix: O(rows cols + rows^2 + cols^2)."""
    left, right = _sine_matrix(rows + 2), _sine_matrix(cols + 2)
    coef = _inverse_eigenvalues(rows, cols) * np.outer(left[site[0]], right[site[1]])
    ends_r, ends_c = [0, rows - 1], [0, cols - 1]
    g = np.zeros((rows, cols))
    g[ends_r] = left[ends_r] @ coef @ right
    g[:, ends_c] = left @ (coef @ right[:, ends_c])
    return g


def _band_factor(grid_n: int) -> np.ndarray:
    """U with U'U = 4I - A on the interior, in LAPACK's upper band storage
    (row n - d holds the d-th superdiagonal): a row site couples to the next
    site of its row (distance 1, none across a row end) and to the site
    below (distance n), so the bandwidth is n = N - 2."""
    with _lock:
        u = _band_cache.get(grid_n)
        if u is None:
            n = grid_n - 2
            ab = np.zeros((n + 1, n * n))
            ab[0, n:] = -1.0
            ab[n - 1, 1:] = -1.0
            ab[n - 1, ::n] = 0.0
            ab[n] = 4.0
            u, _ = dpbtrf(ab)
            _band_cache[grid_n] = u
    return u


class GreenOperator:
    """Green's function access for one grid size.

    Entries and columns come from sparse LU solves of (4I - A) g = 4 e_y,
    any number of columns in one solve; the diagonal, whole or at one site,
    has a closed spectral form through the orthogonal sine basis, and rows
    of its Cholesky factor come from the banded factor of 4I - A, each kept
    as an independent route.
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

    def columns(self, sites: Sequence[tuple[int, int]]) -> np.ndarray:
        """G(., y) for each site y as a (k, N, N) array, from one
        multi-right-hand-side SuperLU solve; zero for boundary sites."""
        out = np.zeros((len(sites), self.grid_n, self.grid_n))
        inner = [i for i, site in enumerate(sites) if not self.is_boundary(site)]
        if inner:
            n = self.n
            rows, cols = np.array([sites[i] for i in inner]).T
            # one right-hand side per column of a Fortran-ordered array
            rhs = np.zeros((len(inner), n * n))
            rhs[np.arange(len(inner)), (rows - 1) * n + (cols - 1)] = 4.0
            out[inner, 1:-1, 1:-1] = _lu(n).solve(rhs.T).T.reshape(-1, n, n)
        return out

    def column(self, site: tuple[int, int]) -> np.ndarray:
        """G(., site) as a full (N, N) array; identically zero for boundary sites."""
        return self.columns([site])[0]

    def entry(self, x: tuple[int, int], y: tuple[int, int]) -> float:
        """G(x, y); zero whenever either site is on the boundary."""
        if self.is_boundary(x) or self.is_boundary(y):
            return 0.0
        return float(self.column(y)[x])

    def variance(self, site: tuple[int, int]) -> float:
        return self.entry(site, site)

    def _refuse_above_budget(self, nbytes: int, what: str, stage: str) -> None:
        if nbytes > tol.FIELD_BYTES_MAX:
            raise tol.WorkRefusedError(
                f"{what} at N={self.grid_n} needs about {_gib(nbytes)} GiB, above "
                f"the {tol.FIELD_BYTES_MAX / 2**30:g} GiB field budget; use a smaller grid",
                stage, "bytes", nbytes, tol.FIELD_BYTES_MAX,
            )

    def diagonal(self) -> np.ndarray:
        """All G(x, x) as a full (N, N) array, via the spectral closed form.

        With S the orthogonal sine basis and walk eigenvalues
        lam_{jk} = (cos(pi j/(N-1)) + cos(pi k/(N-1)))/2,
        G(x, x) = sum_{jk} (S_{xj} S_{xk})^2 / (1 - lam_{jk}) which evaluates
        as T sigma T' with T = S*S elementwise. Refused with
        WorkRefusedError before allocation above the field budget.
        """
        # the cached sine matrix, T, the inverse gaps, T sigma and the output
        nbytes = 5 * 8 * self.n * self.n
        self._refuse_above_budget(nbytes, "the Green diagonal", "gff.GreenOperator.diagonal")
        sine = _sine_matrix(self.grid_n)
        t = sine * sine
        out = np.zeros((self.grid_n, self.grid_n))
        out[1:-1, 1:-1] = t @ (1.0 / _mode_gaps(self.grid_n)) @ t.T
        return out

    def diagonal_at(self, site: tuple[int, int]) -> float:
        """G(site, site) by diagonal()'s spectral form at one site, a single
        O(n^2) sum: with interior row r and column c, S[r]^2 sigma S[c]^2.
        Zero on the boundary; refused like diagonal() above the budget."""
        if self.is_boundary(site):
            return 0.0
        # the cached sine matrix and the inverse gaps
        nbytes = 2 * 8 * self.n * self.n
        self._refuse_above_budget(
            nbytes, "a Green diagonal entry", "gff.GreenOperator.diagonal_at"
        )
        sine = _sine_matrix(self.grid_n)
        row, col = sine[site[0] - 1], sine[site[1] - 1]
        return float((row * row) @ (1.0 / _mode_gaps(self.grid_n)) @ (col * col))

    def cholesky_rows(self, sites: Sequence[tuple[int, int]]) -> np.ndarray:
        """Rows of the lower Cholesky factor L of the interior G for the given
        interior (row, col) sites, as a (k, (N-2)^2) array; L L' = G.

        4I - A = U'U is unchanged by the site reversal J, so
        L = 2 J U^{-1} J exactly (Rue, JRSS B 63, 2001): row s of L is row
        m-1-s of 2 U^{-1}, reversed, one banded triangular solve
        U' x = e_{m-1-s} per site: O(n^4) for the factor, O(n^3) a row.
        """
        sites = np.asarray(sites, dtype=np.intp).reshape(-1, 2)
        if any(self.is_boundary((int(r), int(c))) for r, c in sites):
            raise ValueError("Cholesky rows exist only at interior sites")
        n = self.n
        m = n * n
        flat = (sites[:, 0] - 1) * n + (sites[:, 1] - 1)
        unit = np.zeros((m, len(flat)))
        unit[m - 1 - flat, np.arange(len(flat))] = 1.0
        x, _ = dtbtrs(_band_factor(self.grid_n), unit, uplo="U", trans="T")
        return 2.0 * x[::-1].T


def dirichlet_extend(field: np.ndarray, box: Box) -> np.ndarray:
    """Harmonic extension inside box of the field's values on the box frame.

    Returns an (height, width) array equal to the field on the frame and
    discrete-harmonic (exact mean-value property, up to the roundoff of the
    box's sine-basis solve) at interior sites. Boxes of side <= 2 are all
    frame.
    """
    sub = field[box.slices()]
    if box.height <= 2 or box.width <= 2:
        return sub.copy()
    rhs = np.zeros((box.height - 2, box.width - 2))
    rhs[0, :] += sub[0, 1:-1]
    rhs[-1, :] += sub[-1, 1:-1]
    rhs[:, 0] += sub[1:-1, 0]
    rhs[:, -1] += sub[1:-1, -1]
    out = sub.copy()
    out[1:-1, 1:-1] = _box_solve(rhs)
    return out
