"""Zero-boundary Gaussian field samplers.

The spectral backend scales white noise by (1 - lam_{jk})^{-1/2} in the
product-sine eigenbasis of the interior walk kernel and applies an orthonormal
DST-I in both axes; cost is one FFT-sized transform per field at any N. The
dense backend draws through a Cholesky factor of the explicitly assembled
Green matrix and exists to validate the spectral route on small grids.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.fft
from numpy.random import Generator

from .green import GreenOperator

__all__ = ["spectral_scale", "sample_fields"]

_lock = threading.Lock()
_scale_cache: dict[int, np.ndarray] = {}
_chol_cache: dict[int, np.ndarray] = {}


def spectral_scale(grid_n: int) -> np.ndarray:
    """Standard deviations (1 - lam_{jk})^{-1/2} on the interior mode grid,
    lam_{jk} = (cos(pi j/(N-1)) + cos(pi k/(N-1)))/2 for j, k = 1..N-2."""
    with _lock:
        scale = _scale_cache.get(grid_n)
        if scale is None:
            n = grid_n - 2
            theta = np.pi * np.arange(1, n + 1) / (n + 1)
            lam = 0.5 * (np.cos(theta)[:, None] + np.cos(theta)[None, :])
            scale = 1.0 / np.sqrt(1.0 - lam)
            _scale_cache[grid_n] = scale
    return scale


def _cholesky(grid_n: int) -> np.ndarray:
    with _lock:
        chol = _chol_cache.get(grid_n)
    if chol is None:
        g = GreenOperator(grid_n).dense_matrix()
        chol = np.linalg.cholesky(g)
        with _lock:
            _chol_cache[grid_n] = chol
    return chol


def sample_fields(
    grid_n: int, count: int, rng: Generator, backend: str = "spectral"
) -> np.ndarray:
    """Draw `count` independent fields as a (count, N, N) array, zero frame."""
    if grid_n < 3:
        raise ValueError(f"grid must have an interior, got N={grid_n}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    n = grid_n - 2
    out = np.zeros((count, grid_n, grid_n))
    if backend == "spectral":
        noise = rng.standard_normal((count, n, n))
        noise *= spectral_scale(grid_n)
        out[:, 1:-1, 1:-1] = scipy.fft.dstn(noise, type=1, norm="ortho", axes=(1, 2))
    elif backend == "dense":
        chol = _cholesky(grid_n)
        noise = rng.standard_normal((count, n * n))
        out[:, 1:-1, 1:-1] = (noise @ chol.T).reshape(count, n, n)
    else:
        raise ValueError(f"unknown backend {backend!r}; use 'spectral' or 'dense'")
    return out
