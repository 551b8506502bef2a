"""Zero-boundary Gaussian field samplers.

The spectral route, sample_fields, scales white noise by (1 - lam_{jk})^{-1/2}
in the product-sine eigenbasis of the interior walk kernel and applies an
orthonormal DST-I in both axes. Up to N = SINE_MATRIX_MAX_N the transform is
the matrix product S @ x @ S with the n x n orthonormal DST-I matrix S
(n = N - 2, S symmetric; green.py caches it and owns the mode gaps): two BLAS
products per field, whose cost does not depend on how N - 1 factors, where
FFT-based DST-I is slowest at prime N - 1 (N = 128).
Above the cut the O(n^3) product loses to scipy.fft.dstn, which takes over;
the route depends on N alone. The dense route, sample_sites, validates it:
white noise times rows of chol(G), each one banded solve against the banded
Cholesky factor of 4I - A (green.py), with no Green matrix assembled.

Code that only asks whether a site is at or above a threshold takes
sample_interiors_float32: the daviaud level counts and the coarse-tail probe
at zeta = 0, which reads the field maximum. It draws its own float32 normals
by the Box-Muller transform on the same counter-keyed Philox streams
(_standard_normal_float32: 32-bit words for the radii, float32 uniforms for
the angles), so its fields are other draws of the law sample_fields draws
from. It scales them by a float32 copy of spectral_scale and transforms them
in float32, with a float32 copy of the sine matrix (or dstn above the cut).
Its float64 twin is the float64 transform of the same float32 normals; a hit
or a count can differ from the twin's only where a value lies within
FIELD_FLOAT32_DELTA, the float32 error of a field, of the threshold. Those
maps are BLAS-bound (mc.map_blocks with blas_bound) and run on every usable
CPU. Every other consumer (covariance, decomposition, harmonic values, the
dense route) stays on float64 normals in serial maps. All of them run on the
one BLAS thread mc pins numpy's OpenBLAS to at import, so they give the same
bits at any thread count and on any host default. The float32 log, sin and
cos of the Box-Muller step follow numpy's CPU dispatch, so the threshold
route's bits are fixed per CPU feature set rather than on every host.

Code that reads only one box of each field takes sample_box, the box of the
fields sample_fields draws from the same stream. Up to the cut it draws each
field's noise in turn (the same normals as one batched draw) and transforms
only the box's rows and columns, sine[rows] @ x @ sine[:, cols]; so it holds
one field's noise at a time, and for the decomposition's centred N/4 root box
it does about a sixth of the whole-field flops. Above the cut it slices whole
dstn fields from sample_fields, under that route's budget check.

Before it allocates, each route estimates its working set and refuses a
request above FIELD_BYTES_MAX with WorkRefusedError.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence

import numpy as np
import scipy.fft
from numpy.random import Generator

from .. import tolerances as tol
from .green import GreenOperator, _gib, _mode_gaps, _sine_matrix
from .grid import Box

__all__ = [
    "spectral_scale",
    "sample_fields",
    "sample_sites",
    "sample_box",
    "sample_interiors_float32",
]

_lock = threading.Lock()
_scale_cache: dict[tuple[int, np.dtype], np.ndarray] = {}


def spectral_scale(grid_n: int, dtype=np.float64) -> np.ndarray:
    """Standard deviations (1 - lam_{jk})^{-1/2} on the interior mode grid,
    lam_{jk} = (cos(pi j/(N-1)) + cos(pi k/(N-1)))/2 for j, k = 1..N-2.
    Computed in float64 and cast once to dtype."""
    key = (grid_n, np.dtype(dtype))
    with _lock:
        scale = _scale_cache.get(key)
        if scale is None:
            scale = 1.0 / np.sqrt(_mode_gaps(grid_n))
            scale = scale.astype(dtype, copy=False)
            _scale_cache[key] = scale
    return scale


def _check_request(grid_n: int, count: int, nbytes: int, what: str, stage: str) -> None:
    """Validate a field request and refuse it, before any allocation, when its
    working set of nbytes exceeds the field budget."""
    if grid_n < 3:
        raise ValueError(f"grid must have an interior, got N={grid_n}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if nbytes > tol.FIELD_BYTES_MAX:
        raise tol.WorkRefusedError(
            f"sampling {count} {what} field(s) at N={grid_n} needs about "
            f"{_gib(nbytes)} GiB, above the {tol.FIELD_BYTES_MAX / 2**30:g} GiB "
            "field budget; use a smaller grid or fewer replicas",
            stage, "bytes", nbytes, tol.FIELD_BYTES_MAX,
        )


def _sine_transform(grid_n: int, noise: np.ndarray) -> np.ndarray:
    """The orthonormal DST-I of scaled (count, n, n) noise in both trailing
    axes, in noise's dtype: the sine products in place up to the cut, dstn
    above it."""
    if grid_n <= tol.SINE_MATRIX_MAX_N:
        sine = _sine_matrix(grid_n, noise.dtype)
        return np.matmul(sine @ noise, sine, out=noise)
    return scipy.fft.dstn(noise, type=1, norm="ortho", axes=(1, 2))


def _polar_draws(rng: Generator, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws behind `pairs` Box-Muller pairs: that many 32-bit words for
    the radii, then that many float32 uniforms in [0, 1) for the angles.
    The radii take whole words because log u is steep near 0: on the 2^-24
    lattice of float32 uniforms a normal errs by up to 5e-3 against the
    exact pair, on the 2^-32 lattice by about 1e-5."""
    words = rng.integers(2**32, size=pairs, dtype=np.uint32)
    return words, rng.random(pairs, dtype=np.float32)


def _standard_normal_float32(rng: Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Float32 standard normals by the Box-Muller transform: from word k and
    uniform v, u = (k + 1/2) 2^-32 in float32, so u lies in (0, 1] and
    r = sqrt(-2 log u) <= 6.76, and the pair is (r cos 2 pi v, r sin 2 pi v).
    The first half of the output holds the cosines, the second the sines; an
    odd size drops the last sine. Computed in place in float32."""
    size = math.prod(shape)
    pairs = (size + 1) // 2
    words, angles = _polar_draws(rng, pairs)
    out = np.empty(2 * pairs, dtype=np.float32)
    radii, sines = out[:pairs], out[pairs:]
    radii[...] = words
    del words
    radii += np.float32(0.5)
    radii *= np.float32(2.0**-32)
    np.log(radii, out=radii)
    radii *= np.float32(-2.0)
    np.sqrt(radii, out=radii)
    angles *= np.float32(2.0 * math.pi)
    np.sin(angles, out=sines)
    sines *= radii
    np.cos(angles, out=angles)
    radii *= angles
    return out[:size].reshape(shape)


def sample_fields(grid_n: int, count: int, rng: Generator) -> np.ndarray:
    """Draw `count` independent fields as a (count, N, N) array, zero frame."""
    n = grid_n - 2
    # the output, the noise and the transformed noise
    nbytes = 8 * count * (grid_n * grid_n + 2 * n * n)
    _check_request(grid_n, count, nbytes, "spectral", "gff.sample_fields")
    out = np.zeros((count, grid_n, grid_n))
    noise = rng.standard_normal((count, n, n))
    noise *= spectral_scale(grid_n)
    out[:, 1:-1, 1:-1] = _sine_transform(grid_n, noise)
    return out


def sample_sites(
    grid_n: int, sites: Sequence[tuple[int, int]], count: int, rng: Generator
) -> np.ndarray:
    """The (count, k) values at k interior (row, col) sites of count fields
    on the dense route: one (count, (N-2)^2) draw of standard normals times
    the rows of chol(G) at the sites. The draw does not depend on the sites,
    so on one stream any sites read the same columns as every site does."""
    m, k = (grid_n - 2) ** 2, len(sites)
    # the noise and the product, then the unit vectors, the solves and the rows
    nbytes = 8 * (count * (m + k) + 3 * k * m)
    _check_request(grid_n, count, nbytes, "dense", "gff.sample_sites")
    rows = GreenOperator(grid_n).cholesky_rows(sites)
    return rng.standard_normal((count, m)) @ rows.T


def sample_box(grid_n: int, box: Box, count: int, rng: Generator) -> np.ndarray:
    """The (count, height, width) box of the fields sample_fields draws from
    the same stream, sample_fields(grid_n, count, rng)[:, box.slices()], with
    rng left where sample_fields leaves it; sites on the frame read 0."""
    if box.row0 < 0 or box.col0 < 0 or max(box.row_end, box.col_end) > grid_n:
        raise ValueError(f"{box} does not lie in the {grid_n}x{grid_n} grid")
    if grid_n > tol.SINE_MATRIX_MAX_N:
        return sample_fields(grid_n, count, rng)[(slice(None), *box.slices())].copy()
    n = grid_n - 2
    # the box, one field's noise and its product with the box's sine rows
    nbytes = 8 * (count * box.height * box.width + (n + box.height) * n)
    _check_request(grid_n, count, nbytes, "box", "gff.sample_box")
    # the box's interior rows r0..r1-1 and columns c0..c1-1; interior site
    # (r, c) is sine-matrix index (r - 1, c - 1)
    r0, r1 = max(box.row0, 1), min(box.row_end, grid_n - 1)
    c0, c1 = max(box.col0, 1), min(box.col_end, grid_n - 1)
    sine = _sine_matrix(grid_n)
    left, right = sine[r0 - 1 : r1 - 1], sine[:, c0 - 1 : c1 - 1]
    scale = spectral_scale(grid_n)
    out = np.zeros((count, box.height, box.width))
    inner = out[:, r0 - box.row0 : r1 - box.row0, c0 - box.col0 : c1 - box.col0]
    for field in inner:
        noise = rng.standard_normal((n, n))
        noise *= scale
        field[...] = left @ noise @ right
    return out


def sample_interiors_float32(grid_n: int, count: int, rng: Generator) -> np.ndarray:
    """(count, n, n) float32 interiors of count independent fields: float32
    Box-Muller normals scaled and transformed in float32, within
    FIELD_FLOAT32_DELTA of the float64 transform of the same normals; for
    code that only compares values with a threshold (compare exactly: a
    float32 array against a float64 threshold rounds the threshold to
    float32). The stream is not sample_fields': these are other fields."""
    n = grid_n - 2
    # the normals, their radius words and angle uniforms (half a site each)
    # and the product
    nbytes = (4 + 2 + 2 + 4) * count * n * n
    _check_request(grid_n, count, nbytes, "float32", "gff.sample_interiors_float32")
    noise = _standard_normal_float32(rng, (count, n, n))
    noise *= spectral_scale(grid_n, np.float32)
    return _sine_transform(grid_n, noise)
