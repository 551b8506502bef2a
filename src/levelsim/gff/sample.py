"""Zero-boundary Gaussian field samplers.

Which normals each route draws:

- the spectral routes, sample_fields and sample_box, and the threshold
  route, sample_interiors_float32, draw float32 Box-Muller normals on the
  counter-keyed Philox streams (_standard_normal_float32: a 32-bit word for
  each radius, a float32 uniform for each angle, both halves of raw 64-bit
  outputs). The spectral routes draw one field's normals at a time and
  scale and transform them in float64; the threshold route draws its whole
  request at once and stays in float32;
- the dense route, sample_sites, draws float64 ziggurat normals, another
  transform of the Philox bits, so it stays the others' independent check.

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
at zeta = 0, which reads the field maximum. It scales its float32 normals by
a float32 copy of spectral_scale and transforms them in float32, with a
float32 copy of the sine matrix (or dstn above the cut). Its float64 twin is
the float64 transform of the same float32 normals; a hit or a count can
differ from the twin's only where a value lies within FIELD_FLOAT32_DELTA,
the float32 error of a field, of the threshold. For one field on one stream
the twin is sample_fields' field: both read the same normals. Every route
runs on the one BLAS thread mc pins numpy's and scipy's OpenBLAS to at
import, so it gives the same bits at any thread count and on any host
default. The float32 log, sin and cos of the Box-Muller step follow numpy's
CPU dispatch, so the bits of every route but the dense one are fixed per
CPU feature set rather than on every host.

Code that reads only one box of each field takes sample_box, the box of the
fields sample_fields draws from the same stream. Up to the cut it draws each
field's noise in turn, as sample_fields does, and transforms only the box's
rows and columns, sine[rows] @ x @ sine[:, cols]; so for the decomposition's
centred N/4 root box it does about a sixth of the whole-field flops. Above
the cut it slices whole dstn fields from sample_fields, under that route's
budget check.

Each route's working set is a pure function of its request (the *_bytes
functions below). Before it allocates, the route refuses a request above
FIELD_BYTES_MAX with WorkRefusedError; a map that runs blocks of a route on
several threads (mc.map_blocks with gil_free_bytes: the threshold maps and
decompose-var's box draws) passes one block's cost, so the blocks it runs at
once stay inside that budget too.
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
    "sample_fields_bytes",
    "sample_sites",
    "sample_sites_bytes",
    "sample_box",
    "sample_box_bytes",
    "sample_interiors_float32",
    "sample_interiors_float32_bytes",
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


def sample_fields_bytes(grid_n: int, count: int) -> int:
    """Working-set bound of sample_fields: the output and two float64
    copies of every field's interior. The fields draw one at a time, so they
    hold far less than the two copies; the bound keeps refusing the
    requests and sizing the threaded blocks it did when they drew at once."""
    n = grid_n - 2
    return 8 * count * (grid_n * grid_n + 2 * n * n)


def sample_sites_bytes(grid_n: int, site_count: int, count: int) -> int:
    """Working set of sample_sites at site_count sites: the noise and the
    product, then the unit vectors, the solves and the rows."""
    m, k = (grid_n - 2) ** 2, site_count
    return 8 * (count * (m + k) + 3 * k * m)


def sample_box_bytes(grid_n: int, box: Box, count: int) -> int:
    """Working set of sample_box: up to the cut the box, one field's noise
    and its product with the box's sine rows; above it sample_fields'."""
    if grid_n > tol.SINE_MATRIX_MAX_N:
        return sample_fields_bytes(grid_n, count)
    n = grid_n - 2
    return 8 * (count * box.height * box.width + (n + box.height) * n)


def sample_interiors_float32_bytes(grid_n: int, count: int) -> int:
    """Working set of sample_interiors_float32, 12 B a site: the normals
    (4), then either their raw draws and float32 angles while they are made
    (4 + 2) or the product (4)."""
    n = grid_n - 2
    return (4 + 2 + 2 + 4) * count * n * n


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
    """The orthonormal DST-I of scaled noise in its two trailing axes, in
    noise's dtype: the sine products in place up to the cut, dstn above it."""
    if grid_n <= tol.SINE_MATRIX_MAX_N:
        sine = _sine_matrix(grid_n, noise.dtype)
        return np.matmul(sine @ noise, sine, out=noise)
    return scipy.fft.dstn(noise, type=1, norm="ortho", axes=(-2, -1))


def _polar_draws(rng: Generator, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws behind `pairs` Box-Muller pairs: that many 32-bit words for
    the radii, then that many float32 uniforms in [0, 1) for the angles.
    The radii take whole words because log u is steep near 0: on the 2^-24
    lattice of float32 uniforms a normal errs by up to 5e-3 against the
    exact pair, on the 2^-32 lattice by about 1e-5.

    Both come from `pairs` raw 64-bit outputs, read as 32-bit halves, low
    half first: the first `pairs` halves are the words, and the top 24 bits
    of the rest, times 2^-24, the uniforms. That is what
    rng.integers(2**32, size=pairs, dtype=np.uint32) and then
    rng.random(pairs, dtype=np.float32) draw from a stream with no 32-bit
    half left over (every stream here), at a fraction of their call cost."""
    halves = rng.bit_generator.random_raw(pairs).astype("<u8", copy=False).view("<u4")
    angles = (halves[pairs:] >> 8).astype(np.float32)
    angles *= np.float32(2.0**-24)
    return halves[:pairs], angles


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


def _scaled_noise(grid_n: int, rng: Generator) -> np.ndarray:
    """One field's (n, n) float64 mode coefficients: float32 Box-Muller
    normals times spectral_scale."""
    n = grid_n - 2
    return _standard_normal_float32(rng, (n, n)) * spectral_scale(grid_n)


def sample_fields(grid_n: int, count: int, rng: Generator) -> np.ndarray:
    """Draw `count` independent fields as a (count, N, N) array, zero frame,
    one field's noise at a time."""
    nbytes = sample_fields_bytes(grid_n, count)
    _check_request(grid_n, count, nbytes, "spectral", "gff.sample_fields")
    out = np.zeros((count, grid_n, grid_n))
    for field in out[:, 1:-1, 1:-1]:
        field[...] = _sine_transform(grid_n, _scaled_noise(grid_n, rng))
    return out


def sample_sites(
    grid_n: int, sites: Sequence[tuple[int, int]], count: int, rng: Generator
) -> np.ndarray:
    """The (count, k) values at k interior (row, col) sites of count fields
    on the dense route: one (count, (N-2)^2) draw of standard normals times
    the rows of chol(G) at the sites. The draw does not depend on the sites,
    so on one stream any sites read the same columns as every site does."""
    m = (grid_n - 2) ** 2
    nbytes = sample_sites_bytes(grid_n, len(sites), count)
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
    nbytes = sample_box_bytes(grid_n, box, count)
    _check_request(grid_n, count, nbytes, "box", "gff.sample_box")
    # the box's interior rows r0..r1-1 and columns c0..c1-1; interior site
    # (r, c) is sine-matrix index (r - 1, c - 1)
    r0, r1 = max(box.row0, 1), min(box.row_end, grid_n - 1)
    c0, c1 = max(box.col0, 1), min(box.col_end, grid_n - 1)
    sine = _sine_matrix(grid_n)
    left, right = sine[r0 - 1 : r1 - 1], sine[:, c0 - 1 : c1 - 1]
    out = np.zeros((count, box.height, box.width))
    inner = out[:, r0 - box.row0 : r1 - box.row0, c0 - box.col0 : c1 - box.col0]
    for field in inner:
        field[...] = left @ _scaled_noise(grid_n, rng) @ right
    return out


def sample_interiors_float32(grid_n: int, count: int, rng: Generator) -> np.ndarray:
    """(count, n, n) float32 interiors of count independent fields: float32
    Box-Muller normals scaled and transformed in float32, within
    FIELD_FLOAT32_DELTA of the float64 transform of the same normals; for
    code that only compares values with a threshold (compare exactly: a
    float32 array against a float64 threshold rounds the threshold to
    float32). One field is sample_fields' field on the same stream, within
    FIELD_FLOAT32_DELTA; more are other fields, since sample_fields draws
    one field at a time."""
    n = grid_n - 2
    nbytes = sample_interiors_float32_bytes(grid_n, count)
    _check_request(grid_n, count, nbytes, "float32", "gff.sample_interiors_float32")
    noise = _standard_normal_float32(rng, (count, n, n))
    noise *= spectral_scale(grid_n, np.float32)
    return _sine_transform(grid_n, noise)
