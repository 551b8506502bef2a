"""Field samplers: the spectral route validated against the dense site route."""

import hashlib
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft
from scipy import stats

from levelsim import mc
from levelsim import tolerances as tol
from levelsim.gff import (
    Box,
    GreenOperator,
    sample_box,
    sample_fields,
    sample_interiors_float32,
    sample_sites,
    spectral_scale,
)
from levelsim.gff import green, sample
from levelsim.gff.levels import _float32_threshold


def dense_fields(grid_n, count, rng):
    """(count, N, N) fields, zero frame, from sample_sites at every interior
    site, row by row: the interior's flat order."""
    n = grid_n - 2
    sites = np.argwhere(np.ones((n, n), dtype=bool)) + 1
    out = np.zeros((count, grid_n, grid_n))
    out[:, 1:-1, 1:-1] = sample_sites(grid_n, sites, count, rng).reshape(count, n, n)
    return out


def draw_batches(grid_n, total, seed, sampler=sample_fields, batch=1000):
    chunks = []
    for i in range(math.ceil(total / batch)):
        rng = mc.replica_rng(seed, i)
        chunks.append(sampler(grid_n, min(batch, total - i * batch), rng))
    return np.concatenate(chunks)


class TestShapes:
    def test_single_field_shape_and_zero_frame(self):
        for sampler in (sample_fields, dense_fields):
            field = sampler(16, 1, mc.replica_rng(1, 0))[0]
            assert field.shape == (16, 16)
            assert np.all(field[0, :] == 0.0)
            assert np.all(field[-1, :] == 0.0)
            assert np.all(field[:, 0] == 0.0)
            assert np.all(field[:, -1] == 0.0)

    def test_batch_shape(self):
        fields = sample_fields(12, 7, mc.replica_rng(2, 0))
        assert fields.shape == (7, 12, 12)

    def test_validation(self):
        rng = mc.replica_rng(3, 0)
        with pytest.raises(ValueError):
            sample_fields(2, 1, rng)
        with pytest.raises(ValueError):
            sample_fields(16, 0, rng)

    def test_oversized_request_is_refused_before_allocation(self):
        rng = mc.replica_rng(4, 0)
        with pytest.raises(tol.WorkRefusedError, match="GiB") as info:
            sample_fields(200_000, 1, rng)
        assert (info.value.stage, info.value.quantity) == ("gff.sample_fields", "bytes")
        assert info.value.limit == tol.FIELD_BYTES_MAX
        with pytest.raises(tol.WorkRefusedError):
            sample_fields(64, tol.FIELD_BYTES_MAX // (8 * 64 * 64), rng)
        with pytest.raises(tol.WorkRefusedError, match="float32") as info:
            sample_interiors_float32(200_000, 1, rng)
        assert info.value.stage == "gff.sample_interiors_float32"
        # the float32 normals, their radius words and angle uniforms and the
        # float32 product: 12 B a site
        with pytest.raises(tol.WorkRefusedError):
            sample_interiors_float32(64, tol.FIELD_BYTES_MAX // (12 * 62 * 62) + 1, rng)


class TestSpectralTransform:
    @pytest.mark.parametrize("grid_n", [16, 64, 128, 512])
    def test_sine_product_matches_dstn(self, grid_n):
        assert grid_n <= tol.SINE_MATRIX_MAX_N
        count = 2 if grid_n < 512 else 1
        fields = sample_fields(grid_n, count, mc.replica_rng(31, grid_n))
        n = grid_n - 2
        # each field's float32 Box-Muller normals in turn, scaled in float64
        rng = mc.replica_rng(31, grid_n)
        normals = [sample._standard_normal_float32(rng, (n, n)) for _ in range(count)]
        noise = np.stack(normals) * spectral_scale(grid_n)
        expected = scipy.fft.dstn(noise, type=1, norm="ortho", axes=(1, 2))
        assert np.max(np.abs(fields[:, 1:-1, 1:-1] - expected)) <= 1e-12

    def test_threaded_blocks_are_byte_identical(self):
        # BLAS products inside worker threads must not change a single bit,
        # in float64 or on the float32 threshold route
        for sampler in (sample_fields, sample_interiors_float32):

            def draw(index):
                return sampler(128, 16, mc.replica_rng(32, index))

            serial = [draw(i) for i in range(4)]
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(draw, range(4)))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(serial, threaded))


class TestBox:
    """sample_box is the box of the fields sample_fields draws from the same
    stream, transformed one field at a time on the box's rows and columns."""

    @staticmethod
    def boxes(grid_n):
        quarter = grid_n // 4
        return {
            "interior": Box(3 * quarter // 2, 3 * quarter // 2, quarter, quarter),
            "rectangular": Box(2, grid_n // 2, grid_n // 3, grid_n // 5 + 1),
            "frame": Box(0, grid_n - 4, grid_n, 4),
        }

    @pytest.mark.parametrize("kind", ["interior", "rectangular", "frame"])
    @pytest.mark.parametrize("grid_n", [16, 64, 256])
    def test_equals_the_sliced_fields(self, grid_n, kind):
        box = self.boxes(grid_n)[kind]
        count = 3
        got = sample_box(grid_n, box, count, mc.replica_rng(35, grid_n))
        fields = sample_fields(grid_n, count, mc.replica_rng(35, grid_n))
        assert got.shape == (count, box.height, box.width)
        assert np.max(np.abs(got - fields[(slice(None), *box.slices())])) <= 1e-12
        if kind == "frame":
            assert np.all(got[:, 0, :] == 0.0)
            assert np.all(got[:, -1, :] == 0.0)
            assert np.all(got[:, :, -1] == 0.0)
            assert np.all(got[:, 1:-1, :-1] != 0.0)

    @pytest.mark.parametrize("grid_n", [16, 64])
    def test_leaves_the_stream_where_sample_fields_does(self, grid_n):
        box_rng, fields_rng = mc.replica_rng(36, 0), mc.replica_rng(36, 0)
        sample_box(grid_n, self.boxes(grid_n)["interior"], 5, box_rng)
        sample_fields(grid_n, 5, fields_rng)
        assert np.array_equal(box_rng.standard_normal(8), fields_rng.standard_normal(8))

    def test_above_the_cut_slices_the_dstn_field(self):
        grid_n = tol.SINE_MATRIX_MAX_N + 8
        box = Box(200, 190, 130, 140)
        got = sample_box(grid_n, box, 1, mc.replica_rng(37, 0))
        field = sample_fields(grid_n, 1, mc.replica_rng(37, 0))
        assert np.max(np.abs(got - field[(slice(None), *box.slices())])) <= 1e-12

    def test_validation(self):
        rng = mc.replica_rng(38, 0)
        with pytest.raises(ValueError, match="does not lie"):
            sample_box(16, Box(10, 0, 7, 4), 1, rng)
        with pytest.raises(ValueError):
            sample_box(16, Box(0, 0, 4, 4), 0, rng)

    def test_oversized_request_is_refused_before_allocation(self):
        rng = mc.replica_rng(39, 0)
        box = Box(24, 24, 16, 16)
        tracemalloc.start()
        try:
            with pytest.raises(tol.WorkRefusedError, match="box"):
                sample_box(64, box, tol.FIELD_BYTES_MAX // (8 * 16 * 16) + 1, rng)
            # above the cut the request is the whole fields sample_fields draws
            with pytest.raises(tol.WorkRefusedError, match="50 spectral field"):
                sample_box(1024, Box(384, 384, 256, 256), 50, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestSites:
    """sample_sites draws the dense route's values at the given sites through
    rows of the banded Cholesky factor, never a whole factor."""

    @pytest.mark.parametrize("grid_n", [3, 8, 17])
    def test_subset_equals_the_same_columns_of_every_site_on_one_stream(self, grid_n):
        sites = [((grid_n - 1) // 2, (grid_n - 1) // 2), (1, 1), (grid_n - 2, 1)]
        sites_rng, fields_rng = mc.replica_rng(40, grid_n), mc.replica_rng(40, grid_n)
        got = sample_sites(grid_n, sites, 50, sites_rng)
        fields = dense_fields(grid_n, 50, fields_rng)
        rows, cols = np.array(sites).T
        assert np.max(np.abs(got - fields[:, rows, cols])) <= 1e-12
        assert np.array_equal(sites_rng.standard_normal(8), fields_rng.standard_normal(8))

    def test_center_draw_holds_no_square_factor(self, monkeypatch):
        # an (n^2)^2 factor at N = 32 alone is 6.5 MB on top of 7.2 MB of noise
        monkeypatch.setattr(green, "_band_cache", {})
        tracemalloc.start()
        try:
            sample_sites(32, [(15, 15)], 1000, mc.replica_rng(41, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_validation(self):
        rng = mc.replica_rng(42, 0)
        with pytest.raises(ValueError, match="interior"):
            sample_sites(16, [(0, 5)], 10, rng)
        with pytest.raises(ValueError):
            sample_sites(16, [(5, 5)], 0, rng)

    def test_oversized_request_is_refused_before_drawing(self):
        rng, fresh = mc.replica_rng(43, 0), mc.replica_rng(43, 0)
        with pytest.raises(tol.WorkRefusedError, match="field budget") as info:
            sample_sites(64, [(31, 31)], 40_000, rng)
        assert info.value.stage == "gff.sample_sites"
        assert rng.standard_normal() == fresh.standard_normal()


def float64_twin(grid_n, count, rng):
    """The float64 twin of sample_interiors_float32 on rng's stream: the same
    float32 normals, scaled and transformed in float64."""
    n = grid_n - 2
    noise = sample._standard_normal_float32(rng, (count, n, n)).astype(np.float64)
    noise *= spectral_scale(grid_n)
    return scipy.fft.dstn(noise, type=1, norm="ortho", axes=(1, 2))


class TestFloat32Route:
    """The threshold route scales and transforms its float32 normals in
    float32, so it tracks their float64 transform site by site within
    FIELD_FLOAT32_DELTA."""

    DELTA = tol.FIELD_FLOAT32_DELTA

    @pytest.mark.parametrize(
        "grid_n, count",
        [(64, 8), (128, 4), (256, 2), (512, 1), (tol.SINE_MATRIX_MAX_N + 128, 1)],
    )
    def test_same_stream_interiors_agree(self, grid_n, count):
        single = sample_interiors_float32(grid_n, count, mc.replica_rng(33, grid_n))
        double = float64_twin(grid_n, count, mc.replica_rng(33, grid_n))
        n = grid_n - 2
        assert single.dtype == np.float32
        assert single.shape == (count, n, n)
        error = np.max(np.abs(single.astype(np.float64) - double))
        assert error <= self.DELTA / 5

    @pytest.mark.parametrize("grid_n", [16, 64, 128, 512])
    def test_one_field_reads_the_normals_sample_fields_reads(self, grid_n):
        # one field on one stream: both routes transform the same float32
        # normals, sample_fields in float64
        single = sample_interiors_float32(grid_n, 1, mc.replica_rng(38, grid_n))
        double = sample_fields(grid_n, 1, mc.replica_rng(38, grid_n))[:, 1:-1, 1:-1]
        assert np.max(np.abs(single.astype(np.float64) - double)) <= self.DELTA

    def test_hits_and_counts_differ_only_near_the_threshold(self):
        grid_n, count = 64, 64
        single = sample_interiors_float32(grid_n, count, mc.replica_rng(34, 0))
        double = float64_twin(grid_n, count, mc.replica_rng(34, 0))
        maxima = double.max(axis=(1, 2))
        # thresholds on top of float64 maxima, and of sites, stress the ties
        thresholds = np.concatenate(
            [maxima + 1e-7, maxima - 1e-7, double[0, 30, ::7] + 1e-7, [2.0, 4.0]]
        )
        for thr in thresholds:
            thr = float(thr)
            hits32 = single.max(axis=(1, 2)) >= _float32_threshold(thr)
            hits64 = maxima >= thr
            assert np.all(np.abs(maxima[hits32 != hits64] - thr) < self.DELTA)
            sites32 = single >= _float32_threshold(thr)
            sites64 = double >= thr
            assert np.all(np.abs(double[sites32 != sites64] - thr) < self.DELTA)
            near = (np.abs(double - thr) < self.DELTA).sum(axis=(1, 2))
            change = np.abs(sites32.sum(axis=(1, 2)) - sites64.sum(axis=(1, 2)))
            assert np.all(change <= near)


class TestFloat32Normals:
    """The Box-Muller normals of the threshold route, against the standard
    normal law and against exact Box-Muller pairs on the same draws."""

    PAIRS = 2_000_000

    @pytest.fixture(scope="class")
    def normals(self):
        z = sample._standard_normal_float32(mc.replica_rng(35, 0), (2 * self.PAIRS,))
        assert z.dtype == np.float32
        return z.astype(np.float64)

    def test_moments(self, normals):
        m = normals.size
        mean, var = normals.mean(), normals.var()
        kurtosis = np.mean((normals - mean) ** 4) / var**2
        # standard errors of the mean, the variance and the kurtosis of m
        # standard normals: 1, sqrt(2) and sqrt(24), over sqrt(m)
        for value, target, sd in ((mean, 0, 1), (var, 1, 2**0.5), (kurtosis, 3, 24**0.5)):
            assert abs(value - target) * math.sqrt(m) / sd < 4.0

    def test_tail_frequencies(self, normals):
        m = normals.size
        for level in (3.0, 4.0):
            p = 2.0 * stats.norm.sf(level)
            freq = float((np.abs(normals) > level).mean())
            assert abs(freq - p) < 4.0 * math.sqrt(p * (1.0 - p) / m)

    def test_ks(self, normals):
        # the 0.1% critical value of the one-sample KS statistic is 1.95/sqrt(m)
        statistic = stats.kstest(normals, "norm").statistic
        assert statistic < 1.95 / math.sqrt(normals.size)

    def test_extreme_words_give_finite_radii(self, monkeypatch):
        words = np.array([0, 1, 2**31, 2**32 - 2, 2**32 - 1], dtype=np.uint32)
        angles = np.array([0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-24], dtype=np.float32)
        monkeypatch.setattr(sample, "_polar_draws", lambda rng, pairs: (words, angles))
        z = sample._standard_normal_float32(None, (10,)).astype(np.float64)
        assert np.all(np.isfinite(z))
        radii = np.hypot(z[:5], z[5:])
        assert np.all(radii >= 0.0)
        # k = 0 gives the largest radius, sqrt(66 log 2) = 6.76; the top word
        # rounds u up to 1 and gives radius 0
        assert radii[0] == pytest.approx(math.sqrt(66.0 * math.log(2.0)), rel=1e-6)
        assert radii[-1] == 0.0
        assert radii.max() <= 6.77

    def test_odd_sizes_drop_the_last_sine(self):
        z = sample._standard_normal_float32(mc.replica_rng(36, 0), (3, 5))
        even = sample._standard_normal_float32(mc.replica_rng(36, 0), (16,))
        assert z.shape == (3, 5) and z.dtype == np.float32
        # both draw 8 pairs: 8 cosines, then 8 sines, the last one dropped
        assert z.tobytes() == even[:15].tobytes()

    @pytest.mark.parametrize("grid_n", [128, 512])
    def test_fields_stay_near_exact_pairs(self, grid_n):
        """Fields of the lattice normals against fields of exact Box-Muller
        pairs on the same draws, with u = (k + 1/2) 2^-32 and the angle in
        float64; both transformed in float64."""
        n = grid_n - 2
        count = max(1, 2**18 // (n * n))
        pairs = (count * n * n + 1) // 2
        words, angles = sample._polar_draws(mc.replica_rng(37, grid_n), pairs)
        radii = np.sqrt(-2.0 * np.log((words + 0.5) * 2.0**-32))
        theta = 2.0 * math.pi * angles.astype(np.float64)
        exact = np.concatenate([radii * np.cos(theta), radii * np.sin(theta)])
        lattice = sample._standard_normal_float32(mc.replica_rng(37, grid_n), (2 * pairs,))
        # float32 uniforms for the radius would err by up to 5e-3 here
        assert np.max(np.abs(lattice - exact)) < 1e-4
        fields = []
        for z in (lattice, exact):
            noise = z[: count * n * n].astype(np.float64).reshape(count, n, n)
            noise *= spectral_scale(grid_n)
            fields.append(scipy.fft.dstn(noise, type=1, norm="ortho", axes=(1, 2)))
        assert np.max(np.abs(fields[0] - fields[1])) <= tol.FIELD_FLOAT32_DELTA / 5


class TestFloat32StreamPins:
    """SHA-256 of the threshold route's draws for one (seed, shape): its
    radius words, then its angle uniforms. Any change to what it draws, how
    many or in which order moves these digests. The normals are not pinned:
    float32 log, sin and cos follow numpy's CPU dispatch."""

    @pytest.mark.parametrize(
        "grid_n, count, digest",
        [
            (64, 2, "7ff5028f8e0f8d299fd9759879d735e34aeec8a995b4aaffed9c3ece8d4dc50a"),
            (17, 1, "99b20e93a665f212300497bd3192a496ed6ef6a85bfc6f47bb6e7dabe7202f9b"),
        ],
    )
    def test_polar_draws(self, monkeypatch, grid_n, count, digest):
        draw, drawn = sample._polar_draws, []

        def record(rng, pairs):
            words, angles = draw(rng, pairs)
            drawn.append((words.copy(), angles.copy()))
            return words, angles

        monkeypatch.setattr(sample, "_polar_draws", record)
        sample_interiors_float32(grid_n, count, mc.replica_rng(38, grid_n))
        [(words, angles)] = drawn
        assert (words.dtype, angles.dtype) == (np.uint32, np.float32)
        assert words.size == angles.size == (count * (grid_n - 2) ** 2 + 1) // 2
        digest_of = hashlib.sha256(words.tobytes())
        digest_of.update(angles.tobytes())
        assert digest_of.hexdigest() == digest


    @pytest.mark.parametrize("pairs", [1, 113, 4096])
    def test_raw_halves_are_the_streams_words_then_uniforms(self, pairs):
        words, angles = sample._polar_draws(mc.replica_rng(39, pairs), pairs)
        rng = mc.replica_rng(39, pairs)
        assert words.tobytes() == rng.integers(2**32, size=pairs, dtype=np.uint32).tobytes()
        assert angles.tobytes() == rng.random(pairs, dtype=np.float32).tobytes()


class TestMarginals:
    def test_center_variance_matches_green_oracle(self):
        grid_n = 64
        fields = draw_batches(grid_n, 4000, seed=11)
        center = fields[:, grid_n // 2, grid_n // 2]
        target = GreenOperator(grid_n).variance((grid_n // 2, grid_n // 2))
        sample_var = float(center.var(ddof=1))
        var_se = target * math.sqrt(2.0 / (center.size - 1))
        assert abs(sample_var - target) < 3.5 * var_se

    def test_center_marginal_is_gaussian(self):
        grid_n = 32
        fields = draw_batches(grid_n, 2000, seed=12)
        center = fields[:, grid_n // 2, grid_n // 2]
        sigma = math.sqrt(GreenOperator(grid_n).variance((16, 16)))
        ks = stats.kstest(center, stats.norm(scale=sigma).cdf)
        assert ks.pvalue > 0.01

    def test_mean_is_zero(self):
        fields = draw_batches(32, 2000, seed=13)
        center = fields[:, 16, 16]
        se = float(center.std(ddof=1) / math.sqrt(center.size))
        assert abs(float(center.mean())) < 3.5 * se


class TestCovariance:
    def test_pairwise_covariance_matches_green(self):
        grid_n = 16
        g = GreenOperator(grid_n)
        fields = draw_batches(grid_n, 3000, seed=14, sampler=dense_fields)
        rng = np.random.default_rng(15)
        for _ in range(20):
            x = tuple(int(v) for v in rng.integers(1, grid_n - 1, 2))
            y = tuple(int(v) for v in rng.integers(1, grid_n - 1, 2))
            a = fields[:, x[0], x[1]]
            b = fields[:, y[0], y[1]]
            emp = float(np.mean(a * b))
            target = g.entry(x, y)
            # Var(ab) = Gxx*Gyy + Gxy^2 for centered jointly Gaussian pairs
            se = math.sqrt(
                (g.variance(x) * g.variance(y) + target**2) / fields.shape[0]
            )
            assert abs(emp - target) < 4.0 * se

    def test_backends_agree_in_distribution(self):
        grid_n = 16
        spectral = draw_batches(grid_n, 2000, seed=16)
        dense = draw_batches(grid_n, 2000, seed=17, sampler=dense_fields)
        ks = stats.ks_2samp(spectral[:, 8, 8], dense[:, 8, 8])
        assert ks.pvalue > 0.01
        corner_ks = stats.ks_2samp(spectral[:, 2, 13], dense[:, 2, 13])
        assert corner_ks.pvalue > 0.01
