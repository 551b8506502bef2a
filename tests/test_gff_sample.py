"""Field samplers: spectral backend validated against the dense backend."""

import math

import numpy as np
import pytest
from scipy import stats

from levelsim import mc
from levelsim.gff import GreenOperator, sample_fields


def draw_batches(grid_n, total, seed, backend="spectral", batch=1000):
    chunks = []
    for i in range(math.ceil(total / batch)):
        rng = mc.replica_rng(seed, i)
        chunks.append(sample_fields(grid_n, min(batch, total - i * batch), rng, backend))
    return np.concatenate(chunks)


class TestShapes:
    def test_single_field_shape_and_zero_frame(self):
        for backend in ("spectral", "dense"):
            field = sample_fields(16, 1, mc.replica_rng(1, 0), backend=backend)[0]
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
        with pytest.raises(ValueError, match="backend"):
            sample_fields(16, 1, rng, backend="fft")


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
        fields = draw_batches(grid_n, 3000, seed=14, backend="dense")
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
        spectral = draw_batches(grid_n, 2000, seed=16, backend="spectral")
        dense = draw_batches(grid_n, 2000, seed=17, backend="dense")
        ks = stats.ks_2samp(spectral[:, 8, 8], dense[:, 8, 8])
        assert ks.pvalue > 0.01
        corner_ks = stats.ks_2samp(spectral[:, 2, 13], dense[:, 2, 13])
        assert corner_ks.pvalue > 0.01
