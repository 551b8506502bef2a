"""The harmonic/residual split over a box and coarse increments across
scales, through the primitives the pipelines call: dirichlet_extend for the
whole harmonic part, harmonic_at for its value at one site."""

import math

import numpy as np
import pytest

from levelsim import mc
from levelsim.gff import Box, GreenOperator, dirichlet_extend, harmonic_at, sample_fields

GAMMA2 = 2.0 / math.pi


def centered_box(grid_n, side):
    off = (grid_n - side) // 2
    return Box(off, off, side, side)


def draw(grid_n, count, seed):
    batches = [
        sample_fields(grid_n, 500, mc.replica_rng(seed, i))
        for i in range(math.ceil(count / 500))
    ]
    return np.concatenate(batches)[:count]


def residual(field, box):
    return field[box.slices()] - dirichlet_extend(field, box)


def increments(fields, parent, child):
    """Coarse value of child minus that of parent, both read at the child's
    center."""
    site = child.center()
    return harmonic_at(fields, child, site) - harmonic_at(fields, parent, site)


class TestDecompose:
    def test_residual_vanishes_on_frame(self):
        field = sample_fields(32, 1, mc.replica_rng(61, 0))[0]
        res = residual(field, Box(6, 6, 18, 18))
        assert np.allclose(res[0, :], 0.0, atol=1e-10)
        assert np.allclose(res[-1, :], 0.0, atol=1e-10)
        assert np.allclose(res[:, 0], 0.0, atol=1e-10)
        assert np.allclose(res[:, -1], 0.0, atol=1e-10)

    def test_center_value_reads_harmonic_part(self):
        fields = sample_fields(32, 4, mc.replica_rng(62, 0))
        box = Box(8, 8, 15, 15)
        r, c = box.center()
        extended = [
            dirichlet_extend(field, box)[r - box.row0, c - box.col0] for field in fields
        ]
        assert harmonic_at(fields, box, (r, c)) == pytest.approx(extended, abs=1e-12)
        assert harmonic_at(fields[0], box, (r, c)) == pytest.approx(extended[0], abs=1e-12)

    def test_residual_covariance_is_greens_function_of_the_box(self):
        # the residual over a side-16 box is a zero-boundary field of its own
        grid_n, side = 32, 16
        box = centered_box(grid_n, side)
        fields = draw(grid_n, 1000, seed=63)
        residuals = np.stack([residual(field, box) for field in fields])
        g = GreenOperator(side)
        pairs = [((8, 8), (8, 8)), ((8, 8), (8, 9)), ((5, 5), (10, 10)), ((3, 12), (12, 3))]
        for x, y in pairs:
            emp = float(np.mean(residuals[:, x[0], x[1]] * residuals[:, y[0], y[1]]))
            target = g.entry(x, y)
            se = math.sqrt(
                (g.variance(x) * g.variance(y) + target**2) / residuals.shape[0]
            )
            assert abs(emp - target) < 4.0 * se


class TestCoarseValues:
    def test_variance_difference_of_nested_scales(self):
        # Var(coarse value) = G_N(center) - G_box(center), and that difference
        # tracks (2/pi) * log(N/side) within an additive constant well under 1
        grid_n = 64
        fields = draw(grid_n, 1000, seed=64)
        g_center = GreenOperator(grid_n).variance((31, 31))
        for side in (8, 16, 32):
            box = centered_box(grid_n, side)
            local = ((side - 2) // 2, (side - 2) // 2)
            exact = g_center - GreenOperator(side).variance(local)
            values = harmonic_at(fields, box, box.center())
            emp = float(np.var(values, ddof=1))
            se = exact * math.sqrt(2.0 / (values.size - 1))
            assert abs(emp - exact) < 4.0 * se
            assert abs(exact - GAMMA2 * math.log(grid_n / side)) < 1.0


class TestCoarseIncrements:
    def test_increment_variance_matches_green_difference(self):
        grid_n = 64
        parent, child = centered_box(grid_n, 32), centered_box(grid_n, 16)
        fields = draw(grid_n, 1500, seed=66)
        inc = increments(fields, parent, child)
        exact = GreenOperator(32).variance((15, 15)) - GreenOperator(16).variance(
            (7, 7)
        )
        emp = float(np.var(inc, ddof=1))
        se = exact * math.sqrt(2.0 / (inc.size - 1))
        assert abs(emp - exact) < 4.0 * se

    def test_increment_mean_is_zero(self):
        grid_n = 64
        parent, child = centered_box(grid_n, 32), centered_box(grid_n, 16)
        fields = draw(grid_n, 1500, seed=67)
        inc = increments(fields, parent, child)
        se = float(np.std(inc, ddof=1) / math.sqrt(inc.size))
        assert abs(float(inc.mean())) < 3.5 * se

