"""Killed-walk Green's function: LU route against the spectral route."""

import math

import numpy as np
import pytest

import levelsim.gff.decompose
from levelsim.gff import Box, GreenOperator, dirichlet_extend, harmonic_at, harmonic_measure
from levelsim.gff.green import interior_laplacian

# rectangular boxes, including 3 x k and k x 3 boxes with a single interior line
MEASURE_BOXES = (Box(1, 2, 9, 6), Box(0, 3, 5, 12), Box(2, 1, 3, 7), Box(4, 0, 8, 3))


def interior_sites(box):
    """Every interior site, the ones next to the frame included."""
    return [
        (r, c)
        for r in range(box.row0 + 1, box.row_end - 1)
        for c in range(box.col0 + 1, box.col_end - 1)
    ]


class TestInteriorLaplacian:
    def test_small_matrix_structure(self):
        mat = interior_laplacian(2, 2).toarray()
        expected = np.array(
            [
                [4.0, -1.0, -1.0, 0.0],
                [-1.0, 4.0, 0.0, -1.0],
                [-1.0, 0.0, 4.0, -1.0],
                [0.0, -1.0, -1.0, 4.0],
            ]
        )
        assert np.array_equal(mat, expected)

    def test_row_sums_count_missing_neighbors(self):
        # interior rows sum to 0; rows next to the frame keep +1 per cut edge
        mat = interior_laplacian(5, 5).toarray()
        sums = mat.sum(axis=1).reshape(5, 5)
        assert sums[2, 2] == 0.0
        assert sums[0, 2] == 1.0
        assert sums[0, 0] == 2.0


class TestGreenOperator:
    def test_column_solves_defining_equation(self):
        g = GreenOperator(12)
        col = g.column((5, 7))[1:-1, 1:-1].ravel()
        lap = interior_laplacian(10, 10)
        rhs = np.zeros(100)
        rhs[(5 - 1) * 10 + (7 - 1)] = 4.0
        assert np.allclose(lap @ col, rhs, atol=1e-10)

    def test_boundary_rows_are_zero(self):
        g = GreenOperator(10)
        assert g.entry((0, 4), (5, 5)) == 0.0
        assert g.entry((5, 5), (9, 2)) == 0.0
        assert np.array_equal(g.column((0, 3)), np.zeros((10, 10)))

    def test_symmetry(self):
        g = GreenOperator(24)
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = tuple(int(v) for v in rng.integers(1, 23, 2))
            y = tuple(int(v) for v in rng.integers(1, 23, 2))
            assert g.entry(x, y) == pytest.approx(g.entry(y, x), abs=1e-10)

    def test_diagonal_at_least_one(self):
        # the walk's starting visit alone contributes 1 to every G(x, x)
        diag = GreenOperator(32).diagonal()
        assert np.all(diag[1:-1, 1:-1] >= 1.0)

    def test_spectral_diagonal_matches_lu_entries(self):
        g = GreenOperator(20)
        diag = g.diagonal()
        rng = np.random.default_rng(32)
        for _ in range(20):
            site = tuple(int(v) for v in rng.integers(1, 19, 2))
            assert diag[site] == pytest.approx(g.variance(site), abs=1e-10)

    def test_dense_matrix_agrees_with_columns(self):
        g = GreenOperator(9)
        dense = g.dense_matrix()
        n = 7
        for site in ((1, 1), (4, 5), (7, 7)):
            flat = (site[0] - 1) * n + (site[1] - 1)
            assert np.allclose(
                dense[:, flat].reshape(n, n), g.column(site)[1:-1, 1:-1], atol=1e-10
            )

    def test_dense_matrix_size_limit(self):
        with pytest.raises(ValueError):
            GreenOperator(128).dense_matrix()

    def test_center_variance_growth_is_logarithmic(self):
        # slope of G(center) against log N approaches 2/pi
        sizes = [16, 32, 64, 128]
        values = [GreenOperator(n).diagonal()[n // 2, n // 2] for n in sizes]
        slope = np.polyfit(np.log(sizes), values, 1)[0]
        assert slope == pytest.approx(2.0 / math.pi, rel=0.1)

    def test_center_variance_regression_anchor(self):
        assert GreenOperator(128).diagonal()[64, 64] == pytest.approx(
            3.720154671938645, abs=1e-9
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            GreenOperator(2)
        with pytest.raises(ValueError):
            GreenOperator(10).is_boundary((10, 3))


class TestDirichletExtend:
    def test_preserves_frame_and_is_harmonic_inside(self):
        rng = np.random.default_rng(33)
        field = rng.normal(size=(16, 16))
        box = Box(2, 3, 9, 11)
        ext = dirichlet_extend(field, box)
        sub = field[box.slices()]
        assert np.array_equal(ext[0, :], sub[0, :])
        assert np.array_equal(ext[-1, :], sub[-1, :])
        assert np.array_equal(ext[:, 0], sub[:, 0])
        assert np.array_equal(ext[:, -1], sub[:, -1])
        interior = ext[1:-1, 1:-1]
        neighbor_mean = (
            ext[:-2, 1:-1] + ext[2:, 1:-1] + ext[1:-1, :-2] + ext[1:-1, 2:]
        ) / 4.0
        assert np.allclose(interior, neighbor_mean, atol=1e-10)

    def test_constant_field_extends_to_itself(self):
        field = np.full((12, 12), 2.5)
        ext = dirichlet_extend(field, Box(1, 1, 10, 10))
        assert np.allclose(ext, 2.5, atol=1e-12)

    def test_thin_boxes_are_all_frame(self):
        field = np.arange(64, dtype=float).reshape(8, 8)
        box = Box(3, 2, 2, 5)
        assert np.array_equal(dirichlet_extend(field, box), field[box.slices()])


class TestHarmonicAt:
    def test_matches_full_extension(self):
        rng = np.random.default_rng(34)
        field = rng.normal(size=(16, 16))
        for box in (Box(2, 2, 11, 11), *MEASURE_BOXES):
            ext = dirichlet_extend(field, box)
            for site in np.ndindex(box.height, box.width):
                expected = ext[site]
                site = (site[0] + box.row0, site[1] + box.col0)
                assert abs(harmonic_at(field, box, site) - expected) <= 1e-12

    def test_frame_site_returns_raw_value(self):
        rng = np.random.default_rng(35)
        field = rng.normal(size=(10, 10))
        box = Box(2, 2, 6, 6)
        assert harmonic_at(field, box, (2, 4)) == field[2, 4]

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(36)
        fields = rng.normal(size=(5, 12, 12))
        box = Box(1, 2, 9, 8)
        site = (4, 6)
        batched = harmonic_at(fields, box, site)
        assert batched.shape == (5,)
        for k in range(5):
            assert batched[k] == pytest.approx(
                harmonic_at(fields[k], box, site), abs=1e-12
            )

    def test_measure_is_a_probability_on_the_frame(self):
        for box in MEASURE_BOXES:
            interior = interior_sites(box)
            frame = [
                (r, c)
                for r in range(box.row0, box.row_end)
                for c in range(box.col0, box.col_end)
                if (r, c) not in interior
            ]
            corners = {
                (r, c) for r in (box.row0, box.row_end - 1) for c in (box.col0, box.col_end - 1)
            }
            for site in interior:
                rows, cols, weights = harmonic_measure(box, site)
                assert list(zip(rows.tolist(), cols.tolist())) == frame
                assert weights.min() >= -1e-15
                assert abs(weights.sum() - 1.0) <= 1e-12
                assert all(w == 0.0 for s, w in zip(frame, weights) if s in corners)

    def test_cache_hit_matches_fresh_solve(self, monkeypatch):
        box, moved = Box(1, 2, 9, 6), Box(4, 0, 9, 6)
        site, moved_site = (2, 3), (5, 1)
        rows, cols, weights = harmonic_measure(box, site)
        hit = harmonic_measure(moved, moved_site)
        assert hit[2] is weights
        monkeypatch.setattr(levelsim.gff.decompose, "_row_cache", {})
        fresh = harmonic_measure(moved, moved_site)
        assert fresh[2] is not weights
        for got in (hit, fresh):
            assert np.array_equal(got[0], rows + 3)
            assert np.array_equal(got[1], cols - 2)
            assert np.array_equal(got[2], weights)

    def test_site_outside_box_rejected(self):
        field = np.zeros((8, 8))
        with pytest.raises(ValueError, match="outside"):
            harmonic_at(field, Box(2, 2, 4, 4), (7, 7))
