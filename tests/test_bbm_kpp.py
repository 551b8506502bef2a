"""Exact Fisher-KPP laws of the branching diffusion against closed forms,
grid refinement and the Monte Carlo estimators."""

import math

import numpy as np
import pytest

from levelsim import tolerances as tol
from levelsim.bbm import (
    estimate_level_exponent,
    estimate_max_tail,
    expected_count_oracle,
    log_count_rate,
    max_tail_probability,
    solve_kpp,
)

TRUNC = tol.KPP_TRUNCATION
COARSE, FINE = tol.KPP_GRIDS


def profile(amplitude, t, ys, grid):
    return solve_kpp([amplitude], [(t, y) for y in ys], *grid, TRUNC)[:, 0]


class TestGrid:
    def test_fine_grid_halves_both_steps(self):
        assert FINE == (COARSE[0] / 2, COARSE[1] / 2)

    def test_halving_moves_rates_less_than_tolerance(self):
        t = 3.0
        decays = [
            -math.log(max_tail_probability([t], tol.MAX_TAIL_X, *g, TRUNC)[0]) / t
            for g in tol.KPP_GRIDS
        ]
        rates = [log_count_rate(t, tol.BIGGINS_X, *g, TRUNC) for g in tol.KPP_GRIDS]
        assert abs(decays[1] - decays[0]) < tol.KPP_GRID_TOL
        assert abs(rates[1] - rates[0]) < tol.KPP_GRID_TOL

    def test_query_times_share_one_solve(self):
        together = max_tail_probability([2.0, 3.0], 1.6, *COARSE, TRUNC)
        alone = max_tail_probability([3.0], 1.6, *COARSE, TRUNC)
        assert together[1] == pytest.approx(alone[0], rel=1e-12)
        assert together[0] > together[1]


class TestMaxLaw:
    @pytest.mark.parametrize("grid", tol.KPP_GRIDS)
    def test_below_first_moment_and_one_far_left(self, grid):
        t = 3.0
        ys = np.linspace(-8.0, tol.MAX_TAIL_X * t, 33)
        u = profile(1.0, t, ys, grid)
        bound = np.array([expected_count_oracle(t, y / t) for y in ys])
        assert np.all(u <= np.minimum(bound, 1.0))
        assert np.all(np.diff(u) < 0)
        assert u[0] > 1.0 - 1e-6


class TestCounts:
    @pytest.mark.parametrize("grid", tol.KPP_GRIDS)
    def test_small_amplitude_is_first_moment(self, grid):
        # w_a / a -> E N_t(y) as a -> 0; the grid error stays below the
        # rate tolerance over the slopes |y / t| <= MAX_TAIL_X solved
        t, a = 3.0, 1e-9
        ys = np.linspace(-tol.MAX_TAIL_X * t, tol.MAX_TAIL_X * t, 17)
        w = profile(a, t, ys, grid) / a
        mean = np.array([expected_count_oracle(t, y / t) for y in ys])
        assert np.max(np.abs(np.log(w / mean))) / t < tol.KPP_GRID_TOL

    def test_frullani_recovers_the_yule_law(self):
        # far below the origin N_t counts every particle, and the population
        # of the rate-1 binary branching process is geometric with p = e^-t
        t = 2.0
        p = math.exp(-t)
        n = np.arange(1, 4000)
        mean_log = float(np.sum(p * (1 - p) ** (n - 1) * np.log(n)))
        rate = log_count_rate(t, -6.0, *COARSE, TRUNC)
        assert rate == pytest.approx(mean_log / t, abs=3 * TRUNC / t)


class TestTinyHorizon:
    def test_margin_below_dy_still_brackets_every_query(self):
        # at t = 1e-6 the walls' margin is far below dy, so the grid must
        # still keep a node above the highest query point
        t, x = 1e-6, tol.BIGGINS_X
        for grid in tol.KPP_GRIDS:
            p = max_tail_probability([t], x, *grid, TRUNC)[0]
            assert p == pytest.approx(0.5, abs=1e-3)
            rate = log_count_rate(t, x, *grid, TRUNC)
            assert 0.0 < rate < 1.0


class TestAgainstMonteCarlo:
    def test_max_tail_at_t3(self):
        t, x, replicas = 3.0, tol.MAX_TAIL_X, 4000
        p = max_tail_probability([t], x, *FINE, TRUNC)[0]
        tail = estimate_max_tail(t, x, replicas, seed=17)
        stderr = math.sqrt(p * (1 - p) / replicas)
        assert abs(tail.estimate.mean - p) <= tol.MEAN_SIGMA * stderr

    def test_log_count_rate_at_t3(self):
        t, x = 3.0, tol.BIGGINS_X
        exact = log_count_rate(t, x, *FINE, TRUNC)
        level = estimate_level_exponent(t, x, replicas=400, seed=19)
        assert level.exponent.within(exact, tol.MEAN_SIGMA)


class TestHorizons:
    @staticmethod
    def first_horizon(x, band, step):
        # first multiple of the Monte Carlo horizon where the Gaussian-tail
        # prefactor log(x sqrt(2 pi t)) / t of E N(t, xt) is below half the band
        k = 1
        while math.log(x * math.sqrt(2 * math.pi * k * step)) / (k * step) >= band / 2:
            k += 1
        return k * step

    def test_long_horizons_follow_their_derivation(self):
        c4 = self.first_horizon(tol.BIGGINS_X, tol.BIGGINS_TOL, tol.BIGGINS_T)
        c5 = self.first_horizon(tol.MAX_TAIL_X, tol.MAX_TAIL_TOL, tol.MAX_TAIL_TS[-1])
        assert c4 == tol.KPP_BIGGINS_T
        assert c5 == tol.KPP_MAX_TAIL_T


class TestValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="amplitudes"):
            solve_kpp([0.0], [(1.0, 0.0)], *COARSE, TRUNC)
        with pytest.raises(ValueError, match="amplitudes"):
            solve_kpp([1.5], [(1.0, 0.0)], *COARSE, TRUNC)
        with pytest.raises(ValueError, match="query point"):
            solve_kpp([1.0], [], *COARSE, TRUNC)
        with pytest.raises(ValueError, match="positive"):
            solve_kpp([1.0], [(0.0, 0.0)], *COARSE, TRUNC)
        with pytest.raises(ValueError, match="grid steps"):
            solve_kpp([1.0], [(1.0, 0.0)], 0.0, 0.1, TRUNC)
        with pytest.raises(ValueError, match="truncation"):
            solve_kpp([1.0], [(1.0, 0.0)], *COARSE, 1.0)
        with pytest.raises(ValueError, match="truncation"):
            log_count_rate(1.0, 0.5, *COARSE, 0.5)
