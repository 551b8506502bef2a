"""Closed-form rate functions against their grid-search certification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelsim import rates

SQRT2 = math.sqrt(2.0)


class TestPsi:
    def test_critical_speed_is_root(self):
        assert rates.psi(SQRT2) == pytest.approx(0.0, abs=1e-15)

    def test_direct_values(self):
        assert rates.psi(2.0) == pytest.approx(1.0)
        assert rates.psi(1.6) == pytest.approx(0.28)

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            rates.psi(0.0)
        with pytest.raises(ValueError):
            rates.psi(-1.0)


class TestRateI:
    def test_lower_boundary_is_zero_below_critical(self):
        for x in (0.3, 0.9, 1.4):
            a = 1.0 - 0.5 * x * x
            assert rates.rate_i(a, x) == pytest.approx(0.0, abs=1e-12)

    def test_anchor_value(self):
        assert rates.rate_i(0.75, 1.0) == pytest.approx(1.0)

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            rates.rate_i(0.2, 1.0)  # below 1 - x^2/2 = 0.5
        with pytest.raises(ValueError):
            rates.rate_i(1.0, 1.0)
        with pytest.raises(ValueError):
            rates.rate_i(0.5, 0.0)


class TestRateJ:
    def test_lower_boundary_is_zero(self):
        for eta in (0.2, 0.5, 0.9):
            assert rates.rate_j(1.0 - eta * eta, eta) == pytest.approx(0.0, abs=1e-12)

    def test_anchor_value(self):
        assert rates.rate_j(0.8, 0.6) == pytest.approx(1.6)

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            rates.rate_j(0.5, 0.6)  # below 1 - eta^2 = 0.64
        with pytest.raises(ValueError):
            rates.rate_j(1.0, 0.6)
        with pytest.raises(ValueError):
            rates.rate_j(0.9, 1.0)

    @given(st.floats(0.05, 0.95), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_steepness_identity(self, eta, u):
        # the level rate is twice the particle rate at sqrt(2) times the level
        lower = 1.0 - eta * eta
        a = lower + u * (1.0 - lower) * 0.98
        assert rates.rate_j(a, eta) == pytest.approx(
            2.0 * rates.rate_i(a, SQRT2 * eta), abs=1e-12
        )


class TestBbmVariational:
    def test_anchor_maximizer(self):
        sol = rates.solve_bbm_variational(0.75, 1.0)
        assert sol.maximizer[0] == pytest.approx(1.0 / 7.0, abs=1e-14)
        assert sol.maximizer[1] == pytest.approx(4.0 / 7.0, abs=1e-14)
        assert sol.value == pytest.approx(-1.0, abs=1e-14)
        assert sol.constraint_residual < 1e-12

    def test_substitution_confirms_anchor(self):
        sol = rates.solve_bbm_variational(0.75, 1.0)
        s, y = sol.maximizer
        assert (1.0 - s) - (1.0 - y) ** 2 / (2.0 * (1.0 - s)) == pytest.approx(0.75)
        assert s - y * y / (2.0 * s) == pytest.approx(sol.value)

    def test_value_is_minus_rate(self):
        for a, x in ((0.6, 1.2), (0.3, 1.9), (0.9, 0.7)):
            sol = rates.solve_bbm_variational(a, x)
            assert sol.value == pytest.approx(-rates.rate_i(a, x), abs=1e-12)

    def test_degenerate_boundary_rejected(self):
        x = 1.0
        with pytest.raises(ValueError):
            rates.solve_bbm_variational(1.0 - 0.5 * x * x, x)

    @pytest.mark.parametrize("x", [3.0, 1.5])
    def test_boundary_above_critical_speed_rejected(self, x):
        # above sqrt(2) the lower end of a is 0, where s* degenerates to 1
        assert rates.rate_i(0.0, x) == pytest.approx(0.5 * x * x - 1.0)
        with pytest.raises(ValueError, match="domain boundary"):
            rates.solve_bbm_variational(0.0, x)


class TestGffVariational:
    def test_anchor_maximizer(self):
        sol = rates.solve_gff_variational(0.6, 0.8)
        assert sol.maximizer == pytest.approx((0.9, 0.3, 0.6), abs=1e-14)
        assert sol.value == pytest.approx(-0.8, abs=1e-14)
        assert sol.constraint_residual < 1e-12

    @given(st.floats(0.1, 0.9), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_value_and_maximizer_structure(self, eta, u):
        lower = 1.0 - eta * eta
        a = lower + (0.02 + 0.96 * u) * (1.0 - lower)
        sol = rates.solve_gff_variational(eta, a)
        # profile height equals the level, value is half the rate
        assert sol.maximizer[2] == eta
        assert sol.value == pytest.approx(
            -0.5 * rates.rate_j(a, eta), rel=1e-10, abs=1e-12
        )
        s, b, y = sol.maximizer
        assert sol.constraint_residual < 1e-9
        assert 0.0 < s < 1.0

    def test_degenerate_boundary_rejected(self):
        with pytest.raises(ValueError):
            rates.solve_gff_variational(0.6, 1.0 - 0.36)


class TestGridCertify:
    def test_certifies_bbm_anchor(self):
        cert = rates.certify_bbm(0.75, 1.0)
        assert cert.value == pytest.approx(-1.0, abs=1e-6)
        assert cert.constraint_residual < 1e-9

    def test_certifies_gff_anchor(self):
        cert = rates.certify_gff(0.6, 0.8)
        assert cert.value == pytest.approx(-0.8, abs=1e-6)
        assert cert.constraint_residual < 1e-9

    def test_matches_closed_forms_on_random_queries(self):
        rng = np.random.default_rng(20240817)
        for _ in range(25):
            x = rng.uniform(0.1, 2.0)
            a_min = max(0.0, 1.0 - 0.5 * x * x)
            a = a_min + rng.uniform(0.02, 0.98) * (1.0 - a_min)
            closed = rates.solve_bbm_variational(a, x)
            cert = rates.certify_bbm(a, x)
            assert abs(closed.value - cert.value) < 1e-6
        for _ in range(25):
            eta = rng.uniform(0.1, 0.95)
            lower = 1.0 - eta * eta
            a = lower + rng.uniform(0.02, 0.98) * (1.0 - lower)
            closed = rates.solve_gff_variational(eta, a)
            cert = rates.certify_gff(eta, a)
            assert abs(closed.value - cert.value) < 1e-6

    def test_infeasible_problem_raises(self):
        with pytest.raises(ValueError, match="no feasible grid point"):
            rates._grid_max(lambda s: np.full(s.shape, -np.inf), 0.0, 1.0)

    def test_certificates_check_the_domain(self):
        with pytest.raises(ValueError):
            rates.certify_bbm(0.2, 1.0)  # below 1 - x^2/2 = 0.5
        with pytest.raises(ValueError):
            rates.certify_gff(0.6, 0.5)  # below 1 - eta^2 = 0.64
