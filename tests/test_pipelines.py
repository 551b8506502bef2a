"""Pipeline smoke runs at reduced workloads.

Full-budget behavior is covered by the acceptance suite; here each pipeline
runs small enough for quick iteration while still exercising report
structure, determinism, and the check wiring.
"""

import importlib.resources
import json

import jsonschema
import numpy as np
import pytest

from levelsim import pipelines, tolerances as tol
from levelsim.gff import harmonic_measure
from levelsim.reports import render_report


def check_by_name(report, name):
    match = [c for c in report.checks if c.name == name]
    assert len(match) == 1, f"missing check {name}"
    return match[0]


class TestRatePoint:
    def test_particle_family_anchor(self):
        report = pipelines.run_rate_point(a=0.75, x=1.0)
        assert report.passed
        rows = {e["name"]: e for e in report.estimates}
        assert rows["psi"]["value"] == pytest.approx(-0.5)
        rate = rows["particle_rate"]
        assert rate["value"] == pytest.approx(1.0)
        assert rate["maximizer_s"] == pytest.approx(1.0 / 7.0)
        assert rate["maximizer_y"] == pytest.approx(4.0 / 7.0)

    def test_level_family_anchor(self):
        report = pipelines.run_rate_point(a=0.8, eta=0.6)
        assert report.passed
        rows = {e["name"]: e for e in report.estimates}
        level = rows["level_rate"]
        assert level["value"] == pytest.approx(1.6)
        assert level["maximizer_s"] == pytest.approx(0.9)
        assert level["maximizer_b"] == pytest.approx(0.3)
        assert level["maximizer_y"] == pytest.approx(0.6)

    def test_x_alone_reports_profile_only(self):
        report = pipelines.run_rate_point(x=1.2)
        assert [e["name"] for e in report.estimates] == ["psi"]
        assert report.checks == ()

    def test_rejects_empty_and_partial_queries(self):
        with pytest.raises(ValueError, match="needs x"):
            pipelines.run_rate_point(a=0.5)
        with pytest.raises(ValueError, match="alongside eta"):
            pipelines.run_rate_point(eta=0.5)


class TestRates:
    def test_small_sweep_passes(self):
        report = pipelines.run_rates(seed=7, queries=5)
        assert report.subcommand == "rates"
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == [
            "certification_gap",
            "constraint_residual",
            "anchor_points",
            "steepness_identity",
        ]
        assert report.inputs == {"seed": 7, "queries": 5}


class TestGwVerify:
    def test_sweep_structure(self):
        report = pipelines.run_gw_verify(seed=11, replicas=200)
        assert report.passed
        assert len(report.estimates) == 20
        exact_rows = [e for e in report.estimates if e["exact"] is not None]
        assert exact_rows, "two-generation exact cases expected"
        for row in exact_rows:
            assert row["exact"] <= row["bound"] + 1e-12
        anchor = check_by_name(report, "integer_recursion_anchor")
        assert anchor.passed


class TestCoverCheck:
    def test_default_cases_pass_and_are_deterministic(self):
        report = pipelines.run_cover_check()
        assert report.passed
        names = [c.name for c in report.checks]
        assert f"margin_rule_n{tol.GEOMETRY_N}" in names
        for n, levels in tol.COVER_CASES:
            assert f"counting_n{n}_L{levels}" in names
            assert f"cover_n{n}_L{levels}" in names
        again = pipelines.run_cover_check()
        assert render_report(report, "json") == render_report(again, "json")

    def test_explicit_grid(self):
        report = pipelines.run_cover_check(grid_n=64)
        assert report.passed
        assert report.inputs["cases"] == [[64, 1], [64, 2]]


class TestGffCov:
    def test_small_grid_passes(self):
        report = pipelines.run_gff_cov(seed=21, grid_n=16, samples=2000)
        assert report.passed
        assert report.inputs["samples"] == 2000
        z = check_by_name(report, "covariance_max_z")
        assert z.value <= tol.COV_SIGMA
        slope = check_by_name(report, "green_diagonal_slope")
        assert slope.target == pytest.approx(2.0 / 3.141592653589793)


class TestCoarseTail:
    def test_single_size_uses_abs_check(self):
        report = pipelines.run_coarse_tail(
            seed=41, zeta=0.0, b=0.9, sizes=(32,), replicas=4000
        )
        assert len(report.checks) == 1
        check = report.checks[0]
        assert check.name == "exponent_n32"
        assert check.kind == "abs"
        assert check.target == pytest.approx(2.0 * (0.81 - 1.0))

    def test_two_sizes_use_trend_gate(self):
        report = pipelines.run_coarse_tail(
            seed=41, zeta=0.0, b=0.9, sizes=(16, 32), replicas=2000
        )
        assert [c.name for c in report.checks] == ["proximity_or_trend"]

    def test_rounding_flip_bound_only_on_the_float32_route(self):
        flat = pipelines.run_coarse_tail(
            seed=41, zeta=0.0, b=0.9, sizes=(32,), replicas=100
        )
        assert all(e["rounding_flip_bound"] > 0.0 for e in flat.estimates)
        boxes = pipelines.run_coarse_tail(
            seed=41, zeta=0.5, b=0.3, sizes=(32,), replicas=40
        )
        assert all("rounding_flip_bound" not in e for e in boxes.estimates)


class TestDaviaud:
    def test_tiny_run_structure(self):
        report = pipelines.run_daviaud(
            seed=61, eta=0.3, sizes=(32, 64), replicas=30
        )
        names = [c.name for c in report.checks]
        assert "exponent_increasing" in names
        assert "exponent_n64" in names
        assert f"mean_count_n{tol.DAVIAUD_MEAN_N}" not in names
        fit = [e for e in report.estimates if e["name"] == "exponent_fit_slope"]
        assert len(fit) == 1
        counts = [e for e in report.estimates if e["name"].startswith("count_n")]
        assert all(e["rounding_flip_bound"] > 0.0 for e in counts)

    def test_mean_check_appears_when_reference_size_run(self):
        report = pipelines.run_daviaud(
            seed=61, eta=0.3, sizes=(64, tol.DAVIAUD_MEAN_N), replicas=40
        )
        mean_check = check_by_name(report, f"mean_count_n{tol.DAVIAUD_MEAN_N}")
        assert mean_check.kind == "sigma"
        assert mean_check.passed


class TestDecomposeVar:
    def test_oracle_check_at_small_budget(self):
        report = pipelines.run_decompose_var(seed=51, grid_n=64, samples=100)
        # the closed-form anchor needs the full grid; the exact-Green oracle
        # and the deterministic checks must hold even at this tiny budget
        assert check_by_name(report, "increment_variance_oracle").passed
        assert check_by_name(report, "mean_value_deviation").passed
        assert check_by_name(report, "residual_boundary_correlation").passed
        assert report.inputs["samples"] == 100

    def test_root_window_reads_the_same_sites_as_whole_fields(self, monkeypatch):
        # the run samples only the partition's root box, in that window's
        # coordinates; a reference that slices whole fields must give the same
        # estimates, and those must be the ones read off the whole fields in
        # grid coordinates, so a slip in the window's translation cannot pass
        grid_n = 64
        windowed = pipelines.run_decompose_var(seed=51, grid_n=grid_n, samples=100)
        parts = pipelines.nested_partitions(
            grid_n, pipelines.uniform_schedule(grid_n, delta=tol.SCHEDULE_DELTA)
        )
        drawn = []

        def whole_fields(grid_n, box, count, rng):
            assert box == parts.levels[0][0]
            drawn.append(pipelines.sample_fields(grid_n, count, rng))
            return drawn[-1][(slice(None), *box.slices())]

        monkeypatch.setattr(pipelines, "sample_box", whole_fields)
        reference = pipelines.run_decompose_var(seed=51, grid_n=grid_n, samples=100)
        assert len(windowed.estimates) == len(reference.estimates)
        for got, want in zip(windowed.estimates, reference.estimates):
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), (want["name"], key)

        fields = np.concatenate(drawn[:-1])  # the last call draws the first field
        increments = []
        for lvl in range(parts.depth):
            for j, child_idx in enumerate(parts.children[lvl]):
                for k in child_idx:
                    child = parts.levels[lvl + 1][k]
                    site = child.center()
                    cr, cc, cw = harmonic_measure(child, site)
                    pr, pc, pw = harmonic_measure(parts.levels[lvl][j], site)
                    increments.append(fields[:, cr, cc] @ cw - fields[:, pr, pc] @ pw)
        corr_box = parts.levels[1][0]
        (r, c), (hr, hc, hw) = corr_box.center(), harmonic_measure(corr_box, corr_box.center())
        boundary = fields[:, hr, hc] - fields[:, hr, hc].mean(axis=0)
        residual = fields[:, r, c] - fields[:, hr, hc] @ hw
        residual -= residual.mean()
        corr = (residual @ boundary) / np.sqrt(
            np.maximum((residual @ residual) * (boundary * boundary).sum(axis=0), 1e-300)
        )
        rows = {e["name"]: e for e in windowed.estimates}
        pooled = float(np.column_stack(increments).var(ddof=1))
        assert rows["pooled_increment_variance"]["value"] == pytest.approx(pooled, rel=1e-12)
        max_corr = float(np.max(np.abs(corr)))
        assert rows["max_boundary_correlation"]["value"] == pytest.approx(max_corr, rel=1e-12)


class TestBbmExponents:
    def test_small_run_carries_exact_checks(self, monkeypatch):
        for name, value in (
            ("BBM_MEAN_REPLICAS", 50),
            ("BBM_COUNT_REPLICAS", 50),
            ("MAX_TAIL_TS", (2.0, 3.0)),
            ("MAX_TAIL_REPLICAS", 400),
            ("KPP_BIGGINS_T", 6.0),
            ("KPP_MAX_TAIL_T", 6.0),
        ):
            monkeypatch.setattr(tol, name, value)
        report = pipelines.run_bbm_exponents(
            seed=71, biggins_t=3.0, biggins_replicas=100
        )
        assert [c.name for c in report.checks][3:] == [
            "level_exponent_t3",
            "level_exponent_grid",
            "level_exponent",
            "max_tail_t2",
            "max_tail_t3",
            "max_tail_trend",
            "max_tail_grid",
            "max_tail_decay",
        ]
        for name in ("level_exponent_t3", "max_tail_t2", "max_tail_t3"):
            assert check_by_name(report, name).kind == "sigma"
        assert check_by_name(report, "level_exponent_grid").passed
        assert check_by_name(report, "max_tail_grid").passed
        rows = {e["name"]: e for e in report.estimates}
        assert rows["level_exponent_exact"]["t"] == 6.0
        assert rows["max_tail_decay_exact"]["t"] == 6.0
        assert check_by_name(report, "max_tail_decay").value == pytest.approx(
            rows["max_tail_decay_exact"]["value"]
        )
        for name in ("level_exponent", "max_tail_t2", "max_tail_t3"):
            assert 0 < rows[name]["exact"] and rows[name]["z"] is not None
        schema = json.loads(
            importlib.resources.files("levelsim")
            .joinpath("report_schema.json")
            .read_text()
        )
        jsonschema.validate(json.loads(render_report(report, "json")), schema)

    def test_unresolved_horizon_is_refused_before_any_draw(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("sampling started below KPP_MIN_T")

        monkeypatch.setattr(pipelines, "replica_counts", never)
        with pytest.raises(ValueError, match="at least"):
            pipelines.run_bbm_exponents(seed=1, biggins_t=0.5 * tol.KPP_MIN_T)


class TestNbbm:
    def test_dominance_small_sweep(self, monkeypatch):
        monkeypatch.setattr(tol, "NBBM_CAPS", (5,))
        report = pipelines.run_nbbm(seed=31, t=3.0, replicas=40)
        assert report.passed
        check = check_by_name(report, "dominance_cap5")
        assert "0 violations" in check.detail


class TestDeterminism:
    def test_reports_are_json_clean(self):
        report = pipelines.run_rates(seed=7, queries=3)
        doc = json.loads(render_report(report, "json"))
        assert doc["subcommand"] == "rates"
        assert doc["passed"] is True
