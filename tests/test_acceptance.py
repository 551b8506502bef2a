"""Acceptance suite: the thirteen shipped checks at full workload.

Each criterion drives the same pipeline the command line ships, asserts the
declared tolerances from levelsim.tolerances, enforces its runtime budget,
and prints one PASS/FAIL line (straight to the real stdout so the lines
survive pytest's capture).

Criteria 3, 4 and 5 share one pipeline run, as do 7 and 8; the shared
wall-clock is asserted against each criterion's own budget, which is
stricter than splitting it. The growth-exponent and max-tail criteria (C4,
C5) hold the simulated process to its exact law: every Monte Carlo point
must agree, in standard errors, with the Fisher-KPP value at its own
horizon, and the limit bands are asserted on the exact rates at the long
horizons declared in tolerances.py, whose grid-convergence check must pass
as well.
"""

import sys
import time

import pytest

from levelsim import mc, pipelines, tolerances as tol
from levelsim.reports import render_report

pytestmark = pytest.mark.acceptance

RATES_SEED = 7
GW_SEED = 11
GFF_COV_SEED = 21
NBBM_SEED = 31
COARSE_SEED = 41
DECOMP_SEED = 51
DAVIAUD_SEED = 61
BBM_SEED = 71


@pytest.fixture(scope="session")
def announce(pytestconfig):
    # bypass output capture so the per-criterion verdicts always reach the
    # terminal, not just on failure
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def emit(number: int, ok: bool, detail: str) -> None:
        line = (
            f"C{number:02d} {'PASS' if ok else 'FAIL'} "
            f"{tol.CHECK_NAMES[number]} | {detail}"
        )
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, file=sys.stdout, flush=True)
        else:
            print(line, file=sys.__stdout__, flush=True)

    return emit


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    report = fn(*args, **kwargs)
    return report, time.perf_counter() - start


def named(report, name):
    matches = [c for c in report.checks if c.name == name]
    assert matches, f"report has no check named {name!r}"
    return matches[0]


def row(report, name):
    matches = [e for e in report.estimates if e["name"] == name]
    assert matches, f"report has no estimate named {name!r}"
    return matches[0]


@pytest.fixture(scope="session")
def rates_run():
    return timed(pipelines.run_rates, RATES_SEED)


@pytest.fixture(scope="session")
def gw_run():
    return timed(pipelines.run_gw_verify, GW_SEED)


@pytest.fixture(scope="session")
def bbm_run():
    return timed(pipelines.run_bbm_exponents, BBM_SEED)


@pytest.fixture(scope="session")
def nbbm_run():
    return timed(pipelines.run_nbbm, NBBM_SEED)


@pytest.fixture(scope="session")
def cov_run():
    return timed(pipelines.run_gff_cov, GFF_COV_SEED)


@pytest.fixture(scope="session")
def daviaud_run():
    return timed(pipelines.run_daviaud, DAVIAUD_SEED)


@pytest.fixture(scope="session")
def cover_run():
    return timed(pipelines.run_cover_check)


@pytest.fixture(scope="session")
def decomp_run():
    return timed(pipelines.run_decompose_var, DECOMP_SEED)


@pytest.fixture(scope="session")
def coarse_run():
    return timed(pipelines.run_coarse_tail, COARSE_SEED)


def test_c01_rate_certification(rates_run, announce):
    report, elapsed = rates_run
    gap = named(report, "certification_gap")
    residual = named(report, "constraint_residual")
    ok = report.passed and elapsed < 10.0
    announce(
        1,
        ok,
        f"worst gap {gap.value:.2e} <= {tol.RATE_VALUE_TOL:g} over "
        f"{2 * tol.RATE_QUERIES} queries, residuals {residual.value:.2e} <= "
        f"{tol.RATE_RESIDUAL_TOL:g} | {elapsed:.1f}s < 10s",
    )
    assert gap.passed, gap.detail
    assert residual.passed
    assert named(report, "anchor_points").passed
    assert named(report, "steepness_identity").passed
    assert elapsed < 10.0


def test_c02_branching_bound_sweep(gw_run, announce):
    report, elapsed = gw_run
    sweep = named(report, "bound_never_violated")
    exact = named(report, "exact_cases_within_bound")
    ok = report.passed and elapsed < 120.0
    announce(
        2,
        ok,
        f"{len(report.estimates)} configurations x {tol.GW_SWEEP_REPLICAS} "
        f"replicas, {sweep.detail}; exact cases exact-within-bound: "
        f"{exact.passed} | {elapsed:.1f}s < 2min",
    )
    assert len(report.estimates) == 20
    assert sweep.passed, sweep.detail
    assert exact.passed, exact.detail
    assert named(report, "integer_recursion_anchor").passed
    assert elapsed < 120.0


def test_c03_first_moments(bbm_run, announce):
    report, elapsed = bbm_run
    checks = [named(report, "population_mean")] + [
        named(report, f"level_count_mean_x{x}") for x in tol.BBM_COUNT_XS
    ]
    ok = all(c.passed for c in checks) and elapsed < 300.0
    announce(
        3,
        ok,
        f"population at t={tol.BBM_MEAN_T:g} and counts at t={tol.BBM_COUNT_T:g}, "
        f"x in {list(tol.BBM_COUNT_XS)}, all within {tol.MEAN_SIGMA:g} stderr "
        f"| shared pipeline {elapsed:.1f}s < 5min",
    )
    for check in checks:
        assert check.passed, f"{check.name}: {check.detail}"
    assert elapsed < 300.0


def test_c04_growth_exponent(bbm_run, announce):
    report, elapsed = bbm_run
    finite = named(report, f"level_exponent_t{tol.BIGGINS_T:g}")
    grid = named(report, "level_exponent_grid")
    check = named(report, "level_exponent")
    z = row(report, "level_exponent")["z"]
    ok = finite.passed and grid.passed and check.passed and elapsed < 600.0
    announce(
        4,
        ok,
        f"exact rate {check.value:.4f} at t={tol.KPP_BIGGINS_T:g} vs "
        f"{check.target:g} +/- {check.tolerance:g}, grid delta {grid.value:.1e} "
        f"<= {grid.target:g}; Monte Carlo {finite.value:.4f} vs exact "
        f"{finite.target:.4f} at t={tol.BIGGINS_T:g}, z={z:+.2f} "
        f"({tol.BIGGINS_REPLICAS} replicas) | shared pipeline {elapsed:.1f}s < 10min",
    )
    assert elapsed < 600.0
    assert finite.passed, finite.detail
    assert grid.passed, grid.detail
    assert check.passed, check.detail


def test_c05_max_tail_decay(bbm_run, announce):
    report, elapsed = bbm_run
    points = [named(report, f"max_tail_t{t:g}") for t in tol.MAX_TAIL_TS]
    trend = named(report, "max_tail_trend")
    grid = named(report, "max_tail_grid")
    decay = named(report, "max_tail_decay")
    zs = ", ".join(
        f"t={t:g} z={row(report, f'max_tail_t{t:g}')['z']:+.2f}"
        for t in tol.MAX_TAIL_TS
    )
    ok = (
        all(p.passed for p in points)
        and trend.passed
        and grid.passed
        and decay.passed
        and elapsed < 900.0
    )
    announce(
        5,
        ok,
        f"exact decay {decay.value:.4f} at t={tol.KPP_MAX_TAIL_T:g} vs "
        f"{decay.target:g} +/- {decay.tolerance:g}, grid delta {grid.value:.1e} "
        f"<= {grid.target:g}; Monte Carlo vs exact P(max >= {tol.MAX_TAIL_X:g} t): "
        f"{zs}; {trend.detail} | shared pipeline {elapsed:.1f}s < 15min",
    )
    assert elapsed < 900.0
    for point in points:
        assert point.passed, f"{point.name}: {point.detail}"
    assert trend.passed, trend.detail
    assert grid.passed, grid.detail
    assert decay.passed, decay.detail


def test_c06_capped_dominance(nbbm_run, announce):
    report, elapsed = nbbm_run
    checks = [named(report, f"dominance_cap{cap}") for cap in tol.NBBM_CAPS]
    ok = all(c.passed for c in checks) and elapsed < 300.0
    announce(
        6,
        ok,
        f"caps {list(tol.NBBM_CAPS)} x {tol.NBBM_REPLICAS} coupled replicas at "
        f"t={tol.NBBM_T:g}, exact pathwise | {elapsed:.1f}s < 5min",
    )
    for check in checks:
        assert check.passed, check.detail
    assert elapsed < 300.0


def test_c07_sampler_exactness(cov_run, announce):
    report, elapsed = cov_run
    cov = named(report, "covariance_max_z")
    ks = named(report, "backends_agree_ks")
    ok = cov.passed and ks.passed and elapsed < 300.0
    announce(
        7,
        ok,
        f"max |z| {cov.value:.2f} <= {tol.COV_SIGMA:g} over {tol.COV_PAIRS} "
        f"entries at N={tol.COV_GRID_N}; {ks.detail} | shared pipeline "
        f"{elapsed:.1f}s < 5min",
    )
    assert cov.passed, cov.detail
    assert ks.passed, ks.detail
    assert elapsed < 300.0


def test_c08_green_growth(cov_run, announce):
    report, elapsed = cov_run
    slope = named(report, "green_diagonal_slope")
    ok = slope.passed and elapsed < 120.0
    announce(
        8,
        ok,
        f"slope {slope.value:.4f} within {tol.GREEN_SLOPE_REL_TOL:.0%} of 2/pi "
        f"= {slope.target:.4f} over N in {list(tol.GREEN_SIZES)} "
        f"| shared pipeline {elapsed:.1f}s < 2min",
    )
    assert slope.passed, slope.detail
    assert elapsed < 120.0


def test_c09_level_set_exponents(daviaud_run, announce):
    report, elapsed = daviaud_run
    mean = named(report, f"mean_count_n{tol.DAVIAUD_MEAN_N}")
    trend = named(report, "exponent_increasing")
    final = named(report, f"exponent_n{tol.DAVIAUD_SIZES[-1]}")
    ok = mean.passed and trend.passed and final.passed and elapsed < 1200.0
    announce(
        9,
        ok,
        f"mean at N={tol.DAVIAUD_MEAN_N} within {tol.MEAN_SIGMA:g} stderr; "
        f"{trend.detail}; final {final.value:.4f} vs {final.target:g} "
        f"+/- {final.tolerance:g} | {elapsed:.1f}s < 20min",
    )
    assert mean.passed, mean.detail
    assert trend.passed, trend.detail
    assert final.passed, final.detail
    assert elapsed < 1200.0


def test_c10_partition_geometry(cover_run, announce):
    report, elapsed = cover_run
    ok = report.passed and elapsed < 60.0
    cases = ", ".join(f"(N={n}, L={l})" for n, l in tol.COVER_CASES)
    announce(
        10,
        ok,
        f"margin rule exhaustive at N={tol.GEOMETRY_N}; covers point-by-point "
        f"and counting exact at {cases} | {elapsed:.1f}s < 1min",
    )
    for check in report.checks:
        assert check.passed, f"{check.name}: {check.detail}"
    assert elapsed < 60.0


def test_c11_decomposition_variance(decomp_run, announce):
    report, elapsed = decomp_run
    var = named(report, "pooled_increment_variance")
    oracle = named(report, "increment_variance_oracle")
    harmonic = named(report, "mean_value_deviation")
    corr = named(report, "residual_boundary_correlation")
    ok = report.passed and elapsed < 600.0
    announce(
        11,
        ok,
        f"pooled var {var.value:.4f} within {tol.DECOMP_VAR_REL_TOL:.0%} of "
        f"{var.target:.4f} at N={tol.DECOMP_N}; mean-value dev {harmonic.value:.1e}; "
        f"max boundary corr {corr.value:.4f} <= {corr.target:.4f} "
        f"| {elapsed:.1f}s < 10min",
    )
    assert var.passed, var.detail
    assert oracle.passed, oracle.detail
    assert harmonic.passed, harmonic.detail
    assert corr.passed, corr.detail
    assert elapsed < 600.0


def test_c12_coarse_tail_probe(coarse_run, announce):
    report, elapsed = coarse_run
    gate = named(report, "proximity_or_trend")
    ok = gate.passed and elapsed < 1800.0
    announce(
        12,
        ok,
        f"zeta={tol.COARSE_ZETA:g}, b={tol.COARSE_B:g}, N in "
        f"{list(tol.COARSE_SIZES)} x {tol.COARSE_REPLICAS} replicas; "
        f"{gate.detail} | {elapsed:.1f}s < 30min",
    )
    assert gate.passed, gate.detail
    assert elapsed < 1800.0


def test_c13_determinism(
    rates_run,
    gw_run,
    bbm_run,
    nbbm_run,
    cov_run,
    daviaud_run,
    cover_run,
    decomp_run,
    coarse_run,
    announce,
    monkeypatch,
):
    # the rerun sees DETERMINISM_CONCURRENCY usable CPUs, so the BLAS-bound
    # threshold maps run on that many threads where the BLAS pin took
    conc = tol.DETERMINISM_CONCURRENCY
    monkeypatch.setattr(mc, "_usable_cpus", lambda: conc)
    reruns = {
        "rates": (rates_run[0], pipelines.run_rates(RATES_SEED)),
        "gw-verify": (gw_run[0], pipelines.run_gw_verify(GW_SEED)),
        "bbm-exponents": (bbm_run[0], pipelines.run_bbm_exponents(BBM_SEED)),
        "nbbm": (nbbm_run[0], pipelines.run_nbbm(NBBM_SEED)),
        "gff-cov": (cov_run[0], pipelines.run_gff_cov(GFF_COV_SEED)),
        "daviaud": (daviaud_run[0], pipelines.run_daviaud(DAVIAUD_SEED)),
        "cover-check": (cover_run[0], pipelines.run_cover_check()),
        "decompose-var": (decomp_run[0], pipelines.run_decompose_var(DECOMP_SEED)),
        "coarse-tail": (coarse_run[0], pipelines.run_coarse_tail(COARSE_SEED)),
    }
    mismatched = [
        name
        for name, (base, redo) in sorted(reruns.items())
        if render_report(base, "json") != render_report(redo, "json")
        or render_report(base, "csv") != render_report(redo, "csv")
    ]
    ok = not mismatched
    announce(
        13,
        ok,
        f"{len(reruns)} pipelines re-run with {conc} usable CPUs "
        f"(threshold maps on {conc if mc._BLAS_PINNED else 1} threads), json and "
        f"csv byte-compared; mismatches: {mismatched if mismatched else 'none'}",
    )
    assert not mismatched
