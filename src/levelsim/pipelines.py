"""End-to-end experiment pipelines behind the command-line verbs.

Each run_* function executes one shipped check at its declared workload
(see tolerances.py), wires estimates against their analytic anchors, and
returns a Report. Results are a pure function of the seed: replica streams
are derived per stage, aggregation is replica-ordered, and the thread count
a map runs on never enters the document.
"""

from __future__ import annotations

import math

import numpy as np

from . import gw, mc, rates, tolerances as tol
from .bbm import (
    check_nbbm_dominance,
    estimate_level_exponent,
    estimate_max_tail,
    expected_count_oracle,
    log_count_rate,
    max_tail_probability,
    refuse_doomed_horizon,
    replica_counts,
    sample_positions,  # kept for perfbench/spans.py, which rebinds it here
)
from .gff import (
    GAMMA,
    Box,
    CoverConstructionError,
    GreenOperator,
    coarse_exceedance_probe,
    counting_check,
    dirichlet_extend,
    estimate_daviaud_exponent,
    expected_level_count,
    harmonic_measure,
    nested_partitions,
    sample_box,
    sample_box_bytes,
    sample_fields,
    sample_sites,
    shift_cover,
    uniform_schedule,
)
from .gff.sample import _fill_memo
from .reports import (
    Check,
    Report,
    abs_check,
    bound_check,
    flag_check,
    rel_check,
    sigma_check,
)

__all__ = [
    "run_rates",
    "run_rate_point",
    "run_gw_verify",
    "run_bbm_exponents",
    "run_nbbm",
    "run_gff_cov",
    "run_daviaud",
    "run_cover_check",
    "run_decompose_var",
    "run_coarse_tail",
]


def _estimate_row(name: str, est: mc.Estimate, **extras) -> dict:
    row = {
        "name": name,
        "value": est.mean,
        "stderr": est.stderr,
        "replicas": est.replicas,
        "zero_count": est.zero_count,
    }
    row.update(extras)
    return row


# ---------------------------------------------------------------------------
# rates: closed forms vs grid certification


# Each family's closed form and its independent grid certificate.
_PARTICLE = (rates.solve_bbm_variational, rates.certify_bbm)
_LEVEL = (rates.solve_gff_variational, rates.certify_gff)


def _certify(family, *query: float) -> tuple[rates.VariationalSolution, float, float]:
    """Certify one family at one query.

    Returns the closed form, the gap between its supremum and the grid
    certificate's, and the worse of their two constraint residuals.
    """
    solve, certify = family
    closed, cert = solve(*query), certify(*query)
    gap = abs(closed.value - cert.value)
    return closed, gap, max(closed.constraint_residual, cert.constraint_residual)


def _certification_checks(
    gap: float, residual: float, detail: str = ""
) -> tuple[Check, Check]:
    """The certification_gap and constraint_residual checks of a rates report."""
    return (
        bound_check(
            "certification_gap",
            gap,
            tol.RATE_VALUE_TOL,
            anchor="closed-form supremum value",
            detail=detail,
        ),
        bound_check(
            "constraint_residual",
            residual,
            tol.RATE_RESIDUAL_TOL,
            anchor="active growth constraint at the maximizer",
        ),
    )


def run_rates(seed: int, queries: int = tol.RATE_QUERIES) -> Report:
    """Certify both closed-form rate functions against the grid oracle."""
    rng = mc.replica_rng(seed, 0)
    max_gap_i = 0.0
    max_gap_j = 0.0
    max_residual = 0.0
    max_identity_gap = 0.0

    for _ in range(queries):
        x = rng.uniform(0.1, 2.0)
        a_min = max(0.0, 1.0 - 0.5 * x * x)
        a = a_min + rng.uniform(0.02, 0.98) * (1.0 - a_min)
        closed, gap, residual = _certify(_PARTICLE, a, x)
        max_gap_i = max(max_gap_i, gap, abs(closed.value + rates.rate_i(a, x)))
        max_residual = max(max_residual, residual)

    for _ in range(queries):
        eta = rng.uniform(0.1, 0.95)
        lower = 1.0 - eta * eta
        a = lower + rng.uniform(0.02, 0.98) * (1.0 - lower)
        closed, gap, residual = _certify(_LEVEL, eta, a)
        max_gap_j = max(max_gap_j, gap, abs(closed.value + 0.5 * rates.rate_j(a, eta)))
        max_residual = max(max_residual, residual)
        # the two families meet where the profile steepness doubles the speed
        max_identity_gap = max(
            max_identity_gap,
            abs(rates.rate_j(a, eta) - 2.0 * rates.rate_i(a, math.sqrt(2.0) * eta)),
        )

    bbm_anchor = rates.solve_bbm_variational(0.75, 1.0)
    gff_anchor = rates.solve_gff_variational(0.6, 0.8)
    anchor_gaps = (
        bbm_anchor.value + 1.0,
        bbm_anchor.maximizer[0] - 1.0 / 7.0,
        bbm_anchor.maximizer[1] - 4.0 / 7.0,
        gff_anchor.value + 0.8,
        gff_anchor.maximizer[0] - 0.9,
        gff_anchor.maximizer[1] - 0.3,
    )
    anchors_ok = all(abs(gap) < tol.RATE_ANCHOR_TOL for gap in anchor_gaps)

    checks = (
        *_certification_checks(
            max(max_gap_i, max_gap_j),
            max_residual,
            f"worst gap over {2 * queries} admissible queries",
        ),
        flag_check(
            "anchor_points",
            anchors_ok,
            anchor="(a=3/4, x=1) -> (1/7, 4/7, -1); (eta=0.6, a=0.8) -> (0.9, 0.3, -0.8)",
        ),
        bound_check(
            "steepness_identity",
            max_identity_gap,
            tol.RATE_STEEPNESS_TOL,
            anchor="level rate at eta equals twice the particle rate at sqrt(2)*eta",
        ),
    )
    estimates = (
        {"name": "max_gap_particle_rate", "value": max_gap_i},
        {"name": "max_gap_level_rate", "value": max_gap_j},
        {"name": "max_constraint_residual", "value": max_residual},
    )
    return Report(
        subcommand="rates",
        inputs={"seed": seed, "queries": queries},
        estimates=estimates,
        checks=checks,
    )


def run_rate_point(
    a: float | None = None, x: float | None = None, eta: float | None = None
) -> Report:
    """Evaluate and certify the rate functions at one explicit query point."""
    if x is None and eta is None:
        raise ValueError("point query needs x (particle family) or eta (level family)")
    estimates = []
    checks = []
    max_gap = 0.0
    max_residual = 0.0
    certified = False

    if x is not None:
        estimates.append({"name": "psi", "value": rates.psi(x), "x": x})
        if a is not None:
            closed, gap, residual = _certify(_PARTICLE, a, x)
            estimates.append(
                {
                    "name": "particle_rate",
                    "value": rates.rate_i(a, x),
                    "a": a,
                    "x": x,
                    "maximizer_s": closed.maximizer[0],
                    "maximizer_y": closed.maximizer[1],
                }
            )
            max_gap = max(max_gap, gap)
            max_residual = max(max_residual, residual)
            certified = True
    if eta is not None:
        if a is None:
            raise ValueError("level-family query needs a alongside eta")
        closed, gap, residual = _certify(_LEVEL, eta, a)
        estimates.append(
            {
                "name": "level_rate",
                "value": rates.rate_j(a, eta),
                "a": a,
                "eta": eta,
                "maximizer_s": closed.maximizer[0],
                "maximizer_b": closed.maximizer[1],
                "maximizer_y": closed.maximizer[2],
            }
        )
        max_gap = max(max_gap, gap)
        max_residual = max(max_residual, residual)
        certified = True

    if certified:
        checks.extend(_certification_checks(max_gap, max_residual))
    return Report(
        subcommand="rates",
        inputs={"a": a, "x": x, "eta": eta},
        estimates=tuple(estimates),
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# gw-verify: exceedance bound sweep


def _gw_configs() -> list[dict]:
    poisson15 = gw.OffspringLaw.poisson(1.5)
    geom05 = gw.OffspringLaw.geometric(0.5)
    table_a = gw.OffspringLaw.table({1: 0.5, 2: 0.3, 3: 0.2})
    table_b = gw.OffspringLaw.table({0: 0.2, 1: 0.3, 2: 0.5})
    table_c = gw.OffspringLaw.table({1: 0.6, 2: 0.4})
    table_d = gw.OffspringLaw.table({2: 1.0})

    def cfg(label, laws, initial, alpha, delta, lam):
        return {
            "label": label,
            "plan": gw.GwPlan(initial=initial, laws=tuple(laws)),
            "alpha": alpha,
            "delta": delta,
            "lam": lam,
        }

    return [
        cfg("poisson15_n2", [poisson15] * 2, 1000, 1.1, 0.1, 0.15),
        cfg("poisson15_n3", [poisson15] * 3, 300, 1.1, 0.1, 0.15),
        cfg("poisson15_n5", [poisson15] * 5, 100, 1.1, 0.1, 0.15),
        cfg("poisson15_n10", [poisson15] * 10, 30, 1.1, 0.1, 0.15),
        cfg("poisson15_n20", [poisson15] * 20, 10, 1.1, 0.1, 0.15),
        cfg("geom05_n2", [geom05] * 2, 1000, 1.2, 0.2, 0.1),
        cfg("geom05_n3", [geom05] * 3, 100, 1.2, 0.2, 0.1),
        cfg("geom05_n5", [geom05] * 5, 30, 1.2, 0.2, 0.1),
        cfg("geom05_n10", [geom05] * 10, 10, 1.2, 0.2, 0.1),
        cfg("table531_n2", [table_a] * 2, 100, 1.1, 0.1, 0.1),
        cfg("table531_n5", [table_a] * 5, 30, 1.1, 0.1, 0.1),
        cfg("table531_n10", [table_a] * 10, 10, 1.1, 0.1, 0.1),
        cfg("table531_n20", [table_a] * 20, 3, 1.1, 0.1, 0.1),
        cfg("table235_n2", [table_b] * 2, 1000, 1.2, 0.2, 0.15),
        cfg("table235_n3", [table_b] * 3, 100, 1.2, 0.2, 0.15),
        cfg("table235_n5", [table_b] * 5, 30, 1.2, 0.2, 0.15),
        cfg(
            "mixed_n3",
            [gw.OffspringLaw.poisson(2.0), gw.OffspringLaw.geometric(0.8), table_c],
            50,
            1.1,
            0.1,
            0.05,
        ),
        cfg("poisson09_n5", [gw.OffspringLaw.poisson(0.9)] * 5, 200, 1.2, 0.3, 0.2),
        cfg("det2_n5", [gw.OffspringLaw.deterministic(2)] * 5, 4, 1.05, 0.05, 0.3),
        cfg("table2_n2", [table_d] * 2, 2, 1.05, 0.05, 0.3),
    ]


def _exact_eligible(plan: gw.GwPlan) -> bool:
    if plan.generations != 2:
        return False
    tops = [law.max_support for law in plan.laws]
    if any(k is None or k > 4 for k in tops):
        return False
    return plan.initial * tops[0] * tops[1] <= 50_000


def run_gw_verify(
    seed: int,
    replicas: int = tol.GW_SWEEP_REPLICAS,
) -> Report:
    """Sweep the exceedance bound against simulation and exact convolution."""
    estimates = []
    min_margin = math.inf
    min_margin_label = ""
    exact_ok = True
    exact_labels = []
    for index, spec in enumerate(_gw_configs()):
        plan = spec["plan"]
        bound = gw.prop_bound(
            plan,
            spec["alpha"],
            spec["delta"],
            [spec["lam"]] * plan.generations,
        )
        rplan = mc.ReplicaPlan(replicas, mc.derive_seed(seed, 100 + index))
        emp = gw.empirical_exceedance(plan, bound.threshold, rplan)
        margin = bound.probability - (
            emp.estimate.mean - tol.GW_SIGMA * emp.estimate.stderr
        )
        if margin < min_margin:
            min_margin = margin
            min_margin_label = spec["label"]
        exact = None
        if _exact_eligible(plan):
            exact = gw.exact_exceedance(plan, bound.threshold)
            exact_labels.append(spec["label"])
            exact_ok = exact_ok and exact <= bound.probability
        estimates.append(
            _estimate_row(
                spec["label"],
                emp.estimate,
                bound=bound.probability,
                count_threshold=emp.count_threshold,
                censored=emp.censored,
                exact=exact,
                generations=plan.generations,
                initial=plan.initial,
                alpha=spec["alpha"],
                delta=spec["delta"],
                lam=spec["lam"],
            )
        )

    anchor_seq = gw.b_sequence(3, 1.5, (2.0, 1.0))
    checks = (
        flag_check(
            "bound_never_violated",
            min_margin >= 0.0,
            anchor=f"mean-growth bound at {tol.GW_SIGMA} standard errors",
            detail=f"min margin {min_margin!r} at {min_margin_label}",
        ),
        flag_check(
            "exact_cases_within_bound",
            exact_ok,
            anchor="two-generation convolution, zero tolerance",
            detail="cases: " + ", ".join(exact_labels),
        ),
        flag_check(
            "integer_recursion_anchor",
            anchor_seq == (3, 9, 13),
            anchor="b_sequence(3, 1.5, (2, 1)) == (3, 9, 13)",
            detail=f"got {anchor_seq}",
        ),
    )
    return Report(
        subcommand="gw-verify",
        inputs={"seed": seed, "replicas": replicas, "configurations": len(estimates)},
        estimates=tuple(estimates),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# bbm-exponents: first moments, level-count exponent, max tail


def _z_score(value: float, target: float, stderr: float) -> float | None:
    return (value - target) / stderr if stderr > 0 else None


def _on_both_grids(rate) -> tuple[float, float]:
    """An exact FKPP rate on the fine grid, and its change from the coarse one."""
    coarse, fine = (rate(dy, dt) for dy, dt in tol.KPP_GRIDS)
    return fine, abs(fine - coarse)


def run_bbm_exponents(
    seed: int,
    biggins_t: float | None = None,
    biggins_x: float | None = None,
    biggins_replicas: int | None = None,
) -> Report:
    """First moments, the level-count growth exponent, and the max tail.

    The growth exponent and the tail decay are checked twice against the
    exact law of the process, computed from the Fisher-KPP equation
    (bbm/kpp.py): each Monte Carlo estimate against the exact value at its
    own horizon, and the limit bands against the exact rates at the long
    horizons KPP_BIGGINS_T and KPP_MAX_TAIL_T, where the finite-horizon
    correction has shrunk below half the band. Those rates carry a
    grid-convergence check: halving dy and dt must move them by less than
    KPP_GRID_TOL. A horizon t below KPP_MIN_T, which the grids cannot
    resolve, is refused with ValueError before any draw."""
    b_t = tol.BIGGINS_T if biggins_t is None else biggins_t
    b_x = tol.BIGGINS_X if biggins_x is None else biggins_x
    b_reps = tol.BIGGINS_REPLICAS if biggins_replicas is None else biggins_replicas
    if not b_t >= tol.KPP_MIN_T:
        raise ValueError(
            f"t must be at least {tol.KPP_MIN_T:g}, the shortest horizon the exact "
            f"FKPP anchor resolves; got {b_t}"
        )
    refuse_doomed_horizon(b_t, b_reps)

    estimates = []
    checks = []

    pop = mc.summarize(
        replica_counts(
            tol.BBM_MEAN_T, -math.inf, tol.BBM_MEAN_REPLICAS, mc.derive_seed(seed, 1)
        )
    )
    pop_target = math.exp(tol.BBM_MEAN_T)
    estimates.append(_estimate_row("population_mean", pop, t=tol.BBM_MEAN_T))
    checks.append(
        sigma_check(
            "population_mean",
            pop.mean,
            pop.stderr,
            pop_target,
            tol.MEAN_SIGMA,
            anchor=f"exp(t) at t={tol.BBM_MEAN_T}",
        )
    )

    for k, x in enumerate(tol.BBM_COUNT_XS):
        t = tol.BBM_COUNT_T
        est = mc.summarize(
            replica_counts(t, x * t, tol.BBM_COUNT_REPLICAS, mc.derive_seed(seed, 2 + k))
        )
        target = expected_count_oracle(t, x)
        estimates.append(
            _estimate_row(f"level_count_mean_x{x}", est, t=t, x=x, oracle=target)
        )
        checks.append(
            sigma_check(
                f"level_count_mean_x{x}",
                est.mean,
                est.stderr,
                target,
                tol.MEAN_SIGMA,
                anchor="exp(t) * P(N(0,t) >= x t)",
            )
        )

    trunc = tol.KPP_TRUNCATION
    fine_grid = tol.KPP_GRIDS[-1]

    level = estimate_level_exponent(b_t, b_x, b_reps, mc.derive_seed(seed, 4))
    level_exact = log_count_rate(b_t, b_x, *fine_grid, trunc)
    estimates.append(
        _estimate_row(
            "level_exponent",
            level.exponent,
            t=b_t,
            x=b_x,
            dropped=level.dropped,
            limit=level.limit,
            exact=level_exact,
            z=_z_score(level.exponent.mean, level_exact, level.exponent.stderr),
        )
    )
    checks.append(
        sigma_check(
            f"level_exponent_t{b_t:g}",
            level.exponent.mean,
            level.exponent.stderr,
            level_exact,
            tol.MEAN_SIGMA,
            anchor=f"E[log N | N > 0] / t from the FKPP solution at t={b_t:g}",
        )
    )
    long_t = tol.KPP_BIGGINS_T
    rate, delta = _on_both_grids(
        lambda dy, dt: log_count_rate(long_t, b_x, dy, dt, trunc)
    )
    estimates.append(
        {
            "name": "level_exponent_exact",
            "value": rate,
            "t": long_t,
            "x": b_x,
            "grid_delta": delta,
            "limit": level.limit,
        }
    )
    checks.append(
        bound_check(
            "level_exponent_grid",
            delta,
            tol.KPP_GRID_TOL,
            anchor=f"rate change when dy and dt halve, FKPP solve at t={long_t:g}",
        )
    )
    checks.append(
        abs_check(
            "level_exponent",
            rate,
            level.limit,
            tol.BIGGINS_TOL,
            anchor=f"1 - x^2/2 at x={b_x}",
            detail=(
                f"exact E[log N | N > 0] / t at t={long_t:g}; the Monte Carlo "
                f"mean at t={b_t:g} is checked against the exact law there"
            ),
        )
    )

    x = tol.MAX_TAIL_X
    limit = rates.psi(x)
    tail_exact = max_tail_probability(tol.MAX_TAIL_TS, x, *fine_grid, trunc)
    decays = []
    for k, t in enumerate(tol.MAX_TAIL_TS):
        tail = estimate_max_tail(
            t, x, tol.MAX_TAIL_REPLICAS, mc.derive_seed(seed, 5 + k)
        )
        decays.append(tail.decay)
        p = float(tail_exact[k])
        # binomial stderr under the exact law: defined at zero successes too
        stderr = math.sqrt(p * (1.0 - p) / tail.estimate.replicas)
        estimates.append(
            _estimate_row(
                f"max_tail_t{t:g}",
                tail.estimate,
                t=t,
                x=x,
                decay=tail.decay,
                decay_upper=tail.decay_upper,
                limit=tail.limit,
                exact=p,
                z=_z_score(tail.estimate.mean, p, stderr),
            )
        )
        checks.append(
            sigma_check(
                f"max_tail_t{t:g}",
                tail.estimate.mean,
                stderr,
                p,
                tol.MEAN_SIGMA,
                anchor=f"P(max >= {x:g} t) from the FKPP solution at t={t:g}",
                detail="binomial stderr at the exact probability",
            )
        )

    trend_ok = (
        all(d is not None for d in decays)
        and all(a > b for a, b in zip(decays, decays[1:]))
        and decays[-1] > limit
    )
    checks.append(
        flag_check(
            "max_tail_trend",
            trend_ok,
            anchor=f"decay decreasing toward psi({x}) = {limit:.2f}",
            detail=f"decays {[None if d is None else round(d, 4) for d in decays]}",
        )
    )
    long_t = tol.KPP_MAX_TAIL_T
    decay, delta = _on_both_grids(
        lambda dy, dt: -math.log(max_tail_probability([long_t], x, dy, dt, trunc)[0])
        / long_t
    )
    estimates.append(
        {
            "name": "max_tail_decay_exact",
            "value": decay,
            "t": long_t,
            "x": x,
            "grid_delta": delta,
            "limit": limit,
        }
    )
    checks.append(
        bound_check(
            "max_tail_grid",
            delta,
            tol.KPP_GRID_TOL,
            anchor=f"decay change when dy and dt halve, FKPP solve at t={long_t:g}",
        )
    )
    checks.append(
        abs_check(
            "max_tail_decay",
            decay,
            limit,
            tol.MAX_TAIL_TOL,
            anchor=f"psi({x}) at t={long_t:g}",
            detail=(
                f"exact -log P(max >= xt) / t at t={long_t:g}; the Monte Carlo "
                "points are checked against the exact law at their own t"
            ),
        )
    )

    return Report(
        subcommand="bbm-exponents",
        inputs={
            "seed": seed,
            "mean_t": tol.BBM_MEAN_T,
            "mean_replicas": tol.BBM_MEAN_REPLICAS,
            "count_t": tol.BBM_COUNT_T,
            "count_xs": list(tol.BBM_COUNT_XS),
            "count_replicas": tol.BBM_COUNT_REPLICAS,
            "exponent_t": b_t,
            "exponent_x": b_x,
            "exponent_replicas": b_reps,
            "tail_x": tol.MAX_TAIL_X,
            "tail_ts": list(tol.MAX_TAIL_TS),
            "tail_replicas": tol.MAX_TAIL_REPLICAS,
            "exact_exponent_t": tol.KPP_BIGGINS_T,
            "exact_tail_t": tol.KPP_MAX_TAIL_T,
            "kpp_grids": [list(g) for g in tol.KPP_GRIDS],
            "kpp_truncation": tol.KPP_TRUNCATION,
        },
        estimates=tuple(estimates),
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# nbbm: pathwise dominance of the capped system


def run_nbbm(
    seed: int,
    t: float = tol.NBBM_T,
    replicas: int = tol.NBBM_REPLICAS,
) -> Report:
    """Dominance sweeps at each of NBBM_CAPS, read at call time."""
    caps = tol.NBBM_CAPS
    estimates = []
    checks = []
    snapshots = tuple(s * t / tol.NBBM_T for s in tol.NBBM_SNAPSHOTS)
    for index, cap in enumerate(caps):
        sweep = check_nbbm_dominance(
            t,
            cap,
            replicas,
            mc.derive_seed(seed, 10 + index),
            snapshot_times=snapshots,
        )
        estimates.append(
            {
                "name": f"violations_cap{cap}",
                "value": float(len(sweep.violations)),
                "checkpoints": replicas * len(snapshots),
            }
        )
        checks.append(
            flag_check(
                f"dominance_cap{cap}",
                sweep.all_dominated,
                anchor="coupled capped max never exceeds the free max",
                detail=(
                    f"{len(sweep.violations)} violations over {replicas} replicas "
                    f"x {len(snapshots)} checkpoints"
                ),
            )
        )
    return Report(
        subcommand="nbbm",
        inputs={
            "seed": seed,
            "t": t,
            "caps": list(caps),
            "replicas": replicas,
            "snapshot_times": list(snapshots),
        },
        estimates=tuple(estimates),
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# gff-cov: sampler exactness and Green diagonal growth


def _require_two_samples(samples: int) -> None:
    # One sample has no spread: every stderr would read 0 and every variance NaN.
    if samples < 2:
        raise ValueError(f"samples must be at least 2 to estimate a spread, got {samples}")


def _center_site(grid_n: int) -> tuple[int, int]:
    return ((grid_n - 1) // 2, (grid_n - 1) // 2)


def run_gff_cov(
    seed: int,
    grid_n: int = tol.COV_GRID_N,
    samples: int = tol.COV_SAMPLES,
) -> Report:
    """Empirical covariance vs the linear-solve oracle, plus diagonal growth."""
    _require_two_samples(samples)
    center = _center_site(grid_n)
    # Drawn first, on its own stream: the dense centre draw holds every sample's
    # noise at once, the largest field request here, so an oversized one fails first.
    dense_rng = mc.replica_rng(mc.derive_seed(seed, 2), 0)
    dense_center = sample_sites(grid_n, [center], samples, dense_rng)[:, 0]
    pair_rng = mc.replica_rng(seed, 0)
    xs = [center]
    ys = [center]
    for _ in range(tol.COV_PAIRS - 1):
        xs.append(tuple(int(v) for v in pair_rng.integers(1, grid_n - 1, size=2)))
        ys.append(tuple(int(v) for v in pair_rng.integers(1, grid_n - 1, size=2)))
    xr = np.array([s[0] for s in xs])
    xc = np.array([s[1] for s in xs])
    yr = np.array([s[0] for s in ys])
    yc = np.array([s[1] for s in ys])

    def task(rng, size) -> np.ndarray:
        # per field: the pair products, then the center value
        fields = sample_fields(grid_n, size, rng)
        prods = fields[:, xr, xc] * fields[:, yr, yc]
        return np.column_stack((prods, fields[:, center[0], center[1]]))

    plan = mc.ReplicaPlan(samples, mc.derive_seed(seed, 1))
    values = mc.map_blocks(plan, tol.COV_BLOCK, task)
    prods, spectral_center = values[:, :-1], values[:, -1]
    means = prods.mean(axis=0)
    variances = np.maximum((prods * prods).mean(axis=0) - means * means, 0.0)
    stderrs = np.sqrt(variances / samples)

    oracle = GreenOperator(grid_n).columns(ys)[np.arange(len(ys)), xr, xc]
    z = np.abs(means - oracle) / np.where(stderrs > 0, stderrs, np.inf)
    worst = int(np.argmax(z))
    _, ks_pvalue = mc.ks_two_sample(spectral_center, dense_center)

    greens = [GreenOperator(n).diagonal_at(_center_site(n)) for n in tol.GREEN_SIZES]
    fit = mc.fit_exponent([math.log(n) for n in tol.GREEN_SIZES], greens)

    checks = (
        bound_check(
            "covariance_max_z",
            float(z[worst]),
            tol.COV_SIGMA,
            anchor="killed-walk Green's function, entrywise",
            detail=(
                f"worst pair {xs[worst]}x{ys[worst]}: mean {float(means[worst])!r} "
                f"vs oracle {float(oracle[worst])!r} over {samples} samples"
            ),
        ),
        flag_check(
            "backends_agree_ks",
            bool(ks_pvalue >= tol.KS_LEVEL),
            anchor=f"two-sample KS on the center marginal at the {tol.KS_LEVEL:.0%} level",
            detail=f"p-value {ks_pvalue!r} on {samples} draws per backend",
        ),
        rel_check(
            "green_diagonal_slope",
            fit.slope,
            GAMMA * GAMMA,
            tol.GREEN_SLOPE_REL_TOL,
            anchor="2/pi per unit log N",
            detail=f"slope stderr {fit.slope_stderr!r}, sizes {list(tol.GREEN_SIZES)}",
        ),
    )
    estimates = tuple(
        [
            {
                "name": "covariance_max_z",
                "value": float(z[worst]),
                "pairs": tol.COV_PAIRS,
                "samples": samples,
            },
            {"name": "ks_pvalue", "value": ks_pvalue},
            {
                "name": "green_diagonal_slope",
                "value": fit.slope,
                "stderr": fit.slope_stderr,
                "intercept": fit.intercept,
            },
        ]
        + [
            {"name": f"green_center_n{n}", "value": g}
            for n, g in zip(tol.GREEN_SIZES, greens)
        ]
    )
    return Report(
        subcommand="gff-cov",
        inputs={
            "seed": seed,
            "grid_n": grid_n,
            "samples": samples,
            "pairs": tol.COV_PAIRS,
            "green_sizes": list(tol.GREEN_SIZES),
        },
        estimates=estimates,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# daviaud: level-set count exponent trend


def run_daviaud(
    seed: int,
    eta: float = tol.DAVIAUD_ETA,
    replicas: int | None = None,
) -> Report:
    """Level-set exponents at DAVIAUD_SIZES, read at call time; replicas
    defaults to DAVIAUD_REPLICAS' count per size."""
    sizes = tol.DAVIAUD_SIZES
    if replicas is None:
        replicas = dict(tol.DAVIAUD_REPLICAS)
    est = estimate_daviaud_exponent(sizes, eta, replicas, seed)

    estimates = []
    for point in est.points:
        row = _estimate_row(
            f"count_n{point.grid_n}",
            point.counts,
            grid_n=point.grid_n,
            rounding_flip_bound=point.rounding_flip_bound,
        )
        row["dropped"] = point.dropped
        if point.exponent is not None:
            row["exponent"] = point.exponent.mean
            row["exponent_stderr"] = point.exponent.stderr
        estimates.append(row)
    estimates.append(
        {
            "name": "exponent_fit_slope",
            "value": est.fit.slope,
            "stderr": est.fit.slope_stderr,
            "intercept": est.fit.intercept,
        }
    )

    checks = []
    if tol.DAVIAUD_MEAN_N in sizes:
        point = est.points[sizes.index(tol.DAVIAUD_MEAN_N)]
        oracle = expected_level_count(tol.DAVIAUD_MEAN_N, eta)
        checks.append(
            sigma_check(
                f"mean_count_n{tol.DAVIAUD_MEAN_N}",
                point.counts.mean,
                point.counts.stderr,
                oracle,
                tol.MEAN_SIGMA,
                anchor="exact Gaussian-marginal sum over sites",
            )
        )
    exps = [p.exponent.mean if p.exponent is not None else None for p in est.points]
    trend_ok = all(e is not None for e in exps) and all(
        a < b for a, b in zip(exps, exps[1:])
    )
    checks.append(
        flag_check(
            "exponent_increasing",
            trend_ok,
            anchor=f"slow approach to the limit {est.limit}",
            detail=f"exponents {[None if e is None else round(e, 4) for e in exps]}",
        )
    )
    checks.append(
        abs_check(
            f"exponent_n{sizes[-1]}",
            exps[-1] if exps[-1] is not None else math.inf,
            est.limit,
            tol.DAVIAUD_TOL,
            anchor=f"2(1 - eta^2) at eta={eta}",
            detail=f"dropped zero-count replicas: {est.points[-1].dropped}",
        )
    )
    return Report(
        subcommand="daviaud",
        inputs={
            "seed": seed,
            "eta": eta,
            "grid_sizes": list(sizes),
            "replicas": replicas,
        },
        estimates=tuple(estimates),
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# cover-check: deterministic partition geometry


def run_cover_check(
    grid_n: int | None = None, delta: float = tol.SCHEDULE_DELTA
) -> Report:
    cases = (
        tol.COVER_CASES if grid_n is None else ((grid_n, 1), (grid_n, 2))
    )
    margin_n = tol.GEOMETRY_N if grid_n is None else grid_n

    checks = []
    estimates = []

    margin_parts = nested_partitions(margin_n, uniform_schedule(margin_n, delta=delta))
    checks.append(
        flag_check(
            f"margin_rule_n{margin_n}",
            margin_parts.margin_ok(),
            anchor="kept children stay a quarter side from the parent boundary",
            detail=f"levels {[len(l) for l in margin_parts.levels]}",
        )
    )

    for n, levels in cases:
        parts = nested_partitions(n, uniform_schedule(n, levels=levels, delta=delta))
        starred, flat, count_ok = counting_check(parts)
        checks.append(
            flag_check(
                f"counting_n{n}_L{levels}",
                count_ok,
                anchor="final starred count >= 4^-L of the flat count",
                detail=f"starred {starred}, flat {flat}, depth {parts.depth}",
            )
        )
        shifts: list[list[int]] = []
        try:
            cover = shift_cover(parts)
            ok = cover.verified and len(cover.shifts) <= 4**levels
            shifts = [list(s) for s in cover.shifts]
            detail = (
                f"{len(cover.shifts)} shifts, max magnitude {cover.max_shift} "
                f"<= N/4 = {n // 4}"
            )
        except CoverConstructionError as err:
            ok = False
            detail = str(err)
        checks.append(
            flag_check(
                f"cover_n{n}_L{levels}",
                ok,
                anchor="composed shifts cover every core site",
                detail=detail,
            )
        )
        estimates.append(
            {
                "name": f"starred_count_n{n}_L{levels}",
                "value": float(starred),
                "flat": flat,
                "shifts": shifts,
            }
        )

    return Report(
        subcommand="cover-check",
        inputs={
            "cases": [list(c) for c in cases],
            "margin_grid_n": margin_n,
            "delta": delta,
        },
        estimates=tuple(estimates),
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# decompose-var: harmonic decomposition diagnostics


def run_decompose_var(
    seed: int,
    grid_n: int = tol.DECOMP_N,
    samples: int = tol.DECOMP_SAMPLES,
    delta: float = tol.SCHEDULE_DELTA,
) -> Report:
    """Increment variances, the mean-value property, and residual independence."""
    _require_two_samples(samples)
    parts = nested_partitions(grid_n, uniform_schedule(grid_n, delta=delta))
    step = parts.schedule.exponents[0] - parts.schedule.exponents[1]
    anchor_var = GAMMA * GAMMA * step * math.log(grid_n)

    # per parent/child increment: its linear functionals (child coarse value
    # minus the parent's harmonic extension at the child's center) and its
    # exact variance (Green diagonal of the parent's box minus the child's,
    # both reduced to local coordinates by translation invariance)
    diagonals: dict[int, np.ndarray] = {}

    def box_variance(box: Box, site: tuple[int, int]) -> float:
        if box.side not in diagonals:
            diagonals[box.side] = GreenOperator(box.side).diagonal()
        return float(diagonals[box.side][site[0] - box.row0, site[1] - box.col0])

    # every value read lies in the root box, so the fields are sampled on that
    # window only and each box is moved into the window's coordinates
    root = parts.levels[0][0]

    def in_root(box: Box) -> Box:
        return Box(box.row0 - root.row0, box.col0 - root.col0, box.height, box.width)

    pair_weights = []
    exact_values = []
    for lvl in range(parts.depth):
        for j, child_idx in enumerate(parts.children[lvl]):
            parent = in_root(parts.levels[lvl][j])
            for k in child_idx:
                child = in_root(parts.levels[lvl + 1][k])
                site = child.center()
                pair_weights.append(
                    (lvl, harmonic_measure(child, site), harmonic_measure(parent, site))
                )
                var = box_variance(parent, site)
                if not child.is_singleton:
                    var -= box_variance(child, site)
                exact_values.append(var)
    exact_pooled = float(np.mean(exact_values))

    corr_box = in_root(parts.levels[1][0])
    corr_site = corr_box.center()
    # the centre's measure is supported on the whole frame: the boundary set
    hr, hc, hw = harmonic_measure(corr_box, corr_site)

    def task(rng, size) -> np.ndarray:
        # per field: each pair's increment, the residual at the box centre,
        # then the field on the box's frame
        fields = sample_box(grid_n, root, size, rng)
        incs = [
            fields[:, cr, cc] @ cw - fields[:, pr, pc] @ pw
            for _, (cr, cc, cw), (pr, pc, pw) in pair_weights
        ]
        boundary = fields[:, hr, hc]
        residual = fields[:, corr_site[0], corr_site[1]] - boundary @ hw
        return np.column_stack((*incs, residual, boundary))

    # a block's time goes to Philox normal fills and one-thread products,
    # both GIL-free, so the blocks run on every usable CPU
    _fill_memo(grid_n, np.float64)
    plan = mc.ReplicaPlan(samples, mc.derive_seed(seed, 1))
    block_bytes = sample_box_bytes(grid_n, root, tol.DECOMP_BLOCK)
    values = mc.map_blocks(plan, tol.DECOMP_BLOCK, task, gil_free_bytes=block_bytes)
    pairs = len(pair_weights)
    increments = values[:, :pairs]  # (samples, pairs)
    levels_of_pair = np.array([lvl for lvl, _, _ in pair_weights])

    pooled_var = float(increments.var(ddof=1))
    level_vars = [
        float(increments[:, levels_of_pair == lvl].var(ddof=1))
        for lvl in range(parts.depth)
    ]

    centered = values[:, pairs:] - values[:, pairs:].mean(axis=0)
    residual, boundary = centered[:, 0], centered[:, 1:]
    denom = np.sqrt(
        np.maximum((residual @ residual) * (boundary * boundary).sum(axis=0), 1e-300)
    )
    max_corr = float(np.max(np.abs((residual @ boundary) / denom)))
    corr_limit = tol.DECOMP_SIGMA / math.sqrt(samples)

    first_field = sample_box(grid_n, root, 1, mc.replica_rng(mc.derive_seed(seed, 2), 0))[0]
    harmonic = dirichlet_extend(first_field, corr_box)
    interior = harmonic[1:-1, 1:-1]
    neighbor_mean = 0.25 * (
        harmonic[:-2, 1:-1] + harmonic[2:, 1:-1] + harmonic[1:-1, :-2] + harmonic[1:-1, 2:]
    )
    mean_value_dev = float(np.max(np.abs(interior - neighbor_mean)))

    checks = (
        rel_check(
            "pooled_increment_variance",
            pooled_var,
            anchor_var,
            tol.DECOMP_VAR_REL_TOL,
            anchor=f"gamma^2 * {step:g} * log N at N={grid_n}",
            detail=(
                f"{pairs} pairs x {samples} fields; per-level "
                f"{[round(v, 4) for v in level_vars]}; exact pooled {exact_pooled!r}"
            ),
        ),
        flag_check(
            "increment_variance_oracle",
            abs(pooled_var - exact_pooled)
            <= tol.DECOMP_SIGMA * exact_pooled * math.sqrt(2.0 / samples),
            anchor="exact local Green diagonals (parent minus child)",
            detail=f"empirical {pooled_var!r} vs exact {exact_pooled!r}",
        ),
        bound_check(
            "mean_value_deviation",
            mean_value_dev,
            tol.MEAN_VALUE_TOL,
            anchor="discrete harmonicity of the extension",
            detail=f"side-{corr_box.side} box, worst interior site",
        ),
        bound_check(
            "residual_boundary_correlation",
            max_corr,
            corr_limit,
            anchor="Markov independence of the residual from boundary data",
            detail=f"{hr.size} boundary sites x {samples} fields",
        ),
    )
    estimates = (
        {
            "name": "pooled_increment_variance",
            "value": pooled_var,
            "anchor": anchor_var,
            "exact": exact_pooled,
            "pairs": pairs,
            "fields": samples,
        },
        *(
            {
                "name": f"increment_variance_level{lvl}",
                "value": level_vars[lvl],
                "pairs": int((levels_of_pair == lvl).sum()),
                "exact": float(
                    np.mean([v for p, v in zip(pair_weights, exact_values) if p[0] == lvl])
                ),
            }
            for lvl in range(parts.depth)
        ),
        {"name": "max_boundary_correlation", "value": max_corr, "limit": corr_limit},
        {"name": "mean_value_deviation", "value": mean_value_dev},
    )
    return Report(
        subcommand="decompose-var",
        inputs={"seed": seed, "grid_n": grid_n, "samples": samples, "delta": delta},
        estimates=estimates,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# coarse-tail: block-maximum exceedance exponent


def run_coarse_tail(
    seed: int,
    zeta: float = tol.COARSE_ZETA,
    b: float = tol.COARSE_B,
    grid_n: int | None = None,
    replicas: int = tol.COARSE_REPLICAS,
) -> Report:
    """Probes at COARSE_SIZES, read at call time, or at grid_n alone."""
    sizes = tol.COARSE_SIZES if grid_n is None else (grid_n,)
    probes = []
    for index, n in enumerate(sizes):
        probes.append(
            coarse_exceedance_probe(
                n, zeta, b, replicas, mc.derive_seed(seed, 20 + index)
            )
        )

    estimates = []
    for p in probes:
        row = _estimate_row(
            f"exceedance_n{p.grid_n}",
            p.estimate,
            grid_n=p.grid_n,
            threshold=p.threshold,
            exponent=p.exponent,
            predicted_exponent=p.predicted_exponent,
            predicted_probability=p.predicted_probability,
        )
        if p.rounding_flip_bound is not None:
            row["rounding_flip_bound"] = p.rounding_flip_bound
        estimates.append(row)

    predicted = probes[-1].predicted_exponent
    last = probes[-1].exponent
    close = last is not None and abs(last - predicted) <= tol.COARSE_TOL
    if len(probes) >= 2:
        first = probes[0].exponent
        trending = (
            first is not None
            and last is not None
            and abs(last - predicted) < abs(first - predicted)
        )
        gate = close or trending
        detail = (
            f"|e({probes[-1].grid_n}) - {predicted:g}| = "
            f"{None if last is None else round(abs(last - predicted), 4)} "
            f"(tolerance {tol.COARSE_TOL}); "
            f"e({probes[0].grid_n}) = {None if first is None else round(first, 4)}, "
            f"e({probes[-1].grid_n}) = {None if last is None else round(last, 4)}"
        )
        checks = (
            flag_check(
                "proximity_or_trend",
                gate,
                anchor=f"2(b^2/(1-zeta) - (1-zeta)) = {predicted:g}",
                detail=detail,
            ),
        )
    else:
        checks = (
            abs_check(
                f"exponent_n{probes[-1].grid_n}",
                last if last is not None else math.inf,
                predicted,
                tol.COARSE_TOL,
                anchor=f"2(b^2/(1-zeta) - (1-zeta)) = {predicted:g}",
            ),
        )
    return Report(
        subcommand="coarse-tail",
        inputs={
            "seed": seed,
            "zeta": zeta,
            "b": b,
            "grid_sizes": list(sizes),
            "replicas": replicas,
        },
        estimates=tuple(estimates),
        checks=checks,
    )
