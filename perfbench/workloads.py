"""The operations one benchmark pass runs, per workload, and the failure rule.

An operation is one ``levelsim.cli.main(argv)`` call, or one call of a public
estimator for the branching stages the CLI only runs at acceptance size
(``bbm-exponents`` takes its C3/C5 replica counts from ``tolerances.py``).
Every operation draws from the pass seed, so a seed fixes the inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from levelsim import bbm, mc, rates
from levelsim import tolerances as tol

# Checks whose verdict does not depend on sampling noise: a failure of one of
# these fails the operation. A prefix matches every check it starts; None
# takes every check of the report. Other verdicts are recorded only.
EXACT_CHECKS: dict[str, tuple[str, ...] | None] = {
    "rates": None,
    "gw-verify": ("exact_cases_within_bound", "integer_recursion_anchor"),
    "nbbm": ("dominance_cap",),
    "gff-cov": ("green_diagonal_slope",),
    "decompose-var": ("mean_value_deviation",),
    "cover-check": None,
}


@dataclass(frozen=True)
class Op:
    """One operation: CLI flags (seed and --out are added per pass), or an
    estimator call mapping the pass seed to its statistical verdicts."""

    name: str
    argv: tuple[str, ...] = ()
    call: Callable[[int], dict[str, bool]] | None = None


def cli_op(*argv: str) -> Op:
    return Op(" ".join(argv), argv=argv)


def _population_mean(seed: int) -> dict[str, bool]:
    t = tol.BBM_MEAN_T
    plan = mc.ReplicaPlan(1000, mc.derive_seed(seed, 1))
    est = mc.run_replicas(plan, lambda rng: float(bbm.sample_positions(t, rng).size))
    return {"population_mean": est.within(math.exp(t), tol.MEAN_SIGMA)}


def _level_count(index: int, x: float) -> Callable[[int], dict[str, bool]]:
    def call(seed: int) -> dict[str, bool]:
        t = tol.BBM_COUNT_T
        plan = mc.ReplicaPlan(500, mc.derive_seed(seed, 2 + index))
        est = mc.run_replicas(
            plan, lambda rng: float((bbm.sample_positions(t, rng) >= x * t).sum())
        )
        oracle = bbm.expected_count_oracle(t, x)
        return {f"level_count_mean_x{x}": est.within(oracle, tol.MEAN_SIGMA)}

    return call


def _max_tail(index: int, t: float) -> Callable[[int], dict[str, bool]]:
    def call(seed: int) -> dict[str, bool]:
        tail = bbm.estimate_max_tail(t, tol.MAX_TAIL_X, 500, mc.derive_seed(seed, 5 + index))
        above = tail.decay is None or tail.decay > rates.psi(tol.MAX_TAIL_X)
        return {f"max_tail_t{t:g}_decay_above_limit": above}

    return call


def _level_exponent(seed: int) -> dict[str, bool]:
    level = bbm.estimate_level_exponent(
        tol.BIGGINS_T, tol.BIGGINS_X, 12, mc.derive_seed(seed, 4)
    )
    near = abs(level.exponent.mean - level.limit) <= tol.BIGGINS_TOL
    return {"level_exponent": near}


def operations(workload: str) -> tuple[Op, ...]:
    """The ordered operations of one pass of the named workload."""
    if workload == "branching":
        return (
            cli_op("rates"),
            cli_op("gw-verify", "--replicas", "300"),
            cli_op("nbbm", "--t", "6", "--replicas", "40"),
            Op("bbm population mean t=5", call=_population_mean),
            *(
                Op(f"bbm level count t=6 x={x}", call=_level_count(k, x))
                for k, x in enumerate(tol.BBM_COUNT_XS)
            ),
            *(
                Op(f"bbm.estimate_max_tail t={t:g}", call=_max_tail(k, t))
                for k, t in enumerate(tol.MAX_TAIL_TS)
            ),
            Op("bbm.estimate_level_exponent t=12", call=_level_exponent),
        )
    if workload == "field-stream":
        return (
            cli_op("coarse-tail", "--zeta", "0", "--grid-n", "64", "--replicas", "2000"),
            cli_op("coarse-tail", "--zeta", "0", "--grid-n", "128", "--replicas", "800"),
            cli_op("daviaud", "--replicas", "40"),
        )
    if workload == "field-solve":
        return (
            cli_op("gff-cov", "--grid-n", "32", "--replicas", "1000"),
            cli_op("decompose-var", "--grid-n", "256", "--replicas", "100"),
            cli_op(
                "coarse-tail", "--zeta", "0.5", "--b", "0.6", "--grid-n", "64",
                "--replicas", "200",
            ),
            cli_op("cover-check"),
        )
    raise ValueError(f"unknown workload {workload!r}")


def judge_report(
    subcommand: str, rc: int, report_path: Path, validator
) -> tuple[str | None, dict[str, bool]]:
    """Apply the failure rule to one CLI call.

    Returns the failure reason (None when the operation succeeded) and the
    verdicts of the checks that do not count as failures. An exit code that
    contradicts the report's own verdict also fails the operation.
    """
    if rc in (2, 3):
        return f"exit code {rc}", {}
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}", {}
    errors = sorted(validator.iter_errors(report), key=str)
    if errors:
        return f"report fails the schema: {errors[0].message}", {}
    exact = EXACT_CHECKS.get(subcommand, ())
    statistical = {}
    for check in report["checks"]:
        if exact is None or check["name"].startswith(exact):
            if not check["passed"]:
                return f"exact check {check['name']} failed", statistical
        else:
            statistical[check["name"]] = check["passed"]
    if rc != (0 if report["passed"] else 1):
        return f"exit code {rc} disagrees with the report verdict", statistical
    return None, statistical
