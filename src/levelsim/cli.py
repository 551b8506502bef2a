"""Command-line front end: one subcommand per experiment pipeline.

Config files are plain ``key=value`` lines; ``#`` starts a comment and
keys may use hyphens or underscores interchangeably.  Command-line flags
win over config values.  Randomized subcommands require an explicit
``--seed``; there is no wall-clock fallback, so a fixed seed gives
byte-identical report files across runs.

Exit codes: 0 when every declared check passes, 1 when a check fails,
2 for usage or config errors, 3 for runtime failures (refused probes,
population-cap overflow, unwritable output paths).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Sequence

from . import pipelines
from . import tolerances as tol
from .bbm import NoDataError, PopulationCapError
from .gff import ProbeRefusedError
from .reports import Report, emit_report


class UsageError(ValueError):
    """Bad flag or config value; carries the offending field name."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


_INT_KEYS = frozenset({"seed", "replicas", "grid_n"})
_FLOAT_KEYS = frozenset({"a", "x", "eta", "t", "delta", "delta_prime", "zeta", "b"})
_STR_KEYS = frozenset({"out", "format"})

# Option names each subcommand accepts, from flags or from a config file.
_SUBCOMMAND_KEYS = {
    "rates": frozenset({"seed", "replicas", "a", "x", "eta", "out", "format"}),
    "gw-verify": frozenset({"seed", "replicas", "out", "format"}),
    "bbm-exponents": frozenset(
        {"seed", "replicas", "t", "x", "delta", "delta_prime", "out", "format"}
    ),
    "nbbm": frozenset({"seed", "replicas", "t", "out", "format"}),
    "gff-cov": frozenset({"seed", "replicas", "grid_n", "out", "format"}),
    "daviaud": frozenset({"seed", "replicas", "eta", "out", "format"}),
    "coarse-tail": frozenset(
        {"seed", "replicas", "zeta", "b", "grid_n", "out", "format"}
    ),
    "cover-check": frozenset({"grid_n", "delta", "out", "format"}),
    "decompose-var": frozenset(
        {"seed", "replicas", "grid_n", "delta", "out", "format"}
    ),
}

# Subcommands that draw random samples and therefore need --seed.  The
# rates subcommand is handled separately: its sweep mode is randomized
# but a single-point query (--a/--x/--eta) is deterministic.
_NEEDS_SEED = frozenset(
    {
        "gw-verify",
        "bbm-exponents",
        "nbbm",
        "gff-cov",
        "daviaud",
        "coarse-tail",
        "decompose-var",
    }
)


def _coerce(key: str, raw: str) -> int | float | str:
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise UsageError(f"{key} expects an integer, got {raw!r}", field=key)
    if key in _FLOAT_KEYS:
        try:
            return float(raw)
        except ValueError:
            raise UsageError(f"{key} expects a number, got {raw!r}", field=key)
    return raw


def _read_config(path: str, subcommand: str) -> dict[str, int | float | str]:
    """Parse a key=value config file, coercing values to the flag types."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}", field="config")
    allowed = _SUBCOMMAND_KEYS[subcommand]
    values: dict[str, int | float | str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw_value = line.partition("=")
        key = key.strip().replace("-", "_")
        raw_value = raw_value.strip()
        if not sep or not key:
            raise UsageError(
                f"{path}:{lineno}: expected key=value, got {raw_line.strip()!r}"
            )
        if key not in allowed:
            raise UsageError(
                f"{path}:{lineno}: unknown config key {key!r} for "
                f"subcommand {subcommand}",
                field=key,
            )
        if not raw_value:
            raise UsageError(f"{path}:{lineno}: missing value for {key!r}", field=key)
        values[key] = _coerce(key, raw_value)
    return values


def _merge(args: argparse.Namespace) -> dict[str, int | float | str | None]:
    """Config file first, then flags; flags win wherever both are set."""
    sub = args.subcommand
    params: dict[str, int | float | str | None] = {
        key: None for key in _SUBCOMMAND_KEYS[sub]
    }
    if args.config is not None:
        params.update(_read_config(args.config, sub))
    for key in _SUBCOMMAND_KEYS[sub]:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            params[key] = flag_value
    return params


def _require(condition: bool, message: str, field: str) -> None:
    if not condition:
        raise UsageError(message, field=field)


def _validate(sub: str, p: dict[str, int | float | str | None]) -> None:
    fmt = p.get("format")
    if fmt is not None and fmt not in ("json", "csv"):
        raise UsageError(f"format must be json or csv, got {fmt!r}", field="format")

    point_mode = sub == "rates" and any(
        p.get(k) is not None for k in ("a", "x", "eta")
    )
    if (sub in _NEEDS_SEED or (sub == "rates" and not point_mode)) and p.get(
        "seed"
    ) is None:
        raise UsageError(f"{sub} draws random samples; --seed is required", "seed")

    replicas = p.get("replicas")
    if replicas is not None:
        _require(replicas >= 1, f"replicas must be >= 1, got {replicas}", "replicas")

    grid_n = p.get("grid_n")
    if grid_n is not None:
        if sub == "gff-cov":
            _require(
                8 <= grid_n <= 64,
                f"grid-n must lie in [8, 64] (dense oracle), got {grid_n}",
                "grid_n",
            )
        elif sub == "decompose-var":
            _require(grid_n >= 64, f"grid-n must be >= 64, got {grid_n}", "grid_n")
        else:
            _require(grid_n >= 16, f"grid-n must be >= 16, got {grid_n}", "grid_n")

    delta = p.get("delta")
    if delta is not None:
        if sub == "bbm-exponents":
            _require(0.0 < delta < 1.0, f"delta must lie in (0, 1), got {delta}", "delta")
        else:
            _require(
                0.0 < delta < 0.95,
                f"delta must lie in (0, 0.95), got {delta}",
                "delta",
            )
    if p.get("delta_prime") is not None and delta is None:
        raise UsageError("delta-prime requires delta", field="delta_prime")

    t = p.get("t")
    if t is not None:
        _require(0.0 < t < math.inf, f"t must be finite and positive, got {t}", "t")
    x = p.get("x")
    if x is not None and sub == "bbm-exponents":
        _require(0.0 < x < math.sqrt(2), f"x must lie in (0, sqrt(2)), got {x}", "x")
    eta = p.get("eta")
    if eta is not None and sub == "daviaud":
        _require(0.0 < eta < 1.0, f"eta must lie in (0, 1), got {eta}", "eta")
    zeta = p.get("zeta")
    if zeta is not None:
        _require(0.0 <= zeta < 1.0, f"zeta must lie in [0, 1), got {zeta}", "zeta")
    b = p.get("b")
    if b is not None:
        _require(b > 0.0, f"b must be positive, got {b}", "b")


def _pick(value, default):
    return default if value is None else value


def _dispatch(sub: str, p: dict[str, int | float | str | None]) -> Report:
    if sub == "rates":
        if any(p[k] is not None for k in ("a", "x", "eta")):
            return pipelines.run_rate_point(a=p["a"], x=p["x"], eta=p["eta"])
        return pipelines.run_rates(
            p["seed"], queries=_pick(p["replicas"], tol.RATE_QUERIES)
        )
    if sub == "gw-verify":
        return pipelines.run_gw_verify(
            p["seed"], replicas=_pick(p["replicas"], tol.GW_SWEEP_REPLICAS)
        )
    if sub == "bbm-exponents":
        return pipelines.run_bbm_exponents(
            p["seed"],
            biggins_t=p["t"],
            biggins_x=p["x"],
            biggins_replicas=p["replicas"],
            path_delta=p["delta"],
            path_delta_prime=p["delta_prime"],
        )
    if sub == "nbbm":
        return pipelines.run_nbbm(
            p["seed"],
            t=_pick(p["t"], tol.NBBM_T),
            replicas=_pick(p["replicas"], tol.NBBM_REPLICAS),
        )
    if sub == "gff-cov":
        return pipelines.run_gff_cov(
            p["seed"],
            grid_n=_pick(p["grid_n"], tol.COV_GRID_N),
            samples=_pick(p["replicas"], tol.COV_SAMPLES),
        )
    if sub == "daviaud":
        return pipelines.run_daviaud(
            p["seed"],
            eta=_pick(p["eta"], tol.DAVIAUD_ETA),
            replicas=p["replicas"],
        )
    if sub == "coarse-tail":
        sizes = (p["grid_n"],) if p["grid_n"] is not None else tol.COARSE_SIZES
        return pipelines.run_coarse_tail(
            p["seed"],
            zeta=_pick(p["zeta"], tol.COARSE_ZETA),
            b=_pick(p["b"], tol.COARSE_B),
            sizes=sizes,
            replicas=_pick(p["replicas"], tol.COARSE_REPLICAS),
        )
    if sub == "cover-check":
        return pipelines.run_cover_check(
            grid_n=p["grid_n"], delta=_pick(p["delta"], 0.9)
        )
    if sub == "decompose-var":
        return pipelines.run_decompose_var(
            p["seed"],
            grid_n=_pick(p["grid_n"], tol.DECOMP_N),
            samples=_pick(p["replicas"], tol.DECOMP_SAMPLES),
            delta=_pick(p["delta"], 0.9),
        )
    raise UsageError(f"unknown subcommand {sub!r}")


def _diagnostic(message: str, field: str | None = None, **extra) -> None:
    payload: dict[str, object] = {"error": message}
    if field is not None:
        payload["field"] = field
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """argparse that reports errors as machine-readable JSON on stderr."""

    def error(self, message: str):
        _diagnostic(message)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="levelsim",
        description="Experiment pipelines for branching walks and the "
        "zero-boundary Gaussian field.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text, description=help_text)
        cmd.add_argument("--config", help="key=value config file; flags win")
        cmd.add_argument("--out", help="write the report here instead of stdout")
        cmd.add_argument("--format", choices=("json", "csv"), help="report format")
        if "seed" in _SUBCOMMAND_KEYS[name]:
            cmd.add_argument("--seed", type=int, help="master seed (required when sampling)")
        if "replicas" in _SUBCOMMAND_KEYS[name]:
            cmd.add_argument("--replicas", type=int, help="sampling effort override")
        return cmd

    rates = add("rates", "evaluate and certify the rate functions and maximizers")
    rates.add_argument("--a", type=float, help="fraction-of-time parameter")
    rates.add_argument("--x", type=float, help="particle speed; selects point mode")
    rates.add_argument("--eta", type=float, help="level height; selects point mode")

    add("gw-verify", "branching-process tail bound sweep, empirical and exact")

    bbm = add(
        "bbm-exponents",
        "branching-walk first moments, growth exponent, and max tail",
    )
    bbm.add_argument("--t", type=float, help="time horizon for the exponent run")
    bbm.add_argument("--x", type=float, help="level slope for the exponent run")
    bbm.add_argument(
        "--delta",
        type=float,
        help="mesh exponent: adds a path-discretization event diagnostic",
    )
    bbm.add_argument(
        "--delta-prime", type=float, help="spatial-box exponent for the diagnostic"
    )

    nbbm = add("nbbm", "pathwise dominance of the population-capped system")
    nbbm.add_argument("--t", type=float, help="time horizon")

    cov = add("gff-cov", "field sampler covariance against the exact Green oracle")
    cov.add_argument("--grid-n", type=int, help="grid side, 8 to 64")

    dav = add("daviaud", "level-set size exponents across grid sizes")
    dav.add_argument("--eta", type=float, help="level height fraction in (0, 1)")

    coarse = add("coarse-tail", "coarse-field exceedance probability probe")
    coarse.add_argument("--zeta", type=float, help="coarsening exponent in [0, 1)")
    coarse.add_argument("--b", type=float, help="height multiplier, positive")
    coarse.add_argument("--grid-n", type=int, help="probe a single grid side")

    cover = add("cover-check", "deterministic partition counting and shift covers")
    cover.add_argument("--grid-n", type=int, help="grid side (default: built-in cases)")
    cover.add_argument("--delta", type=float, help="schedule depth parameter")

    dec = add("decompose-var", "harmonic increment variances on the nested boxes")
    dec.add_argument("--grid-n", type=int, help="grid side, >= 64")
    dec.add_argument("--delta", type=float, help="schedule depth parameter")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        params = _merge(args)
        _validate(args.subcommand, params)
        report = _dispatch(args.subcommand, params)
    except ProbeRefusedError as exc:
        _diagnostic(
            str(exc),
            predicted_probability=exc.predicted_probability,
            replicas=exc.replicas,
        )
        return 3
    except (PopulationCapError, NoDataError) as exc:
        _diagnostic(str(exc))
        return 3
    except UsageError as exc:
        _diagnostic(str(exc), field=exc.field)
        return 2
    except ValueError as exc:
        _diagnostic(str(exc))
        return 2

    fmt = _pick(params.get("format"), "json")
    out = params.get("out")
    try:
        text = emit_report(report, fmt=fmt, path=out)
    except OSError as exc:
        _diagnostic(f"cannot write report: {exc}", field="out", path=str(out))
        return 3
    if out is None:
        sys.stdout.write(text)
    elapsed = time.perf_counter() - start
    _diagnostic_status(report, elapsed)
    return 0 if report.passed else 1


def _diagnostic_status(report: Report, elapsed: float) -> None:
    # Wall clock stays on stderr so report files are byte-stable per seed.
    print(
        json.dumps(
            {
                "subcommand": report.subcommand,
                "passed": report.passed,
                "wall_clock_seconds": round(elapsed, 3),
            },
            sort_keys=True,
        ),
        file=sys.stderr,
    )


if __name__ == "__main__":
    raise SystemExit(main())
