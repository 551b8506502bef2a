"""Command-line front end: one subcommand per experiment pipeline.

Each subcommand is declared once, in ``PIPELINES``: its run function, whether
it needs ``--seed``, and its numeric parameters with their admissible
intervals. The parser, config files, validation and dispatch all read that
registry, and dispatch passes only the values the user set, so each run
function's signature is the one place its defaults live.

Config files are plain ``key=value`` lines; ``#`` starts a comment and
keys may use hyphens or underscores interchangeably.  Command-line flags
win over config values.  Randomized subcommands require an explicit
``--seed``; there is no wall-clock fallback, so a fixed seed gives
byte-identical report files across runs.

Exit codes: 0 when every declared check passes, 1 when a check fails,
2 for usage or config errors, 3 for runtime failures: work a guard refuses
(one WorkRefusedError, one diagnostic shape), a level exponent with no data,
and an unwritable output path.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from decimal import Decimal
from pathlib import Path
from typing import Callable, Sequence

from . import pipelines, tolerances as tol
from .bbm import NoDataError
from .reports import Report, emit_report


class UsageError(ValueError):
    """Bad flag or config value; carries the offending field name."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class Param:
    """One numeric flag and config key.

    Values must lie in the interval from ``lo`` to ``hi``, closed on the
    sides that ``ends`` marks with a bracket; infinite ends are open, so
    every accepted value is finite. ``kwarg`` is the run function's keyword
    when it differs from ``key``.
    """

    key: str
    type: type
    help: str
    lo: float = -math.inf
    hi: float = math.inf
    ends: str = "()"
    kwarg: str | None = None

    @property
    def interval(self) -> str:
        return f"{self.ends[0]}{self.lo:g}, {self.hi:g}{self.ends[1]}"

    def admits(self, value: float) -> bool:
        above = self.lo < value or (self.ends[0] == "[" and self.lo == value)
        below = value < self.hi or (self.ends[1] == "]" and self.hi == value)
        return above and below


@dataclass(frozen=True)
class Pipeline:
    """One subcommand: ``run`` takes the user-set values by keyword."""

    name: str
    help: str
    run: Callable[..., Report]
    needs_seed: bool
    params: tuple[Param, ...]


def _late(name: str) -> Callable[..., Report]:
    # Resolve pipelines.<name> per call, so a rebound run function (a tracer,
    # a test double) is the one that runs.
    return lambda **kw: getattr(pipelines, name)(**kw)


def _rates(**kw) -> Report:
    """A point query when a, x or eta is set; otherwise the seeded sweep."""
    point = {key: kw.pop(key) for key in ("a", "x", "eta") if key in kw}
    if point:
        return pipelines.run_rate_point(**point)
    if "seed" not in kw:
        raise UsageError("rates draws random samples; --seed is required", "seed")
    return pipelines.run_rates(**kw)


def _coarse_tail(grid_n: int | None = None, **kw) -> Report:
    """A single grid side replaces the default size ladder."""
    if grid_n is not None:
        kw["sizes"] = (grid_n,)
    return pipelines.run_coarse_tail(**kw)


_SEED = Param("seed", int, "master seed (required when sampling)")
_REPLICAS = Param("replicas", int, "sampling effort override", 1, math.inf, "[)")
_DEPTH = Param("delta", float, "schedule depth parameter", 0.0, 0.95)

PIPELINES = {
    p.name: p
    for p in (
        Pipeline("rates", "evaluate and certify the rate functions and maximizers",
                 _rates, False, (
            _SEED,
            replace(_REPLICAS, kwarg="queries"),
            Param("a", float, "fraction-of-time parameter", 0.0,
                  1.0 - tol.RATE_MIN_ONE_MINUS_A, "[]"),
            Param("x", float, "particle speed; selects point mode", 0.0,
                  tol.RATE_MAX_X, "(]"),
            Param("eta", float, "level height; selects point mode", 0.0, 1.0),
        )),
        Pipeline("gw-verify", "branching-process tail bound sweep, empirical and exact",
                 _late("run_gw_verify"), True, (_SEED, _REPLICAS)),
        Pipeline("bbm-exponents",
                 "branching-walk first moments, growth exponent, and max tail",
                 _late("run_bbm_exponents"), True, (
            _SEED,
            replace(_REPLICAS, kwarg="biggins_replicas"),
            Param("t", float, "time horizon for the exponent run", tol.KPP_MIN_T,
                  ends="[)", kwarg="biggins_t"),
            Param("x", float, "level slope for the exponent run", 0.0, math.sqrt(2),
                  kwarg="biggins_x"),
            Param("delta", float, "mesh exponent: adds a path-discretization event "
                  "diagnostic", 0.5, 1.0, kwarg="path_delta"),
            Param("delta_prime", float, "spatial-box exponent for the diagnostic, "
                  "below 2*delta - 1", 0.0, 1.0, kwarg="path_delta_prime"),
        )),
        Pipeline("nbbm", "pathwise dominance of the population-capped system",
                 _late("run_nbbm"), True,
                 (_SEED, _REPLICAS, Param("t", float, "time horizon", 0.0))),
        Pipeline("gff-cov", "field sampler covariance against the exact Green oracle",
                 _late("run_gff_cov"), True, (
            _SEED,
            replace(_REPLICAS, kwarg="samples"),
            Param("grid_n", int, "grid side of both samplers", 8, tol.DENSE_GREEN_N_MAX, "[]"),
        )),
        Pipeline("daviaud", "level-set size exponents across grid sizes",
                 _late("run_daviaud"), True, (
            _SEED,
            _REPLICAS,
            Param("eta", float, "level height fraction", 0.0, 1.0),
        )),
        Pipeline("coarse-tail", "coarse-field exceedance probability probe",
                 _coarse_tail, True, (
            _SEED,
            _REPLICAS,
            Param("zeta", float, "coarsening exponent", 0.0, 1.0, "[)"),
            Param("b", float, "height multiplier", 0.0),
            Param("grid_n", int, "probe a single grid side", 16, math.inf, "[)"),
        )),
        Pipeline("cover-check", "deterministic partition counting and shift covers",
                 _late("run_cover_check"), False, (
            Param("grid_n", int, "grid side (default: built-in cases)", 16,
                  tol.PARTITION_GRID_N_MAX, "[]"),
            _DEPTH,
        )),
        Pipeline("decompose-var", "harmonic increment variances on the nested boxes",
                 _late("run_decompose_var"), True, (
            _SEED,
            replace(_REPLICAS, kwarg="samples"),
            Param("grid_n", int, "grid side", 64, tol.PARTITION_GRID_N_MAX, "[]"),
            _DEPTH,
        )),
    )
}

_REPORT_KEYS = ("out", "format")


def _coerce(param: Param, raw: str) -> int | float:
    try:
        return param.type(raw)
    except ValueError:
        kind = "an integer" if param.type is int else "a number"
        raise UsageError(f"{param.key} expects {kind}, got {raw!r}", field=param.key)


def _read_config(path: str, pipeline: Pipeline) -> dict[str, int | float | str]:
    """Parse a key=value config file, coercing values to the flag types."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}", field="config")
    params = {param.key: param for param in pipeline.params}
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
        if key not in params and key not in _REPORT_KEYS:
            raise UsageError(
                f"{path}:{lineno}: unknown config key {key!r} for "
                f"subcommand {pipeline.name}",
                field=key,
            )
        if not raw_value:
            raise UsageError(f"{path}:{lineno}: missing value for {key!r}", field=key)
        values[key] = _coerce(params[key], raw_value) if key in params else raw_value
    return values


def _merge(args: argparse.Namespace, pipeline: Pipeline) -> dict:
    """The values the user set: config file first, then flags, which win."""
    values = {} if args.config is None else _read_config(args.config, pipeline)
    for key in (*_REPORT_KEYS, *(param.key for param in pipeline.params)):
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    return values


def _validate(pipeline: Pipeline, p: dict[str, int | float | str]) -> None:
    fmt = p.get("format")
    if fmt is not None and fmt not in ("json", "csv"):
        raise UsageError(f"format must be json or csv, got {fmt!r}", field="format")
    if pipeline.needs_seed and "seed" not in p:
        raise UsageError(
            f"{pipeline.name} draws random samples; --seed is required", "seed"
        )
    for param in pipeline.params:
        value = p.get(param.key)
        if value is not None and not param.admits(value):
            flag = param.key.replace("_", "-")
            raise UsageError(
                f"{flag} must lie in {param.interval}, got {value}", field=param.key
            )
    if "delta_prime" in p and "delta" not in p:
        raise UsageError("delta-prime requires delta", field="delta_prime")


def _dispatch(pipeline: Pipeline, p: dict[str, int | float | str]) -> Report:
    chosen = (param for param in pipeline.params if param.key in p)
    return pipeline.run(**{param.kwarg or param.key: p[param.key] for param in chosen})


def _json_value(value: object) -> str:
    try:
        return json.dumps(value, sort_keys=True)
    except ValueError:
        # an int past Python's int-to-string digit limit, such as the byte
        # count of a field at a --grid-n of thousands of digits: exponent
        # form, a JSON number
        return f"{Decimal(value):.6e}"


def _diagnostic(message: str, field: str | None = None, **extra) -> None:
    payload: dict[str, object] = {"error": message}
    if field is not None:
        payload["field"] = field
    payload.update(extra)
    # json.dumps(payload, sort_keys=True), value by value
    items = (f"{json.dumps(key)}: {_json_value(payload[key])}" for key in sorted(payload))
    print("{" + ", ".join(items) + "}", file=sys.stderr)


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

    for pipeline in PIPELINES.values():
        cmd = sub.add_parser(
            pipeline.name, help=pipeline.help, description=pipeline.help
        )
        cmd.add_argument("--config", help="key=value config file; flags win")
        cmd.add_argument("--out", help="write the report here instead of stdout")
        cmd.add_argument("--format", choices=("json", "csv"), help="report format")
        for param in pipeline.params:
            cmd.add_argument(
                "--" + param.key.replace("_", "-"),
                type=param.type,
                help=f"{param.help}; in {param.interval}",
            )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    pipeline = PIPELINES[args.subcommand]
    try:
        params = _merge(args, pipeline)
        _validate(pipeline, params)
        report = _dispatch(pipeline, params)
    except tol.WorkRefusedError as exc:
        reached = {} if exc.reached is None else {"reached": exc.reached}
        _diagnostic(str(exc), stage=exc.stage, quantity=exc.quantity,
                    predicted=exc.predicted, limit=exc.limit, **reached)
        return 3
    except NoDataError as exc:
        _diagnostic(str(exc))
        return 3
    except UsageError as exc:
        _diagnostic(str(exc), field=exc.field)
        return 2
    except ValueError as exc:
        _diagnostic(str(exc))
        return 2

    fmt = params.get("format", "json")
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
