"""Deterministic experiment reports.

A report is inputs echo + estimate rows + named checks, each check carrying
its analytic anchor and tolerance. Serialization is byte-stable: sorted JSON
keys, fixed CSV columns, round-trip float reprs, and nothing time- or
thread-dependent inside the document (wall-clock timing goes to stderr at
the command-line layer, never into the report body).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Check",
    "Report",
    "abs_check",
    "rel_check",
    "sigma_check",
    "bound_check",
    "flag_check",
    "emit_report",
]


def _plain(value):
    """Coerce numpy scalars and containers to JSON-native types.

    NaN and infinities have no JSON token (RFC 8259), so they become None.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    if hasattr(value, "item"):
        return _plain(value.item())
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return str(value)


@dataclass(frozen=True)
class Check:
    """One named comparison: value against target, anchor and tolerance."""

    name: str
    passed: bool
    value: float | None
    target: float | None
    tolerance: float
    kind: str
    anchor: str
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "value": _plain(self.value),
            "target": _plain(self.target),
            "tolerance": _plain(self.tolerance),
            "kind": self.kind,
            "anchor": self.anchor,
            "detail": self.detail,
        }


def abs_check(
    name: str, value: float, target: float, tol: float, anchor: str, detail: str = ""
) -> Check:
    return Check(name, abs(value - target) <= tol, value, target, tol, "abs", anchor, detail)


def rel_check(
    name: str, value: float, target: float, tol: float, anchor: str, detail: str = ""
) -> Check:
    ok = abs(value - target) <= tol * abs(target)
    return Check(name, ok, value, target, tol, "rel", anchor, detail)


def sigma_check(
    name: str,
    value: float,
    stderr: float,
    target: float,
    multiple: float,
    anchor: str,
    detail: str = "",
) -> Check:
    ok = abs(value - target) <= multiple * stderr
    note = f"stderr={stderr!r}" + (f"; {detail}" if detail else "")
    return Check(name, ok, value, target, multiple, "sigma", anchor, note)


def bound_check(
    name: str, value: float, bound: float, anchor: str, detail: str = ""
) -> Check:
    return Check(name, value <= bound, value, bound, 0.0, "bound", anchor, detail)


def flag_check(name: str, ok: bool, anchor: str, detail: str = "") -> Check:
    return Check(name, bool(ok), None, None, 0.0, "flag", anchor, detail)


@dataclass(frozen=True)
class Report:
    """Inputs echo, estimate rows and check rows for one experiment."""

    subcommand: str
    inputs: dict
    estimates: tuple[dict, ...]
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "inputs": _plain(self.inputs),
            "estimates": [_plain(e) for e in self.estimates],
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed,
        }


_CSV_COLUMNS = (
    "section",
    "name",
    "value",
    "stderr",
    "target",
    "tolerance",
    "kind",
    "passed",
    "detail",
)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _estimate_row(est: dict) -> list[str]:
    extras = {
        k: v for k, v in est.items() if k not in ("name", "value", "stderr")
    }
    detail = ";".join(f"{k}={_csv_cell(_plain(v))}" for k, v in sorted(extras.items()))
    return [
        "estimate",
        str(est.get("name", "")),
        _csv_cell(_plain(est.get("value"))),
        _csv_cell(_plain(est.get("stderr"))),
        "",
        "",
        "",
        "",
        detail,
    ]


def _check_row(check: Check) -> list[str]:
    return [
        "check",
        check.name,
        _csv_cell(_plain(check.value)),
        "",
        _csv_cell(_plain(check.target)),
        _csv_cell(_plain(check.tolerance)),
        check.kind,
        _csv_cell(check.passed),
        f"anchor={check.anchor}" + (f";{check.detail}" if check.detail else ""),
    ]


def render_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.as_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for est in report.estimates:
            writer.writerow(_estimate_row(est))
        for check in report.checks:
            writer.writerow(_check_row(check))
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}; use 'json' or 'csv'")


def emit_report(report: Report, fmt: str = "json", path: str | Path | None = None) -> str:
    """Render and optionally write; the returned text is what was written."""
    text = render_report(report, fmt)
    if path is not None:
        Path(path).write_text(text)
    return text
