"""Span recording for traced passes, from outside the package.

``install`` rebinds public functions at the module attributes where their
callers look them up, so each site below names a call site as well as a
callee (``sample_fields`` as ``pipelines`` and ``gff.levels`` see it, for
example). Untraced passes never call ``install`` and run unmodified code.

A span is ``[name, start, end, parent, info]`` on the ``perf_counter``
clock; ``info`` is a work count taken from the arguments or the result.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable

FIELD_SIZES = (32, 64, 128, 256, 512)
PIPELINES = (
    "run_rates",
    "run_gw_verify",
    "run_nbbm",
    "run_gff_cov",
    "run_daviaud",
    "run_coarse_tail",
    "run_cover_check",
    "run_decompose_var",
)
ESTIMATORS = ("estimate_max_tail", "estimate_level_exponent", "check_nbbm_dominance")


class Tracer:
    """Keeps spans in memory; one thread, so open spans form a stack."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced


class _Override:
    """Stands in for a module inside one caller: serves the wrapped
    attributes and forwards every other lookup to the real module."""

    def __init__(self, module, **attrs):
        self._module = module
        self.__dict__.update(attrs)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _field_info(args, kwargs, result):
    backend = kwargs.get("backend", args[3] if len(args) > 3 else "spectral")
    return (result.shape[1], result.shape[0], backend)


def _dst_bytes(args, kwargs, result):
    # computed from array sizes: the transform reads its input, writes its output
    return args[0].nbytes + result.nbytes


def _particles(args, kwargs, result):
    return int(result.size)


def _branch_events(args, kwargs, result):
    # a binary tree with n leaves has had n - 1 branch events
    return result.snapshots[-1].bbm_count - 1


# (module, attribute, span name, work count)
SITES = (
    ("levelsim.cli", "main", "cli.main", None),
    ("levelsim.reports", "render_report", "reports.render_report", None),
    ("levelsim.mc", "replica_rng", "mc.replica_rng", None),
    ("levelsim.mc", "parallel_map", "mc.parallel_map", None),
    ("levelsim.gw", "simulate_gw", "gw.simulate_gw", None),
    ("levelsim.gw", "exact_exceedance", "gw.exact_exceedance", None),
    ("levelsim.bbm", "sample_positions", "bbm.sample_positions", _particles),
    ("levelsim.bbm.estimators", "sample_positions", "bbm.sample_positions", _particles),
    ("levelsim.pipelines", "sample_positions", "bbm.sample_positions", _particles),
    ("levelsim.bbm.estimators", "simulate_nbbm", "bbm.simulate_nbbm", _branch_events),
    ("levelsim.bbm", "estimate_max_tail", "bbm.estimate_max_tail", None),
    ("levelsim.bbm", "estimate_level_exponent", "bbm.estimate_level_exponent", None),
    ("levelsim.pipelines", "estimate_max_tail", "bbm.estimate_max_tail", None),
    ("levelsim.pipelines", "estimate_level_exponent", "bbm.estimate_level_exponent", None),
    ("levelsim.pipelines", "check_nbbm_dominance", "bbm.check_nbbm_dominance", None),
    ("levelsim.pipelines", "sample_fields", "gff.sample_fields", _field_info),
    ("levelsim.gff.levels", "sample_fields", "gff.sample_fields", _field_info),
    ("levelsim.pipelines", "dirichlet_extend", "gff.dirichlet_extend", None),
    ("levelsim.gff.decompose", "dirichlet_extend", "gff.dirichlet_extend", None),
    ("levelsim.gff.green.GreenOperator", "entry", "gff.GreenOperator.entry", None),
    ("levelsim.gff.green.GreenOperator", "diagonal", "gff.GreenOperator.diagonal", None),
    ("levelsim.gff.levels", "harmonic_at", "gff.harmonic_at", None),
    ("levelsim.pipelines", "nested_partitions", "gff.nested_partitions", None),
    ("levelsim.pipelines", "shift_cover", "gff.shift_cover", None),
    *(("levelsim.pipelines", fn, f"pipelines.{fn}", None) for fn in PIPELINES),
    ("levelsim.pipelines", "run_bbm_exponents", "pipelines.run_bbm_exponents", None),
)


def _owner(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def install(tracer: Tracer) -> None:
    """Wrap every site, plus scipy's DST-I inside ``gff.sample`` and SuperLU
    factorization inside ``gff.green``, for the rest of the process."""
    for path, attr, name, info in SITES:
        owner = _owner(path)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), info))

    sample = importlib.import_module("levelsim.gff.sample")
    fft = sample.scipy.fft
    dstn = tracer.wrap("gff.dst", fft.dstn, _dst_bytes)
    sample.scipy = _Override(sample.scipy, fft=_Override(fft, dstn=dstn))
    green = importlib.import_module("levelsim.gff.green")
    green.spla = _Override(green.spla, splu=tracer.wrap("gff.splu", green.spla.splu))


def self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def check(spans: list[list], wall_start: float, wall_end: float) -> str | None:
    """Self-check of the bookkeeping; returns what broke, or None.

    Every span is closed and lies inside its parent (the pass, for a root);
    spans with one parent are disjoint; and the self times plus the time
    outside every root span add up to the traced wall.
    """
    eps = 1e-9
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if end < start:
            return f"span {name} ends before it starts"
        lo, hi = (wall_start, wall_end) if parent < 0 else spans[parent][1:3]
        if start < lo - eps or end > hi + eps:
            return f"span {name} is not inside its parent"
        children[parent].append((start, end))
    for intervals in children.values():
        intervals.sort()
        if any(b[0] < a[1] - eps for a, b in zip(intervals, intervals[1:])):
            return "two spans with one parent overlap"
    outside = (wall_end - wall_start) - sum(end - start for start, end in children[-1])
    selfs = self_times(spans)
    wall = wall_end - wall_start
    if abs(sum(selfs) + outside - wall) > 1e-6 * max(wall, 1.0):
        return f"self times {sum(selfs)!r} + untraced {outside!r} != wall {wall!r}"
    return None


def layer_metrics(spans: list[list], wall_start: float, wall_end: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass; absent layers read 0."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    peak_particles = 0
    fields_at: dict[int, list] = defaultdict(lambda: [0, 0.0])
    dense_self = 0.0
    for (name, start, end, _, info), self_s in zip(spans, selfs):
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s
        if name == "gff.sample_fields":
            grid_n, count, backend = info
            work[name] += count
            if backend == "dense":
                dense_self += self_s
            else:
                fields_at[grid_n][0] += count
                fields_at[grid_n][1] += end - start
        elif info is not None:
            work[name] += info
            if name == "bbm.sample_positions":
                peak_particles = max(peak_particles, info)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {
        "mc.replica_rng.calls": calls["mc.replica_rng"],
        "mc.replica_rng.self_s": own["mc.replica_rng"],
        "mc.parallel_map.calls": calls["mc.parallel_map"],
        "mc.parallel_map.self_s": own["mc.parallel_map"],
        "gw.simulate_gw.calls": calls["gw.simulate_gw"],
        "gw.simulate_gw.self_s": own["gw.simulate_gw"],
        "gw.exact_exceedance.self_s": own["gw.exact_exceedance"],
        "bbm.sample_positions.calls": calls["bbm.sample_positions"],
        "bbm.sample_positions.particles": work["bbm.sample_positions"],
        "bbm.sample_positions.peak_particles": peak_particles,
        "bbm.sample_positions.self_s": own["bbm.sample_positions"],
        "bbm.sample_positions.particles_per_s": rate(
            work["bbm.sample_positions"], total["bbm.sample_positions"]
        ),
        "bbm.simulate_nbbm.calls": calls["bbm.simulate_nbbm"],
        "bbm.simulate_nbbm.branch_events": work["bbm.simulate_nbbm"],
        "bbm.simulate_nbbm.self_s": own["bbm.simulate_nbbm"],
        "bbm.simulate_nbbm.events_per_s": rate(
            work["bbm.simulate_nbbm"], total["bbm.simulate_nbbm"]
        ),
        "bbm.estimators.self_s": sum(own[f"bbm.{fn}"] for fn in ESTIMATORS),
        "gff.sample_fields.calls": calls["gff.sample_fields"],
        "gff.sample_fields.fields": work["gff.sample_fields"],
        "gff.sample_fields.self_s": own["gff.sample_fields"],
        **{
            f"gff.sample_fields.n{n}.fields_per_s": rate(*fields_at[n])
            for n in FIELD_SIZES
        },
        "gff.sample_fields.dense.self_s": dense_self,
        "gff.dst.calls": calls["gff.dst"],
        "gff.dst.self_s": own["gff.dst"],
        "gff.dst.bytes": work["gff.dst"],
        "gff.dirichlet_extend.calls": calls["gff.dirichlet_extend"],
        "gff.dirichlet_extend.self_s": own["gff.dirichlet_extend"],
        "gff.GreenOperator.entry.calls": calls["gff.GreenOperator.entry"],
        "gff.GreenOperator.entry.self_s": own["gff.GreenOperator.entry"],
        "gff.GreenOperator.diagonal.self_s": own["gff.GreenOperator.diagonal"],
        "gff.splu.calls": calls["gff.splu"],
        "gff.splu.self_s": own["gff.splu"],
        "gff.harmonic_at.calls": calls["gff.harmonic_at"],
        "gff.harmonic_at.self_s": own["gff.harmonic_at"],
        "gff.nested_partitions.self_s": own["gff.nested_partitions"],
        "gff.shift_cover.self_s": own["gff.shift_cover"],
    }
    for fn in PIPELINES:
        m[f"pipelines.{fn}.s"] = total[f"pipelines.{fn}"]
        m[f"pipelines.{fn}.self_s"] = own[f"pipelines.{fn}"]
    m["reports.render_report.calls"] = calls["reports.render_report"]
    m["reports.render_report.self_s"] = own["reports.render_report"]
    m["cli.main.self_s"] = own["cli.main"]
    m["trace.spans"] = len(spans)
    wall = wall_end - wall_start
    m["trace.untraced_frac"] = (wall - sum(selfs)) / wall
    return m


def top_self(spans: list[list], wall: float, k: int = 3) -> list[tuple[str, float]]:
    """The k span names with the largest self time, as shares of the wall."""
    own: dict[str, float] = defaultdict(float)
    for (name, *_), self_s in zip(spans, self_times(spans)):
        own[name] += self_s
    ranked = sorted(own.items(), key=lambda item: -item[1])[:k]
    return [(name, s / wall) for name, s in ranked]
