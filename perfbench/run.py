"""levelsim benchmark: closed-loop passes over three workloads.

    python3 perfbench/run.py --workload branching --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1   # every workload
    python3 perfbench/run.py --full

One client runs one pass at a time, each in a fresh interpreter, so cache
fills (LU factors, Cholesky, spectral scales) are paid once per pass, as a
CLI user pays them. Concurrency is the CLI default of 1; the BLAS thread
count is left at its default and recorded. Passes repeat until ``--seconds``
is spent (at least three), and each metric is the median over passes.

With ``--trace 0`` pass k draws from seed ``64 * seed + k`` and the
end-to-end metrics are reported. With ``--trace 1`` every pass uses seed
``64 * seed``; untraced and traced passes alternate, the per-layer metrics
are medians over the traced passes, their counts must repeat exactly, and
the trace overhead is the traced median wall over the untraced one.

The last stdout line is one JSON object (correct, attempted, failed,
metrics); the lines above it are for people. The full record, host facts
included, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("branching", "field-stream", "field-solve")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_SUFFIXES = (
    ".calls", ".fields", ".particles", ".peak_particles", ".branch_events", ".bytes", ".spans",
)
# Acceptance-size runs for --full: the CLI defaults, at the seeds the
# acceptance suite uses.
FULL_SIZE = (
    ("rates", "--seed", "7"),
    ("gw-verify", "--seed", "11"),
    ("bbm-exponents", "--seed", "71"),
    ("nbbm", "--seed", "31"),
    ("gff-cov", "--seed", "21"),
    ("daviaud", "--seed", "61"),
    ("coarse-tail", "--seed", "41"),
    ("cover-check",),
    ("decompose-var", "--seed", "51"),
)
MIN_PASSES = 3
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark cannot produce a result it can vouch for."""


def unit_of(metric: str) -> str:
    if metric.endswith(".bytes"):
        return "B_computed"
    if metric.endswith(COUNT_SUFFIXES):
        return "count"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_frac"):
        return "frac"
    return "s"


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    try:
        line = Path("/proc/stat").read_text().split("\n", 1)[0]
    except OSError:
        return 0, 0
    fields = [int(v) for v in line.split()[1:]]
    return fields[7], sum(fields)


def host_facts(seed: int | None, record: dict, ticks: tuple[int, int]) -> dict:
    """Machine, interpreter and BLAS facts recorded with every result, with
    the share of CPU time the hypervisor stole since ``ticks`` were read."""
    steal, total = (now - then for now, then in zip(cpu_ticks(), ticks))
    facts = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "ram_mb": None,
        "python": platform.python_version(),
        **record["versions"],
        "blas": record["blas"],
        "blas_threads": record["blas_threads"],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "seed": seed,
        "steal_frac": steal / total if total else 0.0,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                facts["ram_mb"] = int(line.split()[1]) // 1024
                break
    except OSError:
        pass
    return facts


def run_pass(config: dict, timeout: float) -> dict:
    """One pass in a fresh interpreter; returns the worker's record."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), repr(spawned), json.dumps(config)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"a pass ran past its {timeout:.0f} s limit")
    if proc.returncode != 0:
        raise BenchError(f"a pass exited {proc.returncode}: {stderr.strip()[-2000:]}")
    record = json.loads(stdout.strip().splitlines()[-1])
    record["elapsed_s"] = time.monotonic() - spawned
    record["traced"] = config["trace"]
    return record


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Closed loop: the next pass starts when the last one has ended, until
    another pass would overrun the measured time."""
    started = time.monotonic()
    passes: list[dict] = []
    while True:
        k = len(passes)
        config = {
            "workload": workload,
            "seed": 64 * seed + (0 if trace else k),
            # untraced, traced, traced, then alternating
            "trace": trace and (k in (1, 2) or (k > 2 and k % 2 == 0)),
            "out_dir": str(OUT_DIR),
            "spans_file": f"spans-{workload}-seed{seed}.jsonl",
        }
        passes.append(run_pass(config, DEADLINE_S - (time.monotonic() - started)))
        elapsed = time.monotonic() - started
        projected = elapsed + passes[-1]["elapsed_s"]
        if k + 1 >= MIN_PASSES and projected > seconds:
            return passes
        if k + 1 == 64 or projected > DEADLINE_S - 20:
            return passes


def layer_metrics(passes: list[dict]) -> dict[str, float]:
    """Per-layer medians over traced passes, after both tracer self-checks."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    for p in traced:
        if p["span_check"] is not None:
            raise BenchError(f"span self-check failed: {p['span_check']}")
    first = traced[0]["layers"]
    counts = [name for name in first if name.endswith(COUNT_SUFFIXES)]
    for p in traced[1:]:
        moved = [name for name in counts if p["layers"][name] != first[name]]
        if moved:
            raise BenchError(f"counts differ between traced passes at one seed: {moved}")
    values = {name: statistics.median(p["layers"][name] for p in traced) for name in first}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values["trace.overhead_frac"] = traced_wall / statistics.median(p["wall_s"] for p in plain) - 1.0
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print the readable lines, return the result object."""
    ticks = cpu_ticks()
    passes = run_passes(workload, seed, seconds, trace)
    failures = [(o["op"], o["failed"]) for p in passes for o in p["ops"] if o["failed"]]
    verdicts: dict[str, list[bool]] = {}
    for p in passes:
        for o in p["ops"]:
            for name, ok in o["stat"].items():
                verdicts.setdefault(name, []).append(ok)
    host = host_facts(seed, passes[0], ticks)
    print(f"[{workload}] host {json.dumps(host, sort_keys=True)}")
    for op, reason in failures:
        print(f"[{workload}] FAILED {op}: {reason}")
    shaky = sorted(name for name, oks in verdicts.items() if not all(oks))
    print(
        f"[{workload}] {len(verdicts)} statistical checks recorded, not counted; "
        f"failing in some pass: {', '.join(shaky) or 'none'}"
    )

    if trace:
        values = layer_metrics(passes)
        n_traced = sum(p["traced"] for p in passes)
        for name, value in values.items():
            print(f"[{workload}] {name:44s} {value:14.6g} {unit_of(name)}")
        print(f"[{workload}] medians over {n_traced} traced passes of {len(passes)}")
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    else:
        metrics = {}
        for name, unit in END_TO_END.items():
            samples = [p[name] for p in passes]
            q1, _, q3 = statistics.quantiles(samples, n=4)
            median = statistics.median(samples)
            metrics[name] = {"value": median, "unit": unit}
            print(
                f"[{workload}] {name:12s} median {median:10.4f} {unit:3s} "
                f"q1 {q1:.4f} q3 {q3:.4f} over {len(samples)} passes"
            )
    result = {
        "correct": not failures,
        "attempted": sum(len(p["ops"]) for p in passes),
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {"workload": workload, "host": host, "result": result, "passes": passes}
    name = f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))
    return result


def full_mode() -> int:
    """One traced run per pipeline at its acceptance workload; prints the
    baseline table. Informational: no repeats, no bounds."""
    ticks = cpu_ticks()
    print(f"{'pipeline':14s} {'wall':>9s}  top self-time shares")
    ok = True
    for argv in FULL_SIZE:
        config = {"full": list(argv), "trace": True, "out_dir": str(OUT_DIR)}
        record = run_pass(config, timeout=3600.0)
        failed = record["ops"][0]["failed"]
        ok = ok and not failed and record["span_check"] is None
        shares = ", ".join(f"{share:.0%} {name}" for name, share in record["top_self"])
        print(f"{argv[0]:14s} {record['wall_s']:8.1f}s  {shares}" + (f"  FAILED: {failed}" if failed else ""))
    print(f"host {json.dumps(host_facts(None, record, ticks), sort_keys=True)}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true", help="one-shot acceptance-size table")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "levelsim" / "cli.py").is_file():
        print(f"levelsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.full:
        return full_mode()
    if args.workload is None:
        parser.error("--workload is required unless --full is given")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
