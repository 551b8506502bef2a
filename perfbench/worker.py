"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py <spawn time> <json config>

The spawn time is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so ``setup_s`` runs from
interpreter start until ``import levelsim.cli`` returns. The pass then runs
its workload's operations in order, closed loop, and prints one JSON line.
"""

import sys
import time

SPAWNED = float(sys.argv[1])

import os  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isfile(os.path.join(ROOT, "src", "levelsim", "cli.py")):
    sys.exit(f"levelsim sources not found under {ROOT}/src")
sys.path.insert(0, os.path.join(ROOT, "src"))

import levelsim.cli  # noqa: E402

SETUP_S = time.monotonic() - SPAWNED

import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import jsonschema  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def blas_facts() -> dict:
    """BLAS build and the thread count OpenBLAS actually uses (no threadpoolctl)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"blas": f"{blas['name']} {blas['version']}", "blas_threads": {}}
    site = os.path.dirname(os.path.dirname(np.__file__))
    for pkg in ("numpy", "scipy"):
        for path in glob.glob(os.path.join(site, f"{pkg}.libs", "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    facts["blas_threads"][pkg] = getter()
                    break
    return facts


def run_op(op: workloads.Op, seed: int, out: Path, validator) -> dict:
    """Run one operation and judge it by the failure rule. With no seed the
    flags carry their own (full mode)."""
    try:
        if op.call is not None:
            return {"op": op.name, "failed": None, "stat": op.call(seed)}
        sub = op.argv[0]
        seeded = seed is not None and sub != "cover-check"
        argv = list(op.argv) + (["--seed", str(seed)] if seeded else [])
        out.unlink(missing_ok=True)
        rc = levelsim.cli.main(argv + ["--out", str(out)])
        failed, stat = workloads.judge_report(sub, rc, out, validator)
        return {"op": op.name, "failed": failed, "stat": stat}
    except Exception as exc:  # an operation that raises is a failed operation
        return {"op": op.name, "failed": f"raised {type(exc).__name__}: {exc}", "stat": {}}


def main() -> None:
    config = json.loads(sys.argv[2])
    out_dir = Path(config["out_dir"])
    out = out_dir / f"report-{os.getpid()}.json"
    schema = json.loads((Path(ROOT) / "src" / "levelsim" / "report_schema.json").read_text())
    validator = jsonschema.Draft7Validator(schema)
    if "full" in config:
        ops = (workloads.Op(" ".join(config["full"]), argv=tuple(config["full"])),)
        seed = None
    else:
        ops = workloads.operations(config["workload"])
        seed = config["seed"]

    tracer = spans.Tracer() if config["trace"] else None
    if tracer is not None:
        spans.install(tracer)

    start = time.perf_counter()
    results = []
    for op in ops:
        began = time.perf_counter()
        results.append(run_op(op, seed, out, validator))
        results[-1]["s"] = time.perf_counter() - began
    end = time.perf_counter()
    out.unlink(missing_ok=True)

    record = {
        "setup_s": SETUP_S,
        "wall_s": end - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ops": results,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        **blas_facts(),
    }
    if tracer is not None:
        record["span_check"] = spans.check(tracer.spans, start, end)
        record["layers"] = spans.layer_metrics(tracer.spans, start, end)
        record["top_self"] = spans.top_self(tracer.spans, end - start)
        if "spans_file" in config:
            with open(out_dir / config["spans_file"], "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
