"""The benchmark tracer's call sites still name attributes of the package.

``perfbench/spans.py`` rebinds each ``(module, attribute)`` of its ``SITES``
table for a traced pass; a renamed or deleted attribute would only show up
as a crash of that pass. This loads the tracer by path and resolves every
site the way ``install`` does, and runs a traced pass of the threaded
threshold maps in a fresh interpreter.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_site_resolves():
    spans = load_spans()
    missing = [
        (path, attr)
        for path, attr, _, _ in spans.SITES
        if not callable(getattr(spans._owner(path), attr, None))
    ]
    assert missing == []


def test_wrapped_library_calls_resolve():
    # install also wraps scipy's DST-I as gff.sample sees it, and SuperLU
    # factorization as gff.green sees it
    sample = importlib.import_module("levelsim.gff.sample")
    green = importlib.import_module("levelsim.gff.green")
    assert callable(sample.scipy.fft.dstn)
    assert callable(green.spla.splu)


TRACED_RUN = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import spans
import levelsim.cli

tracer = spans.Tracer()
spans.install(tracer)
start = time.perf_counter()
codes = [levelsim.cli.main(argv + ["--out", sys.argv[2]]) for argv in json.loads(sys.argv[3])]
end = time.perf_counter()
names = [span[0] for span in tracer.spans]
print(json.dumps({
    "codes": codes,
    "check": spans.check(tracer.spans, start, end),
    "streams": names.count("mc.replica_rng"),
}))
"""


def test_threaded_threshold_maps_keep_the_trace_valid(tmp_path):
    # The float32 threshold maps and decompose-var's box draws run on every
    # usable CPU; their pool threads open spans only under the map's lock, so
    # the tracer's one-thread stack still holds.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argvs = [
        ["daviaud", "--replicas", "8", "--seed", "5"],
        ["coarse-tail", "--zeta", "0", "--grid-n", "64", "--replicas", "600", "--seed", "6"],
        # three blocks of box draws, which call no traced site
        ["decompose-var", "--grid-n", "64", "--replicas", "120", "--seed", "8"],
        # serial: its blocks call the wrapped sample_fields and harmonic_at
        ["coarse-tail", "--zeta", "0.5", "--b", "0.6", "--grid-n", "64", "--replicas", "200",
         "--seed", "7"],
    ]
    proc = subprocess.run(
        [
            sys.executable, "-c", TRACED_RUN,
            str(SPANS_PATH.parent), str(tmp_path / "report.json"), json.dumps(argvs),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert all(code in (0, 1) for code in result["codes"]), proc.stderr
    assert result["check"] is None
    # four daviaud sizes' blocks, the probes' and decompose-var's
    assert result["streams"] >= 9
