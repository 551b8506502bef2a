"""The benchmark tracer's call sites still name attributes of the package.

``perfbench/spans.py`` rebinds each ``(module, attribute)`` of its ``SITES``
table for a traced pass; a renamed or deleted attribute would only show up
as a crash of that pass. This loads the tracer by path and resolves every
site the way ``install`` does.
"""

import importlib
import importlib.util
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
