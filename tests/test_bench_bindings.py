"""The traced benchmark rebinds mrtcat functions by name; they must exist.

bench/spans.py lists, per mrtcat module, the functions a traced run
(`bench/run.py --trace 1`) wraps, and looks each one up with getattr.
Renaming or deleting one of them breaks every traced run, so this test
keeps the list and the package in step.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = load_spans().TRACED
    assert traced
    missing = [
        f"mrtcat.{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"mrtcat.{module}"), name, None))
    ]
    assert missing == []
