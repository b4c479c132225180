"""The span tracer of the benchmark harness wraps recnum functions by name:
every name it lists must exist, or a traced run fails on install."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_trace_target_names_a_recnum_function():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name in spans.TARGETS:
        mod_name, fn_name = name.split(".")
        if not callable(getattr(importlib.import_module("recnum." + mod_name), fn_name, None)):
            missing.append(name)
    assert not missing
