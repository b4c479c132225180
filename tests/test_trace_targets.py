"""The span tracer of the benchmark harness wraps recnum functions by name:
every name it lists must exist, or a traced run fails on install."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import recnum

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


def test_tracer_installs_after_import_and_records_the_layers():
    # as the benchmark's child does: import recnum.cli, then install the
    # tracer, which finds every target module in sys.modules (lazy ones
    # included) and wraps the functions, also where another module imported
    # them by name; the blockcert pool's spans and the direct sum's digit
    # sums must be recorded
    script = textwrap.dedent("""
        import json
        import recnum.cli
        from spans import Tracer
        tracer = Tracer(0)
        tracer.install()
        codes = [recnum.cli.main(argv) for argv in (
            ["blockbound", "--a", "5", "--eps", "0.01", "--eta", "0.001", "--threads", "2"],
            ["expsum", "--coeffs", "1,1", "--n", "12", "--y", "1/3", "--beta", "2/3",
             "--method", "direct"])]
        print(json.dumps({"codes": codes, "names": sorted({s[1] for s in tracer.spans})}))
    """)
    src = str(Path(recnum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(SPANS.parent)])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"][1] == 0
    assert {"blockcert.certify_M2_2_detail", "bounds.dirichlet_kernel_abs",
            "digits.digit_sums_range"} <= set(report["names"])
