#!/usr/bin/env python3
"""recnum benchmark: runs CLI workloads end to end, one operation per fresh
interpreter, and checks every output.

    python3 perfbench/run.py --workload certify-row --seed 1 --seconds 40 --trace 0

Load is a closed loop with one client: one child process at a time, each
making one `recnum.cli.main(argv)` call, so no cache of the package survives
from one operation to the next. A pass runs the workload's operations once;
passes repeat while another one is predicted to end within --seconds (at
least one pass). Without tracing the last stdout line reports, per workload,
the medians over passes of wall_s, cpu_s and peak_rss_mb, and setup_s. With
--trace 1 it makes one untraced and one traced pass (plus, for certify-row,
one serial certification) and reports the per-layer metrics of spans.py.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The lines before it give a readable summary and a JSON detail record with the
environment and every pass. Traced spans are written to .perfbench_out/.
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

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 8
END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def run_op(argv: list[str], trace: str, op_id: int) -> dict:
    """Run one CLI operation in a fresh interpreter and measure it.

    setup_s runs from just before the spawn to the child's entry into
    cli.main (both on the system-wide monotonic clock); cpu_s and rss_mb
    come from the child's wait4 rusage.
    """
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), trace, str(op_id), *argv]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    with proc.stdout:
        out = proc.stdout.read()
    _pid, status, usage = os.wait4(proc.pid, 0)
    t_end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode(errors="replace").splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = None
    if record is not None and record.get("rc") != proc.returncode:
        record = None
    return {
        "argv": argv,
        "rc": proc.returncode,
        "record": record,
        "wall_s": t_end - t_spawn,
        "setup_s": record["t_enter"] - t_spawn if record else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
    }


def run_pass(ops: list[list[str]], trace: str) -> dict:
    load_before = os.getloadavg()
    t0 = time.monotonic()
    results = [run_op(argv, trace, i) for i, argv in enumerate(ops)]
    wall = time.monotonic() - t0
    return {
        "wall_s": wall,
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "ops": results,
    }


def check_pass(name: str, ops, p: dict, k: int) -> dict[tuple[int, int], str]:
    """Failure messages of pass k, keyed by (pass, operation)."""
    results = [(r["rc"], r["record"]["out"]) if r["record"] else None for r in p["ops"]]
    errors = workloads.check(name, ops, results)
    return {(k, i): f"{' '.join(ops[i])}: {e}" for i, e in enumerate(errors) if e}


def _pass_summary(p: dict) -> dict:
    return {k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "load_before", "load_after")}


def measure(name: str, ops, seconds: float) -> tuple[dict, list[dict], dict]:
    passes: list[dict] = []
    failures: dict[tuple[int, int], str] = {}
    # start-up alone, sampled several times so that setup_s is a steady median
    setups = [run_op([], "setup", 0)["setup_s"] for _ in range(SETUP_SAMPLES)]
    start = time.monotonic()
    while True:
        p = run_pass(ops, "0")
        passes.append(p)
        failures.update(check_pass(name, ops, p, len(passes) - 1))
        elapsed = time.monotonic() - start
        # start another pass only if it is predicted to end within --seconds
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    setups += [r["setup_s"] for p in passes for r in p["ops"]]
    setups = [t for t in setups if t is not None]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        # every child starts the same way (interpreter, numpy, recnum), so the
        # per-child median over the run's children and set-up samples, times
        # the children of one pass
        "setup_s": len(ops) * statistics.median(setups or [0.0]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, passes, failures


def trace_run(name: str, ops, threads: int, seed: int) -> tuple[dict, list[dict], dict, dict]:
    untraced = run_pass(ops, "0")
    traced = run_pass(ops, "1")
    passes = [untraced, traced]
    failures = {**check_pass(name, ops, untraced, 0), **check_pass(name, ops, traced, 1)}
    for i, (u, t) in enumerate(zip(untraced["ops"], traced["ops"])):
        if u["record"] and t["record"] and u["record"]["out"] != t["record"]["out"]:
            failures.setdefault((1, i), f"{' '.join(ops[i])}: traced output differs")
    traces = [r["record"]["trace"] for r in traced["ops"] if r["record"]]
    certs = [c for tr in traces for c in spans.certificates(tr)]
    extra: dict = {"certificates": [{"a": a, "sha256": h} for a, h, _ in certs]}
    saved = list(traces)
    parallel_eff = 0.0
    if name == "certify-row":
        # one extra serial certification of the first row: T(1) / (nproc T(nproc))
        serial = list(ops[0])
        serial[serial.index("--threads") + 1] = "1"
        probe = run_pass([serial], "1")
        passes.append(probe)
        failures.update(check_pass(name, [serial], probe, 2))
        record = probe["ops"][0]["record"]
        if record and certs:
            (a, sha, t_serial), = spans.certificates(record["trace"])
            _a, sha_threaded, t_threaded = certs[0]
            parallel_eff = t_serial / (threads * t_threaded)
            if sha != sha_threaded:
                failures.setdefault((2, 0), f"a={a}: serial certificate differs from threaded")
            extra["serial"] = {"a": a, "sha256": sha, "busy_s": t_serial}
            saved.append(record["trace"])
    metrics = spans.layer_metrics(traces, parallel_eff, traced["wall_s"] - untraced["wall_s"])
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{name}-seed{seed}.json", "w") as fh:
        json.dump({"workload": name, "seed": seed, "ops": ops, "traces": saved}, fh)
    return metrics, passes, failures, extra


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 threads: int, env: dict) -> dict:
    ops = workloads.WORKLOADS[name][0](seed, size, threads)
    extra: dict = {}
    if trace:
        metrics, passes, failures, extra = trace_run(name, ops, threads, seed)
        units = dict(spans.PER_LAYER)
    else:
        metrics, passes, failures = measure(name, ops, seconds)
        units = dict(END_TO_END)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = len(failures)
    numpy_versions = {r["record"]["numpy"] for p in passes for r in p["ops"] if r["record"]}
    detail = {
        "workload": name, "seed": seed, "size": size, "trace": trace, "ops": ops,
        "env": {**env, "numpy": sorted(numpy_versions)},
        "passes": [_pass_summary(p) for p in passes],
        "failures": [f"pass {k} op {i}: {msg}" for (k, i), msg in sorted(failures.items())],
        **extra,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "detail": detail,
    }


def summary_line(name: str, res: dict) -> str:
    shown = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
    return (f"{name}: {shown} fail_frac={res['failed'] / res['attempted']:.4g} "
            f"(ops_total={res['attempted']}) passes={len(res['detail']['passes'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: toy inputs that run in seconds (for the benchmark's tests)")
    args = ap.parse_args(argv)

    if not (SRC / "recnum" / "cli.py").is_file():
        print(f"error: no recnum sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = nproc  # the CLI's --threads; never above the CPUs this process may use
    warm = run_op([], "setup", 0)  # imports once, so .pyc files exist before timing
    if warm["record"] is None:
        print("error: cannot import recnum in a child interpreter", file=sys.stderr)
        return 2
    env = {"nproc": nproc, "threads": threads, "python": platform.python_version(),
           "git_commit": git_commit()}

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size,
                           threads, env)
        results[name] = res
        for failure in res["detail"]["failures"]:
            print(f"FAIL {name}: {failure}")
        print(summary_line(name, res))
        print(json.dumps(res["detail"]))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
