"""Tests of the benchmark itself, mostly at tiny sizes (under a minute in all).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced tiny runs of every workload, with different seeds."""
    return [_last_json(_bench("--workload", "all", "--seed", str(s), "--trace", "1"))
            for s in (1, 2)]


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == spans.PER_LAYER


def test_tiny_run_emits_every_end_to_end_metric_with_its_unit():
    res = _last_json(_bench("--workload", "all", "--seed", "7", "--seconds", "1"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 14
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"]:
            got = res["metrics"][f"{w['name']}.{m['name']}"]
            assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_run_emits_every_per_layer_metric_and_exact_counts_repeat(traced):
    for res in traced:
        assert res["correct"] and res["failed"] == 0
        for w in SPEC["workloads"]:
            for m in SPEC["per_layer"]:
                assert res["metrics"][f"{w['name']}.{m['name']}"]["unit"] == m["unit"]
    exact = ["bounds.dirichlet_kernel_abs.evals", "blockcert.certify_M2_2_detail.main_nodes",
             "digits.digit_sums_range.ints", "expsum.coefficient_A.calls"]
    for w in SPEC["workloads"]:
        for name in exact:
            key = f"{w['name']}.{name}"
            assert traced[0]["metrics"][key]["value"] == traced[1]["metrics"][key]["value"], key


def test_layers_predicted_idle_do_no_work(traced):
    m = {k: v["value"] for k, v in traced[0]["metrics"].items()}
    assert m["certify-row.blockcert.certify_M2_2_detail.main_nodes"] == sum(
        workloads.TINY_ROWS.values())
    assert m["certify-row.digits.digit_sums_range.ints"] == 0
    assert m["certify-row.experiments.sieve_spf.bytes"] == 0
    assert m["sieve-class.bounds.dirichlet_kernel_abs.evals"] == 0
    assert m["sieve-class.blockcert.certify_block_bound.busy_s"] == 0
    assert m["expsum-norms.digits.digit_sums_range.ints"] > 0
    assert m["certify-row.blockcert.parallel_eff"] > 0


def test_traced_and_untraced_children_print_identical_outputs():
    for name, (make_ops, _check) in workloads.WORKLOADS.items():
        argv = make_ops(3, "tiny", 2)[0]
        plain, traced = run.run_op(argv, "0", 0), run.run_op(argv, "1", 0)
        assert plain["record"] and traced["record"], name
        assert plain["record"]["out"] == traced["record"]["out"], name
        assert "trace" in traced["record"] and "trace" not in plain["record"]


def test_wrong_expected_value_is_counted_as_a_failure(monkeypatch):
    r = int(workloads.sieve_ops(5, "tiny", 1)[0][-1])
    wrong = dict(workloads.SIEVE_EXPECTED[("tiny", r)], count=-1)
    monkeypatch.setitem(workloads.SIEVE_EXPECTED, ("tiny", r), wrong)
    res = run.run_workload("sieve-class", 5, 0.0, False, "tiny", 1, {})
    assert not res["correct"]
    assert res["failed"] == 1 and res["attempted"] == 3
    assert "almostprimes" in res["detail"]["failures"][0]


def _table1_csv(a: int, m2: float) -> str:
    alpha = (a + math.sqrt(a * a + 4)) / 2
    kappa = math.log(m2) / math.log(alpha)
    return ("a,eps,eta,M2,kappa,alpha3,pass,ref_M2,ref_kappa\n"
            f"{a},0.005,0.0008,{m2},{kappa},0,1,0,0\n")


def test_checks_reject_wrong_outputs():
    op = workloads.certify_ops(1, "full", 2)[:1]
    m2 = workloads.TABLE1_ROWS[int(op[0][2])]
    good = _table1_csv(int(op[0][2]), m2)
    assert workloads.check("certify-row", op, [(0, good)]) == [None]
    assert workloads.check("certify-row", op, [(0, _table1_csv(int(op[0][2]), 1.1 * m2))])[0]
    assert workloads.check("certify-row", op, [(2, good)])[0]
    assert workloads.check("certify-row", op, [None])[0]

    pair = workloads.expsum_ops(1, "tiny", 1)[:2]
    for argv in pair:
        argv[argv.index("--y") + 1], argv[argv.index("--beta") + 1] = "1/3", "1/2"
    direct = {"real": 3.0, "imag": 1.0, "y": "1/3", "beta": "1/2"}
    off = {**direct, "real": 3.001}
    assert workloads.expsum_check(pair, [(0, json.dumps(direct))] * 2) == [None, None]
    assert workloads.expsum_check(pair, [(0, json.dumps(direct)), (0, json.dumps(off))])[1]


@pytest.mark.parametrize("size_r", sorted(workloads.SIEVE_EXPECTED))
def test_expected_sieve_values_agree_with_the_independent_reference(size_r):
    x, x_disc = workloads.SIEVE_X[size_r[0]]
    ref = reference.sieve_values(x, x_disc, size_r[1], workloads.DISCREPANCY_THETA)
    want = workloads.SIEVE_EXPECTED[size_r]
    assert ref["count"] == want["count"]
    assert ref["lhs"] == pytest.approx(want["lhs"], rel=2e-9)
    assert ref["total"] == pytest.approx(want["total"], rel=2e-9)


def test_reference_digit_sums_match_greedy_expansion():
    s = reference.zeckendorf_digit_sums(200)
    fib = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    for k in range(200):
        rem, total = k, 0
        for g in reversed(fib):
            total += rem // g
            rem %= g
        assert s[k] == total


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "sieve-class", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
