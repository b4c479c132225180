import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import recnum
from recnum import experiments, make_context, sum_of_digits
from recnum.blockcert import KAPPA_TARGET, REFERENCE_ROWS
from recnum.cli import EXIT_CERT_FAIL, EXIT_ERROR, EXIT_OK, _round_floats, main
from recnum.expsum import one_norm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_validate_ok(capsys):
    code, payload = run_json(capsys, "validate", "--coeffs", "1,1")
    assert code == EXIT_OK
    assert payload["ok"] and payload["initials"] == [1, 2]
    assert payload["alpha"] == pytest.approx((1 + 5**0.5) / 2)
    code, payload = run_json(capsys, "validate", "--coeffs", "2")
    assert code == EXIT_OK and payload["alpha"] == 2.0


def test_validate_strict_failure(capsys):
    code, payload = run_json(capsys, "validate", "--coeffs", "1,1", "--initials", "2,1")
    assert code == EXIT_CERT_FAIL
    assert not payload["ok"] and payload["violations"]
    # G_n = 1 for every n passes every other condition
    code, payload = run_json(capsys, "validate", "--coeffs", "1")
    assert code == EXIT_CERT_FAIL and not payload["ok"]
    assert payload["violations"] == ["a_1 = 1 with d = 1 gives G_n = 1 for every n"]


def test_expand_and_sumdigits(capsys):
    code, payload = run_json(capsys, "expand", "--coeffs", "1,1", "--n", "7")
    assert code == EXIT_OK
    assert payload["digits"] == [0, 1, 0, 1] and payload["sum"] == 2
    assert payload["sum"] == sum_of_digits(make_context((1, 1)), 7) == 2


def test_expsum_methods_agree(capsys):
    args = ["--coeffs", "2,1", "--n", "6", "--y", "1/3", "--beta", "1/2"]
    _, direct = run_json(capsys, "expsum", *args, "--method", "direct")
    _, rec = run_json(capsys, "expsum", *args, "--method", "recurrent")
    assert direct["abs"] == pytest.approx(rec["abs"], rel=1e-9)


def test_mbound_and_theta(capsys):
    code, payload = run_json(capsys, "mbound", "--coeffs", "7,1")
    assert code == EXIT_OK and payload["m"] > 2
    code, payload = run_json(capsys, "theta", "--coeffs", "59,1")
    assert code == EXIT_OK
    assert payload["theta"] >= 0.5113939
    # ||S_n||_1 >= 1 rules out a block kappa below 2; NaN would print invalid JSON
    for kappa in ("1.5", "nan"):
        assert main(["theta", "--coeffs", "15,1", "--block-kappa", kappa]) == EXIT_ERROR
        assert "block kappa must be finite and >= 2" in capsys.readouterr().err


EXPONENT = 0.4886061  # criterion 3: a decay route holds when its exponent is below


def test_threshold_routes_at_the_low_edge(capsys):
    # criterion 3's miss at a = 40: neither m + 3 nor m^(2) + 2 is below
    # alpha^EXPONENT; by a = 44 the shifted route holds
    _, payload = run_json(capsys, "mbound", "--coeffs", "40,1", "--shift-r", "2")
    assert (round(payload["m"], 4), round(payload["m_shifted"], 4)) == (4.0510, 4.2859)
    _, payload = run_json(capsys, "theta", "--coeffs", "40,1", "--shift-r", "2")
    routes = payload["candidates"]
    assert routes["interval-sup"] > EXPONENT and routes["shifted-sup"] > EXPONENT
    _, payload = run_json(capsys, "theta", "--coeffs", "44,1", "--shift-r", "2")
    assert payload["candidates"]["shifted-sup"] < EXPONENT


def test_gallagher(capsys):
    code, payload = run_json(
        capsys, "gallagher", "--coeffs", "2,1", "--n", "5", "--beta", "0.37",
        "--qmax", "7",
    )
    assert code == EXIT_OK and payload["ok"]


def test_onenorm_beta_is_the_exact_fraction_it_names(capsys):
    # a decimal --beta means its exact decimal value, as H/Q does
    want = _round_floats(one_norm(make_context((1, 1)), 12, Fraction(1, 5)).value)
    for beta in ("0.2", "1/5"):
        code, payload = run_json(capsys, "onenorm", "--coeffs", "1,1", "--n", "12", "--beta", beta)
        assert code == EXIT_OK and (payload["beta"], payload["value"]) == ("1/5", want)


def test_table1_rows_34_and_35_miss_the_target(capsys):
    # the documented sweep failure: both rows print pass = 0 and the sweep
    # exits 2, with M2 still within 2 % of the stored row
    code, out = run(capsys, "table1", "--rows", "34,35", "--threads", "2")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == EXIT_CERT_FAIL and [r["a"] for r in rows] == ["34", "35"]
    for r in rows:
        assert r["pass"] == "0" and float(r["kappa"]) > KAPPA_TARGET
        assert float(r["M2"]) == pytest.approx(REFERENCE_ROWS[int(r["a"])][2], rel=0.02)


def test_blockbound_exit_matches_pass(capsys):
    # coarse grid: the exit code must agree with the reported pass flag
    code, payload = run_json(
        capsys, "blockbound", "--a", "15",
        "--eps", "0.01", "--eta", "0.001", "--threads", "4",
    )
    assert (code == EXIT_OK) == payload["pass"]
    assert code in (EXIT_OK, EXIT_CERT_FAIL)
    assert payload["kappa"] > 0 and payload["M2"] > payload["M2_2"]
    # the main term evaluates a share of its 15 * 1001 (q, gamma0) pairs
    assert 1 <= payload["exact_pairs"] < 15 * 1001 < payload["main_nodes"]
    # the binding shift of the certificate, one of the 15 residues
    assert payload["q_star"] in range(15)
    # a lone grid step is an error, not a silent fall-back to the reference grid
    for lone in (["--eps", "0.002"], ["--eta", "0.0005"]):
        assert main(["blockbound", "--a", "22", *lone]) == EXIT_ERROR
        assert "--eps and --eta together" in capsys.readouterr().err


def test_table1_csv_shape(capsys):
    code, out = run(capsys, "table1", "--rows", "22", "--threads", "2")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:6] == ["a", "eps", "eta", "M2", "kappa", "alpha3"]
    assert rows[1][:3] == ["22", "0.005", "0.0006"] and rows[1][6] in ("0", "1")
    assert (code == EXIT_OK) == (rows[1][6] == "1")
    assert main(["table1", "--rows", "14"]) == EXIT_ERROR
    assert "a=14 outside the certified range 15..39" in capsys.readouterr().err


def test_dead_flags_removed_and_threads_kept(capsys):
    args = ["--coeffs", "2,1", "--n", "6", "--y", "1/3", "--beta", "1/2"]
    assert main(["expsum", *args, "--format", "csv"]) == EXIT_ERROR
    assert main(["expsum", *args, "--threads", "2"]) == EXIT_ERROR
    assert main(["mbound", "--coeffs", "7,1", "--strict"]) == EXIT_ERROR
    assert main(["validate", "--coeffs", "1,1", "--strict"]) == EXIT_ERROR
    assert main(["expand", "--config", "f", "--n", "5"]) == EXIT_ERROR
    assert main(["blockbound", "--a", "22", "--delta", "1e-10"]) == EXIT_ERROR
    assert main(["table1", "--rows", "22", "--delta", "1e-10"]) == EXIT_ERROR
    assert main(["table1", "--rows", "22", "--eps", "0.01", "--eta", "0.001"]) == EXIT_ERROR
    assert main(["theta", "--coeffs", "59,1", "--block-width", "2"]) == EXIT_ERROR
    assert main(["discrepancy", "--coeffs", "1,1", "--x", "2000", "--s", "2",
                 "--r", "1", "--theta", "0.3", "--eps", "0.01"]) == EXIT_ERROR
    assert main(["discrepancy", "--coeffs", "1,1", "--x", "2000", "--s", "2",
                 "--r", "1", "--theta", "0.3", "--A", "1.0"]) == EXIT_ERROR
    assert main(["sumdigits", "--coeffs", "1,1", "--n", "7"]) == EXIT_ERROR
    capsys.readouterr()
    code, out = run(capsys, "table1", "--rows", "22", "--threads", "2")
    rows = list(csv.reader(io.StringIO(out)))
    assert code in (EXIT_OK, EXIT_CERT_FAIL) and rows[1][0] == "22"


def test_validate_missing_coeffs_is_a_usage_error(capsys):
    assert main(["validate"]) == EXIT_ERROR


def test_discrepancy(capsys):
    code, payload = run_json(
        capsys, "discrepancy", "--coeffs", "1,1", "--x", "2000", "--s", "2",
        "--r", "1", "--theta", "0.3",
    )
    assert code == EXIT_OK and payload["normalized"] > 0


def test_almostprimes(capsys):
    code, payload = run_json(
        capsys, "almostprimes", "--coeffs", "1,1", "--x", "10000", "--s", "2",
        "--r", "1",
    )
    assert code == EXIT_OK and payload["count"] > 0 and payload["ratio"] > 0


def test_vmsum(capsys):
    code, payload = run_json(
        capsys, "vmsum", "--coeffs", "1,1", "--x", "10000", "--ell", "2",
        "--s", "2", "--r", "1",
    )
    assert code == EXIT_OK and 0.2 < payload["ratio"] < 2.0


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "out.json"
    code = main(["validate", "--coeffs", "1,1", "--out", str(dest)])
    assert code == EXIT_OK
    assert json.loads(dest.read_text())["ok"]


def test_error_exit_code(capsys):
    code = main(["expand", "--coeffs", "0,1", "--n", "5"])
    assert code == EXIT_ERROR


def test_usage_error(capsys):
    assert main(["expand", "--n"]) == EXIT_ERROR


def test_shift_r_zero_is_a_usage_error(capsys):
    for cmd in ("theta", "mbound"):
        assert main([cmd, "--coeffs", "59,1", "--shift-r", "0"]) == EXIT_ERROR
        assert "shift modulus r must be >= 1" in capsys.readouterr().err
    code, payload = run_json(capsys, "theta", "--coeffs", "59,1", "--shift-r", "2")
    assert code == EXIT_OK and "shifted-sup" in payload["candidates"]


def test_block_commands_reject_base_flags(capsys):
    grid = ["--eps", "0.01", "--eta", "0.001"]
    assert main(["table1", "--coeffs", "5,1", "--rows", "20"]) == EXIT_ERROR
    assert main(["blockbound", "--a", "15", "--coeffs", "5,1", *grid]) == EXIT_ERROR
    assert main(["table1", "--initials", "1,6", "--rows", "20"]) == EXIT_ERROR


def test_block_commands_keep_out(tmp_path, capsys):
    dest = tmp_path / "rows.csv"
    code = main(["table1", "--rows", "22", "--threads", "2", "--out", str(dest)])
    assert code in (EXIT_OK, EXIT_CERT_FAIL)
    assert dest.read_text().startswith("a,eps,eta,M2,kappa")


@pytest.mark.parametrize("cmd, x, s, theta, message", [
    *[pytest.param(cmd, x, s, "0.3", "need x >= ", id=f"{cmd}-{x}-{s}") for cmd, x, s in [
        ("almostprimes", 1, 2), ("vmsum", 1, 2), ("vmsum", 0, 2), ("discrepancy", 0, 2),
        *[(cmd, 100, s) for s in (0, -3) for cmd in ("almostprimes", "vmsum", "discrepancy")],
    ]],
    # the level x^theta of the distribution result lies strictly between 1 and x
    *[pytest.param("discrepancy", 1000, 2, theta, "need 0 < theta < 1",
                   id=f"discrepancy-theta-{theta}") for theta in ("-1", "0", "1", "nan")],
])
def test_sieve_commands_reject_bad_inputs(capsys, cmd, x, s, theta, message):
    extra = {"vmsum": ["--ell", "2"], "discrepancy": ["--theta", theta]}.get(cmd, [])
    argv = [cmd, "--coeffs", "1,1", "--x", str(x), "--s", str(s), "--r", "1", *extra]
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["vmsum", "--x", "20000000", "--ell", "2", "--s", "2"],
     "x = 20000000 exceeds the guard 10000000"),
    (["vmsum", "--x", "10000000", "--ell", "1", "--s", "2"], "need ell >= 2"),
    (["almostprimes", "--x", "10000000", "--s", "0"], "need x >= 2 and s >= 1"),
    (["almostprimes", "--x", "200000000", "--s", "2"],
     "x = 200000000 exceeds the guard 100000000"),
], ids=["vmsum-guard", "vmsum-ell-1", "almostprimes-s-0", "almostprimes-guard"])
def test_sieve_commands_check_before_sieving(capsys, monkeypatch, argv, message):
    # a refused input must not pay for the sieve: both commands start by
    # sieving the primes up to isqrt(x)
    def no_sieve(n):
        raise AssertionError(f"_primes_upto({n}) called before the input was checked")

    monkeypatch.setattr(experiments, "_primes_upto", no_sieve)
    assert main([*argv, "--coeffs", "1,1", "--r", "1"]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("argv, message", [
    # G_n = 1 for every n: log alpha = 0 (expand, expsum and almostprimes
    # would never return, so they are not called here)
    (["mbound", "--coeffs", "1"], "invalid base: a_1 = 1 with d = 1"),
    (["theta", "--coeffs", "1"], "invalid base: a_1 = 1 with d = 1"),
    *[(["blockbound", "--a", "5", "--eps", "0.01", "--eta", "0.001", "--threads", t],
       f"need threads >= 1, got {t}") for t in ("0", "-3")],
    (["table1", "--rows", "22", "--threads", "0"], "need threads >= 1, got 0"),
    (["table1", "--rows", "20..15"], "empty row range 20..15"),
    (["table1", "--rows", ""], "invalid literal for int()"),
], ids=["mbound-1", "theta-1", "blockbound-threads-0", "blockbound-threads--3",
        "table1-threads-0", "table1-rows-reversed", "table1-rows-empty"])
def test_degenerate_inputs_are_usage_errors(capsys, argv, message):
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("y, beta", [("1/0", "1/2"), ("1/3", "2/0")])
def test_expsum_rejects_zero_denominator(capsys, y, beta):
    argv = ["expsum", "--coeffs", "2,1", "--n", "6", "--y", y, "--beta", beta]
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nonzero denominator" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["expsum", "--coeffs", "2,1", "--n", "-1", "--y", "1/3", "--beta", "1/2"],
    ["gallagher", "--coeffs", "1,1", "--n", "-2", "--beta", "0.3", "--qmax", "5"],
    ["gallagher", "--coeffs", "1,1", "--n", "5", "--beta", "0.3", "--qmax", "0"],
    ["onenorm", "--coeffs", "1,1", "--n", "5", "--beta", "inf"],
    ["gallagher", "--coeffs", "1,1", "--n", "5", "--beta", "nan", "--qmax", "5"],
], ids=["expsum-n", "gallagher-n", "gallagher-qmax", "onenorm-beta-inf", "gallagher-beta-nan"])
def test_expsum_commands_reject_bad_inputs(capsys, argv):
    # an error line, not a traceback and not a NaN in the JSON
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_expsum_huge_integer_frequency_is_zero_mod_1(capsys):
    # y = 10^400 is an integer: it reduces to 0 exactly instead of overflowing
    args = ["expsum", "--coeffs", "2,1", "--n", "5", "--beta", "1/2"]
    for method in ("recurrent", "direct"):
        code, huge = run_json(capsys, *args, "--y", "1e400", "--method", method)
        _, zero = run_json(capsys, *args, "--y", "0", "--method", method)
        assert code == EXIT_OK
        assert (huge["real"], huge["imag"], huge["abs"]) == (
            zero["real"], zero["imag"], zero["abs"])


def test_report_keys(capsys):
    # every report prints its dataclass fields, plus the command's own inputs
    base = ["--coeffs", "1,1"]
    cases = {
        ("mbound", "--coeffs", "7,1"): {
            "coeffs", "m_jb", "m_j", "m", "closed_form", "shift_r", "m_shifted", "theta"},
        ("theta", "--coeffs", "59,1"): {"theta", "eta", "winner", "candidates"},
        ("onenorm", *base, "--n", "6", "--beta", "0.3"): {"n", "beta", "value", "nodes"},
        ("discrepancy", *base, "--x", "1000", "--s", "2", "--r", "1", "--theta", "0.3"): {
            "x", "q_max", "r", "s", "exponent", "A", "z_samples", "per_q", "total",
            "normalized"},
        ("vmsum", *base, "--x", "1000", "--ell", "2", "--s", "3", "--r", "1"): {
            "x", "ell", "r", "s", "lhs", "main_term", "ratio"},
    }
    for argv, keys in cases.items():
        code, payload = run_json(capsys, *argv)
        assert code == EXIT_OK and set(payload) == keys, argv[0]
    # int keys print as strings in string order: "10" sorts before "2"
    code, payload = run_json(capsys, "mbound", "--coeffs", ",".join(["1"] * 10))
    assert code == EXIT_OK
    order = ["1", "10", *map(str, range(2, 10))]
    assert list(payload["m_jb"]) == order and list(payload["m_j"]) == order


LAZY = ("blockcert", "bounds", "experiments", "expsum")


def modules_run_by(argv):
    """In a fresh interpreter, run cli.main(argv) and report which lazy
    submodules have run their bodies (exec adds __builtins__ to a module's
    namespace; the namespace is read past the lazy module's attribute hook),
    and whether concurrent.futures, which only blockcert imports, is loaded."""
    script = textwrap.dedent(f"""
        import json, sys
        from recnum import cli
        code = cli.main({argv!r})
        mods = {{n: sys.modules.get("recnum." + n) for n in {LAZY!r}}}
        print(json.dumps({{
            "code": code,
            "registered": [n for n, m in mods.items() if m is not None],
            "ran": [n for n, m in mods.items()
                    if "__builtins__" in object.__getattribute__(m, "__dict__")],
            "futures": "concurrent.futures" in sys.modules,
        }}))
    """)
    src = str(Path(recnum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, ran", [
    (["expsum", "--coeffs", "2,1", "--n", "8", "--y", "1/3", "--beta", "1/2",
      "--method", "direct"], ["expsum"]),
    (["blockbound", "--a", "5", "--eps", "0.01", "--eta", "0.001"], ["blockcert", "bounds"]),
    (["almostprimes", "--coeffs", "1,1", "--x", "1000", "--s", "2", "--r", "0"],
     ["experiments"]),
    (["validate", "--coeffs", "1,1"], []),
])
def test_commands_run_only_the_modules_they_use(argv, ran):
    # every lazy submodule is registered from `import recnum` on, and a
    # command runs only the bodies it needs: an expsum never starts blockcert
    # or the thread-pool machinery it imports
    report = modules_run_by(argv)
    assert report["code"] in (EXIT_OK, EXIT_CERT_FAIL)  # a = 5 misses the target
    assert report["registered"] == list(LAZY)
    assert report["ran"] == ran
    assert report["futures"] == ("blockcert" in ran)
