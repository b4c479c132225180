"""Command-line entry point.

One subcommand per library operation; JSON output, CSV where the result is
tabular (table1). Exit codes: 0 success, 2 certification failure (a block
bound misses its target, or the base fails validation), 1 usage or internal
error. All floating-point output is limited to 10 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction

from . import base, blockcert, bounds, experiments, expsum
from .base import BaseContext, PreconditionError
from .digits import expand

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CERT_FAIL = 2


def _round_floats(obj):
    """Round every float to 10 significant digits, recursively. Dict keys
    become strings first, so sort_keys orders int keys as JSON prints them
    ("10" before "9")."""
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {str(k): _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(args, payload: dict | str) -> None:
    if isinstance(payload, dict):
        text = json.dumps(_round_floats(payload), indent=2, sort_keys=True) + "\n"
    else:
        text = payload
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spec_from_args(args) -> base.RecurrenceSpec:
    if not args.coeffs:
        raise PreconditionError("provide --coeffs")
    coeffs = tuple(int(c) for c in args.coeffs.split(","))
    initials = (
        tuple(int(g) for g in args.initials.split(","))
        if args.initials
        else base.strengthened_initials(coeffs)
    )
    return base.RecurrenceSpec(coeffs, initials)


def _context_from_args(args) -> BaseContext:
    return BaseContext(_spec_from_args(args))


def _parse_rows(text: str) -> list[int]:
    rows: list[int] = []
    for part in text.split(","):
        if ".." in part:
            lo, hi = map(int, part.split(".."))
            if lo > hi:
                raise PreconditionError(f"empty row range {part}: need lo <= hi")
            rows.extend(range(lo, hi + 1))
        else:
            rows.append(int(part))
    return rows


def _grid_from_args(args) -> blockcert.GridParams:
    if (args.eps is None) != (args.eta is None):
        raise PreconditionError("give --eps and --eta together, or neither")
    if args.eps is not None:
        return blockcert.GridParams(eps=args.eps, eta=args.eta)
    if args.a in blockcert.REFERENCE_ROWS:
        return blockcert.reference_grid(args.a)
    raise PreconditionError("provide --eps and --eta (no reference grid for this a)")


def cmd_validate(args) -> int:
    spec = _spec_from_args(args)
    report = base.validate_spec(spec)
    payload = {
        "coeffs": list(spec.coeffs),
        "initials": list(spec.initials),
        "ok": report.ok,
        "violations": list(report.violations),
    }
    if report.ok:
        payload["alpha"] = base.dominant_root(spec)
    _emit(args, payload)
    return EXIT_OK if report.ok else EXIT_CERT_FAIL


def cmd_expand(args) -> int:
    ctx = _context_from_args(args)
    e = expand(ctx, args.n)
    _emit(args, {"n": args.n, "digits": list(e.digits), "sum": sum(e.digits)})
    return EXIT_OK


def _frequency(text: str, flag: str) -> Fraction:
    """A frequency argument, H/Q or a decimal, as the exact Fraction it names."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise PreconditionError(f"{flag} needs a nonzero denominator") from None


def cmd_expsum(args) -> int:
    ctx = _context_from_args(args)
    y, beta = _frequency(args.y, "--y"), _frequency(args.beta, "--beta")
    params = expsum.ExpSumParams.make(y, beta)
    if args.method == "direct":
        value = expsum.exp_sum_direct(ctx, args.n, params)
    else:
        value = expsum.exp_sum_recurrent(ctx, args.n, params)
    _emit(
        args,
        {
            "n": args.n,
            "y": str(y),
            "beta": str(beta),
            "method": args.method,
            "real": value.real,
            "imag": value.imag,
            "abs": abs(value),
        },
    )
    return EXIT_OK


def cmd_onenorm(args) -> int:
    ctx = _context_from_args(args)
    beta = _frequency(args.beta, "--beta")
    est = expsum.one_norm(ctx, args.n, beta)
    _emit(args, {"n": args.n, "beta": str(beta), **asdict(est)})
    return EXIT_OK


def cmd_gallagher(args) -> int:
    ctx = _context_from_args(args)
    beta = _frequency(args.beta, "--beta")
    rep = expsum.gallagher_check(ctx, args.n, beta, args.qmax)
    _emit(args, {"n": args.n, "beta": str(beta), "qmax": args.qmax, **asdict(rep)})
    return EXIT_OK


def cmd_mbound(args) -> int:
    ctx = _context_from_args(args)
    rep = bounds.compute_mbound_report(ctx, shift_r=args.shift_r)
    _emit(args, asdict(rep))
    return EXIT_OK


def cmd_theta(args) -> int:
    ctx = _context_from_args(args)
    rep = bounds.theta_lower_bound(
        ctx, shift_r=args.shift_r, block_kappa=args.block_kappa
    )
    _emit(args, asdict(rep))
    return EXIT_OK


def cmd_blockbound(args) -> int:
    grid = _grid_from_args(args)
    rep = blockcert.certify_block_bound(args.a, grid, threads=args.threads)
    _emit(
        args,
        {
            "a": rep.a,
            "eps": rep.grid.eps,
            "eta": rep.grid.eta,
            "delta": rep.grid.delta,
            "M2_2": rep.M2_2,
            "M2_3": rep.M2_3,
            "M2": rep.M2,
            "kappa": rep.kappa,
            "kappa_target": blockcert.KAPPA_TARGET,
            "pass": rep.ok,
            "main_nodes": rep.main_nodes,
            "exact_pairs": rep.detail.exact_pairs,
            "q_star": rep.detail.q_star,
        },
    )
    return EXIT_OK if rep.ok else EXIT_CERT_FAIL


def cmd_table1(args) -> int:
    reference = blockcert.REFERENCE_ROWS
    rows = sorted(reference, reverse=True) if args.rows is None else _parse_rows(args.rows)
    for a in rows:
        if a not in reference:
            raise PreconditionError(f"a={a} outside the certified range 15..39")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["a", "eps", "eta", "M2", "kappa", "alpha3", "pass", "ref_M2", "ref_kappa"]
    )
    all_ok = True
    for a in rows:
        _, _, ref_m2, ref_kappa, _ = reference[a]
        rep = blockcert.certify_block_bound(a, blockcert.reference_grid(a), args.threads)
        alpha3 = round((a * a + 1) * blockcert.quadratic_context(a).alpha + a)
        writer.writerow(
            [
                a,
                f"{rep.grid.eps:.10g}",
                f"{rep.grid.eta:.10g}",
                f"{rep.M2:.10g}",
                f"{rep.kappa:.10g}",
                alpha3,
                int(rep.ok),
                f"{ref_m2:.10g}",
                f"{ref_kappa:.10g}",
            ]
        )
        all_ok &= rep.ok
    _emit(args, buf.getvalue())
    return EXIT_OK if all_ok else EXIT_CERT_FAIL


def cmd_discrepancy(args) -> int:
    ctx = _context_from_args(args)
    rep = experiments.bv_discrepancy(ctx, args.x, args.r, args.s, exponent=args.theta)
    _emit(args, asdict(rep))
    return EXIT_OK


def cmd_almostprimes(args) -> int:
    ctx = _context_from_args(args)
    count = experiments.almost_prime_count(ctx, args.x, args.r, args.s)
    _emit(
        args,
        {
            "x": args.x,
            "r": args.r,
            "s": args.s,
            "count": count,
            "x_over_log_x": args.x / math.log(args.x),
            "ratio": count / (args.x / math.log(args.x)),
        },
    )
    return EXIT_OK


def cmd_vmsum(args) -> int:
    ctx = _context_from_args(args)
    rep = experiments.von_mangoldt_sum(ctx, args.x, args.ell, args.r, args.s)
    _emit(args, asdict(rep))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # every command takes --out; only the commands that build a base take
    # the base flags (blockbound and table1 fix their own base, (a, 1))
    with_out = argparse.ArgumentParser(add_help=False)
    with_out.add_argument("--out", help="output file (default stdout)")
    with_base = argparse.ArgumentParser(add_help=False, parents=[with_out])
    with_base.add_argument("--coeffs", help="comma-separated a_1,...,a_d")
    with_base.add_argument("--initials", help="comma-separated G_0,...,G_{d-1}")

    p = argparse.ArgumentParser(prog="recnum", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", parents=[with_base])
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("expand", parents=[with_base])
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("expsum", parents=[with_base])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--y", required=True, help="frequency on k, as H/Q or a decimal")
    sp.add_argument("--beta", required=True, help="frequency on s_G, as R/S or a decimal")
    sp.add_argument("--method", choices=["direct", "recurrent"], default="recurrent")
    sp.set_defaults(func=cmd_expsum)

    sp = sub.add_parser("onenorm", parents=[with_base])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--beta", required=True, help="frequency on s_G, as R/S or a decimal")
    sp.set_defaults(func=cmd_onenorm)

    sp = sub.add_parser("gallagher", parents=[with_base])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--beta", required=True, help="frequency on s_G, as R/S or a decimal")
    sp.add_argument("--qmax", type=int, required=True)
    sp.set_defaults(func=cmd_gallagher)

    sp = sub.add_parser("mbound", parents=[with_base])
    sp.add_argument("--shift-r", type=int, default=None)
    sp.set_defaults(func=cmd_mbound)

    sp = sub.add_parser("theta", parents=[with_base])
    sp.add_argument("--shift-r", type=int, default=None)
    sp.add_argument("--block-kappa", type=float, default=None)
    sp.set_defaults(func=cmd_theta)

    sp = sub.add_parser("blockbound", parents=[with_out])
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--eta", type=float, default=None)
    sp.add_argument("--threads", type=int, default=1)
    sp.set_defaults(func=cmd_blockbound)

    sp = sub.add_parser("table1", parents=[with_out])
    sp.add_argument("--rows", help="e.g. 15..39 or 39 or 15,20,39")
    sp.add_argument("--threads", type=int, default=1)
    sp.set_defaults(func=cmd_table1)

    sp = sub.add_parser("discrepancy", parents=[with_base])
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--theta", type=float, required=True)
    sp.set_defaults(func=cmd_discrepancy)

    sp = sub.add_parser("almostprimes", parents=[with_base])
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.set_defaults(func=cmd_almostprimes)

    sp = sub.add_parser("vmsum", parents=[with_base])
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.set_defaults(func=cmd_vmsum)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (PreconditionError, base.CostGuardError, base.IntegerWidthError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
