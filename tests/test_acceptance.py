"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Criteria marked `release` need the long a = 15 certification run and are
excluded from the default pytest invocation (see pyproject addopts); run
them with `pytest -m release`.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bound_helpers import sample_main_sums
from recnum.base import make_context
from recnum.blockcert import (
    KAPPA_TARGET,
    REFERENCE_ROWS,
    certify_block_bound,
    quadratic_context,
    reference_grid,
)
from recnum.bounds import m_closed_form, m_shifted, m_value, theta_lower_bound
from recnum.digits import expand, is_parry_admissible, value_of
from recnum.experiments import (
    GcdPreconditionWarning,
    almost_prime_count,
    bv_discrepancy,
    generalized_von_mangoldt,
    von_mangoldt_sum,
)
from recnum.expsum import ExpSumParams, exp_sum_direct, exp_sum_recurrent, gallagher_check

THETA_MIN = 0.5113939
THRESHOLD_EXP = 0.4886061
THREADS = 8


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:2d}] {desc}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def block_reports():
    return {
        a: certify_block_bound(a, reference_grid(a), threads=THREADS)
        for a in (39, 30)
    }


@pytest.fixture(scope="module")
def a15_certificate():
    # the long row: one shared heavy computation for all release criteria
    grid = reference_grid(15)
    rep = certify_block_bound(15, grid, threads=THREADS)
    return grid, rep.detail, rep.M2, rep.kappa


def test_criterion_01_table1_anchor_rows(block_reports):
    details = []
    ok = True
    for a, tol_ref in ((39, 46695.7), (30, 24991.4)):
        rep = block_reports[a]
        relerr = (rep.M2 - tol_ref) / tol_ref
        ok &= abs(relerr) <= 0.02 and rep.kappa < KAPPA_TARGET
        details.append(f"a={a}: M2={rep.M2:.1f} ({relerr:+.2%}), kappa={rep.kappa:.5f}")
    _report(1, "table rows a=39, a=30 within 2% and kappa < target", ok,
            "; ".join(details))


@pytest.mark.release
def test_criterion_01_release_row_a15(a15_certificate):
    _, _, m2, kappa = a15_certificate
    _report(1, "table row a=15 kappa < target (release)",
            kappa < KAPPA_TARGET, f"M2={m2:.1f}, kappa={kappa:.5f}")


def test_criterion_02_alpha_cubed_column():
    bad = []
    for a, (_, _, _, _, ref_a3) in REFERENCE_ROWS.items():
        alpha = quadratic_context(a).alpha
        got = round((a * a + 1) * alpha + a)  # alpha^3 without cubing error
        if got != ref_a3:
            bad.append(f"a={a}: {got} != {ref_a3}")
    _report(2, "round(alpha^3) matches the table for a=15..39", not bad,
            "; ".join(bad) or "all 25 rows exact")


def test_criterion_03_threshold_checks():
    failures = []
    for a in range(59, 101):
        ctx = make_context((a, 1))
        if not m_value(ctx) + 3.0 < ctx.alpha**THRESHOLD_EXP:
            failures.append(f"m+3 at a={a}")
    for a in range(40, 59):
        ctx = make_context((a, 1))
        m2 = m_shifted(ctx, 2)
        if not m2 + 2.0 < ctx.alpha**THRESHOLD_EXP:
            failures.append(
                f"m^(2)+2 at a={a}: {m2 + 2.0:.4f} vs {ctx.alpha**THRESHOLD_EXP:.4f}"
            )
    _report(3, "m+3 < alpha^c for a=59..100 and m^(2)+2 < alpha^c for a=40..58",
            not failures, "; ".join(failures) or "all thresholds hold")


def test_criterion_04_closed_form_domination():
    failures = []
    for a in range(3, 101):
        for a2 in (1, a):
            ctx = make_context((a, a2))
            if not m_value(ctx) <= m_closed_form(a) + 1e-12:
                failures.append(f"(a, a2)=({a}, {a2})")
    _report(4, "certified m <= closed form for a=3..100, a2 in {1, a}",
            not failures, "; ".join(failures) or "196 bases dominated")


def test_criterion_05_theta_reporting():
    rep = theta_lower_bound(make_context((59, 1)))
    _report(5, "theta >= 0.5113939 for a=(59,1)", rep.theta >= THETA_MIN,
            f"theta={rep.theta:.7f} via {rep.winner}")


@pytest.mark.release
def test_criterion_05_theta_with_block_a15(a15_certificate):
    _, _, _, kappa = a15_certificate
    rep = theta_lower_bound(make_context((15, 1)), block_kappa=kappa)
    _report(5, "theta >= 0.5113939 for a=(15,1) with block report (release)",
            rep.theta >= THETA_MIN,
            f"theta={rep.theta:.7f} via {rep.winner}, kappa={kappa:.5f}")


def dyadic(rng):
    """A random frequency with denominator 2^30 (the library takes no floats)."""
    return Fraction(int(rng.integers(2**30)), 2**30)


def test_criterion_06_expsum_oracle_equivalence():
    rng = np.random.default_rng(20260823)
    bases = [(1, 1), (2, 1), (3, 1), (3, 2), (2, 1, 1)]
    worst = 0.0
    bounded = True
    for coeffs in bases:
        ctx = make_context(coeffs)
        for _ in range(20):
            params = ExpSumParams.make(dyadic(rng), dyadic(rng))
            table = [exp_sum_recurrent(ctx, n, params) for n in range(13)]
            bounded &= all(
                abs(v) <= ctx.term(n) * (1 + 1e-12)
                for n, v in enumerate(table)
            )
            for n in (5, 9, 12):
                direct = exp_sum_direct(ctx, n, params)
                rel = abs(table[n] - direct) / max(1.0, abs(direct))
                worst = max(worst, rel)
    _report(6, "recurrent = direct to 1e-9 and |S_n| <= G_n", worst <= 1e-9 and bounded,
            f"worst relative deviation {worst:.2e} over 5 bases x 20 params x n<=12")


def test_criterion_07_certification_soundness(block_reports):
    rng = np.random.default_rng(7)
    details = []
    ok = True
    for a in (39, 30):
        grid = reference_grid(a)
        detail = block_reports[a].detail
        certified = (
            detail.main + detail.corr_gprime + detail.corr_g_alpha + detail.corr_g_eta
        )
        worst = sample_main_sums(a, 10**5, 1.0 + grid.eta / 2.0, rng)
        ok &= worst <= certified
        details.append(f"a={a}: worst sample {worst:.1f} vs certified {certified:.1f}")
    _report(7, "1e5 random main-term samples never exceed the certificate", ok,
            "; ".join(details))


@pytest.mark.release
def test_criterion_07_certification_soundness_a15(a15_certificate):
    rng = np.random.default_rng(15)
    grid, detail, _, _ = a15_certificate
    certified = (
        detail.main + detail.corr_gprime + detail.corr_g_alpha + detail.corr_g_eta
    )
    worst = sample_main_sums(15, 10**5, 1.0 + grid.eta / 2.0, rng)
    _report(7, "row a=15 soundness sampling (release)", worst <= certified,
            f"worst sample {worst:.1f} vs certified {certified:.1f}")


def test_criterion_08_gallagher_inequality():
    rng = np.random.default_rng(88)
    bases = [(1, 1), (2, 1), (3, 1), (3, 2), (2, 1, 1)]
    ok = True
    for _ in range(10):
        coeffs = bases[int(rng.integers(len(bases)))]
        ctx = make_context(coeffs)
        n = int(rng.integers(4, 7))
        q_max = int(rng.integers(3, 11))
        rep = gallagher_check(ctx, n, dyadic(rng), q_max)
        ok &= rep.ok
    _report(8, "well-spaced-points inequality for 10 random tuples", ok)


def test_criterion_09_digit_system_properties():
    bases = [(1, 1), (2, 1), (3, 2), (2, 1, 1), (3, 0, 1)]
    ok = True
    notes = []
    for coeffs in bases:
        ctx = make_context(coeffs)
        n = 10**6
        # full-range round trip, vectorized: greedy digits by floor division,
        # reconstructed values must be exactly the integers 0..n-1
        terms = ctx.terms_upto(n - 1)
        rem = np.arange(n, dtype=np.int64)
        recon = np.zeros(n, dtype=np.int64)
        for g in reversed(terms):
            d = rem // g
            recon += d * g
            rem -= d * g
        ok &= bool(np.all(recon == np.arange(n, dtype=np.int64)))
        # scalar expand round trip + greedy prefix inequalities on a sample
        rng = np.random.default_rng(sum(coeffs))
        for nu in rng.integers(0, n, size=200):
            e = expand(ctx, int(nu))
            ok &= value_of(ctx, e) == int(nu)
            ok &= all(
                value_of(ctx, e.digits[:j]) < ctx.term(j) for j in range(len(e))
            )
    # Parry = greedy for the strengthened (7, 1) base, length <= 6
    import itertools

    ctx = make_context((7, 1))
    length = 6
    greedy = {
        expand(ctx, nu).digits + (0,) * (length - len(expand(ctx, nu)))
        for nu in range(ctx.term(length))
    }
    admissible = {
        w for w in itertools.product(range(8), repeat=length)
        if is_parry_admissible(ctx, w)
    }
    parry_ok = admissible == greedy
    notes.append(f"parry set size {len(admissible)} == greedy {len(greedy)}")
    _report(9, "round trips, prefix inequalities, Parry = greedy", ok and parry_ok,
            "; ".join(notes))


def test_criterion_10_discrepancy_decay():
    ctx = make_context((1, 1))
    small = bv_discrepancy(ctx, 10**4, 1, 2, exponent=0.3)
    large = bv_discrepancy(ctx, 10**6, 1, 2, exponent=0.3)
    _report(10, "normalized discrepancy decreases from x=1e4 to x=1e6",
            large.normalized < small.normalized,
            f"{small.normalized:.4f} -> {large.normalized:.4f}")


def test_criterion_11_empirical_corollaries():
    """The vmsum ratio is held to its band only inside the theorem's hypothesis
    gcd(a_1 + ... + a_d - 1, s) = 1. For the base (100, 1) that is
    gcd(100, s) = 1, so the band is checked with s = 3. With s = 2 the
    hypothesis fails: every G_j is odd, so s_G(k) = k (mod 2) and the
    odd-digit-sum class is the odd integers. That call must emit
    GcdPreconditionWarning; its ratio is only reported.
    """
    ctx = make_context((1, 1))
    ratios = []
    for x in (10**5, 10**6, 10**7):
        count = almost_prime_count(ctx, x, 1, 2)
        ratios.append(count / (x / math.log(x)))
    stable = max(ratios) / min(ratios) < 2.0

    vm_ctx = make_context((100, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", GcdPreconditionWarning)
        rep = von_mangoldt_sum(vm_ctx, 10**6, 2, 1, 3)
    vm_ok = 0.5 <= rep.ratio <= 1.5
    with pytest.warns(GcdPreconditionWarning):
        degenerate = von_mangoldt_sum(vm_ctx, 10**6, 2, 1, 2)

    x = 10**6
    lam2 = generalized_von_mangoldt(x, 2)
    norm = float(lam2.sum()) / (2 * x * math.log(x))
    norm_ok = 0.85 <= norm <= 1.15

    _report(11, "almost-prime stability, vmsum ratio, Lambda_2 normalization",
            stable and vm_ok and norm_ok,
            f"ratios={['%.3f' % r for r in ratios]}, vmsum(s=3)={rep.ratio:.3f}, "
            f"vmsum(s=2, gcd 2, not checked)={degenerate.ratio:.3f}, "
            f"lambda2 norm={norm:.3f}")
