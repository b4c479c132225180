import math
from dataclasses import asdict

import mpmath
import numpy as np
import pytest

from bound_helpers import m_of_j, m_table
from recnum import bounds
from recnum.base import PreconditionError, make_context
from recnum.bounds import (
    SHIFT_EPS_SLACK,
    _lobe_peak,
    _local_second_derivative_bound,
    compute_mbound_report,
    dirichlet_kernel_abs,
    dirichlet_kernel_deriv_abs,
    dirichlet_sup,
    interval_sup_deriv,
    kernel_derivative_cap,
    kernel_second_derivative_cap,
    m_closed_form,
    m_shifted,
    m_value,
    shift_modulus_limit,
    theta_lower_bound,
)


def _kernel(y, a):
    return abs(math.sin(math.pi * a * y) / math.sin(math.pi * y))


def test_kernel_values():
    assert dirichlet_kernel_abs(np.array([0.0]), 5)[0] == pytest.approx(5.0)
    assert dirichlet_kernel_abs(np.array([1.0]), 5)[0] == pytest.approx(5.0)
    y = 0.123
    assert dirichlet_kernel_abs(np.array([y]), 7)[0] == pytest.approx(_kernel(y, 7))


def test_kernel_bounded_by_a():
    ys = np.linspace(0, 1, 10001)
    assert np.all(dirichlet_kernel_abs(ys, 9) <= 9 + 1e-9)


def test_derivative_vanishes_at_integers():
    vals = dirichlet_kernel_deriv_abs(np.array([0.0, 1.0, 2.0]), 8)
    assert np.all(vals == 0.0)


def test_derivative_matches_finite_difference():
    a = 6
    ys = np.array([0.07, 0.21, 0.52, 0.77])
    h = 1e-7
    for y in ys:
        fd = abs(_kernel(y + h, a) - _kernel(y - h, a)) / (2 * h)
        # |g|' differs from |g'| only in sign flips away from zeros of g
        assert dirichlet_kernel_deriv_abs(np.array([y]), a)[0] == pytest.approx(
            fd, rel=1e-4
        )


def test_derivative_cap_holds():
    a = 11
    ys = np.linspace(0, 1, 20001)
    assert np.all(dirichlet_kernel_deriv_abs(ys, a) <= kernel_derivative_cap(a))


def test_second_derivative_cap_positive():
    assert kernel_second_derivative_cap(5) > kernel_derivative_cap(5)


def test_sup_certificate_dominates_samples():
    rng = np.random.default_rng(5)
    a = 13
    for b in range(a):
        lo, hi = b / a, (b + 1) / a
        bound = dirichlet_sup(a, lo, hi)
        ys = lo + (hi - lo) * rng.random(4000)
        vals = dirichlet_kernel_abs(ys, a)
        assert bound >= float(vals.max()) - 1e-12
        assert bound <= a


def _reduced_kernel(ys, a):
    # |g| at min(f, 1 - f): exact reduction, as dirichlet_sup evaluates it
    f = ys - np.floor(ys)
    return dirichlet_kernel_abs(np.minimum(f, 1.0 - f), a)


# every interval of the partitions of m(j) and m^(4) for a_j = a, and
# intervals that span several zeros of the kernel
SUP_CASES = [
    (a, (b + t) / a, (b + t + 1) / a)
    for a in (7, 15, 29, 39, 59)
    for t in (0.0, 0.25, 0.5, 0.75)
    for b in range(a)
] + [(13, 0.1, 0.45), (7, 0.02, 0.98), (29, 1.01, 1.6), (5, -0.9, -0.05), (59, 0.3, 0.35)]


def test_sup_bisection_dominates_dense_grid():
    assert len(SUP_CASES) == 596 + 5
    for a, lo, hi in SUP_CASES:
        dense = float(_reduced_kernel(np.linspace(lo, hi, 200001), a).max())
        bound = dirichlet_sup(a, lo, hi)
        assert dense <= bound <= dense * (1.0 + 1e-9), (a, lo, hi)


def _mp_sup(a, lo, hi):
    """sup of |g| over [lo, hi] at 200 bits: the ends, and in each lobe
    between the zeros k/a the root of (log|g|)' found by bisection."""
    with mpmath.workprec(200):
        g = lambda y: abs(mpmath.sin(mpmath.pi * a * y) / mpmath.sin(mpmath.pi * y))
        phi = lambda y: a * mpmath.cot(mpmath.pi * a * y) - mpmath.cot(mpmath.pi * y)
        lo_mp, hi_mp = mpmath.mpf(lo), mpmath.mpf(hi)
        zeros = [mpmath.mpf(k) / a for k in range(math.floor(lo * a), math.ceil(hi * a) + 1)]
        ends = [lo_mp, *(z for z in zeros if lo_mp < z < hi_mp), hi_mp]
        best = max(g(lo_mp), g(hi_mp))
        for p, q in zip(ends, ends[1:]):
            for _ in range(80):
                mid = (p + q) / 2
                if phi(mid) > 0:
                    p = mid
                else:
                    q = mid
            best = max(best, g((p + q) / 2))
        return best


def _mp_kernel(y, a):
    with mpmath.workprec(200):
        y = mpmath.mpf(y)
        return abs(mpmath.sin(mpmath.pi * a * y) / mpmath.sin(mpmath.pi * y))


@pytest.mark.parametrize("a", [15, 39, 59])
def test_sup_rounding_allowance_against_mpmath(a):
    # The float kernel at the located maximizers stays within the rounding
    # allowance 32 a u of |g| at 200 bits, and the bound lies between the
    # true supremum and 1e-10 relative above it, which the allowance and the
    # bracket term stay below.
    # Intervals: the side lobes, the half-shifted partition and intervals
    # whose ends lie within 1e-6 of an integer.
    allowance = 32 * a * 2.0**-53
    intervals = [(c / a, (c + 1) / a) for c in range(1, a - 1)]
    intervals += [((b + 0.5) / a, (b + 1.5) / a) for b in range(a - 1)]
    intervals += [(1e-7, 1 / a), (1 - 1 / a, 1 - 3e-7), (1 + 5e-7, 1 + 2.5 / a),
                  (2 - 3.5 / a, 2 - 1e-6), (-1 + 2e-7, -0.5)]
    for lo, hi in intervals:
        points = [lo, hi]
        cuts = [k / a for k in range(math.floor(lo * a), math.ceil(hi * a) + 1)]
        ends = [lo, *(c for c in cuts if lo < c < hi), hi]
        for p, q in zip(ends, ends[1:]):
            points += _lobe_peak(a, p, q)
        vals = _reduced_kernel(np.array(points), a)
        for y, v in zip(points, vals):
            assert abs(float(v) - float(_mp_kernel(y, a))) <= allowance, (lo, hi, y)
        true = float(_mp_sup(a, lo, hi))
        bound = dirichlet_sup(a, lo, hi)
        assert true <= bound <= true * (1.0 + 1e-10), (lo, hi)


def test_sup_values_pinned():
    # certificates are bit-identical across refactors of the supremum routines
    assert dirichlet_sup(13, 2 / 13, 3 / 13).hex() == "0x1.c581bcbe685d4p+0"
    assert dirichlet_sup(15, 1 / 15, 2 / 15).hex() == "0x1.a766eb953429ap+1"
    assert interval_sup_deriv(15, 1 / 15, 2 / 15).hex() == "0x1.c55118a3e549dp+7"
    assert interval_sup_deriv(9, 0.31, 0.42).hex() == "0x1.077ee556d8a0bp+5"


def test_sup_integer_interval_exact():
    bound = dirichlet_sup(9, -0.01, 0.05)
    assert bound == 9.0 and isinstance(bound, float)


def test_sup_rejects_degenerate():
    with pytest.raises(PreconditionError):
        dirichlet_sup(5, 0.3, 0.3)


def test_interval_sup_deriv_dominates_samples():
    a = 9
    rng = np.random.default_rng(17)
    for lo, hi in [(0.0, 1 / a), (0.31, 0.42), (1 - 1 / a, 1.0)]:
        bound = interval_sup_deriv(a, lo, hi)
        ys = lo + (hi - lo) * rng.random(4000)
        assert bound >= float(dirichlet_kernel_deriv_abs(ys, a).max()) - 1e-9
        assert bound <= kernel_derivative_cap(a)


def test_interval_sup_deriv_near_integer_below_cap():
    # across the removable singularity the true sup is ~0.44 * pi * a^2
    a = 20
    bound = interval_sup_deriv(a, -0.5 / a, 1.0 / a)
    assert bound < 0.5 * kernel_derivative_cap(a)


@pytest.mark.parametrize("slack", [0.05, 0.2, 0.5])
def test_sup_coarse_grid_keeps_lipschitz_term(slack, monkeypatch):
    # On the half-shifted partition the peaks of |g'| (near the zeros b/a)
    # lie inside the intervals, so a coarse |g'| grid misses them; only the
    # (step/2) term with the per-interval |g''| bound covers them, and it
    # stays below the grid's slack.
    monkeypatch.setattr(bounds, "DERIV_SUP_SLACK", slack)
    a = 13
    for b in range(a - 1):
        lo, hi = (b + 0.5) / a, (b + 1.5) / a
        dense = float(dirichlet_kernel_deriv_abs(np.linspace(lo, hi, 200001), a).max())
        bound = interval_sup_deriv(a, lo, hi)
        assert dense <= bound <= dense + slack + 1e-6, (slack, b)


def _second_derivative_abs(ys, a):
    # |g''| from g'' = -pi^2 (a^2-1) g - 2 N'D'/D^2 + 2 N D'^2/D^3 at the
    # reduced argument (|g''| is symmetric about every integer and 1/2)
    f = ys - np.floor(ys)
    f = np.minimum(f, 1.0 - f)
    n, d = np.sin(np.pi * a * f), np.sin(np.pi * f)
    dn, dd = np.pi * a * np.cos(np.pi * a * f), np.pi * np.cos(np.pi * f)
    return np.abs(-np.pi**2 * (a * a - 1) * n / d - 2 * dn * dd / d**2 + 2 * n * dd**2 / d**3)


@pytest.mark.parametrize("a", [5, 15, 39])
def test_local_second_derivative_bound(a):
    # the residue intervals, and intervals next to an integer, short and long
    intervals = [(c / a, (c + 1) / a) for c in range(1, a - 1)]
    intervals += [(1e-3, 1 / a), (1e-3, 0.3), (0.6, 1 - 1e-4), (1 + 1e-4, 1 + 2 / a),
                  (0.45, 0.55), (2 - 0.5 / a, 2 - 1e-4)]
    cap = kernel_second_derivative_cap(a)
    for lo, hi in intervals:
        dense = float(_second_derivative_abs(np.linspace(lo, hi, 100001), a).max())
        bound = _local_second_derivative_bound(a, lo, hi)
        assert dense * (1.0 - 1e-9) <= bound <= cap, (lo, hi)
    # an interval holding an integer keeps the cap, |g''| at the integer
    assert _local_second_derivative_bound(a, -0.1, 0.2) == cap
    assert float(_second_derivative_abs(np.array([1e-5]), a)[0]) == pytest.approx(cap, rel=1e-5)


def test_m_table_and_average():
    ctx = make_context((7, 1))
    sups = m_table(ctx, 1)
    assert len(sups) == 7
    assert m_of_j(ctx, 1) == pytest.approx(sum(sups) / 7)


def test_m_value_of_reference_base():
    ctx = make_context((7, 1))
    m = m_value(ctx)
    assert 2.0 < m < m_closed_form(7)


def test_m_value_index_j2_is_small():
    # a_2 = 1 gives the constant kernel 1 on every interval
    ctx = make_context((7, 1))
    assert m_of_j(ctx, 2) == pytest.approx(1.0)


def test_closed_form_monotone_growth():
    values = [m_closed_form(a) for a in range(3, 40)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_shift_modulus_limit_and_guard():
    ctx = make_context((40, 1))
    u = shift_modulus_limit(ctx)
    assert 0.9 < u < 1.0
    with pytest.raises(PreconditionError):
        m_shifted(ctx, 1)  # 1/1 >= u


def test_m_shifted_at_least_unshifted():
    ctx = make_context((40, 1))
    assert m_shifted(ctx, 2) >= m_value(ctx) - 1e-12


@pytest.mark.parametrize("r", [2, 4])
def test_m_shifted_matches_brute_force_covering(r):
    # Rechecks the covering argument of m_shifted from the geometry alone:
    # for window starts c next to every cut point and on a fine grid, keep
    # the shifts t whose a + 1 intervals from the last cut point p <= c reach
    # c + (alpha + eps)/a, and take the best of them.
    ctx = make_context((40, 1))
    a = ctx.coeffs[0]
    reach = (ctx.alpha + SHIFT_EPS_SLACK) / a
    sups = [m_table(ctx, 1, shift=t / r) for t in range(r)]
    avgs = [sum(row) / a for row in sups]
    m_r = m_shifted(ctx, r)
    starts = [(k + t / r) / a + d for k in range(a) for t in range(r) for d in (-1e-9, 1e-9)]
    starts += list(np.linspace(0.0, 1.0, 4001)[:-1])
    worst = 0.0
    for c in starts:
        cover_sums = {}
        for t in range(r):
            k = math.floor(a * c - t / r)
            if (k + t / r + a + 1) / a >= c + reach:
                cover_sums[t] = sum(sups[t][(k + i) % a] for i in range(a + 1))
        assert cover_sums
        assert min(cover_sums.values()) <= a * (m_r + 1.0) + 1e-9
        worst = max(worst, min(avgs[t] for t in cover_sums))
    assert worst == pytest.approx(m_r, abs=1e-12)
    if r == 2:
        # u < 2/r: every shift is forced somewhere, so the worst one binds
        assert m_r == pytest.approx(max(avgs), abs=1e-12)
    else:
        assert m_r < m_value(ctx)


def test_theta_report_candidates():
    ctx = make_context((59, 1))
    rep = theta_lower_bound(ctx)
    assert set(rep.candidates) == {"parseval", "interval-sup"}
    assert rep.theta == pytest.approx(1.0 - rep.eta)
    assert rep.eta == min(rep.candidates.values())


def test_theta_with_block_kappa():
    ctx = make_context((15, 1))
    rep = theta_lower_bound(ctx, block_kappa=2.9)
    assert rep.winner == "block"
    assert rep.eta == pytest.approx(2.9 / 2 - 1)
    assert theta_lower_bound(ctx, block_kappa=2.0).eta == 0.0  # the smallest kappa


@pytest.mark.parametrize("kappa", [1.5, float("nan"), float("inf")])
def test_theta_rejects_impossible_block_kappa(kappa):
    # ||S_n||_1 >= 1 forces kappa >= 2
    with pytest.raises(PreconditionError):
        theta_lower_bound(make_context((15, 1)), block_kappa=kappa)


def test_mbound_report_roundtrip():
    ctx = make_context((7, 1))
    rep = compute_mbound_report(ctx)
    d = asdict(rep)
    assert d["m"] == pytest.approx(rep.m)
    assert d["closed_form"] == pytest.approx(m_closed_form(7))
