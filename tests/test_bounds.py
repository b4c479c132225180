import math
from dataclasses import asdict

import numpy as np
import pytest

from recnum.base import PreconditionError, make_context
from recnum.bounds import (
    SHIFT_EPS_SLACK,
    compute_mbound_report,
    dirichlet_kernel_abs,
    dirichlet_kernel_deriv_abs,
    dirichlet_sup,
    interval_sup_deriv,
    kernel_derivative_cap,
    kernel_second_derivative_cap,
    m_closed_form,
    m_of_j,
    m_shifted,
    m_table,
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


@pytest.mark.parametrize("slack", [0.05, 0.2, 0.5])
def test_sup_coarse_grid_keeps_lipschitz_term(slack):
    # a coarse grid misses the lobe peaks; only the (step/2) lip term covers them
    a = 13
    for b in range(1, a - 1):
        lo, hi = b / a, (b + 1) / a
        dense = dirichlet_kernel_abs(np.linspace(lo, hi, 200001), a)
        assert dirichlet_sup(a, lo, hi, slack) >= float(dense.max())


def test_sup_values_pinned():
    # certificates are bit-identical across refactors of the grid routine
    assert dirichlet_sup(13, 2 / 13, 3 / 13).hex() == "0x1.c5a27f4dda0f7p+0"
    assert dirichlet_sup(15, 1 / 15, 2 / 15, 1e-4).hex() == "0x1.a7688f022205dp+1"
    assert interval_sup_deriv(15, 1 / 15, 2 / 15).hex() == "0x1.c55118a3e549dp+7"
    assert interval_sup_deriv(9, 0.31, 0.42).hex() == "0x1.077ee58b93429p+5"


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
