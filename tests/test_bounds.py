import math
from dataclasses import asdict

import mpmath
import numpy as np
import pytest

from bound_helpers import DERIV_INTEGER_TOL, dirichlet_kernel_deriv_abs, m_of_j, m_table
from recnum import bounds
from recnum.base import PreconditionError, make_context
from recnum.blockcert import (
    _build_y_grid,
    certify_M2_2_detail,
    floor_alpha_sq,
    polished_alpha_inv,
    quadratic_context,
    reference_grid,
)
from recnum.bounds import (
    J1_MAX,
    SHIFT_EPS_SLACK,
    _lobe_peak,
    compute_mbound_report,
    dirichlet_kernel_abs,
    dirichlet_sup,
    interval_sup_abs,
    interval_sup_deriv,
    kernel_derivative_cap,
    lobe_table,
    m_closed_form,
    m_shifted,
    m_value,
    reduced_argument,
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


U = 2.0**-53


def _mp_kernels(xs, a):
    """|g| and |g'| at 200 bits, with their limits a and 0 at the integers."""
    g, gp = [], []
    with mpmath.workprec(200):
        pi = mpmath.pi
        for x in map(mpmath.mpf, np.asarray(xs, dtype=float).tolist()):
            if x == mpmath.nint(x):
                g.append(a)
                gp.append(0)
                continue
            s, c = mpmath.sin(pi * x), mpmath.cos(pi * x)
            big_s, big_c = mpmath.sin(pi * a * x), mpmath.cos(pi * a * x)
            g.append(abs(big_s / s))
            gp.append(abs(pi * (a * big_c * s - c * big_s) / s**2))
    return np.array(g, dtype=float), np.array(gp, dtype=float)


def _assert_kernels_within_written_bounds(xs, a):
    # the bounds in the docstrings of dirichlet_kernel_abs and
    # dirichlet_kernel_deriv_abs
    g, gp = _mp_kernels(xs, a)
    f = reduced_argument(xs)
    assert np.all(np.abs(dirichlet_kernel_abs(xs, a) - g) <= 23.2 * a * U)
    far = f >= DERIV_INTEGER_TOL
    deriv_bound = np.where(
        far, 72 * a * U / np.where(far, f, 1.0) + 88 * a * a * U, math.pi**2 / 3 * a**3 * f
    )
    assert np.all(np.abs(dirichlet_kernel_deriv_abs(xs, a) - gp) <= deriv_bound)


@pytest.mark.parametrize("a", [7, 15, 39, 59])
def test_kernels_within_written_bounds_against_mpmath(a):
    # 1e-9..1e-2 from an integer on both sides (x - floor(x) near 1 is where
    # an unreduced argument loses its digits), the same distances from the
    # zeros k/a of the numerator, and points inside DERIV_INTEGER_TOL
    rng = np.random.default_rng(a)
    d = 10.0 ** rng.uniform(-9, -2, 400)
    n = rng.integers(-2, 3, 400).astype(float)
    k = rng.integers(1, a, 400) + a * n
    near = [0.0, 1.0, 3e-10, 1 - 3e-10]
    _assert_kernels_within_written_bounds(
        np.concatenate([n + d, n - d, k / a + d, k / a - d, near]), a
    )


@pytest.mark.parametrize("a, q_star, j_star", [(29, 27, 17), (39, 37, 22)])
def test_kernels_within_written_bounds_at_binding_cells(a, q_star, j_star):
    # the binding shift q* and gamma* = j* eta of rows 29 and 39 on their
    # reference grids: at these (q*, gamma*) the column maxima of h sum to the
    # certificate's main term; both factors are checked at those maxima
    grid = reference_grid(a)
    alpha = quadratic_context(a).alpha
    alpha_inv = polished_alpha_inv(a, alpha)
    ys = _build_y_grid(a, floor_alpha_sq(a, alpha) + 1, grid.eps)
    outer, inner = ys + q_star / a, alpha_inv * ys + j_star * grid.eta
    h = dirichlet_kernel_abs(outer, a) * dirichlet_kernel_abs(inner, a)
    main = certify_M2_2_detail(a, grid, threads=2).main
    assert float(np.sum(np.max(h, axis=0))) == main
    at_max = np.argmax(h, axis=0), np.arange(ys.shape[1])
    _assert_kernels_within_written_bounds(np.concatenate([outer[at_max], inner[at_max]]), a)


@pytest.mark.parametrize(
    "a, lo, hi", [(15, 14 / 15, 1.0), (59, 58 / 59, 1.0), (7, 25 / 28, 29 / 28)]
)
def test_kernel_never_exceeds_its_supremum_next_to_an_integer(a, lo, hi):
    assert float(dirichlet_kernel_abs(np.linspace(lo, hi, 200001), a).max()) <= a


def test_kernel_one_ulp_above_a_within_written_bound():
    # f' is about 1.04e-10, above KERNEL_INTEGER_TOL, so the quotient is
    # evaluated; it reads 29.000000000000004, one ulp above a and about
    # 1.24 a u above the true value, inside the written 23.2 a u
    a, x = 29, -1.9999999998958549
    got = float(dirichlet_kernel_abs(np.array([x]), a)[0])
    assert got == 29.000000000000004 and got > a
    with mpmath.workprec(200):
        y = mpmath.mpf(x)
        want = abs(mpmath.sin(mpmath.pi * a * y) / mpmath.sin(mpmath.pi * y))
        assert want < a
        assert abs(mpmath.mpf(got) - want) <= 23.2 * a * U


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
        dense = float(dirichlet_kernel_abs(np.linspace(lo, hi, 200001), a).max())
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


@pytest.mark.parametrize("a", [15, 39, 59])
def test_sup_rounding_allowance_against_mpmath(a):
    # The float kernel at the located maximizers stays within the rounding
    # allowance 32 a u of |g| at 200 bits, and the bound lies between the
    # true supremum and 1e-10 relative above it, which the allowance and the
    # bracket term stay below.
    # Intervals: the side lobes, the half-shifted partition and intervals
    # whose ends lie within 1e-6 of an integer.
    allowance = 32 * a * U
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
        vals = dirichlet_kernel_abs(points, a)
        assert np.all(np.abs(vals - _mp_kernels(points, a)[0]) <= allowance), (lo, hi)
        true = float(_mp_sup(a, lo, hi))
        bound = dirichlet_sup(a, lo, hi)
        assert true <= bound <= true * (1.0 + 1e-10), (lo, hi)


def _interval_bounds(a, los, his):
    los, his = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
    g_lo, g_hi = dirichlet_kernel_abs(los, a), dirichlet_kernel_abs(his, a)
    return interval_sup_abs(los, his, g_lo, g_hi, lobe_table(a))


@pytest.mark.parametrize("a", [2, 3, 7, 15, 29])
def test_interval_sup_abs_covers_the_true_sup(a):
    # against the 200-bit sup of |g|: intervals around each side-lobe peak
    # (the lobe's table entry), beside it (an end value), across each zero,
    # around an integer, over two lobes, and shifted by 1 and 2; every
    # bound stays within the allowance of a. Intervals from or up to an
    # integer, where |g| is the limit a, must give at least a.
    intervals = []
    for c in range(1, a - 1):
        intervals += [((c + 0.3) / a, (c + 0.7) / a), ((c + 0.05) / a, (c + 0.35) / a),
                      ((c + 0.65) / a, (c + 0.95) / a)]
    intervals += [((c - 0.2) / a, (c + 0.2) / a) for c in range(1, a)]
    intervals += [(1 - 0.1 / a, 1 + 0.1 / a), (0.5 / a, 2.7 / a), (0.2 / a, 0.9 / a)]
    intervals += [(lo + k, hi + k) for lo, hi in intervals[: 3 * (a - 2)] for k in (1, 2)]
    los, his = zip(*intervals)
    bounds_ = _interval_bounds(a, los, his)
    assert np.all(bounds_ <= a + 48 * a * U)
    for (lo, hi), bound in zip(intervals, bounds_.tolist()):
        assert float(_mp_sup(a, lo, hi)) <= bound, (lo, hi)
    assert np.all(_interval_bounds(a, [0.0, 1.0, 2 - 0.3 / a], [0.3 / a, 1.2, 2.0]) >= a)


@pytest.mark.parametrize("a", [2, 3, 7, 15, 29, 100])
def test_interval_sup_abs_covers_dense_float_kernel(a):
    # 300 random intervals in [0, 3), widths from 1e-6 to 1.5/a: the bound
    # is at least every float kernel value at 1001 points of the interval
    rng = np.random.default_rng(a)
    los = rng.uniform(0.0, 3.0, 300)
    his = los + np.exp(rng.uniform(math.log(1e-6), math.log(1.5 / a), 300))
    points = np.clip(np.linspace(los, his, 1001, axis=1), los[:, None], his[:, None])
    dense = np.max(dirichlet_kernel_abs(points, a), axis=1)
    assert np.all(_interval_bounds(a, los, his) >= dense)


def _interval_sup_abs_two_counts(lo, hi, g_lo, g_hi, lobes):
    """interval_sup_abs by brute force: every bracket is compared with
    [t_lo, t_hi], and the peak is the max of sup over all that meet it."""
    a = len(lobes.sup)
    n = np.floor(lo)
    t_lo, t_hi = lo - n, hi - n
    meets = (lobes.right >= t_lo[:, None]) & (lobes.left <= t_hi[:, None])
    peak = np.max(np.where(meets, lobes.sup[1 : a - 1], 0.0), axis=1, initial=0.0)
    v = np.maximum(np.maximum(g_lo, g_hi), peak)
    v[(np.floor(hi) > n) | (t_lo == 0.0)] = a
    return v + 48.0 * a * U, meets.sum(axis=1)


@pytest.mark.parametrize("a", [2, 3, 7, 15, 29, 100])
def test_interval_sup_abs_one_search_matches_two_counts(a):
    # intervals between any two of: the bracket ends themselves, random
    # points of (0, 1), and 0; at n = 0, where t = x is exact, and shifted
    # by 1 and 2. They meet 0, 1, 2, 3 and more brackets, as far as a - 2
    # brackets allow; the two searches give the max of sup over all met.
    lobes = lobe_table(a)
    rng = np.random.default_rng(a)
    ends = np.concatenate([lobes.left, lobes.right, rng.uniform(0.0, 1.0, 60), [0.0]])
    i, j = np.triu_indices(ends.size)
    lo, hi = np.minimum(ends[i], ends[j]), np.maximum(ends[i], ends[j])
    lo, hi = np.concatenate([lo, lo + 1, lo + 2]), np.concatenate([hi, hi + 1, hi + 2])
    g_lo, g_hi = dirichlet_kernel_abs(lo, a), dirichlet_kernel_abs(hi, a)
    want, met = _interval_sup_abs_two_counts(lo, hi, g_lo, g_hi, lobes)
    assert set(met.tolist()) >= set(range(min(a - 2, 3) + 1))
    assert np.array_equal(interval_sup_abs(lo, hi, g_lo, g_hi, lobes), want)


@pytest.mark.parametrize("a", [7, 15, 29, 100, 1000])
def test_side_lobe_sups_carry_the_bracket_term(a):
    # each side-lobe sup exceeds the larger bracket value by the Lipschitz
    # term (w/2 + delta) sup|g'| over its residue interval, and by most of
    # the 32 a u allowance on top (that term is at least 37 a u here)
    side = bounds._side_lobes(a)[0]
    for c in range(1, a - 1):
        l, r = _lobe_peak(a, c / a, (c + 1) / a)
        g = float(dirichlet_kernel_abs(np.array([l, r]), a).max())
        term = (0.5 * (r - l) + 8 * U * (1 + r)) * interval_sup_deriv(a, c)
        assert side[c - 1] - g - term >= 16 * a * U, c


def test_raw_side_lobe_sups_are_valley_shaped():
    # the certified sups fall to their least entry and rise after, so the
    # hull in lobe_table leaves them as they are
    for a in [*range(3, 200), 500, 1000]:
        side = bounds._side_lobes(a)[0]
        k = int(np.argmin(side))
        assert np.all(np.diff(side[: k + 1]) <= 0) and np.all(np.diff(side[k:]) >= 0), a
        assert np.array_equal(lobe_table(a).sup[1 : a - 1], side), a


def test_valley_hull_covers_runs_of_a_table_that_is_not_valley_shaped(monkeypatch):
    # with side-lobe sups that zig-zag, lobe_table's hull must still bound
    # the max of the raw sups over every run of brackets an interval meets
    a = 15
    _, left, right = bounds._side_lobes(a)
    raw = 2.0 + np.random.default_rng(3).random(a - 2)
    raw[[2, 9]] = [4.0, 3.5]
    monkeypatch.setattr(bounds, "_side_lobes", lambda _: (raw, left, right))
    lobes = lobe_table(a)
    assert np.all(lobes.sup[1 : a - 1] >= raw)
    ends = np.concatenate([left, right, (left + right) / 2])
    i, j = np.triu_indices(ends.size)
    lo, hi = np.minimum(ends[i], ends[j]), np.maximum(ends[i], ends[j])
    g = np.zeros_like(lo)
    raw_lobes = bounds.LobeTable(np.concatenate([[a], raw, [a]]), left, right)
    want, met = _interval_sup_abs_two_counts(lo, hi, g, g, raw_lobes)
    assert met.max() == a - 2
    assert np.all(interval_sup_abs(lo, hi, g, g, lobes) >= want)


def test_interval_sup_abs_needs_nonnegative_ends():
    with pytest.raises(PreconditionError):
        _interval_bounds(7, [-0.1], [0.1])


def test_sup_values_pinned():
    # certificates are bit-identical across refactors of the supremum routines
    assert dirichlet_sup(13, 2 / 13, 3 / 13).hex() == "0x1.c581bcbe68725p+0"
    assert dirichlet_sup(15, 1 / 15, 2 / 15).hex() == "0x1.a766eb9534393p+1"
    assert interval_sup_deriv(15, 1).hex() == "0x1.c54e894c2f04dp+7"
    assert interval_sup_deriv(9, 0).hex() == "0x1.c8dd817addf8bp+6"


def test_sup_integer_interval_exact():
    bound = dirichlet_sup(9, -0.01, 0.05)
    assert bound == 9.0 and isinstance(bound, float)


def test_sup_rejects_degenerate():
    with pytest.raises(PreconditionError):
        dirichlet_sup(5, 0.3, 0.3)


def test_interval_sup_deriv_dominates_samples():
    a = 9
    rng = np.random.default_rng(17)
    for c in range(a):
        bound = interval_sup_deriv(a, c)
        ys = (c + rng.random(4000)) / a
        assert bound >= float(dirichlet_kernel_deriv_abs(ys, a).max()) - 1e-9
        assert bound <= kernel_derivative_cap(a)


def test_interval_sup_deriv_near_integer_below_cap():
    # next to the removable singularity the true sup is ~0.44 * pi * a^2
    a = 20
    for c in (0, a - 1):
        assert interval_sup_deriv(a, c) < 0.5 * kernel_derivative_cap(a)


def test_interval_sup_deriv_rejects_a_residue_out_of_range():
    for c in (-1, 9):
        with pytest.raises(PreconditionError):
            interval_sup_deriv(9, c)


def _mp_deriv_abs(x, a):
    """|g'(x)| at the current mpmath precision, 0 at the integers."""
    if x == mpmath.nint(x):
        return mpmath.mpf(0)
    pi = mpmath.pi
    s, c = mpmath.sin(pi * x), mpmath.cos(pi * x)
    return abs(pi * (a * mpmath.cos(pi * a * x) * s - c * mpmath.sin(pi * a * x)) / s**2)


def _mp_j1(phi):
    return (mpmath.sin(phi) - phi * mpmath.cos(phi)) / phi**2


def _mp_j1_peak():
    """The root of j1' next to 2.08, at the current mpmath precision."""
    return mpmath.findroot(lambda p: mpmath.diff(_mp_j1, p), 2.08)


@pytest.mark.parametrize("a", [2, 3, 5, 15, 29, 39, 59])
def test_interval_sup_deriv_dominates_mpmath(a):
    # Every residue at 200 bits: the bound is at least |g'| at both ends of
    # the closed interval and at 100 interior points. On side residues it is
    # within 1e-12 of the value at the end nearer an integer, where the
    # supremum sits; on residue 0 (and a-1) it is at least its formula,
    # pi (a^2-1) K/(1 - pi^2/(6a^2))^2 with K = max j1 found by mpmath.
    with mpmath.workprec(200):
        k = _mp_j1(_mp_j1_peak())
        residue0 = mpmath.pi * (a * a - 1) * k / (1 - mpmath.pi**2 / (6 * a * a)) ** 2
        for c in range(a):
            bound = interval_sup_deriv(a, c)
            xs = [mpmath.mpf(c + i / 101) / a for i in range(102)]
            vals = [_mp_deriv_abs(x, a) for x in xs]
            assert max(vals) <= bound, (a, c)
            if 0 < c < a - 1:
                near = vals[0] if 2 * c < a else vals[-1]
                assert near <= bound <= near * (1 + mpmath.mpf(1e-12)), (a, c)
            else:
                assert residue0 <= bound <= residue0 * (1 + mpmath.mpf(1e-12)), (a, c)


def test_j1_max_is_the_maximum_of_j1():
    # j1(phi) = int_0^1 u sin(phi u) du, so j1'' = -int_0^1 u^3 sin(phi u) du
    # < 0 on (0, pi]: the one root of j1' there is the maximum. J1_MAX is that
    # maximum rounded up, and on a grid of step h, where |j1'| <= 1/3, the
    # grid maximum lies within h/6 below it.
    with mpmath.workprec(200):
        peak = _mp_j1_peak()
        k = _mp_j1(peak)
        assert abs(peak - mpmath.mpf("2.0815759778181")) < 1e-12
        assert k <= J1_MAX <= k + mpmath.mpf(2.0**-53)
    h = math.pi / 4000
    grid = max(_mp_j1(mpmath.mpf(i) * h) for i in range(1, 4001))
    assert grid <= J1_MAX <= grid + h / 6


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


@pytest.mark.parametrize("call", [
    lambda ctx: theta_lower_bound(ctx, shift_r=2),
    lambda ctx: compute_mbound_report(ctx, shift_r=2),
], ids=["theta", "mbound"])
def test_m_routes_build_each_table_once(monkeypatch, call):
    # (59, 1) has a_j in {59, 1}, and m^(2) needs the shifts 0 and 1/2: four
    # tables of 59 suprema, one call each, the shift-0 pair shared with m
    calls = []

    def counted(a_j, lo, hi):
        calls.append((a_j, float(lo[0] * 59 % 1), lo.size))
        return dirichlet_sup(a_j, lo, hi)

    monkeypatch.setattr(bounds, "dirichlet_sup", counted)
    call(make_context((59, 1)))
    assert sorted(calls) == [(1, 0.0, 59), (1, 0.5, 59), (59, 0.0, 59), (59, 0.5, 59)]
