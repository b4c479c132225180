from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recnum.base import CostGuardError, PreconditionError, make_context
from recnum.bounds import dirichlet_kernel_abs
from recnum.expsum import (
    ExpSumParams,
    coefficient_A,
    derivative_one_norm,
    exp_sum_direct,
    exp_sum_recurrent,
    farey_fractions,
    gallagher_check,
    one_norm,
    parse_rational,
)

BASES = [(1, 1), (2, 1), (3, 2), (2, 1, 1), (5, 1)]


def test_trivial_frequencies_count_everything():
    ctx = make_context((2, 1))
    params = ExpSumParams.make(0.0, 0.0)
    for n in range(6):
        assert exp_sum_direct(ctx, n, params) == pytest.approx(ctx.term(n))


def test_direct_matches_bruteforce():
    ctx = make_context((1, 1))
    params = ExpSumParams.make(0.3, 0.7)
    n = 7
    from recnum.digits import sum_of_digits

    expected = sum(
        complex(np.exp(2j * np.pi * (0.7 * sum_of_digits(ctx, k) + 0.3 * k)))
        for k in range(ctx.term(n))
    )
    got = exp_sum_direct(ctx, n, params)
    assert got == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("coeffs", BASES)
def test_recurrent_matches_direct(coeffs):
    ctx = make_context(coeffs)
    rng = np.random.default_rng(2026)
    for _ in range(5):
        params = ExpSumParams.make(rng.random(), rng.random())
        table = exp_sum_recurrent(ctx, 9, params)
        for n in (6, 9):
            direct = exp_sum_direct(ctx, n, params)
            assert abs(table.values[n] - direct) <= 1e-9 * max(1.0, abs(direct))


def test_rational_parameters_are_exact():
    ctx = make_context((2, 1))
    params = ExpSumParams.make(Fraction(1, 3), Fraction(1, 2))
    n = 8
    table = exp_sum_recurrent(ctx, n, params)
    direct = exp_sum_direct(ctx, n, params)
    assert abs(table.values[n] - direct) <= 1e-9 * max(1.0, abs(direct))


def test_modulus_bounded_by_term():
    rng = np.random.default_rng(7)
    for coeffs in BASES:
        ctx = make_context(coeffs)
        params = ExpSumParams.make(rng.random(), rng.random())
        table = exp_sum_recurrent(ctx, 10, params)
        for n, v in enumerate(table.values):
            assert abs(v) <= ctx.term(n) * (1 + 1e-12)


def test_coefficient_modulus_bound():
    ctx = make_context((4, 2, 1))
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = ExpSumParams.make(rng.random(), rng.random())
        for j in ctx.index_set:
            val = coefficient_A(ctx, 8, j, params)
            assert abs(val) <= ctx.coeffs[j - 1] + 1e-12


def test_kernel_ratio_equals_coefficient_modulus():
    ctx = make_context((3, 1))
    rng = np.random.default_rng(3)
    for _ in range(20):
        y, beta = rng.random(), rng.random()
        params = ExpSumParams.make(y, beta)
        for j in ctx.index_set:
            kernel = dirichlet_kernel_abs(beta + y * ctx.term(9 - j), ctx.coeffs[j - 1])
            assert float(kernel) == pytest.approx(
                abs(coefficient_A(ctx, 9, j, params)), abs=1e-8
            )


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.sampled_from(BASES),
    n=st.integers(3, 9),
    beta=st.floats(0.0, 1.0, exclude_max=True),
    ys=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8),
)
def test_array_recurrence_matches_scalar_and_direct(coeffs, n, beta, ys):
    ctx = make_context(coeffs)
    table = exp_sum_recurrent(ctx, n, ExpSumParams.make(np.array(ys), beta))
    for i, y in enumerate(ys):
        params = ExpSumParams.make(y, beta)
        scalar = exp_sum_recurrent(ctx, n, params).values
        assert all(abs(v[i] - w) <= 1e-12 * ctx.term(k)
                   for k, (v, w) in enumerate(zip(table.values, scalar)))
        direct = exp_sum_direct(ctx, n, params)
        assert abs(table.values[n][i] - direct) <= 1e-9 * max(1.0, abs(direct))


def test_direct_sum_guard():
    ctx = make_context((100, 1))
    with pytest.raises(CostGuardError):
        exp_sum_direct(ctx, 12, ExpSumParams.make(0.1, 0.1))


def test_coefficient_preconditions():
    ctx = make_context((3, 0, 1))
    params = ExpSumParams.make(0.1, 0.2)
    with pytest.raises(PreconditionError):
        coefficient_A(ctx, 8, 2, params)  # a_2 = 0
    with pytest.raises(PreconditionError):
        coefficient_A(ctx, 1, 3, params)  # n < j


def test_parse_rational():
    assert parse_rational("3/7") == Fraction(3, 7)


def test_farey_fractions():
    f3 = farey_fractions(3)
    assert f3 == [
        Fraction(0),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(2, 3),
    ]


def test_one_norm_at_beta_zero():
    # S_n(y, 0) is the geometric kernel; its 1-norm is ~ log G_n scale, > 1
    ctx = make_context((1, 1))
    est = one_norm(ctx, 6, 0.0)
    assert 1.0 < est.value < ctx.term(6)


def test_derivative_one_norm_positive():
    ctx = make_context((1, 1))
    est = derivative_one_norm(ctx, 5, 0.3)
    assert est.value > 0


def test_gallagher_inequality_holds():
    ctx = make_context((2, 1))
    rep = gallagher_check(ctx, 5, 0.37, 7)
    assert rep.ok and rep.lhs <= rep.rhs * (1 + 1e-6)


def test_gallagher_guard():
    ctx = make_context((2, 1))
    with pytest.raises(CostGuardError):
        gallagher_check(ctx, 5, 0.1, 200)
