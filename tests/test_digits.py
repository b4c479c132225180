import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recnum.digits as digits
from recnum.base import PreconditionError, make_context
from recnum.digits import (
    TABLE_LIMIT,
    Expansion,
    _prefix_table,
    digit_class_range,
    digit_sums_range,
    expand,
    is_parry_admissible,
    sum_of_digits,
    value_of,
)

BASES = [(1, 1), (2, 1), (3, 2), (2, 1, 1), (3, 0, 1)]


def digit_sums_range_reference(ctx, n, lo=0):
    """s_G(k) on [lo, n) by per-term division: the digits at the terms >= G_m
    come from floor division over the whole window, top term first, and the
    prefix table supplies the digit sum of the remainder."""
    table = _prefix_table(ctx)
    top = len(table)
    if n <= max(lo, top):
        return table[lo:n].copy()
    rem = np.arange(lo, n, dtype=np.int64)
    out = np.zeros(n - lo, dtype=np.int64)
    for g in reversed(ctx.terms_upto(n - 1)):
        if g < top:
            break
        d = rem // g
        out += d
        rem -= d * g
    out += table[rem]
    return out


def test_expand_zero_is_empty():
    ctx = make_context((1, 1))
    assert expand(ctx, 0) == Expansion((), 0)


def test_zeckendorf_small_values():
    ctx = make_context((1, 1))
    # terms 1, 2, 3, 5, 8: greedy digits little-endian
    assert expand(ctx, 4).digits == (1, 0, 1)
    assert expand(ctx, 7).digits == (0, 1, 0, 1)
    assert sum_of_digits(ctx, 7) == 2


@pytest.mark.parametrize("coeffs", BASES)
def test_roundtrip(coeffs):
    ctx = make_context(coeffs)
    for nu in range(2000):
        assert value_of(ctx, expand(ctx, nu)) == nu


@pytest.mark.parametrize("coeffs", BASES)
def test_digit_sums_range_matches_scalar(coeffs):
    ctx = make_context(coeffs)
    sums = digit_sums_range(ctx, 1500)
    for nu in range(0, 1500, 17):
        assert int(sums[nu]) == sum_of_digits(ctx, nu)


def test_greedy_prefix_inequality():
    # every proper prefix of a greedy string values below the next term
    ctx = make_context((2, 1, 1))
    for nu in range(1, 3000):
        digits = expand(ctx, nu).digits
        for j in range(len(digits)):
            prefix_value = value_of(ctx, digits[:j])
            assert prefix_value < ctx.term(j)


def test_top_digit_window():
    # the value sits in [G_l, G_{l+1}) where l is the top digit position
    ctx = make_context((3, 2))
    for nu in range(1, 2000):
        l = len(expand(ctx, nu).digits) - 1
        assert ctx.term(l) <= nu < ctx.term(l + 1)


def test_parry_equals_greedy_for_strengthened_base():
    ctx = make_context((7, 1))
    length = 6
    greedy = set()
    for nu in range(ctx.term(length)):
        digits = expand(ctx, nu).digits
        greedy.add(digits + (0,) * (length - len(digits)))
    admissible = {
        w
        for w in itertools.product(range(8), repeat=length)
        if is_parry_admissible(ctx, w)
    }
    assert admissible == greedy


def test_parry_rejects_overflow_window():
    ctx = make_context((2, 1))
    assert not is_parry_admissible(ctx, (1, 2))  # window (2, 1) >= (2, 1)
    assert is_parry_admissible(ctx, (1, 1))  # (1, 1) < (2, 1)


def test_negative_inputs_rejected():
    ctx = make_context((1, 1))
    with pytest.raises(PreconditionError):
        expand(ctx, -1)
    with pytest.raises(PreconditionError):
        value_of(ctx, (1, -1))


def test_digit_sums_range_empty():
    ctx = make_context((1, 1))
    assert digit_sums_range(ctx, 0).shape == (0,)
    assert digit_sums_range(ctx, 1).tolist() == [0]


def test_digit_sums_range_dtype():
    ctx = make_context((2, 1))
    assert digit_sums_range(ctx, 10).dtype == np.int64


@st.composite
def _windows(draw):
    """A base and a window [lo, hi) placed near one of its terms or near the
    prefix-table edge, so that windows straddle both kinds of boundary."""
    coeffs = draw(st.sampled_from(BASES + [(100, 1)]))
    ctx = make_context(coeffs)
    anchors = ctx.terms_upto(4 * TABLE_LIMIT) + [TABLE_LIMIT]
    lo = max(0, draw(st.sampled_from(anchors)) + draw(st.integers(-40, 40)))
    return ctx, lo, lo + draw(st.integers(0, 120))


@settings(max_examples=150, deadline=None)
@given(_windows())
def test_digit_sums_range_window_matches_scalar(window):
    ctx, lo, hi = window
    sums = digit_sums_range(ctx, hi, lo)
    assert sums.tolist() == [sum_of_digits(ctx, k) for k in range(lo, hi)]


def test_digit_sums_range_rejects_negative_start():
    with pytest.raises(PreconditionError):
        digit_sums_range(make_context((1, 1)), 10, -1)


@pytest.mark.parametrize("coeffs", BASES + [(100, 1)])
def test_digit_sums_range_matches_reference(coeffs):
    ctx = make_context(coeffs)
    got = digit_sums_range(ctx, 3 * TABLE_LIMIT)
    assert got.dtype == np.int64
    assert np.array_equal(got, digit_sums_range_reference(ctx, 3 * TABLE_LIMIT))


def test_digit_sums_range_matches_reference_far_out():
    ctx = make_context((1, 1))
    lo = 9_000_000
    got = digit_sums_range(ctx, lo + 2**20, lo)
    assert np.array_equal(got, digit_sums_range_reference(ctx, lo + 2**20, lo))


@st.composite
def _early_run_ends(draw):
    """A window around H + c G_j, j < M, where H is a greedy high part (digits
    at the terms >= G_M only, G_M = G_{m+1} the first term past the prefix
    table) with a nonzero digit at G_M. A run of equal high part can end
    there, before H + G_M: in Zeckendorf, a 1 at G_M leaves the lower digits
    below G_{M-1}."""
    coeffs = draw(st.sampled_from(BASES + [(100, 1)]))
    ctx = make_context(coeffs)
    m = len(ctx.terms_upto(TABLE_LIMIT))  # M = m + 1 in the notation above
    g_m = ctx.term(m)
    top_digit = (ctx.term(m + 1) - 1) // g_m  # d G_M < G_{M+1} is greedy
    digit = draw(st.one_of(st.just(top_digit), st.integers(1, top_digit)))
    higher = draw(st.sampled_from([0] + [ctx.term(m + i) for i in (2, 3, 4)]))
    h = higher + digit * g_m
    j = draw(st.integers(0, m - 1))
    c = draw(st.integers(1, max(coeffs)))
    lo = max(0, h + c * ctx.term(j) + draw(st.integers(-40, 40)))
    return ctx, lo, lo + draw(st.integers(1, 120))


@settings(max_examples=200, deadline=None)
@given(_early_run_ends())
def test_digit_sums_range_runs_that_end_early(window):
    ctx, lo, hi = window
    sums = digit_sums_range(ctx, hi, lo)
    assert sums.tolist() == [sum_of_digits(ctx, k) for k in range(lo, hi)]


@pytest.mark.parametrize("lo, hi", [
    (0, 2**20),
    (2**21 - 5, 2**21 + 2**20),  # across G_1 = 2**21 + 1
    (3 * 2**42, 3 * 2**42 + 2**20),  # near G_2 = 2**21 G_1 + 1
], ids=["from-0", "across-G1", "far-out"])
def test_digit_sums_range_with_one_entry_table(monkeypatch, lo, hi):
    # a_1 >= 2**20 puts G_1 past TABLE_LIMIT: the prefix table is [0], and
    # runs at G_1 hold up to G_1 integers each, so a 2**20 window meets at
    # most three runs, each found from its start, its last integer and a
    # bisection over fewer than G_1 < 2**22 integers (runs at G_0 would take
    # one or two high-part evaluations per integer)
    ctx = make_context((2**21, 1))
    assert len(_prefix_table(ctx)) == 1
    calls = []
    real = digits._high_part
    monkeypatch.setattr(digits, "_high_part", lambda high, k: calls.append(k) or real(high, k))
    got = digit_sums_range(ctx, hi, lo)
    assert len(calls) <= 3 * (2 + 22)
    assert np.array_equal(got, digit_sums_range_reference(ctx, hi, lo))
    sample = range(lo, hi, 997)
    assert got[:: 997].tolist() == [sum_of_digits(ctx, k) for k in sample]


# s = 1, 2, 3, 7, 128 and 300: tables mod s in uint8 and uint16, and the
# classes r below 0, at 0, at s - 1 and past s
CLASS_MODULI = [1, 2, 3, 7, 128, 300]


def _assert_class_range_matches_sums(ctx, n, lo):
    sums = digit_sums_range(ctx, n, lo)
    for s in CLASS_MODULI:
        for r in (-1, 0, s - 1, s + 1):
            got = digit_class_range(ctx, n, lo, r, s)
            assert got.dtype == bool and np.array_equal(got, sums % s == r % s), (s, r)


@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1), (1, 1, 1), (59, 1)])
def test_digit_class_range_matches_digit_sums(coeffs):
    ctx = make_context(coeffs)
    m = len(ctx.terms_upto(TABLE_LIMIT))
    # empty windows, windows inside the prefix table, windows across the run
    # ends at G_m, G_{m+1} and G_{m+2}, and windows near 10**7
    windows = [(0, 0), (5, 5), (9, 3), (0, 1), (0, 1000), (0, 3 * TABLE_LIMIT)]
    windows += [(ctx.term(j) - 300, ctx.term(j) + 300) for j in (m - 1, m, m + 1)]
    windows += [(10**7 - 2**20, 10**7), (10**7, 10**7 + 2**20), (10**7 + 7, 10**7 + 7)]
    for lo, n in windows:
        _assert_class_range_matches_sums(ctx, n, lo)


@pytest.mark.parametrize("lo, hi", [(0, 2**20), (2**21 - 5, 2**21 + 2**20)],
                         ids=["from-0", "across-G1"])
def test_digit_class_range_with_one_entry_table(monkeypatch, lo, hi):
    # the base of test_digit_sums_range_with_one_entry_table: a table of one
    # entry, so every value comes from the high digits
    ctx = make_context((2**21, 1))
    assert len(_prefix_table(ctx)) == 1
    calls = []
    real = digits._high_part
    monkeypatch.setattr(digits, "_high_part", lambda high, k: calls.append(k) or real(high, k))
    _assert_class_range_matches_sums(ctx, hi, lo)
    # one walk per call, as in digit_sums_range
    assert len(calls) <= (1 + 4 * len(CLASS_MODULI)) * 3 * (2 + 22)


def test_digit_class_range_rejects_bad_input():
    ctx = make_context((1, 1))
    with pytest.raises(PreconditionError):
        digit_class_range(ctx, 10, -1, 0, 2)
    with pytest.raises(PreconditionError):
        digit_class_range(ctx, 10, 0, 0, 0)
