import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recnum.base import PreconditionError, make_context
from recnum.digits import (
    TABLE_LIMIT,
    Expansion,
    digit_sums_range,
    expand,
    is_parry_admissible,
    sum_of_digits,
    value_of,
)

BASES = [(1, 1), (2, 1), (3, 2), (2, 1, 1), (3, 0, 1)]


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
