import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recnum.digits as digits
from recnum.base import IntegerWidthError, PreconditionError, make_context
from recnum.digits import (
    TABLE_LIMIT,
    Expansion,
    _mod_table,
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
    table) with a nonzero digit at G_M. The walk's piece with high part H
    can end there, before H + G_M: in Zeckendorf, a 1 at G_M leaves the
    lower digits below G_{M-1}."""
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


def _pieces(ctx, lo, hi):
    """The number of distinct greedy digit strings at the terms >= G_{m+1}
    over [lo, hi), G_m the prefix table's length: one per block at those
    terms that the window meets, each one _fill_low call of the walk."""
    ks = np.arange(lo, hi, dtype=np.int64)
    rem = ks.copy()
    for g in reversed(ctx.terms_upto(hi - 1)[len(ctx.terms_upto(TABLE_LIMIT)):]):
        rem %= g
    return 1 + int(np.count_nonzero(np.diff(ks - rem)))


def _count_fill_low(monkeypatch):
    calls = []
    real = digits._fill_low
    monkeypatch.setattr(digits, "_fill_low", lambda *a: calls.append(a[2]) or real(*a))
    return calls


@pytest.mark.parametrize("lo, hi, pieces", [
    (0, 2**20, 1),
    (2**21 - 5, 2**21 + 2**20, 2),  # across G_1 = 2**21 + 1
    (3 * 2**42, 3 * 2**42 + 2**20, 1),  # near G_2 = 2**21 G_1 + 1
], ids=["from-0", "across-G1", "far-out"])
def test_digit_sums_range_with_one_entry_table(monkeypatch, lo, hi, pieces):
    # a_1 >= 2**20 puts G_1 past TABLE_LIMIT: the prefix table is [0], and the
    # walk stops at G_1, whose blocks hold G_1 integers each, so a 2**20
    # window makes one _fill_low call per block it meets (pieces at G_0
    # would hold one integer each)
    ctx = make_context((2**21, 1))
    assert len(_prefix_table(ctx)) == 1
    calls = _count_fill_low(monkeypatch)
    got = digit_sums_range(ctx, hi, lo)
    assert len(calls) <= pieces == _pieces(ctx, lo, hi)
    assert np.array_equal(got, digit_sums_range_reference(ctx, hi, lo))
    sample = range(lo, hi, 997)
    assert got[:: 997].tolist() == [sum_of_digits(ctx, k) for k in sample]


@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1), (1, 1, 1)])
def test_digit_sums_range_near_128_bits(coeffs):
    # about 80 to 150 levels of the walk above the prefix table, up to the
    # last term the 128-bit width allows: a window inside one block at every
    # level, one across the term before it, and one that ends at it
    ctx = make_context(coeffs)
    terms = ctx.terms_upto(2**20)
    with pytest.raises(IntegerWidthError):
        while True:
            terms.append(ctx.term(len(terms)))
    g_prev, g = terms[-2:]
    for lo, hi in [(g // 2 + 12345, g // 2 + 12845), (g_prev - 250, g_prev + 250), (g - 500, g)]:
        got = digit_sums_range(ctx, hi, lo)
        assert got.tolist() == [sum_of_digits(ctx, k) for k in range(lo, hi)], (lo, hi)


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
    # empty windows, windows inside the prefix table, windows across the block
    # ends at G_m, G_{m+1} and G_{m+2}, and windows near 10**7
    windows = [(0, 0), (5, 5), (9, 3), (0, 1), (0, 1000), (0, 3 * TABLE_LIMIT)]
    windows += [(ctx.term(j) - 300, ctx.term(j) + 300) for j in (m - 1, m, m + 1)]
    windows += [(10**7 - 2**20, 10**7), (10**7, 10**7 + 2**20), (10**7 + 7, 10**7 + 7)]
    for lo, n in windows:
        _assert_class_range_matches_sums(ctx, n, lo)


@pytest.mark.parametrize("lo, hi, pieces", [(0, 2**20, 1), (2**21 - 5, 2**21 + 2**20, 2)],
                         ids=["from-0", "across-G1"])
def test_digit_class_range_with_one_entry_table(monkeypatch, lo, hi, pieces):
    # the base of test_digit_sums_range_with_one_entry_table: a table of one
    # entry, so every value comes from the high digits
    ctx = make_context((2**21, 1))
    assert len(_prefix_table(ctx)) == 1
    calls = _count_fill_low(monkeypatch)
    _assert_class_range_matches_sums(ctx, hi, lo)
    # one walk per call, as in digit_sums_range
    assert len(calls) <= (1 + 4 * len(CLASS_MODULI)) * pieces
    assert pieces == _pieces(ctx, lo, hi)


# (2**21, 1) has a one-entry table; (1000, 1) has row digits up to 1000 and
# digit sums up to 1999, past every narrow dtype's range
TABLE_BASES = [(1, 1), (2, 1), (1, 1, 1), (59, 1), (3, 0, 2), (1, 0, 1), (2**21, 1), (1000, 1)]


@pytest.mark.parametrize("coeffs", TABLE_BASES)
def test_prefix_table_by_blocks(coeffs):
    # against the per-entry formula s(k) = k // G_j + s(k mod G_j) over the
    # whole table, and against sum_of_digits at its start and every 997th k
    ctx = make_context(coeffs)
    table = _prefix_table(ctx)
    terms = ctx.terms_upto(TABLE_LIMIT)
    want = np.zeros(terms[-1], dtype=np.int64)
    for g, g_next in zip(terms, terms[1:]):
        ks = np.arange(g, g_next, dtype=np.int64)
        want[g:g_next] = ks // g + want[ks % g]
    assert table.dtype == np.int64 and np.array_equal(table, want)
    ks = list(range(min(2000, len(table)))) + list(range(2000, len(table), 997))
    assert table[ks].tolist() == [sum_of_digits(ctx, k) for k in ks]


def cached_table(cache, ctx, key):
    stored_key, table = cache[ctx]
    assert stored_key == key
    return table


def _smallest_term_at_least(ctx, n):
    return next(g for g in (ctx.term(j) for j in itertools.count()) if g >= n)


@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1), (1, 1, 1), (3, 0, 2), (1, 0, 1)])
def test_prefix_table_grows_to_the_term_asked_for(coeffs):
    # each call grows the table to the smallest term >= n, capped at G_m, and
    # returns what one full build returns; asking for less never shrinks it
    ctx, full_ctx = make_context(coeffs), make_context(coeffs)
    full = _prefix_table(full_ctx)
    g_m = len(full)
    lengths = []
    for n in (1, ctx.term(3), ctx.term(5) + 1, g_m, 3 * TABLE_LIMIT):
        for lo in (0, n // 2):
            got = digit_sums_range(ctx, n, lo)
            assert np.array_equal(got, digit_sums_range(full_ctx, n, lo)), (n, lo)
        table = cached_table(digits._TABLES, ctx, None)
        assert len(table) == _smallest_term_at_least(ctx, min(n, g_m))
        assert np.array_equal(table, full[: len(table)])
        lengths.append(len(table))
    assert lengths == sorted(lengths) and lengths[-1] == g_m
    assert lengths[0] == 1 and lengths[1] == ctx.term(3) and lengths[2] == ctx.term(6)
    digit_sums_range(ctx, 10)
    assert cached_table(digits._TABLES, ctx, None) is table


@pytest.mark.parametrize("s", [2, 129])
def test_mod_table_grows_to_the_term_asked_for(s):
    # the tables mod s grow as the prefix table does, for the class masks and
    # the residues alike, and stay in the dtype of the full table
    ctx, ref_ctx = make_context((2, 1)), make_context((2, 1))
    full = _mod_table(ref_ctx, s)
    lengths = []
    for n in (1, ctx.term(3), ctx.term(5) + 1, len(full), 3 * TABLE_LIMIT):
        lo = n // 2
        sums = digit_sums_range(ref_ctx, n, lo)
        assert np.array_equal(digit_class_range(ctx, n, lo, 1, s), sums % s == 1), n
        assert np.array_equal(digit_sums_range(ctx, n, lo, s), sums % s), n
        table = cached_table(digits._MOD_TABLES, ctx, s)
        assert len(table) == _smallest_term_at_least(ctx, min(n, len(full)))
        assert table.dtype == full.dtype and np.array_equal(table, full[: len(table)])
        lengths.append(len(table))
    assert lengths == sorted(lengths) and lengths[-1] == len(full)
    digit_class_range(ctx, 10, 0, 1, s)
    assert cached_table(digits._MOD_TABLES, ctx, s) is table and ctx not in digits._TABLES


def test_context_keeps_the_table_of_the_last_modulus():
    # one table mod s per context: a new modulus replaces the last one, at
    # the length the new call needs, and the prefix table is kept beside it
    ctx = make_context((1, 1))
    prefix = _prefix_table(ctx)
    for s, n in ((2, 10**6), (3, 100), (2**20, 3 * TABLE_LIMIT), (2, 30)):
        sums = digit_sums_range(ctx, n, n // 3)
        assert np.array_equal(digit_sums_range(ctx, n, n // 3, s), sums % s), s
        table = cached_table(digits._MOD_TABLES, ctx, s)
        assert len(table) == _smallest_term_at_least(ctx, min(n, len(prefix)))
        assert np.array_equal(table, prefix[: len(table)] % s), s
    assert cached_table(digits._TABLES, ctx, None) is prefix


def test_prefix_table_race_keeps_the_longer_table(monkeypatch):
    # a thread that builds a short table and stores it after another thread
    # stored the full one keeps the full one, and so does the cache
    ctx = make_context((1, 1))
    g_m = ctx.terms_upto(TABLE_LIMIT)[-1]
    building, stored = threading.Event(), threading.Event()
    real = digits._block_table

    def block_table(*args):
        table = real(*args)
        if len(table) < g_m:
            building.set()
            assert stored.wait(60)
        return table

    monkeypatch.setattr(digits, "_block_table", block_table)
    short = []
    thread = threading.Thread(target=lambda: short.append(digit_sums_range(ctx, ctx.term(3))))
    thread.start()
    assert building.wait(60)
    whole = digit_sums_range(ctx, 3 * TABLE_LIMIT)
    stored.set()
    thread.join(60)
    assert not thread.is_alive() and len(cached_table(digits._TABLES, ctx, None)) == g_m
    assert short[0].tolist() == [sum_of_digits(ctx, k) for k in range(ctx.term(3))]
    assert np.array_equal(whole, digit_sums_range_reference(ctx, 3 * TABLE_LIMIT))


def test_prefix_table_grows_under_thread_stress():
    # six threads on one fresh context ask for growing and shrinking windows
    # with a short switch interval; every window is right, and the table
    # each thread sees after a call is never shorter than one it saw before
    ctx, full_ctx = make_context((1, 1)), make_context((1, 1))
    g_m = len(_prefix_table(full_ctx))
    sizes = [ctx.term(j) + 1 for j in (2, 8, 14, 20, 26)] + [g_m, 3 * TABLE_LIMIT // 2]
    errors = []

    def work(order):
        seen = 0
        for n in order:
            if not np.array_equal(digit_sums_range(ctx, n), digit_sums_range(full_ctx, n)):
                errors.append(("window", n))
            now = len(cached_table(digits._TABLES, ctx, None))
            if now < max(seen, min(n, g_m)):
                errors.append(("shrank", seen, now))
            seen = now

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(sizes[i:] + sizes[:i],)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(cached_table(digits._TABLES, ctx, None)) == g_m


@pytest.mark.parametrize("coeffs", TABLE_BASES)
def test_mod_table_is_prefix_table_mod_s(coeffs):
    # built by the block identity mod s without the prefix table, in uint8
    # up to s = 255 and uint16 from 256 on (the build holds 2s - 2 in uint16
    # from s = 129)
    ctx = make_context(coeffs)
    tables = {s: _mod_table(ctx, s) for s in (1, 2, 3, 127, 128, 255, 256, 1000)}
    assert ctx not in digits._TABLES
    for s, table in tables.items():
        assert table.dtype == np.min_scalar_type(s)
        assert np.array_equal(table, _prefix_table(ctx) % s), s


def test_digit_class_range_never_builds_the_prefix_table():
    ctx = make_context((1, 1))
    digit_class_range(ctx, 10**7 + 2**20, 10**7, 1, 2)
    digit_class_range(ctx, 1000, 0, 1, 2)
    assert ctx not in digits._TABLES and 2 in digits._MOD_TABLES[ctx]


@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1), (1000, 1), (2**21, 1)])
def test_digit_sums_mod_match_digit_sums(coeffs):
    # windows in the table, across its end and the block ends past it, and far
    # out, where (1000, 1) has high digit sums c of 500 and more (past uint8,
    # so c is reduced mod s before it is cast) and (2**21, 1) of 70000 and
    # more (past uint16); s = 128 -> 129 crosses the uint8 -> uint16 build
    # dtype, and 2^30 is the largest modulus
    ctx = make_context(coeffs)
    m = len(ctx.terms_upto(TABLE_LIMIT))
    windows = [(0, 0), (0, 1), (0, 1000), (9, 3)]
    windows += [(max(0, ctx.term(j) - 300), ctx.term(j) + 300) for j in (m - 1, m, m + 1)]
    windows += [(500 * ctx.term(m) + 17, 500 * ctx.term(m) + 2017),
                (70001 * ctx.term(m + 1) - 1000, 70001 * ctx.term(m + 1) + 1000)]
    for lo, n in windows:
        sums = digit_sums_range(ctx, n, lo)
        for s in (1, 2, 3, 7, 127, 128, 129, 255, 256, 300, 32767, 32768, 2**20, 2**30):
            got = digit_sums_range(ctx, n, lo, s)
            assert got.dtype == np.int32 and np.array_equal(got, sums % s), (lo, n, s)


@pytest.mark.parametrize("s", [1, 2, 127, 128, 255, 256, 32767, 32768, 2**20, 2**30])
def test_add_mod_reduces_at_the_dtype_edges(s):
    # every residue pair at the ends of [0, s), into the build dtype (the
    # smallest that holds 2s - 1: s = 128 and 32768 fill uint8 and uint16 to
    # 2s - 2) and into the uint32 buffer of digit_sums_range; the row digit
    # c may exceed s and the dtype
    ends = sorted({e for e in (0, 1, s // 2, s - 2, s - 1) if 0 <= e < s})
    wide = np.min_scalar_type(2 * s - 1)
    for dtype in (wide, np.uint32):
        part = np.array(ends, dtype=np.min_scalar_type(s))
        for c in sorted({0, 1, s - 1, s, s + 1, 2 * s - 1, 3 * s + 2, 2**40 + 5}):
            out = np.empty(len(part), dtype=dtype)
            digits._add_mod(s)(part, c, out)
            assert out.tolist() == [(p + c) % s for p in ends], (dtype, c)


def test_digit_class_range_rejects_bad_input():
    ctx = make_context((1, 1))
    with pytest.raises(PreconditionError):
        digit_class_range(ctx, 10, -1, 0, 2)
    with pytest.raises(PreconditionError):
        digit_class_range(ctx, 10, 0, 0, 0)
    for lo, mod in ((-1, 2), (0, 0), (0, 2**30 + 1)):
        with pytest.raises(PreconditionError):
            digit_sums_range(ctx, 10, lo, mod)
