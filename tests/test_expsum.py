import cmath
import functools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recnum.digits as digits
import recnum.expsum as expsum
from recnum.base import CostGuardError, PreconditionError, make_context
from recnum.bounds import dirichlet_kernel_abs
from recnum.digits import digit_sums_range, sum_of_digits
from recnum.expsum import (
    SAMPLES_PER_OSCILLATION,
    ExpSumParams,
    coefficient_A,
    derivative_one_norm,
    exp_sum_direct,
    exp_sum_recurrent,
    farey_points,
    gallagher_check,
    one_norm,
)

BASES = [(1, 1), (2, 1), (3, 2), (2, 1, 1), (5, 1)]
frequencies = st.fractions(0, 1, max_denominator=2**20)


def random_fraction(rng):
    """A random dyadic fraction with denominator 2^30: y, beta and their
    products with k < G_n stay on the int64 path of the direct sum."""
    return Fraction(int(rng.integers(2**30)), 2**30)


def midpoints(nodes):
    """The exact midpoint nodes (2j + 1)/(2 nodes), j < nodes, of the 1-norms."""
    return [Fraction(2 * j + 1, 2 * nodes) for j in range(nodes)]


def derivative_direct(ctx, n, ys, beta):
    """dS_n/dy = sum_{k < G_n} 2 pi i k e(beta s_G(k) + y k) at every fraction
    y of ys, summed directly over all k (the reference for the transforms).

    Each phase is reduced mod 1 in int64 over the common denominator q sden
    of y and beta and rounded once, so no check depends on the platform's
    long double; the fractions must keep q sden below 2^53 and h k, r s
    below 2^63."""
    g_n = ctx.term(n)
    s = digit_sums_range(ctx, g_n)
    h = np.array([y.numerator for y in ys], dtype=np.int64)
    q = np.array([y.denominator for y in ys], dtype=np.int64)
    r, sden = beta.numerator, beta.denominator
    assert int(q.max()) * sden < 2**53 and max(int(q.max()), sden) * g_n < 2**63
    mod = q * sden
    acc = np.zeros(len(ys), dtype=complex)
    chunk = max(1, 10**6 // max(len(ys), 1))
    for start in range(0, g_n, chunk):
        ks = np.arange(start, min(start + chunk, g_n), dtype=np.int64)
        num = (np.outer(ks, h) % q * sden + (r * s[ks] % sden)[:, None] * q) % mod
        acc += (ks[:, None] * np.exp(2j * np.pi * (num / mod))).sum(axis=0)
    return 2j * np.pi * acc


def derivative_one_norm_direct(ctx, n, beta):
    """Midpoint rule for the 1-norm of dS_n/dy on the direct sum."""
    nodes = max(64, SAMPLES_PER_OSCILLATION * ctx.term(n))
    return float(np.mean(np.abs(derivative_direct(ctx, n, midpoints(nodes), beta))))


def norm_nodes(ctx, n, beta):
    """(S_n, dS_n/dy) at the midpoint nodes of the 1-norms, by the transforms,
    in node order. The transform consumes its terms, so each gets its own."""
    s_n = expsum._transform(expsum._twisted_terms(ctx, n, beta)).T.ravel()
    d_terms = expsum._derivative_terms(expsum._twisted_terms(ctx, n, beta))
    return s_n, expsum._transform(d_terms).T.ravel()


def test_trivial_frequencies_count_everything():
    ctx = make_context((2, 1))
    params = ExpSumParams.make(0, 0)
    for n in range(6):
        assert exp_sum_direct(ctx, n, params) == pytest.approx(ctx.term(n))


def test_direct_matches_bruteforce():
    ctx = make_context((1, 1))
    params = ExpSumParams.make(Fraction(3, 10), Fraction(7, 10))
    n = 7
    expected = sum(
        complex(np.exp(2j * np.pi * (0.7 * sum_of_digits(ctx, k) + 0.3 * k)))
        for k in range(ctx.term(n))
    )
    got = exp_sum_direct(ctx, n, params)
    assert got == pytest.approx(expected, rel=1e-9)


def direct_bruteforce(ctx, n, y, beta):
    """S_n by a Python loop over k < G_n, each phase reduced mod 1 exactly."""
    y, beta = Fraction(y), Fraction(beta)
    return sum(cmath.exp(2j * math.pi * float((beta * sum_of_digits(ctx, k) + y * k) % 1))
               for k in range(ctx.term(n)))


# 3^41 > 2^64: h k and the products of the int64 path no longer fit, so the
# int64=False case runs the expression over Python ints
BIG_Q = Fraction(12345678901234567891, 3**41)


@pytest.mark.parametrize("window", [1, 7, 64])
@pytest.mark.parametrize("int64", [True, False])
@pytest.mark.parametrize("coeffs, n", [((1, 1), 12), ((2, 1), 7), ((2, 1, 1), 6)])
def test_direct_windows_match_unwindowed_and_bruteforce(monkeypatch, coeffs, n, int64, window):
    # window edges fall inside the range (G_n is no multiple of 7 or 64 here)
    ctx = make_context(coeffs)
    y, beta = (Fraction(5, 13) if int64 else BIG_Q), Fraction(2, 7)
    params = ExpSumParams.make(y, beta)
    g_n = ctx.term(n)
    assert (y.denominator * g_n < 2**63) == int64
    assert g_n < expsum._WINDOW and g_n % 7 and g_n % 64
    whole = exp_sum_direct(ctx, n, params)
    monkeypatch.setattr(expsum, "_WINDOW", window)
    windowed = exp_sum_direct(ctx, n, params)
    assert abs(windowed - whole) <= 1e-12 * g_n
    assert abs(windowed - direct_bruteforce(ctx, n, y, beta)) <= 1e-12 * g_n


@functools.lru_cache(maxsize=None)
def pair_counts_bruteforce(coeffs, n, q, sden):
    """The counts of the pairs (k mod q, s_G(k) mod sden) over k < G_n at
    index (k mod q) sden + s_G(k) mod sden, from sum_of_digits one k at a
    time."""
    counts = np.zeros(q * sden, dtype=np.int64)
    for k, s_k in enumerate(digit_sums_bruteforce(coeffs, n)):
        counts[k % q * sden + s_k % sden] += 1
    return counts


@functools.lru_cache(maxsize=None)
def digit_sums_bruteforce(coeffs, n):
    ctx = make_context(coeffs)
    return [sum_of_digits(ctx, k) for k in range(ctx.term(n))]


def residues_only(ctx, n, lo=0, mod=None):
    """digit_sums_range that fails unless it is asked for residues."""
    assert mod is not None, "the counted path formed digit sums"
    return digits.digit_sums_range(ctx, n, lo, mod)


# sden 128 -> 129 crosses the uint8 -> uint16 build dtype of the table mod
# sden; q = 3 and 5 divide neither 7 nor 64, so a window of 7 or 64 integers
# that is not rounded down to a multiple of q shifts k mod q
@pytest.mark.parametrize("table_limit", [digits.TABLE_LIMIT, 100], ids=["table", "walk"])
@pytest.mark.parametrize("window", [1, 7, 64, "mod"])
@pytest.mark.parametrize("sden", [1, 2, 128, 129, 256])
@pytest.mark.parametrize("y", [Fraction(2, 3), Fraction(4, 5)])
def test_counted_path_windows_are_exact(monkeypatch, y, sden, window, table_limit):
    # G_17 = 4181 in Zeckendorf is no multiple of q, of the window or of mod,
    # so the last window is partial. With the tables cut to [0, 89), the walk
    # adds the digits at the terms past G_9 = 89 row by row
    monkeypatch.setattr(digits, "TABLE_LIMIT", table_limit)
    ctx, n, beta = make_context((1, 1)), 17, Fraction(1, sden)
    mod = y.denominator * sden
    assert mod <= ctx.term(n) and ctx.term(n) % mod
    monkeypatch.setattr(expsum, "_COUNT_WINDOW", mod if window == "mod" else window)
    monkeypatch.setattr(expsum, "digit_sums_range", residues_only)
    got = exp_sum_direct(ctx, n, ExpSumParams.make(y, beta))
    counts = pair_counts_bruteforce((1, 1), n, y.denominator, sden)
    assert got == expsum._residue_dot(counts, y, beta)


@pytest.mark.parametrize("table_limit", [digits.TABLE_LIMIT, 100], ids=["table", "walk"])
@pytest.mark.parametrize("sden", [3, 128, 129, 256])
def test_counted_path_reduces_high_row_digits(monkeypatch, sden, table_limit):
    # on (300, 1) the digit at G_1 = 301 runs to 300, so the table build and
    # the walk add row digits past 255, which wrap in uint8 at sden = 3
    # unless they are reduced mod sden first. G_2 = 90301 is no multiple of 3
    monkeypatch.setattr(digits, "TABLE_LIMIT", table_limit)
    monkeypatch.setattr(expsum, "_COUNT_WINDOW", 64)
    monkeypatch.setattr(expsum, "digit_sums_range", residues_only)
    y, beta = Fraction(2, 3), Fraction(1, sden)
    got = exp_sum_direct(make_context((300, 1)), 2, ExpSumParams.make(y, beta))
    assert got == expsum._residue_dot(pair_counts_bruteforce((300, 1), 2, 3, sden), y, beta)


@pytest.mark.parametrize("sden", [1, 2, 128, 129, 256])
def test_counted_path_at_the_window_cap(monkeypatch, sden):
    # mod == _WINDOW < G_n still takes the counted path
    monkeypatch.setattr(expsum, "_WINDOW", 3 * sden)
    monkeypatch.setattr(expsum, "digit_sums_range", residues_only)
    y, beta = Fraction(2, 3), Fraction(sden - 1 or 1, sden)
    got = exp_sum_direct(make_context((1, 1)), 17, ExpSumParams.make(y, beta))
    assert got == expsum._residue_dot(pair_counts_bruteforce((1, 1), 17, 3, sden), y, beta)


@pytest.mark.parametrize("coeffs, n, q, sden", [
    ((1, 1), 10, 144, 1), ((1, 1), 10, 72, 2),  # G_10 = 144
    ((127, 1), 1, 1, 128), ((128, 1), 1, 1, 129), ((255, 1), 1, 1, 256),  # G_1 = a_1 + 1
])
def test_counted_path_at_mod_equal_to_the_term(monkeypatch, coeffs, n, q, sden):
    # mod == G_n < _WINDOW takes the counted path
    ctx = make_context(coeffs)
    assert q * sden == ctx.term(n) < expsum._WINDOW
    monkeypatch.setattr(expsum, "digit_sums_range", residues_only)
    y, beta = Fraction(1, q), Fraction(1, sden)
    got = exp_sum_direct(ctx, n, ExpSumParams.make(y, beta))
    assert got == expsum._residue_dot(pair_counts_bruteforce(coeffs, n, q, sden), y, beta)


@pytest.mark.parametrize("coeffs", BASES)
def test_recurrent_matches_direct(coeffs):
    ctx = make_context(coeffs)
    rng = np.random.default_rng(2026)
    for _ in range(5):
        params = ExpSumParams.make(random_fraction(rng), random_fraction(rng))
        for n in (6, 9):
            s_n = exp_sum_recurrent(ctx, n, params)
            direct = exp_sum_direct(ctx, n, params)
            assert abs(s_n - direct) <= 1e-9 * max(1.0, abs(direct))


def test_rational_parameters_are_exact():
    ctx = make_context((2, 1))
    params = ExpSumParams.make(Fraction(1, 3), Fraction(1, 2))
    n = 8
    s_n = exp_sum_recurrent(ctx, n, params)
    direct = exp_sum_direct(ctx, n, params)
    assert abs(s_n - direct) <= 1e-9 * max(1.0, abs(direct))


Q10 = (2**63 - 1) // 8119  # the largest q with q G_10 < 2**63 in base (2, 1)


@pytest.mark.parametrize("n, y", [
    (16, Fraction(9999999999999, 10**13)),  # h k passes 2**63 below G_16 = 1607521
    (10, Fraction(Q10 - 1, Q10)),  # the last fraction on the int64 path
    (10, Fraction(Q10, Q10 + 1)),  # the first on the Python-int path
], ids=["q=1e13", "below-int64-bound", "above-int64-bound"])
def test_direct_large_denominator_matches_recurrent(n, y):
    ctx = make_context((2, 1))
    assert ctx.term(10) == 8119
    params = ExpSumParams.make(y, Fraction(1, 2))
    direct = exp_sum_direct(ctx, n, params)
    s_n = exp_sum_recurrent(ctx, n, params)
    assert abs(direct - s_n) <= 1e-12 * ctx.term(n)


# Pinned float.hex values of the exact direct sum. Counting residues moved the
# last bits of the table case on purpose, so it also checks that the pin is
# at least as close to a 50-digit reference as the pin before (`before`,
# terms summed pairwise). The per-term path past the table cap is unchanged.
@pytest.mark.parametrize("n, y, beta, want, before", [
    (12, Fraction(10, 11), Fraction(2, 3),  # mod 33: counts
     ("-0x1.2cdb7cbe689b8p+6", "0x1.f106849c88150p+4"),
     ("-0x1.2cdb7cbe689b6p+6", "0x1.f106849c88244p+4")),
    (10, Fraction(Q10 - 1, Q10), Fraction(1, 2),  # mod 2 Q10 > _WINDOW: per term
     ("0x1.0000000000000p+0", "-0x1.93aaaafd5e2cap-36"), None),
], ids=["table", "past-table-cap"])
def test_direct_exact_path_bits(n, y, beta, want, before):
    ctx = make_context((2, 1))
    got = exp_sum_direct(ctx, n, ExpSumParams.make(y, beta))
    assert (got.real.hex(), got.imag.hex()) == want
    if before is not None:
        ref = residue_count_reference(ctx, n, y, beta)
        old = complex(float.fromhex(before[0]), float.fromhex(before[1]))
        assert abs(got - ref) <= abs(old - ref)


@pytest.mark.parametrize("y, beta, lcd", [
    (Fraction(987654321, 2**52 - 1), Fraction(5, 16), 16 * (2**52 - 1) // 3),
    (Fraction(987654323, 2**52 - 1), Fraction(1, 3), 2**52 - 1),
], ids=["lcd-past-2^53", "lcd-below-2^53"])
def test_direct_per_term_phases_round_once_past_2_53(y, beta, lcd):
    # q sden lies between 2^53 and 2^62: the products fit int64, but the
    # numerators over q sden need not fit in a double's 53 bits. The common
    # denominator lcd of the phases is past 2^53 in the first case and below
    # it in the second, where 3 divides q
    ctx = make_context((2, 1))
    assert 2**53 < y.denominator * beta.denominator < 2**62
    assert math.lcm(y.denominator, beta.denominator) == lcd
    phases = [float((y * k + beta * sum_of_digits(ctx, k)) % 1) for k in range(ctx.term(6))]
    want = complex(np.sum(expsum._e(phases)))
    got = exp_sum_direct(ctx, 6, ExpSumParams.make(y, beta))
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def midpoint_norms_reference(ctx, n, beta, bits=180):
    """The midpoint-rule 1-norms of S_n and dS_n/dy on the nodes of one_norm,
    to about 2^-bits: Horner's rule in fixed-point integers (scale 2^bits)
    at each node z = e(y_j), with every e(.) rounded once from mpmath, then
    |.| by integer square root. Returns two mpmath numbers."""
    g_n = ctx.term(n)
    nodes = max(64, SAMPLES_PER_OSCILLATION * g_n)
    one = 1 << bits
    with mpmath.workprec(bits + 20):
        def fixed(turns):
            return (int(mpmath.nint(mpmath.cospi(2 * turns) * one)),
                    int(mpmath.nint(mpmath.sinpi(2 * turns) * one)))
        w = [fixed(mpmath.mpf(beta.numerator * sum_of_digits(ctx, k) % beta.denominator)
                   / beta.denominator) for k in range(g_n)]
        total = d_total = 0
        for j in range(nodes):
            zr, zi = fixed(mpmath.mpf(2 * j + 1) / (2 * nodes))
            sr = si = dr = di = 0
            for k in range(g_n - 1, -1, -1):
                wr, wi = w[k]
                sr, si = ((sr * zr - si * zi) >> bits) + wr, ((sr * zi + si * zr) >> bits) + wi
                dr, di = ((dr * zr - di * zi) >> bits) + k * wr, ((dr * zi + di * zr) >> bits) + k * wi
            total += math.isqrt(sr * sr + si * si)
            d_total += math.isqrt(dr * dr + di * di)
        scale = mpmath.mpf(nodes) * one
        return total / scale, 2 * mpmath.pi * d_total / scale


# The FFT nodes moved the last bit of both norms on purpose; each new value
# is at least as close to the reference as the recurrence's was
NORM_BITS = ("0x1.a8c1ad6eec3e6p+2", "0x1.dc7295ab7001cp+11")
RECURRENCE_NORM_BITS = ("0x1.a8c1ad6eec3e5p+2", "0x1.dc7295ab7001bp+11")


def test_norm_bits():
    ctx = make_context((1, 1))
    beta = Fraction(1, 5)
    got = (one_norm(ctx, 10, beta).value, derivative_one_norm(ctx, 10, beta).value)
    assert tuple(v.hex() for v in got) == NORM_BITS
    for new, old, ref in zip(got, RECURRENCE_NORM_BITS, midpoint_norms_reference(ctx, 10, beta)):
        assert abs(new - ref) <= abs(float.fromhex(old) - ref)


# G_n < 4 hits the nodes = 64 floor (transforms of length 4, zero-padded);
# G_n = 4, 5, 7 and 16 sit just past it. At the larger n the recurrence's own
# rounding stays below 3e-13 G_n at the nodes.
FFT_CASES = [((1, 1), n) for n in (0, 1, 2, 3, 14)] + [((2, 1), n) for n in (1, 2, 8)] + [
    ((1, 1, 1), n) for n in (1, 2, 10)] + [((15, 1), n) for n in (0, 1, 2)]


@pytest.mark.parametrize("coeffs, n", FFT_CASES)
@pytest.mark.parametrize("beta", [Fraction(0), Fraction(1, 5), Fraction(61803, 100000)],
                         ids=["0.0", "0.2", "0.61803"])
def test_fft_nodes_match_recurrence(coeffs, n, beta):
    ctx = make_context(coeffs)
    g_n = ctx.term(n)
    s_n, d_s_n = norm_nodes(ctx, n, beta)
    nodes = max(64, SAMPLES_PER_OSCILLATION * g_n)
    assert s_n.shape == d_s_n.shape == (nodes,)
    s_rec = exp_sum_recurrent(ctx, n, ExpSumParams.make(midpoints(nodes), beta))
    d_s_ref = derivative_direct(ctx, n, midpoints(nodes), beta)
    assert np.max(np.abs(s_n - s_rec)) <= 1e-12 * g_n
    assert np.max(np.abs(d_s_n - d_s_ref)) <= 1e-12 * 2 * np.pi * g_n**2
    for fft, ref in ((s_n, s_rec), (d_s_n, d_s_ref)):
        want = np.mean(np.abs(ref))
        assert abs(np.mean(np.abs(fft)) - want) <= 1e-13 * want


@pytest.mark.parametrize("coeffs, n", FFT_CASES)
@pytest.mark.parametrize("derivative", [False, True], ids=["plain", "derivative"])
def test_node_moduli_keep_the_bits_of_a_separate_transform(coeffs, n, derivative):
    # the in-place transform and the moduli written in node order give, bit
    # for bit, the moduli of a separate transform of a copy, reordered after
    ctx = make_context(coeffs)
    terms = expsum._twisted_terms(ctx, n, Fraction(1, 5))
    if derivative:
        terms = expsum._derivative_terms(terms)
    length = max(4, ctx.term(n))
    want = np.abs(np.fft.ifft(terms.copy(), n=length, axis=1, norm="forward")).T.ravel()
    got = expsum._node_moduli(terms)
    assert got.flags.c_contiguous and got.dtype == np.float64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("coeffs, n", [((1, 1), 2), ((1, 1), 20), ((2, 1), 9), ((15, 1), 3)])
def test_fft_nodes_parseval(coeffs, n):
    # N >= G_n equally spaced nodes: the node mean of |sum_k c_k e(y_j k)|^2 is
    # sum_k |c_k|^2, so G_n for S_n and 4 pi^2 sum k^2 for dS_n/dy
    ctx = make_context(coeffs)
    g_n = ctx.term(n)
    s_n, d_s_n = norm_nodes(ctx, n, Fraction(37, 100))
    assert abs(np.mean(np.abs(s_n) ** 2) - g_n) <= 1e-13 * g_n
    d_want = 4 * np.pi**2 * (g_n - 1) * g_n * (2 * g_n - 1) / 6
    assert abs(np.mean(np.abs(d_s_n) ** 2) - d_want) <= 1e-13 * d_want


@pytest.mark.parametrize("norm", [
    one_norm, derivative_one_norm, lambda ctx, n, beta: gallagher_check(ctx, n, beta, 3)])
def test_one_norm_guard(monkeypatch, norm):
    # G_1 = ONE_NORM_GUARD + 1 is refused before the digit sums, the terms or
    # the transform allocate anything
    ctx = make_context((expsum.ONE_NORM_GUARD, 1))
    assert ctx.term(1) == expsum.ONE_NORM_GUARD + 1

    def no_digit_sums(*args):
        raise AssertionError("digit sums computed past the guard")

    monkeypatch.setattr(expsum, "digit_sums_range", no_digit_sums)
    tracemalloc.start()
    try:
        with pytest.raises(CostGuardError):
            norm(ctx, 1, Fraction(1, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("y, beta", [(Fraction(10, 11), Fraction(2, 3)),
                                     (Fraction(1, 200), Fraction(1, 256))], ids=["mod-33", "mod-51200"])
def test_counted_sum_memory_matches_its_live_set(y, beta):
    # the live set of _counted_sum's docstring on a fresh context: the table
    # mod sden over [0, G_m) (uint8 or uint16 here), per window the pairs,
    # i sden and bincount's int64 copy (16 bytes per integer), and 128 bytes
    # per residue for the counts, their bincount and _residue_dot's arrays,
    # and 128 KiB; no digit sums and no prefix table. G_30 = 2178309 > G_m =
    # 832040
    ctx = make_context((1, 1))
    g_m = ctx.terms_upto(digits.TABLE_LIMIT)[-1]
    q, sden = y.denominator, beta.denominator
    mod = q * sden
    window = max(expsum._COUNT_WINDOW, mod) // q * q
    table = g_m * np.min_scalar_type(sden).itemsize
    bound = table + 16 * window + 128 * mod + (128 << 10)
    peak = traced_peak(lambda: exp_sum_direct(ctx, 30, ExpSumParams.make(y, beta)))
    assert peak < bound
    assert ctx not in digits._TABLES


def test_direct_sums_over_many_moduli_keep_one_table():
    # direct sums over several large and small sden on one context hold one
    # table mod sden, of the last sden, and no prefix table; G_30 = 2178309
    # > G_m = 832040, so each table covers [0, G_m)
    ctx = make_context((1, 1))
    g_m = ctx.terms_upto(digits.TABLE_LIMIT)[-1]
    for sden in (2**16, 2**16 + 1, 2**20, 3, 2**18 + 5, 7):
        params = ExpSumParams.make(Fraction(0), Fraction(1, sden))
        assert exp_sum_direct(ctx, 30, params) == exp_sum_direct(make_context((1, 1)), 30, params)
        key, table = digits._MOD_TABLES[ctx]
        assert key == sden and len(table) == g_m
        assert table.nbytes == g_m * np.min_scalar_type(sden).itemsize
    assert ctx not in digits._TABLES


@pytest.mark.parametrize("norm", [one_norm, derivative_one_norm])
@pytest.mark.parametrize("coeffs, n", [((1, 1), 20), ((2, 1), 9), ((1, 1), 3)])
def test_one_norm_memory_matches_its_live_set(norm, coeffs, n):
    # the live set of one_norm's docstring: the 16 x G_n terms, transformed in
    # place (16 bytes per entry), and their moduli (8 bytes per node), beside
    # the prefix table grown to G_n (8 bytes per entry), one row of the
    # transform's work space and 128 KiB; no separate transform
    ctx = make_context(coeffs)
    g_n = ctx.term(n)
    length = max(4, g_n)
    live = 16 * 16 * g_n + 8 * 16 * length
    bound = live + 8 * g_n + 16 * length + (128 << 10)
    assert traced_peak(lambda: norm(ctx, n, Fraction(1, 5))) < bound


@pytest.mark.parametrize("coeffs, n, q_max", [
    ((1, 1), 20, 3), ((2, 1), 9, 3), ((1, 1), 16, 40), ((1, 1), 3, 100)])
def test_gallagher_memory_matches_its_live_set(coeffs, n, q_max):
    # the live set of gallagher_check's docstring: one_norm's bound, as each
    # norm builds its own terms, or the Farey recurrence's (the points and
    # the object arrays over them, under 512 bytes per point), whichever is
    # larger, and 128 KiB
    ctx = make_context(coeffs)
    g_n = ctx.term(n)
    length = max(4, g_n)
    norms = 16 * 16 * g_n + 8 * 16 * length + 8 * g_n + 16 * length
    bound = max(norms, 512 * len(farey_points(q_max))) + (128 << 10)
    assert traced_peak(lambda: gallagher_check(ctx, n, Fraction(1, 5), q_max)) < bound


@pytest.mark.parametrize("coeffs", [(1, 1), (1, 1, 1)])
def test_first_coefficient_is_exactly_one_when_a1_is_one(coeffs):
    ctx = make_context(coeffs)
    rng = np.random.default_rng(4)
    params = ExpSumParams.make([random_fraction(rng) for _ in range(9)], Fraction(37, 100))
    for n in range(1, 12):
        assert np.all(coefficient_A(ctx, n, 1, params) == 1)


# float.hex of S_n at n = 20 and 14 on two bases with a_1 = 1, where each
# step of the recurrence multiplies by A_{k,1} = 1 exactly. That product
# keeps every bit (1 x = x, signed zeros included, which y = 0 gives), so the
# pins are also the sums without it. The array pins give each y's scalar bits.
UNIT_BITS = {
    (1, 1): (20, {
        "array": [("0x1.14bc000000000p+14", "0x0.0p+0"),
                  ("0x1.1e2159edf0205p-3", "-0x1.89d3153237eb4p-3")],
        "fraction": [("0x1.b274891bee5dep+0", "-0x1.71fa171b4e46ep-1")],
        "decimal": [("-0x1.ea80ec7974d8cp+6", "0x1.9d970ba06db56p+6")],
    }),
    (1, 1, 1): (14, {
        "array": [("0x1.6880000000000p+12", "0x0.0p+0"),
                  ("0x1.a8ba5277c0c8dp-2", "-0x1.4973e213bc8abp-2")],
        "fraction": [("0x1.64c230ce59486p+1", "0x1.e87a839a8d0d4p+0")],
        "decimal": [("-0x1.eeac769d02fdcp+1", "0x1.44247c55d9164p+0")],
    }),
}
UNIT_PARAMS = {
    "array": ExpSumParams.make([Fraction(0), Fraction(37, 100)], Fraction(0)),
    "fraction": ExpSumParams.make(Fraction(10, 11), Fraction(2, 3)),
    "decimal": ExpSumParams.make(Fraction(37, 100), Fraction(1, 5)),
}


@pytest.mark.parametrize("coeffs", list(UNIT_BITS))
@pytest.mark.parametrize("case", list(UNIT_PARAMS))
def test_unit_first_coefficient_keeps_recurrence_bits(coeffs, case):
    n, want = UNIT_BITS[coeffs]
    s_n = exp_sum_recurrent(make_context(coeffs), n, UNIT_PARAMS[case])
    got = [(complex(z).real.hex(), complex(z).imag.hex()) for z in np.atleast_1d(s_n)]
    assert got == want[case]


def geometric_third(g_n):
    """S_n(1/3, 0) = sum_{k < G_n} e(k/3): 0, 1 or 1 + e(1/3) = e(1/6) by G_n mod 3."""
    return (0, 1, cmath.exp(1j * math.pi / 3))[g_n % 3]


@pytest.mark.parametrize("n, residue", [(60, 2), (90, 0)])
def test_recurrence_keeps_fraction_y_exact(n, residue):
    # y = 1/3 as a double is off by 2^-54 and the offsets in A_{n,j} near G_n
    # turn that into whole turns; the fraction's phases are reduced exactly
    ctx = make_context((1, 1))
    assert ctx.term(n) % 3 == residue
    s_n = exp_sum_recurrent(ctx, n, ExpSumParams.make(Fraction(1, 3), Fraction(0)))
    assert abs(s_n - geometric_third(ctx.term(n))) < 1e-9


def residue_counts(ctx, n, y, beta):
    """(m, c): exact counts c[r] of the k < G_n with m (y k + beta s_G(k)) = r
    mod m, m the common denominator: k < G_d counted one by one, then each G_k
    block [pre + l G_{k-j}, pre + (l + 1) G_{k-j}) as the counts of G_{k-j}
    shifted by the block's phase."""
    m = math.lcm(y.denominator, beta.denominator)
    hy, hb, a = int(y * m), int(beta * m), ctx.coeffs
    counts = []
    for k in range(n + 1):
        c = [0] * m
        if k < ctx.d:
            for kk in range(ctx.term(k)):
                c[(hy * kk + hb * sum_of_digits(ctx, kk)) % m] += 1
            counts.append(c)
            continue
        for j in ctx.index_set:
            pre_g = sum(a[i - 1] * ctx.term(k - i) for i in range(1, j))
            pre_a = sum(a[i - 1] for i in range(1, j))
            for ell in range(a[j - 1]):
                shift = hy * (pre_g + ell * ctx.term(k - j)) + hb * (pre_a + ell)
                for r, cnt in enumerate(counts[k - j]):
                    c[(r + shift) % m] += cnt
        counts.append(c)
    return m, counts[n]


def residue_count_sum(ctx, n, y, beta):
    """S_n from residue_counts; only the final sum over r is rounded."""
    m, counts = residue_counts(ctx, n, y, beta)
    return sum(cnt * cmath.exp(2j * math.pi * r / m) for r, cnt in enumerate(counts))


def residue_count_reference(ctx, n, y, beta):
    """S_n from residue_counts at 50 digits, as an mpmath complex."""
    m, counts = residue_counts(ctx, n, y, beta)
    with mpmath.workdps(50):
        return mpmath.fsum(cnt * mpmath.expjpi(mpmath.mpf(2 * r) / m)
                           for r, cnt in enumerate(counts))


def test_residue_counts_match_direct_and_closed_form():
    ctx = make_context((2, 1))
    y, beta = Fraction(5, 13), Fraction(2, 7)
    want = exp_sum_direct(ctx, 9, ExpSumParams.make(y, beta))
    assert abs(residue_count_sum(ctx, 9, y, beta) - want) <= 1e-12 * ctx.term(9)
    fib = make_context((1, 1))
    got = residue_count_sum(fib, 40, Fraction(1, 3), Fraction(0))
    assert abs(got - geometric_third(fib.term(40))) <= 1e-12 * fib.term(40)


@pytest.mark.parametrize("coeffs, n, y, beta", [
    ((1, 1), 100, Fraction(1, 3), Fraction(1, 2)),
    ((2, 1), 50, Fraction(7, 30), Fraction(4, 9)),
])
def test_recurrence_matches_residue_counts_at_large_n(coeffs, n, y, beta):
    ctx = make_context(coeffs)
    s_n = exp_sum_recurrent(ctx, n, ExpSumParams.make(y, beta))
    assert abs(s_n - residue_count_sum(ctx, n, y, beta)) <= 1e-12 * ctx.term(n)


def test_modulus_bounded_by_term():
    rng = np.random.default_rng(7)
    for coeffs in BASES:
        ctx = make_context(coeffs)
        params = ExpSumParams.make(random_fraction(rng), random_fraction(rng))
        for n in range(11):
            s_n = exp_sum_recurrent(ctx, n, params)
            assert abs(s_n) <= ctx.term(n) * (1 + 1e-12)


def hexes(values):
    """float.hex of the real and imaginary parts of a complex or an array."""
    return [z.hex() for v in np.atleast_1d(values) for z in (v.real, v.imag)]


def term_loop_sum(params, ks, ss):
    """sum_i e(y ks[i] + beta ss[i]) by one _turns and _e call per term,
    added left to right from 0."""
    acc = np.zeros(len(params._hq[0]), dtype=complex)
    for k, s in zip(ks, ss):
        acc += expsum._e(expsum._turns(params, int(k), int(s)))
    return acc


@pytest.mark.parametrize("block", [1, 7, 40, 1 << 14])
def test_initial_values_match_the_term_loop(monkeypatch, block):
    # blocks of 1 and 7 (term, y) phases cut the rows mid-sum; 40 phases
    # hold 40 // 3 = 13 rows of three y; the default holds every row here
    monkeypatch.setattr(expsum, "_TERM_BLOCK", block)
    ys = (Fraction(0), Fraction(2, 7), Fraction(2**70 + 1, 2**71))
    for coeffs in [(1, 1), (3, 0, 1), (100, 1)]:
        ctx = make_context(coeffs)
        for y in (ys, ys[2]):
            params = ExpSumParams.make(y, Fraction(5, 7))
            sums = [term_loop_sum(params, range(ctx.term(k)), digit_sums_range(ctx, ctx.term(k)))
                    for k in range(ctx.d)]
            for k in range(ctx.d):
                assert hexes(exp_sum_recurrent(ctx, k, params)) == hexes(sums[k]), (coeffs, k)


@pytest.mark.parametrize("block", [1, 7, 40, 1 << 14])
def test_coefficient_A_matches_the_term_loop(monkeypatch, block):
    # the terms l < a_j of A_{n,j}, one _turns and _e call each, added in
    # ascending l from 0: the same bits, cut into blocks or not
    monkeypatch.setattr(expsum, "_TERM_BLOCK", block)
    ys = (Fraction(0), Fraction(2, 7), Fraction(2**70 + 1, 2**71))
    for coeffs in [(1, 1), (3, 0, 1), (100, 1), (2, 1, 1)]:
        ctx = make_context(coeffs)
        a = ctx.coeffs
        for y in (ys, ys[2]):
            params = ExpSumParams.make(y, Fraction(5, 7))
            for n, j in [(n, j) for n in (3, 9) for j in ctx.index_set if j <= n]:
                pre_g = sum(a[k - 1] * ctx.term(n - k) for k in range(1, j))
                pre_a = sum(a[:j - 1])
                ls = range(a[j - 1])
                want = term_loop_sum(params, [pre_g + l * ctx.term(n - j) for l in ls],
                                     [pre_a + l for l in ls])
                assert hexes(coefficient_A(ctx, n, j, params)) == hexes(want), (coeffs, n, j)


def test_coefficient_modulus_bound():
    ctx = make_context((4, 2, 1))
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = ExpSumParams.make(random_fraction(rng), random_fraction(rng))
        for j in ctx.index_set:
            val = coefficient_A(ctx, 8, j, params)
            assert abs(val) <= ctx.coeffs[j - 1] + 1e-12


def test_kernel_ratio_equals_coefficient_modulus():
    ctx = make_context((3, 1))
    rng = np.random.default_rng(3)
    for _ in range(20):
        y, beta = random_fraction(rng), random_fraction(rng)
        params = ExpSumParams.make(y, beta)
        for j in ctx.index_set:
            x = float((beta + y * ctx.term(9 - j)) % 1)
            kernel = dirichlet_kernel_abs(x, ctx.coeffs[j - 1])
            assert float(kernel) == pytest.approx(
                abs(coefficient_A(ctx, 9, j, params)), abs=1e-8
            )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    coeffs=st.sampled_from(BASES),
    n=st.integers(3, 9),
    beta=frequencies,
    ys=st.lists(frequencies, min_size=1, max_size=8),
)
def test_array_recurrence_matches_scalar_and_direct(coeffs, n, beta, ys):
    ctx = make_context(coeffs)
    arrays = [exp_sum_recurrent(ctx, k, ExpSumParams.make(ys, beta)) for k in range(n + 1)]
    for i, y in enumerate(ys):
        params = ExpSumParams.make(y, beta)
        scalar = [exp_sum_recurrent(ctx, k, params) for k in range(n + 1)]
        assert all(abs(v[i] - w) <= 1e-12 * ctx.term(k)
                   for k, (v, w) in enumerate(zip(arrays, scalar)))
        direct = exp_sum_direct(ctx, n, params)
        assert abs(arrays[n][i] - direct) <= 1e-9 * max(1.0, abs(direct))


# The quadrature reference costs O(G_n^2), and the float floor of dS_n/dy reaches
# about 6e-14 G_n^2, so the property stays at G_n <= 400 (n >= 1: G_0 = 1 gives
# dS_0/dy = 0).
DERIVATIVE_CASES = [(c, n) for c in BASES for n in range(1, 13)
                    if make_context(c).term(n) <= 400]


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(DERIVATIVE_CASES),
    beta=frequencies,
)
def test_recurrence_derivative_matches_direct(case, beta):
    coeffs, n = case
    ctx = make_context(coeffs)
    est = derivative_one_norm(ctx, n, beta)
    want = derivative_one_norm_direct(ctx, n, beta)
    assert est.value > 0
    assert abs(est.value - want) <= 1e-12 * want


def test_direct_sum_guard():
    ctx = make_context((100, 1))
    with pytest.raises(CostGuardError):
        exp_sum_direct(ctx, 12, ExpSumParams.make(Fraction(1, 10), Fraction(1, 10)))


def test_coefficient_preconditions():
    ctx = make_context((3, 0, 1))
    params = ExpSumParams.make(Fraction(1, 10), Fraction(1, 5))
    with pytest.raises(PreconditionError):
        coefficient_A(ctx, 8, 2, params)  # a_2 = 0
    with pytest.raises(PreconditionError):
        coefficient_A(ctx, 1, 3, params)  # n < j


def test_farey_fractions():
    f3 = farey_points(3)
    assert f3 == [
        Fraction(0),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(2, 3),
    ]


def test_farey_points_match_the_definition():
    # the neighbour recurrence against the set of reduced h/q in [0, 1),
    # sorted, for every order up to 100 and the orders below 1
    for q_max in range(-1, 101):
        want = {Fraction(h, q) for q in range(1, q_max + 1) for h in range(q)}
        want = sorted(want | {Fraction(0)})
        assert farey_points(q_max) == want, q_max


def test_one_norm_at_beta_zero():
    # S_n(y, 0) is the geometric kernel; its 1-norm is ~ log G_n scale, > 1
    ctx = make_context((1, 1))
    est = one_norm(ctx, 6, 0)
    assert 1.0 < est.value < ctx.term(6)


def test_gallagher_inequality_holds():
    ctx = make_context((2, 1))
    beta = Fraction(37, 100)
    rep = gallagher_check(ctx, 5, beta, 7)
    assert rep.ok and rep.lhs <= rep.rhs * (1 + 1e-6)
    # the norms are those of the two functions, bit for bit
    assert rep.one_norm == one_norm(ctx, 5, beta).value
    assert rep.derivative_one_norm == derivative_one_norm(ctx, 5, beta).value


@pytest.mark.parametrize("coeffs, n, q_max, beta", [
    ((2, 1), 5, 7, Fraction(37, 100)),
    ((1, 1), 16, 40, Fraction(0.4)),  # the double 0.4 as the CLI passes it: 2^53 below
], ids=["small", "cli-double"])
def test_gallagher_lhs_sums_the_scalar_recurrence(coeffs, n, q_max, beta):
    ctx = make_context(coeffs)
    rep = gallagher_check(ctx, n, beta, q_max)
    scalar = [abs(exp_sum_recurrent(ctx, n, ExpSumParams.make(p, beta)))
              for p in farey_points(q_max)]
    assert rep.n_points == len(scalar)
    assert rep.lhs == float(np.sum(scalar))


def test_gallagher_guard():
    ctx = make_context((2, 1))
    with pytest.raises(CostGuardError):
        gallagher_check(ctx, 5, Fraction(1, 10), 200)


@pytest.mark.parametrize("call", [
    lambda ctx: ExpSumParams.make(0.25, Fraction(1, 2)),
    lambda ctx: ExpSumParams.make(Fraction(1, 4), 0.5),
    lambda ctx: ExpSumParams.make([Fraction(1, 4), 0.5], 0),
    lambda ctx: ExpSumParams.make(np.array([0.25]), 0),
    lambda ctx: ExpSumParams.make(np.float64(0.25), 0),
    lambda ctx: one_norm(ctx, 5, 0.25),
    lambda ctx: derivative_one_norm(ctx, 5, 0.25),
    lambda ctx: gallagher_check(ctx, 5, 0.25, 3),
], ids=["y", "beta", "y-list", "y-array", "numpy-float", "one_norm", "derivative_one_norm",
        "gallagher"])
def test_floats_are_refused(call):
    with pytest.raises(PreconditionError, match="ints or Fractions"):
        call(make_context((2, 1)))


def test_array_y_past_int64_matches_scalar_and_residue_counts():
    # one y of the array has a denominator above 2^63, next to small ones:
    # every phase is reduced in Python ints, and the small y stay exact
    ctx = make_context((2, 1))
    beta = Fraction(2, 7)
    ys = [Fraction(1, 3**41), BIG_Q, Fraction(1, 3), Fraction(7, 30)]
    n = 40
    arr = exp_sum_recurrent(ctx, n, ExpSumParams.make(ys, beta))
    for i, y in enumerate(ys):
        assert arr[i] == exp_sum_recurrent(ctx, n, ExpSumParams.make(y, beta))
    for i in (2, 3):
        assert abs(arr[i] - residue_count_sum(ctx, n, ys[i], beta)) <= 1e-12 * ctx.term(n)
    # at a size the direct sum reaches, on its Python-int path
    for y in ys[:2]:
        params = ExpSumParams.make(y, beta)
        want = exp_sum_direct(ctx, 12, params)
        assert abs(exp_sum_recurrent(ctx, 12, params) - want) <= 1e-12 * ctx.term(12)


def test_direct_sum_refuses_a_tuple_y():
    # the direct sum is taken at one y; a tuple (even of length 1) is refused
    # before any summation
    params = ExpSumParams.make([Fraction(1, 3)], 0)
    with pytest.raises(PreconditionError, match="scalar y"):
        exp_sum_direct(make_context((2, 1)), 5, params)
