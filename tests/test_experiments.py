import math
import tracemalloc
import warnings
from dataclasses import asdict
from functools import lru_cache

import numpy as np
import pytest

import recnum.experiments as experiments
from recnum.base import CostGuardError, PreconditionError, make_context
from recnum.digits import TABLE_LIMIT, digit_sums_range
from recnum.experiments import (
    GcdPreconditionWarning,
    almost_prime_count,
    bv_discrepancy,
    generalized_von_mangoldt,
    geometric_z_samples,
    sieve_spf,
    von_mangoldt_sum,
    von_mangoldt_table,
)

ZECK = make_context((1, 1))


@pytest.fixture(scope="module")
def sieve_1e5():
    return sieve_spf(10**5)


def test_sieve_spf_small(sieve_1e5):
    spf = sieve_1e5.spf
    assert spf.dtype == np.int32
    assert spf[2] == 2 and spf[3] == 3 and spf[4] == 2
    assert spf[91] == 7 and spf[97] == 97
    assert spf[99991] == 99991 and spf[99993] == 3


def sieve_spf_reference(x):
    """The smallest-prime-factor table by one masked pass over the whole table
    per prime p <= isqrt(x): p goes to its multiples from p^2 on that no
    smaller prime has claimed."""
    if x < 2:
        return np.zeros(max(x + 1, 2), dtype=np.int32)
    spf = np.zeros(x + 1, dtype=np.int32)
    for i in range(2, math.isqrt(x) + 1):
        if spf[i] == 0:
            sl = spf[i * i :: i]
            sl[sl == 0] = i
    untouched = spf == 0
    untouched[:2] = False
    spf[untouched] = np.nonzero(untouched)[0]
    return spf


# around 2**18 and several times it, and the edge cases 0..4
@pytest.mark.parametrize("x", [0, 1, 2, 3, 4, 2**18 - 1, 2**18, 2**18 + 1, 3 * 2**18 + 7, 10**6])
def test_sieve_spf_matches_reference(x):
    sieve = sieve_spf(x)
    assert sieve.limit == x and sieve.spf.dtype == np.int32
    assert np.array_equal(sieve.spf, sieve_spf_reference(x))


def test_sieve_guard():
    with pytest.raises(CostGuardError):
        sieve_spf(10**9)
    with pytest.raises(CostGuardError, match="exceeds the guard 100000000"):
        almost_prime_count(ZECK, experiments.SIEVE_GUARD + 1, 1, 2)


def class_progression_count(ctx, z, r, s, h, q):
    """#{k < z : s_G(k) = r (mod s), k = h (mod q)}, exactly."""
    ks = np.arange(z, dtype=np.int64)
    mask = digit_sums_range(ctx, z) % s == r % s
    return int(np.count_nonzero(mask & (ks % q == h % q)))


def test_class_progression_count_bruteforce():
    from recnum.digits import sum_of_digits

    z, r, s, h, q = 500, 1, 2, 3, 7
    expected = sum(
        1 for k in range(z) if sum_of_digits(ZECK, k) % s == r and k % q == h
    )
    assert class_progression_count(ZECK, z, r, s, h, q) == expected


def test_geometric_z_samples():
    zs = geometric_z_samples(100)
    assert zs[0] == 1 and zs[-1] == 100
    assert 50 in zs and 25 in zs
    assert zs == sorted(set(zs))


def test_bv_discrepancy_small():
    x, r, s = 2000, 1, 2
    rep = bv_discrepancy(ZECK, x, r, s, exponent=0.3)
    assert rep.q_max == math.ceil(x**0.3) - 1
    assert len(rep.per_q) == rep.q_max and rep.z_samples == geometric_z_samples(x)
    # brute force: every progression h mod q counted on its own
    for q, dev in enumerate(rep.per_q, start=1):
        expected = 0.0
        for z in rep.z_samples:
            in_class = class_progression_count(ZECK, z, r, s, 1, 1)
            for h in range(1, q + 1):
                count = class_progression_count(ZECK, z, r, s, h, q)
                expected = max(expected, abs(count - in_class / q))
        assert dev == expected, q
    assert rep.total == pytest.approx(sum(rep.per_q))
    assert rep.normalized == pytest.approx(rep.total * math.log(2 * x) / x)
    assert asdict(rep)["x"] == x


def bv_per_q_reference(ctx, x, r, s, q_max):
    """The per-q discrepancy with one bincount per sample z and modulus q."""
    ks = np.flatnonzero(digit_sums_range(ctx, x) % s == r % s)
    per_q = [0.0] * q_max
    for z in geometric_z_samples(x):
        sub = ks[: int(np.searchsorted(ks, z))]
        for q in range(1, q_max + 1):
            dev = float(np.max(np.abs(np.bincount(sub % q, minlength=q) - len(sub) / q)))
            per_q[q - 1] = max(per_q[q - 1], dev)
    return per_q


@pytest.mark.parametrize("x", [1, 2, 3 * 10**5])
def test_bv_discrepancy_matches_per_z_reference(x):
    for r in (0, 1):
        rep = bv_discrepancy(ZECK, x, r, 2, exponent=0.3)
        assert rep.per_q == bv_per_q_reference(ZECK, x, r, 2, rep.q_max), r


def test_bv_discrepancy_rejects_bad_gcd():
    # a = (2, 1): a_1 + a_2 - 1 = 2 shares a factor with s = 2
    ctx = make_context((2, 1))
    with pytest.raises(PreconditionError):
        bv_discrepancy(ctx, 1000, 1, 2, exponent=0.3)


def test_almost_prime_count_bruteforce():
    def is_p2(n):
        facs = []
        m = n
        p = 2
        while p * p <= m:
            while m % p == 0:
                facs.append(p)
                m //= p
            p += 1
        if m > 1:
            facs.append(m)
        return len(facs) in (1, 2)

    from recnum.digits import sum_of_digits

    x = 300
    expected = sum(
        1 for k in range(2, x + 1) if is_p2(k) and sum_of_digits(ZECK, k) % 2 == 1
    )
    assert almost_prime_count(ZECK, x, 1, 2) == expected


def almost_prime_count_reference(ctx, x, r, s):
    """The count read off the smallest-prime-factor table: k is prime when
    spf(k) = k, and a product of two primes when k / spf(k) is prime."""
    spf = sieve_spf(x).spf
    total = 0
    for lo in range(2, x + 1, 1 << 20):
        hi = min(lo + (1 << 20), x + 1)
        ks = np.arange(lo, hi, dtype=np.int64)
        quotient = ks // spf[lo:hi]
        prime = quotient == 1
        semiprime = (quotient > 1) & (spf[quotient] == quotient)
        mask = (prime | semiprime) & (digit_sums_range(ctx, hi, lo) % s == r % s)
        total += int(np.count_nonzero(mask))
    return total


# around 2**18 and around one and several prime windows (2 _CHUNK = 2**21
# integers; 2**20 is half of one)
WINDOW_XS = sorted(
    {x for w in (2**18, 2**20) for x in (w - 1, w, w + 1, 3 * w + 7)} | {2, 3, 4, 10**6}
)


@pytest.mark.filterwarnings("ignore::recnum.experiments.GcdPreconditionWarning")
@pytest.mark.parametrize("x", WINDOW_XS)
def test_almost_prime_count_matches_spf_reference(x):
    for coeffs in [(1, 1), (2, 1), (1, 1, 1)]:
        ctx = make_context(coeffs)
        for r in (0, 1):
            want = almost_prime_count_reference(ctx, x, r, 2)
            assert almost_prime_count(ctx, x, r, 2) == want, (coeffs, r)


def test_sieve_paths_allocate_no_table_of_length_x():
    # the streamed paths stay below the table they replaced: a float64 Lambda_l
    # (8x bytes) for von_mangoldt_sum, the int32 spf table (4x) for the count.
    # bv_discrepancy holds a float32 class indicator (4x) and a ones vector
    # (2x); it must stay below the int64 class members and their keys of the
    # bincount version, whose traced peak read 127,381,880 bytes here
    x = 10**7
    calls = [
        (lambda: von_mangoldt_sum(ZECK, x, 2, 1, 2), 8 * x),
        (lambda: almost_prime_count(ZECK, x, 1, 2), 4 * x),
        (lambda: bv_discrepancy(ZECK, x, 1, 2, exponent=0.3), 127_381_880),
    ]
    for call, limit in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


# x around the windows of 2 * 64 integers, and squares of primes
SEGMENT_EDGE_XS = [0, 1, 2, 3, 127, 128, 129, 255, 256, 257, 121, 127**2, 131**2, 251**2]


@pytest.mark.parametrize("x", SEGMENT_EDGE_XS)
def test_prime_segments_match_small_sieve(monkeypatch, x):
    monkeypatch.setattr(experiments, "_CHUNK", 64)
    segments = list(experiments._prime_segments(x))
    assert [lo for lo, _, _ in segments] == list(range(0, x + 1, 128))
    for lo, hi, primes in segments:
        assert hi == min(lo + 128, x + 1) and np.all((lo <= primes) & (primes < hi))
    got = np.concatenate([primes for _, _, primes in segments])
    assert got.tolist() == experiments._primes_upto(x)


@pytest.mark.filterwarnings("ignore::recnum.experiments.GcdPreconditionWarning")
@pytest.mark.parametrize("x", [x for x in SEGMENT_EDGE_XS if x >= 2] + [3000])
def test_sieve_paths_across_many_segments(monkeypatch, x):
    # 64 odd numbers per window: the products p q and the list of q carry
    # across many window edges
    monkeypatch.setattr(experiments, "_CHUNK", 64)
    for coeffs in [(1, 1), (2, 1)]:
        ctx = make_context(coeffs)
        for r in (0, 1):
            assert almost_prime_count(ctx, x, r, 2) == almost_prime_count_reference(
                ctx, x, r, 2), (coeffs, r)
    for r in (0, 1):
        rep = bv_discrepancy(ZECK, x, r, 2, exponent=0.3)
        assert rep.per_q == bv_per_q_reference(ZECK, x, r, 2, rep.q_max), r


@lru_cache(maxsize=None)
def lambda_bruteforce(x):
    """Lambda(n) for n <= x by trial division of every n: math.log(p) at n = p^k."""
    lam = np.zeros(x + 1)
    for n in range(2, x + 1):
        p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
        m = n
        while m % p == 0:
            m //= p
        if m == 1:
            lam[n] = math.log(p)
    return lam


def generalized_von_mangoldt_reference(x, ell, lam):
    """Lambda_l with one strided slice-add per prime power e, in ascending e:
    the order of additions that generalized_von_mangoldt reproduces."""
    cur = lam
    support = np.nonzero(lam)[0]
    for _ in range(ell - 1):
        nxt = np.arange(x + 1, dtype=float)
        nxt[0] = 1.0
        np.log(nxt, out=nxt)
        nxt *= cur
        for e in support:
            top = x // int(e)
            nxt[e :: e] += cur[1 : top + 1] * lam[e]
        cur = nxt
    return cur


def generalized_von_mangoldt_dense(x, ell):
    """Lambda_l on 0..x by the recursion over the whole range at once: Lambda
    off the smallest-prime-factor table, then per level log(n) Lambda_{l-1}(n)
    at the support and every pair e m <= x by np.add.at, in ascending e."""
    spf = sieve_spf(x).spf[: x + 1]
    cur = np.zeros(x + 1)
    primes = np.flatnonzero(spf == np.arange(x + 1))
    primes = primes[primes >= 2]
    cur[primes] = [math.log(p) for p in primes.tolist()]
    small = primes[primes <= math.isqrt(x)]
    for p in small.tolist():
        pk = p * p
        while pk <= x:
            cur[pk] = math.log(p)
            pk *= p
    es = np.flatnonzero(cur)
    lv = cur[es]
    for _ in range(ell - 1):
        ms = np.flatnonzero(cur)
        cv = cur[ms]
        cur = np.zeros(x + 1)
        cur[ms] = np.log(ms) * cv
        runs = np.searchsorted(ms, x // es, side="right")
        for i0 in range(0, es.size, 1024):
            run = runs[i0 : i0 + 1024]
            i = np.repeat(np.arange(i0, i0 + run.size), run)
            j = np.arange(i.size) - np.repeat(np.cumsum(run) - run, run)
            np.add.at(cur, es[i] * ms[j], cv[j] * lv[i])
    return cur


# one, two and three windows of experiments._CHUNK = 2**20
@pytest.mark.parametrize("x", [2**20 - 1, 2**20 + 1, 2 * 2**20 + 3])
def test_von_mangoldt_sum_matches_dense_reference(x):
    # the class sum over windows of the dense Lambda_l, bit for bit
    for ell in (2, 3, 4):
        lam = generalized_von_mangoldt_dense(x - 1, ell)
        for r in (0, 1):
            want = 0.0
            for lo in range(0, x, 1 << 20):
                hi = min(lo + (1 << 20), x)
                want += float(np.sum(lam[lo:hi][digit_sums_range(ZECK, hi, lo) % 2 == r]))
            assert von_mangoldt_sum(ZECK, x, ell, r, 2).lhs.hex() == want.hex(), (ell, r)


@pytest.mark.parametrize("compact", [1, 7, 1 << 15])
@pytest.mark.parametrize("chunk", [64, 1000])
def test_von_mangoldt_sum_compaction_matches_dense_reference(monkeypatch, chunk, compact):
    # the class members compacted in place, in blocks of 1 and 7 entries and
    # in one block per window, sum to the bits of the dense Lambda_l's class
    # sum over the same windows; s = 1 puts every k in the class
    monkeypatch.setattr(experiments, "_CHUNK", chunk)
    monkeypatch.setattr(experiments, "_COMPACT_CHUNK", compact)
    x = 3001
    sums = digit_sums_range(ZECK, x)
    for ell in (2, 3, 4):
        lam = generalized_von_mangoldt_dense(x - 1, ell)
        for s in (1, 3):
            for r in range(s):
                want = 0.0
                for lo in range(0, x, chunk):
                    hi = min(lo + chunk, x)
                    want += float(np.sum(lam[lo:hi][sums[lo:hi] % s == r]))
                got = von_mangoldt_sum(ZECK, x, ell, r, s).lhs
                assert got.hex() == want.hex(), (ell, s, r)


@pytest.mark.parametrize("chunk", [1, 2, 7, 64, 1000])
def test_generalized_von_mangoldt_windows(monkeypatch, chunk):
    # many windows: every level's pairs and supports carry across window edges
    monkeypatch.setattr(experiments, "_CHUNK", chunk)
    x = 3000
    lam = lambda_bruteforce(2**17)[: x + 1]
    for ell in range(1, 5):
        got = generalized_von_mangoldt(x, ell)
        assert np.array_equal(got, generalized_von_mangoldt_reference(x, ell, lam)), ell
    assert np.array_equal(generalized_von_mangoldt_dense(x, 4), got)


def test_prime_powers_merged_in_order(monkeypatch):
    # windows of 2, 4 and 128 integers put zero, one or two numbers in a
    # segment; the higher powers are merged into the primes in place
    lam = lambda_bruteforce(2**17)
    for chunk in (1, 2, 64):
        monkeypatch.setattr(experiments, "_CHUNK", chunk)
        for x in [0, 1, 2, 3, 4, 8, 9, 27, 1000, 2**10, 3**6 + 1]:
            es, lv, at, js = experiments._prime_powers(x)
            assert es.tolist() == np.flatnonzero(lam[: x + 1]).tolist(), (chunk, x)
            assert np.array_equal(lv, lam[es]), (chunk, x)
            higher = [(p**j, j) for p in range(2, x + 1) for j in range(2, x.bit_length() + 1)
                      if lam[p] == math.log(p) and p**j <= x]
            assert list(zip(es[at].tolist(), js.tolist())) == sorted(higher), (chunk, x)


def assert_prime_logs_are_math_log(n):
    """Every log p of _prime_powers(n) at a prime p equals math.log(p),
    compared 2**20 entries at a time."""
    es, lv, at, _ = experiments._prime_powers(n)
    is_prime = np.ones(es.size, dtype=bool)
    is_prime[at] = False
    for a in range(0, es.size, 1 << 20):
        keep = is_prime[a : a + (1 << 20)]
        ps, got = es[a : a + (1 << 20)][keep], lv[a : a + (1 << 20)][keep]
        want = np.fromiter(map(math.log, ps.tolist()), dtype=float, count=ps.size)
        assert np.array_equal(got, want), ps[got != want][:5].tolist()


def test_prime_logs_equal_math_log():
    # every prime <= 10**7; with _LOG_MARGIN = 0 the rounded long double
    # logs differ from math.log here, the first at 39133
    assert_prime_logs_are_math_log(10**7)


@pytest.mark.release
def test_prime_logs_equal_math_log_up_to_the_guard():
    assert_prime_logs_are_math_log(experiments.SIEVE_GUARD)


def test_prime_count_bound_covers_pi():
    # pi(p) <= bound(p) at every prime p <= 2 * 10**6, both sides of Dusart's
    # threshold 355991; the bound increases with y, so primes are the worst case
    primes = np.array(experiments._primes_upto(2 * 10**6))
    bounds = np.array([experiments._prime_count_bound(p) for p in primes.tolist()])
    assert np.all(np.arange(1, primes.size + 1) <= bounds)
    assert [experiments._prime_count_bound(y) for y in (-1, 0, 1)] == [0, 0, 0]


@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_set_unordered_pairs_writes_each_pair(chunk):
    # x + x at e m for every pair of prime powers e < m, by a double loop;
    # pairs of powers of one prime all give the same value at their product
    x = 1000
    es, lv, _, _ = experiments._prime_powers(x)
    want = np.zeros(x + 1)
    for i, e in enumerate(es.tolist()):
        for j in range(i + 1, es.size):
            if e * es[j] > x:
                break
            want[e * es[j]] = lv[j] * lv[i] + lv[j] * lv[i]
    got = np.zeros(x + 1)
    for lo in range(0, x + 1, chunk):
        experiments._set_unordered_pairs(got[lo : lo + chunk], lo, es, lv)
    assert np.array_equal(got, want)


# windows of 1, 2, 7 and 64 integers, with x next to 2^10 and 3^6, put
# prime powers p^j on window edges; batches of 1, 3 and 7 pairs split the
# pair runs of level 1 (the closed form of Lambda_2) and of the levels above
@lru_cache(maxsize=None)
def lambda_references(x, ell):
    """generalized_von_mangoldt_reference and generalized_von_mangoldt_dense,
    at the default window sizes."""
    lam = lambda_bruteforce(2**17)[: x + 1]
    return generalized_von_mangoldt_reference(x, ell, lam), generalized_von_mangoldt_dense(x, ell)


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
@pytest.mark.parametrize("pair_chunk", [1, 3, 7])
def test_lambda_windows_match_references(monkeypatch, chunk, pair_chunk):
    cases = [(x, ell, *lambda_references(x, ell))
             for x in [2**10 - 1, 2**10, 3**6, 3**6 + 1] for ell in (2, 3, 4)]
    monkeypatch.setattr(experiments, "_CHUNK", chunk)
    monkeypatch.setattr(experiments, "_ADD_AT_CHUNK", pair_chunk)
    for x, ell, reference, dense in cases:
        got = generalized_von_mangoldt(x, ell)
        assert np.array_equal(got, reference) and np.array_equal(got, dense), (x, ell)


def test_von_mangoldt_sum_memory_matches_its_live_set():
    # the live set of the docstrings of _lambda_windows and von_mangoldt_sum:
    # es and lv, allocated at _prime_count_bound plus the higher powers; the
    # window's prime powers and their log(k) Lambda(k); one window and its
    # class mask; then either one batch of pairs (40 bytes each) or one
    # compaction block's class members; and the class table mod 2 of a
    # fresh context, one byte per entry
    ctx = make_context((1, 1))
    x = 3 * 2**20 + 5
    chunk, pair_chunk = experiments._CHUNK, experiments._ADD_AT_CHUNK
    es, _, at, _ = experiments._prime_powers(x - 1)
    per_window = max(np.count_nonzero((lo <= es) & (es < lo + chunk)) for lo in range(0, x, chunk))
    table = ctx.terms_upto(TABLE_LIMIT)[-1]
    capacity = experiments._prime_count_bound(x - 1) + at.size
    members = 8 * experiments._COMPACT_CHUNK
    bound = 16 * capacity + 16 * per_window + 9 * chunk + max(40 * pair_chunk, members) + table
    tracemalloc.start()
    try:
        von_mangoldt_sum(ctx, x, 2, 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def lambda2_closed_form(x):
    """Lambda_2(n): (2k - 1) log^2 p at n = p^k, 2 log p log q at n = p^a q^b."""
    out = np.zeros(x + 1)
    for n in range(2, x + 1):
        factors, m = [], n
        for p in range(2, math.isqrt(n) + 1):
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            if k:
                factors.append((p, k))
        if m > 1:
            factors.append((m, 1))
        if len(factors) == 1:
            (p, k), = factors
            out[n] = (2 * k - 1) * math.log(p) ** 2
        elif len(factors) == 2:
            out[n] = 2 * math.log(factors[0][0]) * math.log(factors[1][0])
    return out


@pytest.fixture(scope="module")
def sieve_3e5():
    return sieve_spf(3 * 10**5)


def test_von_mangoldt_table():
    lam = von_mangoldt_table(100)
    assert lam[1] == 0 and lam[6] == 0
    assert lam[7] == pytest.approx(math.log(7))
    assert lam[8] == pytest.approx(math.log(2))
    assert lam[49] == pytest.approx(math.log(7))


@pytest.mark.parametrize("x", [0, 1, 2, 8, 9, 100, 3**10 - 1, 3**10, 2**17 - 1, 2**17])
def test_von_mangoldt_table_bruteforce(x):
    lam = von_mangoldt_table(x)
    want = lambda_bruteforce(2**17)[: x + 1]
    assert lam.shape == want.shape and np.array_equal(lam, want)


def test_von_mangoldt_table_uses_math_log(sieve_3e5):
    # np.log(285343.0) is one ulp off math.log(285343), the smallest such prime;
    # every Lambda_l inherits the table, so it must hold math.log exactly
    x = 3 * 10**5
    lam = von_mangoldt_table(x)
    spf = sieve_3e5.spf
    primes = [p for p in range(2, x + 1) if spf[p] == p]
    assert 285343 in primes
    assert all(lam[p] == math.log(p) for p in primes)
    powers = {p**k for p in primes for k in range(1, 20) if p**k <= x}
    assert set(np.nonzero(lam)[0].tolist()) == powers


# (e, m) pairs per np.add.at call. A chunk of 7 splits the runs of m of every
# e below x/7; one chunk of 2**18 holds every pair for x <= 3000, so an n with
# several prime-power divisors gets all its terms in one np.add.at call.
CHUNKS = [1, 3, 7, 1000, 2**18]
# Case ids: each chunk is named with the prime-power bound it was paired with
# when prime powers below that bound took a separate strided-slice path.
CHUNK_IDS = {7: "8-7", 1: "8-1", 2**18: "8-262144", 3: "50-3", 1000: "1024-1000"}


# x = 0, 1 and 2 leave no (e, m) pair; above 2**16 the chunks below 1000 take
# seconds each, and the default chunk is test_generalized_von_mangoldt_default_split
@pytest.mark.parametrize(
    "x, chunk",
    [
        pytest.param(x, chunk, id=f"{x}-{CHUNK_IDS[chunk]}")
        for x in [0, 1, 2, 5, 8, 9, 49, 51, 3000, 3**7]
        for chunk in CHUNKS
    ]
    + [pytest.param(x, 1000, id=f"{x}-1000") for x in [2**16, 2**16 + 1, 2**17]],
)
def test_generalized_von_mangoldt_matches_slice_reference(monkeypatch, x, chunk):
    monkeypatch.setattr(experiments, "_ADD_AT_CHUNK", chunk)
    lam = lambda_bruteforce(2**17)[: x + 1]
    for ell in range(1, 5):
        got = generalized_von_mangoldt(x, ell)
        assert np.array_equal(got, generalized_von_mangoldt_reference(x, ell, lam)), ell


@pytest.mark.parametrize("x", [2**16, 2**16 + 1, 2**17])
def test_generalized_von_mangoldt_default_split(x):
    # the default chunk
    lam = lambda_bruteforce(2**17)[: x + 1]
    for ell in range(1, 5):
        got = generalized_von_mangoldt(x, ell)
        assert np.array_equal(got, generalized_von_mangoldt_reference(x, ell, lam)), ell


@pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS.get)
def test_lambda2_closed_form(monkeypatch, chunk):
    monkeypatch.setattr(experiments, "_ADD_AT_CHUNK", chunk)
    x = 5000
    got = generalized_von_mangoldt(x, 2)
    assert np.allclose(got, lambda2_closed_form(x), rtol=1e-12, atol=0)


def test_lambda2_identity():
    # Lambda_2 = Lambda * Lambda + Lambda . log, checked directly
    x = 2000
    lam = von_mangoldt_table(x)
    lam2 = generalized_von_mangoldt(x, 2)
    conv = np.zeros(x + 1)
    for d in range(1, x + 1):
        if lam[d]:
            conv[d::d] += lam[d] * lam[1 : x // d + 1]
    logs = np.concatenate([[0.0], np.log(np.arange(1, x + 1))])
    assert np.allclose(lam2, conv + lam * logs, atol=1e-9)


def test_lambda2_mertens_normalization():
    # sum_{n <= x} Lambda_2(n) ~ 2 x log x
    x = 10**5
    lam2 = generalized_von_mangoldt(x, 2)
    ratio = lam2.sum() / (2 * x * math.log(x))
    assert 0.8 < ratio < 1.2


def test_von_mangoldt_sum_report():
    rep = von_mangoldt_sum(ZECK, 10**5, 2, 1, 2)
    assert rep.lhs > 0
    assert rep.main_term == pytest.approx(2 / 2 * 10**5 * math.log(10**5))
    assert 0.3 < rep.ratio < 2.0
    assert rep.ratio == rep.lhs / rep.main_term
    assert asdict(rep)["ratio"] == pytest.approx(rep.ratio)


def test_von_mangoldt_sum_warns_on_bad_gcd():
    ctx = make_context((2, 1))
    with pytest.warns(GcdPreconditionWarning):
        von_mangoldt_sum(ctx, 10**4, 2, 1, 2)


def test_almost_prime_count_warns_on_bad_gcd():
    # gcd(100 + 1 - 1, 2) = 2: every G_j is odd, so the class s_G(k) odd is
    # just the odd integers; Zeckendorf, gcd(1, 2) = 1, stays silent
    with pytest.warns(GcdPreconditionWarning, match=r"gcd\(100, 2\) != 1"):
        almost_prime_count(make_context((100, 1)), 10**4, 1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", GcdPreconditionWarning)
        almost_prime_count(ZECK, 10**4, 1, 2)


def test_von_mangoldt_sum_requires_ell_ge_2():
    with pytest.raises(PreconditionError):
        von_mangoldt_sum(ZECK, 1000, 1, 1, 2)


def test_sieve_entry_points_reject_bad_x_and_s():
    calls = [
        lambda x, s: bv_discrepancy(ZECK, x, 1, s, exponent=0.3),
        lambda x, s: almost_prime_count(ZECK, x, 1, s),
        lambda x, s: von_mangoldt_sum(ZECK, x, 2, 1, s),
    ]
    for call in calls:
        for s in (0, -3):
            with pytest.raises(PreconditionError):
                call(100, s)
    for call, x_min in zip(calls, (1, 2, 2)):
        with pytest.raises(PreconditionError):
            call(x_min - 1, 2)
        call(x_min, 2)
