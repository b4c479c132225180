import math
import warnings
from dataclasses import asdict
from functools import lru_cache

import numpy as np
import pytest

import recnum.experiments as experiments
from recnum.base import CostGuardError, PreconditionError, make_context
from recnum.digits import digit_sums_range
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


# around one and several segments of experiments._SEGMENT = 2**18 entries
@pytest.mark.parametrize("x", [0, 1, 2, 3, 4, 2**18 - 1, 2**18, 2**18 + 1, 3 * 2**18 + 7, 10**6])
def test_sieve_spf_matches_reference(x):
    sieve = sieve_spf(x)
    assert sieve.limit == x and sieve.spf.dtype == np.int32
    assert np.array_equal(sieve.spf, sieve_spf_reference(x))


def test_sieve_guard():
    with pytest.raises(CostGuardError):
        sieve_spf(10**9)


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


def test_von_mangoldt_table(sieve_1e5):
    lam = von_mangoldt_table(100, sieve_1e5)
    assert lam[1] == 0 and lam[6] == 0
    assert lam[7] == pytest.approx(math.log(7))
    assert lam[8] == pytest.approx(math.log(2))
    assert lam[49] == pytest.approx(math.log(7))


@pytest.mark.parametrize("x", [0, 1, 2, 8, 9, 100, 3**10 - 1, 3**10, 2**17 - 1, 2**17])
def test_von_mangoldt_table_bruteforce(sieve_3e5, x):
    lam = von_mangoldt_table(x, sieve_3e5)
    want = lambda_bruteforce(2**17)[: x + 1]
    assert lam.shape == want.shape and np.array_equal(lam, want)


def test_von_mangoldt_table_uses_math_log(sieve_3e5):
    # np.log(285343.0) is one ulp off math.log(285343), the smallest such prime;
    # every Lambda_l inherits the table, so it must hold math.log exactly
    x = 3 * 10**5
    lam = von_mangoldt_table(x, sieve_3e5)
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
    sieve = sieve_spf(max(x, 2))
    lam = lambda_bruteforce(2**17)[: x + 1]
    for ell in range(1, 5):
        got = generalized_von_mangoldt(x, ell, sieve)
        assert np.array_equal(got, generalized_von_mangoldt_reference(x, ell, lam)), ell


@pytest.mark.parametrize("x", [2**16, 2**16 + 1, 2**17])
def test_generalized_von_mangoldt_default_split(sieve_3e5, x):
    # the default chunk, on a sieve longer than x
    lam = lambda_bruteforce(2**17)[: x + 1]
    for ell in range(1, 5):
        got = generalized_von_mangoldt(x, ell, sieve_3e5)
        assert np.array_equal(got, generalized_von_mangoldt_reference(x, ell, lam)), ell


@pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS.get)
def test_lambda2_closed_form(monkeypatch, sieve_1e5, chunk):
    monkeypatch.setattr(experiments, "_ADD_AT_CHUNK", chunk)
    x = 5000
    got = generalized_von_mangoldt(x, 2, sieve_1e5)
    assert np.allclose(got, lambda2_closed_form(x), rtol=1e-12, atol=0)


def test_lambda2_identity(sieve_1e5):
    # Lambda_2 = Lambda * Lambda + Lambda . log, checked directly
    x = 2000
    lam = von_mangoldt_table(x, sieve_1e5)
    lam2 = generalized_von_mangoldt(x, 2, sieve_1e5)
    conv = np.zeros(x + 1)
    for d in range(1, x + 1):
        if lam[d]:
            conv[d::d] += lam[d] * lam[1 : x // d + 1]
    logs = np.concatenate([[0.0], np.log(np.arange(1, x + 1))])
    assert np.allclose(lam2, conv + lam * logs, atol=1e-9)


def test_lambda2_mertens_normalization(sieve_1e5):
    # sum_{n <= x} Lambda_2(n) ~ 2 x log x
    x = 10**5
    lam2 = generalized_von_mangoldt(x, 2, sieve_1e5)
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
