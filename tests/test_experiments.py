import math

import numpy as np
import pytest

from recnum.base import CostGuardError, PreconditionError, make_context
from recnum.experiments import (
    GcdPreconditionWarning,
    almost_prime_count,
    bv_discrepancy,
    class_progression_count,
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


def test_sieve_guard():
    with pytest.raises(CostGuardError):
        sieve_spf(10**9)


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
    assert rep.to_dict()["x"] == x


def test_bv_discrepancy_rejects_bad_gcd():
    # a = (2, 1): a_1 + a_2 - 1 = 2 shares a factor with s = 2
    ctx = make_context((2, 1))
    with pytest.raises(PreconditionError):
        bv_discrepancy(ctx, 1000, 1, 2, exponent=0.3)


def test_almost_prime_count_bruteforce(sieve_1e5):
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
    assert almost_prime_count(ZECK, x, 1, 2, sieve_1e5) == expected


def test_von_mangoldt_table(sieve_1e5):
    lam = von_mangoldt_table(100, sieve_1e5)
    assert lam[1] == 0 and lam[6] == 0
    assert lam[7] == pytest.approx(math.log(7))
    assert lam[8] == pytest.approx(math.log(2))
    assert lam[49] == pytest.approx(math.log(7))


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


def test_von_mangoldt_sum_report(sieve_1e5):
    rep = von_mangoldt_sum(ZECK, 10**5, 2, 1, 2, sieve_1e5)
    assert rep.lhs > 0
    assert rep.main_term == pytest.approx(2 / 2 * 10**5 * math.log(10**5))
    assert 0.3 < rep.ratio < 2.0
    assert rep.to_dict()["ratio"] == pytest.approx(rep.ratio)


def test_von_mangoldt_sum_warns_on_bad_gcd(sieve_1e5):
    ctx = make_context((2, 1))
    with pytest.warns(GcdPreconditionWarning):
        von_mangoldt_sum(ctx, 10**4, 2, 1, 2, sieve_1e5)


def test_von_mangoldt_sum_requires_ell_ge_2(sieve_1e5):
    with pytest.raises(PreconditionError):
        von_mangoldt_sum(ZECK, 1000, 1, 1, 2, sieve_1e5)
