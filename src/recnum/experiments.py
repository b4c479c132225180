"""Desk-scale sieve experiments over digit classes.

Everything here is empirical: exact counts over ranges small enough for a
workstation, reported against the asymptotic predictions they are meant to
illustrate. Nothing in this module is a certified bound.

Covered: the discrepancy sum over progressions

    sum_{q < x^t} max_z max_{1 <= h <= q}
        | #{k < z : s_G(k) = r (mod s), k = h (mod q)}
          - (1/q) #{k < z : s_G(k) = r (mod s)} |,

counts of primes and semiprimes in a digit class, and sums of the
generalized von Mangoldt function Lambda_l = mu * log^l over a digit class,
compared with the main term (l/s) x (log x)^{l-1}.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from math import gcd

import numpy as np

from .base import BaseContext, CostGuardError, PreconditionError
from .digits import digit_sums_range

SIEVE_GUARD = 10**8
COUNT_GUARD = 10**7
_CHUNK = 1 << 20
_SEGMENT = 1 << 18  # int32 entries per sieve_spf segment: 1 MB, about one L2 cache
_ADD_AT_CHUNK = 1 << 18  # (e, m) pairs per np.add.at call in generalized_von_mangoldt
DISCREPANCY_LOG_POWER = 1.0  # A in the normalization log(2x)^A / x


class GcdPreconditionWarning(UserWarning):
    """The coprimality hypothesis gcd(a_1 + ... + a_d - 1, s) = 1 fails."""


@dataclass
class SieveCache:
    """Smallest-prime-factor table for 2..limit (spf[0] = spf[1] = 0)."""

    limit: int
    spf: np.ndarray


def sieve_spf(x: int) -> SieveCache:
    """The smallest-prime-factor table of 0..x, segmented after Bays & Hudson
    (BIT 17, 1977).

    The primes up to isqrt(x) come from a small sieve first. The table is then
    filled in segments of _SEGMENT entries, small enough to stay in cache:
    each prime p <= isqrt(hi - 1) writes p at its multiples from p^2 on,
    unconditionally and in descending p, so the smallest prime factor of a
    composite is written last and wins. Entries left at 0 are primes and
    get their own index. Every composite n has a prime factor p with
    p^2 <= n, so it gets written.

    int32 holds every factor up to the guard (10**8 < 2**31), at half the
    memory of int64. The table is the only allocation that grows with x;
    a segment's scratch is one mask and one index array of _SEGMENT entries
    at most.
    """
    if x > SIEVE_GUARD:
        raise CostGuardError(f"sieve limit {x} exceeds the memory guard {SIEVE_GUARD}")
    if x < 2:
        return SieveCache(x, np.zeros(max(x + 1, 2), dtype=np.int32))
    root = math.isqrt(x)
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = np.flatnonzero(is_prime).tolist()
    spf = np.zeros(x + 1, dtype=np.int32)
    for lo in range(0, x + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, x + 1)
        seg = spf[lo:hi]
        for p in reversed(primes[: bisect.bisect_right(primes, math.isqrt(hi - 1))]):
            seg[max(p * p, -(-lo // p) * p) - lo :: p] = p
        untouched = np.flatnonzero(seg == 0)
        seg[untouched] = untouched + lo
    spf[:2] = 0
    return SieveCache(x, spf)


def _digit_class_mask(ctx: BaseContext, lo: int, hi: int, r: int, s: int) -> np.ndarray:
    """Boolean mask over k in [lo, hi) for s_G(k) = r (mod s)."""
    return digit_sums_range(ctx, hi, lo) % s == r % s


@dataclass
class DiscrepancyReport:
    x: int
    q_max: int
    r: int
    s: int
    exponent: float
    A: float
    z_samples: list[int]
    per_q: list[float]
    total: float
    normalized: float


def _gcd_violation(ctx: BaseContext, s: int) -> str | None:
    """The failure of the hypothesis gcd(a_1 + ... + a_d - 1, s) = 1, or None."""
    g = sum(ctx.coeffs) - 1
    return None if gcd(g, s) == 1 else f"gcd(a_1 + ... + a_d - 1, s) = gcd({g}, {s}) != 1"


def _warn_gcd_hypothesis(ctx: BaseContext, s: int) -> None:
    """Warn the caller's caller when the hypothesis of the corollaries fails: the
    count stays well defined, only its main-term comparison loses its backing."""
    if violation := _gcd_violation(ctx, s):
        warnings.warn(
            f"{violation}; the main-term comparison is heuristic for this base",
            GcdPreconditionWarning,
            stacklevel=3,
        )


def geometric_z_samples(x: int) -> list[int]:
    """{ceil(x / 2^i)} down to 1, plus x itself, ascending."""
    zs = {x}
    z = x
    while z > 1:
        z = -(-z // 2)
        zs.add(z)
    return sorted(zs)


def bv_discrepancy(
    ctx: BaseContext, x: int, r: int, s: int, exponent: float
) -> DiscrepancyReport:
    """The discrepancy sum over moduli q < x^exponent, with the max over z
    restricted to the geometric sample set (a lower bound for the full max;
    the decay comparison across x remains meaningful). The level x^exponent
    of the distribution result lies below x, so 0 < exponent < 1."""
    if x > COUNT_GUARD:
        raise CostGuardError(f"x = {x} exceeds the guard {COUNT_GUARD}")
    if x < 1 or s < 1:
        raise PreconditionError("need x >= 1 and s >= 1")
    if not 0.0 < exponent < 1.0:
        raise PreconditionError(f"need 0 < theta < 1, got {exponent}")
    if violation := _gcd_violation(ctx, s):
        raise PreconditionError(violation)
    q_max = max(1, math.ceil(x**exponent) - 1)
    z_samples = geometric_z_samples(x)
    # all k < x in the digit class, sorted; per-z restriction by searchsorted
    in_class = []
    for lo in range(0, x, _CHUNK):
        hi = min(lo + _CHUNK, x)
        mask = _digit_class_mask(ctx, lo, hi, r, s)
        in_class.append(np.arange(lo, hi, dtype=np.int64)[mask])
    ks = np.concatenate(in_class) if in_class else np.zeros(0, dtype=np.int64)
    per_q = [0.0] * (q_max + 1)
    for z in z_samples:
        sub = ks[: int(np.searchsorted(ks, z))]
        n_sub = len(sub)
        for q in range(1, q_max + 1):
            counts = np.bincount(sub % q, minlength=q)
            dev = float(np.max(np.abs(counts - n_sub / q)))
            if dev > per_q[q]:
                per_q[q] = dev
    total = float(sum(per_q[1:]))
    normalized = total * math.log(2 * x) ** DISCREPANCY_LOG_POWER / x
    return DiscrepancyReport(
        x=x,
        q_max=q_max,
        r=r,
        s=s,
        exponent=exponent,
        A=DISCREPANCY_LOG_POWER,
        z_samples=z_samples,
        per_q=per_q[1:],
        total=total,
        normalized=normalized,
    )


def almost_prime_count(ctx: BaseContext, x: int, r: int, s: int) -> int:
    """#{k <= x : s_G(k) = r (mod s), k prime or a product of two primes}.

    Semiprimes include squares p^2 (the two prime factors need not differ).
    A failed coprimality hypothesis warns, as in von_mangoldt_sum. The sieve
    up to x is built after the arguments are checked.
    """
    if x < 2 or s < 1:
        raise PreconditionError("need x >= 2 and s >= 1")
    _warn_gcd_hypothesis(ctx, s)
    total = 0
    spf = sieve_spf(x).spf
    for lo in range(2, x + 1, _CHUNK):
        hi = min(lo + _CHUNK, x + 1)
        ks = np.arange(lo, hi, dtype=np.int64)
        p = spf[lo:hi]
        quotient = ks // p
        prime = quotient == 1
        semiprime = (quotient > 1) & (spf[quotient] == quotient)
        mask = (prime | semiprime) & _digit_class_mask(ctx, lo, hi, r, s)
        total += int(np.count_nonzero(mask))
    return total


def von_mangoldt_table(x: int, sieve: SieveCache) -> np.ndarray:
    """Lambda(n) for n <= x: log p at prime powers p^k, else 0.

    log p comes from math.log: np.log differs from it by one ulp on some
    primes, and every Lambda_l inherits these values."""
    if sieve.limit < x:
        raise PreconditionError("sieve limit is smaller than x")
    lam = np.zeros(x + 1)
    primes = np.flatnonzero(sieve.spf[: x + 1] == np.arange(x + 1, dtype=sieve.spf.dtype))
    primes = primes[primes >= 2]
    # math.log converts p to a double, exact below 2**53
    lam[primes] = np.fromiter(map(math.log, primes), dtype=float, count=primes.size)
    # p^k for k >= 2, over the primes that still have p^k <= x
    primes = primes[: np.searchsorted(primes, math.isqrt(x), side="right")]
    logs = lam[primes]
    powers = primes * primes
    while powers.size:
        keep = powers <= x
        primes, logs, powers = primes[keep], logs[keep], powers[keep]
        lam[powers] = logs
        powers *= primes
    return lam


def generalized_von_mangoldt(x: int, ell: int, sieve: SieveCache) -> np.ndarray:
    """Lambda_l(n) = (mu * log^l)(n) for n <= x, via the recursion
    Lambda_l = Lambda_{l-1} . log + Lambda_{l-1} * Lambda, seeded with
    Lambda_1 = Lambda.

    A step runs over two supports: the prime powers es (values lv) and the
    ms with Lambda_{l-1}(m) != 0 (values cv). It sets log(m) cv at ms, then
    adds cv[j] lv[i] at es[i] ms[j] for every pair with es[i] ms[j] <= x, in
    ascending e, by np.add.at in chunks of _ADD_AT_CHUNK pairs. np.add.at is
    unbuffered and adds in input order, so Lambda_l(n) gets log(n)
    Lambda_{l-1}(n) first, then its terms in ascending e: one left-to-right
    sum. A pair left out would add an exact 0.0, which changes nothing as
    every Lambda_l is >= 0, so the bits are those of the dense recursion.
    np.bincount would regroup the sums and change the bits. Before numpy
    1.25, np.add.at is slower, not different."""
    if ell < 1:
        raise PreconditionError("need ell >= 1")
    cur = von_mangoldt_table(x, sieve)
    es = np.flatnonzero(cur)
    lv = cur[es]
    ms, cv = es, lv
    for step in range(ell - 1):
        if step:
            ms = np.flatnonzero(cur)
            cv = cur[ms]
        cur = np.zeros(x + 1)
        cur[ms] = np.log(ms) * cv
        # pair p belongs to es[i] with bounds[i] <= p < bounds[i + 1]
        bounds = np.zeros(es.size + 1, dtype=np.int64)
        np.cumsum(np.searchsorted(ms, x // es, side="right"), out=bounds[1:])
        for lo in range(0, int(bounds[-1]), _ADD_AT_CHUNK):
            hi = min(lo + _ADD_AT_CHUNK, int(bounds[-1]))
            # es[i0:i1] are the prime powers whose runs meet pairs [lo, hi)
            i0 = int(np.searchsorted(bounds, lo, side="right")) - 1
            i1 = int(np.searchsorted(bounds, hi, side="left"))
            run = np.minimum(bounds[i0 + 1 : i1 + 1], hi) - np.maximum(bounds[i0:i1], lo)
            i = np.repeat(np.arange(i0, i1), run)
            j = np.arange(lo, hi) - bounds[i]
            np.add.at(cur, es[i] * ms[j], cv[j] * lv[i])
    return cur


@dataclass
class VonMangoldtReport:
    x: int
    ell: int
    r: int
    s: int
    lhs: float
    main_term: float
    ratio: float  # lhs / main_term


def von_mangoldt_sum(
    ctx: BaseContext, x: int, ell: int, r: int, s: int
) -> VonMangoldtReport:
    """sum_{k < x, s_G(k) = r (mod s)} Lambda_l(k) against (l/s) x (log x)^{l-1}.

    The coprimality hypothesis gcd(a_1 + ... + a_d - 1, s) = 1 is reported as
    a GcdPreconditionWarning rather than an error. The sieve is built after
    the arguments are checked.
    """
    if ell < 2:
        raise PreconditionError("need ell >= 2")
    if x > COUNT_GUARD:
        raise CostGuardError(f"x = {x} exceeds the guard {COUNT_GUARD}")
    if x < 2 or s < 1:
        raise PreconditionError("need x >= 2 and s >= 1")
    _warn_gcd_hypothesis(ctx, s)
    lam_ell = generalized_von_mangoldt(x - 1, ell, sieve_spf(x))
    lhs = 0.0
    for lo in range(0, x, _CHUNK):
        hi = min(lo + _CHUNK, x)
        mask = _digit_class_mask(ctx, lo, hi, r, s)
        lhs += float(np.sum(lam_ell[lo:hi][mask]))
    main = (ell / s) * x * math.log(x) ** (ell - 1)
    return VonMangoldtReport(
        x=x, ell=ell, r=r, s=s, lhs=lhs, main_term=main, ratio=lhs / main
    )
