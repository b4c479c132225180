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
_SEGMENT = 1 << 18  # integers per sieve segment: 1 MB of int32, about one L2 cache
_ADD_AT_CHUNK = 1 << 16  # (e, m) pairs per np.add.at call in _add_pairs
DISCREPANCY_LOG_POWER = 1.0  # A in the normalization log(2x)^A / x


class GcdPreconditionWarning(UserWarning):
    """The coprimality hypothesis gcd(a_1 + ... + a_d - 1, s) = 1 fails."""


@dataclass
class SieveCache:
    """Smallest-prime-factor table for 2..limit (spf[0] = spf[1] = 0)."""

    limit: int
    spf: np.ndarray


def _primes_upto(n: int) -> list[int]:
    """The primes <= n by the sieve of Eratosthenes: the sieving primes, with n
    about isqrt(x)."""
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).tolist()


def _spf_segments(x: int):
    """The smallest-prime-factor table of 0..x, one segment at a time, after
    Bays & Hudson (BIT 17, 1977): yields (lo, spf of [lo, hi), primes in
    [lo, hi)) for the segments [lo, lo + _SEGMENT) in order.

    The primes up to isqrt(x) come from a small sieve first. A segment has
    _SEGMENT entries, small enough to stay in cache: each prime
    p <= isqrt(hi - 1) writes p at its multiples from p^2 on, unconditionally
    and in descending p, so the smallest prime factor of a composite is
    written last and wins. Entries left at 0 are primes and get their own
    index. Every composite n has a prime factor p with p^2 <= n, so it gets
    written. 0 and 1 are neither, and keep spf 0.

    int32 holds every factor up to the guard (10**8 < 2**31).
    """
    primes = _primes_upto(math.isqrt(x))
    for lo in range(0, x + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, x + 1)
        seg = np.zeros(hi - lo, dtype=np.int32)
        for p in reversed(primes[: bisect.bisect_right(primes, math.isqrt(hi - 1))]):
            seg[max(p * p, -(-lo // p) * p) - lo :: p] = p
        fresh = np.flatnonzero(seg == 0)
        if lo == 0:
            fresh = fresh[2:]  # 0 and 1: no prime marks them
        seg[fresh] = fresh + lo
        yield lo, seg, fresh + lo


def sieve_spf(x: int) -> SieveCache:
    """The smallest-prime-factor table of 0..x, filled from _spf_segments.

    The table grows with x, and the guard bounds it. The sieve experiments do
    not build it: von_mangoldt_sum reads the primes off the segments."""
    if x > SIEVE_GUARD:
        raise CostGuardError(f"sieve limit {x} exceeds the memory guard {SIEVE_GUARD}")
    spf = np.zeros(max(x + 1, 2), dtype=np.int32)
    for lo, seg, _ in _spf_segments(x):
        spf[lo : lo + seg.size] = seg
    return SieveCache(x, spf)


def _digit_class_mask(ctx: BaseContext, lo: int, hi: int, r: int, s: int) -> np.ndarray:
    """Boolean mask over k in [lo, hi) for s_G(k) = r (mod s)."""
    sums = digit_sums_range(ctx, hi, lo)
    return np.remainder(sums, s, out=sums) == r % s


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
    # all k < x in the digit class, ascending
    in_class = []
    for lo in range(0, x, _CHUNK):
        hi = min(lo + _CHUNK, x)
        mask = _digit_class_mask(ctx, lo, hi, r, s)
        in_class.append(np.arange(lo, hi, dtype=np.int64)[mask])
    ks = np.concatenate(in_class) if in_class else np.zeros(0, dtype=np.int64)
    below = np.searchsorted(ks, z_samples)  # #{k < z} for each sample z
    per_q = []
    key = np.empty_like(ks)
    for q in range(1, q_max + 1):
        # one bincount of (t, k mod q), where z_t is the first sample above k;
        # the counts below each z are then cumulative sums over t
        np.remainder(ks, q, out=key)
        for t in range(1, len(z_samples)):
            key[below[t - 1] : below[t]] += t * q
        counts = np.bincount(key, minlength=len(z_samples) * q).reshape(-1, q)
        dev = np.abs(np.cumsum(counts, axis=0) - (below / q)[:, None])
        per_q.append(float(np.max(dev)))
    total = float(sum(per_q))
    normalized = total * math.log(2 * x) ** DISCREPANCY_LOG_POWER / x
    return DiscrepancyReport(
        x=x,
        q_max=q_max,
        r=r,
        s=s,
        exponent=exponent,
        A=DISCREPANCY_LOG_POWER,
        z_samples=z_samples,
        per_q=per_q,
        total=total,
        normalized=normalized,
    )


def almost_prime_count(ctx: BaseContext, x: int, r: int, s: int) -> int:
    """#{k <= x : s_G(k) = r (mod s), k prime or a product of two primes}.

    Semiprimes include squares p^2 (the two prime factors need not differ).
    A failed coprimality hypothesis warns, as in von_mangoldt_sum.

    A segmented Omega sieve, after Bays & Hudson (BIT 17, 1977) and Oliveira e
    Silva, Herzog & Pardi (Math. Comp. 83, 2014). In each window of _CHUNK
    integers, every prime p <= isqrt(x) and every power p^e below the
    window's end add 1 to omega and multiply prod by p at the multiples of
    p^e. Then prod is the part of k made of primes <= isqrt(x), and omega is
    its number of prime factors with multiplicity. k <= x has at most one
    prime factor above isqrt(x), and it has one exactly when prod < k. prod
    divides k <= x, so int32 holds it below the guard (10**8 < 2**31).

    No array grows with x, so SIEVE_GUARD bounds the running time, not the
    memory; it is checked before any work.
    """
    if x < 2 or s < 1:
        raise PreconditionError("need x >= 2 and s >= 1")
    if x > SIEVE_GUARD:
        raise CostGuardError(f"x = {x} exceeds the guard {SIEVE_GUARD}")
    _warn_gcd_hypothesis(ctx, s)
    # (p^e, p) for every prime p <= isqrt(x) and every power p^e <= x, by p^e
    powers = []
    for p in _primes_upto(math.isqrt(x)):
        pe = p
        while pe <= x:
            powers.append((pe, p))
            pe *= p
    powers.sort()
    total = 0
    for lo in range(0, x + 1, _CHUNK):
        hi = min(lo + _CHUNK, x + 1)
        omega = np.zeros(hi - lo, dtype=np.int8)
        prod = np.ones(hi - lo, dtype=np.int32)
        for pe, p in powers:
            if pe >= hi:
                break
            st = max(pe, -(-lo // pe) * pe) - lo
            omega[st::pe] += 1
            prod[st::pe] *= p
        omega += prod < np.arange(lo, hi, dtype=np.int32)
        mask = (omega >= 1) & (omega <= 2) & _digit_class_mask(ctx, lo, hi, r, s)
        total += int(np.count_nonzero(mask))
    return total


def _prime_powers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The prime powers e = p^k <= n, ascending, and Lambda(e) = log p.

    The primes come from _spf_segments. log p comes from math.log: np.log
    differs from it by one ulp on some primes, and every Lambda_l inherits
    these values."""
    primes, logs = [], []
    for _, _, ps in _spf_segments(n):
        primes.append(ps)
        # math.log converts p to a double, exact below 2**53
        logs.append(np.fromiter(map(math.log, ps.tolist()), dtype=float, count=ps.size))
    primes, logs = np.concatenate(primes), np.concatenate(logs)
    es, lv = [primes], [logs]
    # p^k for k >= 2, over the primes that still have p^k <= n
    k = int(np.searchsorted(primes, math.isqrt(n), side="right"))
    primes, logs = primes[:k], logs[:k]
    powers = primes * primes
    while powers.size:
        keep = powers <= n
        primes, logs, powers = primes[keep], logs[keep], powers[keep]
        es.append(powers)
        lv.append(logs)
        powers = powers * primes
    es, lv = np.concatenate(es), np.concatenate(lv)
    order = np.argsort(es, kind="stable")
    return es[order], lv[order]


def _add_pairs(out, lo, es, lv, ms, cv, ptr) -> None:
    """Add cv[j] lv[i] to out[es[i] ms[j] - lo] for every pair with
    es[i] ms[j] in the window [lo, lo + out.size), in ascending i and then j,
    by np.add.at in batches of _ADD_AT_CHUNK pairs.

    ptr[i] is the first j whose product with es[i] is >= lo; it moves to the
    window's end. The windows must come in order, and ms must hold every m
    of the support up to (lo + out.size - 1) // 2, in ascending order."""
    if not ms.size:
        return
    top = lo + out.size - 1
    active = int(np.searchsorted(es, top // ms[0], side="right"))
    end = np.searchsorted(ms, top // es[:active], side="right")
    # pair p belongs to es[i] with bounds[i] <= p < bounds[i + 1], and its m
    # is ms[p + shift[i]]
    bounds = np.zeros(active + 1, dtype=np.int64)
    np.subtract(end, ptr[:active], out=bounds[1:])
    np.cumsum(bounds, out=bounds)
    shift = ptr[:active] - bounds[:-1]
    for b0 in range(0, int(bounds[-1]), _ADD_AT_CHUNK):
        b1 = min(b0 + _ADD_AT_CHUNK, int(bounds[-1]))
        # es[i0:i1] are the prime powers whose runs meet pairs [b0, b1)
        i0 = int(np.searchsorted(bounds, b0, side="right")) - 1
        i1 = int(np.searchsorted(bounds, b1, side="left"))
        run = np.minimum(bounds[i0 + 1 : i1 + 1], b1) - np.maximum(bounds[i0:i1], b0)
        j = np.arange(b0, b1) + np.repeat(shift[i0:i1], run)
        e, lam = np.repeat(es[i0:i1], run), np.repeat(lv[i0:i1], run)
        np.add.at(out, e * ms[j] - lo, cv[j] * lam)
    ptr[:active] = end


def _lambda_windows(n: int, ell: int):
    """Lambda_l(k) = (mu * log^l)(k) for 0 <= k <= n, one window at a time:
    yields (lo, Lambda_l on [lo, hi)) for the windows [lo, lo + _CHUNK) in
    order, in one buffer that the next window overwrites. The recursion is
    Lambda_l = Lambda_{l-1} . log + Lambda_{l-1} * Lambda, seeded with
    Lambda_1 = Lambda from the sparse prime-power list (es, lv).

    In a window, every level l >= 2 sets log(k) Lambda_{l-1}(k) at the support
    of Lambda_{l-1}, then adds Lambda_{l-1}(m) Lambda(e) at k = e m in
    ascending e (_add_pairs). np.add.at is unbuffered and adds in input
    order, so Lambda_l(k) gets log(k) Lambda_{l-1}(k) first, then its terms
    in ascending e: one left-to-right sum. A pair left out would add an exact
    0.0, which changes nothing as every Lambda_l is >= 0, so the bits are
    those of the dense recursion with one strided slice-add per e. np.bincount
    would regroup the sums and change the bits. Before numpy 1.25, np.add.at
    is slower, not different.

    The m side needs the support of Lambda_{l-1} only up to n // 2, since
    e >= 2, and a window only below its own end. So the levels run in
    lockstep: each window computes Lambda_1, ..., Lambda_l in turn and
    appends the support of each intermediate level before the next level
    reads it. Memory is the prime powers, those supports (for l >= 3) and
    one window; nothing has length n.
    """
    es, lv = _prime_powers(n)
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0))
    # (ms, cv): the support of Lambda_1, and of Lambda_2, ..., Lambda_{l-1}
    # up to n // 2 as far as the windows have reached
    supports = [(es, lv)] + [empty] * (ell - 2)
    ptrs = [np.zeros(es.size, dtype=np.int64) for _ in range(ell - 1)]
    buf = np.empty(min(_CHUNK, n + 1))
    for lo in range(0, n + 1, _CHUNK):
        hi = min(lo + _CHUNK, n + 1)
        cur = buf[: hi - lo]
        cur.fill(0.0)
        a, b = np.searchsorted(es, (lo, hi))
        k, vals = es[a:b] - lo, lv[a:b]  # the support of Lambda_1, and its values
        cur[k] = vals
        for level in range(1, ell):
            # Lambda_{level+1} overwrites Lambda_level, which is 0 off k
            cur[k] = np.log(k + lo) * vals
            _add_pairs(cur, lo, es, lv, *supports[level - 1], ptrs[level - 1])
            if level < ell - 1:
                k = np.flatnonzero(cur)
                vals = cur[k]
                if lo <= n // 2:
                    h = int(np.searchsorted(k, n // 2 - lo, side="right"))
                    ms, cv = supports[level]
                    ms, cv = np.concatenate([ms, k[:h] + lo]), np.concatenate([cv, vals[:h]])
                    supports[level] = ms, cv
        yield lo, cur


def von_mangoldt_table(x: int) -> np.ndarray:
    """Lambda(n) for n <= x: log p at prime powers p^k, else 0."""
    return generalized_von_mangoldt(x, 1)


def generalized_von_mangoldt(x: int, ell: int) -> np.ndarray:
    """Lambda_l(n) = (mu * log^l)(n) for n <= x: the windows of
    _lambda_windows, side by side."""
    if ell < 1:
        raise PreconditionError("need ell >= 1")
    out = np.empty(x + 1)
    for lo, w in _lambda_windows(x, ell):
        out[lo : lo + w.size] = w
    return out


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
    a GcdPreconditionWarning rather than an error. Lambda_l streams in windows
    of _CHUNK after the arguments are checked; each window's class sum is one
    np.sum, so _CHUNK sets the bits of lhs.
    """
    if ell < 2:
        raise PreconditionError("need ell >= 2")
    if x > COUNT_GUARD:
        raise CostGuardError(f"x = {x} exceeds the guard {COUNT_GUARD}")
    if x < 2 or s < 1:
        raise PreconditionError("need x >= 2 and s >= 1")
    _warn_gcd_hypothesis(ctx, s)
    lhs = 0.0
    for lo, lam in _lambda_windows(x - 1, ell):
        mask = _digit_class_mask(ctx, lo, lo + lam.size, r, s)
        lhs += float(np.sum(lam[mask]))
    main = (ell / s) * x * math.log(x) ** (ell - 1)
    return VonMangoldtReport(
        x=x, ell=ell, r=r, s=s, lhs=lhs, main_term=main, ratio=lhs / main
    )
