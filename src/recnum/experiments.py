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

import math
import warnings
from dataclasses import dataclass
from math import gcd

import numpy as np

from .base import BaseContext, CostGuardError, PreconditionError
from .digits import digit_class_range

SIEVE_GUARD = 10**8
COUNT_GUARD = 10**7
# bv_discrepancy's float32 column sums are integers <= x <= COUNT_GUARD: exact
assert COUNT_GUARD < 2**24
_CHUNK = 1 << 20
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


def _prime_segments(x: int):
    """The primes <= x, one window at a time: yields (lo, hi, primes in
    [lo, hi)) for the windows [lo, lo + 2 _CHUNK), cut at x + 1, in order.

    A window holds _CHUNK odd numbers, lo + 1 + 2i, in a bool segment of
    _CHUNK bytes, small enough to stay in cache. Each odd prime
    p <= isqrt(hi - 1), from _primes_upto, clears its odd multiples from
    max(p^2, lo) on; consecutive odd multiples are 2p apart, p entries. Every
    odd composite n has an odd prime factor p with p^2 <= n, so it is
    cleared. 1 is cleared by hand, and 2 is the one even prime."""
    odd = _primes_upto(math.isqrt(x))[1:]
    for lo in range(0, x + 1, 2 * _CHUNK):
        hi = min(lo + 2 * _CHUNK, x + 1)
        seg = np.ones((hi - lo) // 2, dtype=bool)
        for p in odd:
            if p * p >= hi:
                break
            # the first odd multiple of p at or above lo (lo is even)
            seg[(max(p * p, (-(-lo // p) | 1) * p) - lo) // 2 :: p] = False
        if lo == 0:
            seg[:1] = False  # 1
        primes = lo + 1 + 2 * np.flatnonzero(seg)
        if lo == 0 and x >= 2:
            primes = np.concatenate([[2], primes])
        yield lo, hi, primes


def sieve_spf(x: int) -> SieveCache:
    """The smallest-prime-factor table of 0..x: each prime p <= isqrt(x), in
    descending order, writes p at its multiples from p^2 on, so the smallest
    prime factor of a composite is written last; the primes from
    _prime_segments then get their own index. 0 and 1 keep spf 0. int32 holds
    every factor up to the guard (10**8 < 2**31).

    The table grows with x, and the guard bounds it. The sieve experiments do
    not build it; it serves as a reference for their counts."""
    if x > SIEVE_GUARD:
        raise CostGuardError(f"sieve limit {x} exceeds the memory guard {SIEVE_GUARD}")
    spf = np.zeros(max(x + 1, 2), dtype=np.int32)
    primes = np.concatenate([ps for _, _, ps in _prime_segments(x)])
    for p in reversed(primes[: np.searchsorted(primes, math.isqrt(x), side="right")].tolist()):
        spf[p * p :: p] = p
    spf[primes] = primes
    return SieveCache(x, spf)


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
    # the class indicator, and #{k < z} in the class for each sample z
    mask = digit_class_range(ctx, x, 0, r, s)
    below = np.cumsum([np.count_nonzero(mask[a:b]) for a, b in zip([0, *z_samples], z_samples)])
    ind = mask.astype(np.float32)
    ones = np.ones(x // 2 + 1, dtype=np.float32)  # the longest z segment, in rows
    per_q = []
    for q in range(1, q_max + 1):
        # column h of the (x // q, q) matrix holds the k = h (mod q); the
        # counts below z are the column sums of the rows below z // q, by
        # float32 matrix-vector products (exact, see COUNT_GUARD), plus the
        # partial row up to z
        rows = ind[: x // q * q].reshape(-1, q)
        cum = np.zeros(q)
        dev, row = 0.0, 0
        for z, b in zip(z_samples, below):
            if z // q > row:
                cum += ones[: z // q - row] @ rows[row : z // q]
                row = z // q
            counts = cum.copy()
            counts[: z - row * q] += ind[row * q : z]
            dev = max(dev, float(np.max(np.abs(counts - b / q))))
        per_q.append(dev)
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

    The windows of _prime_segments, in order. Each marks its primes and the
    products p q in it with p <= q prime; p q <= x needs p <= isqrt(x), and
    p = q gives the squares. Every q <= (hi - 1) // 2 lies in a window
    already sieved, so the list of primes <= x // 2 found so far holds all of
    them. It grows like pi(x / 2) as int32 (x <= 10**8 < 2**31): about
    1.4 MB at x = 10**7 and 12 MB at the guard; the products are int64. The
    count is the marks inside the digit class.

    SIEVE_GUARD bounds the running time and that list; it is checked before
    any work.
    """
    if x < 2 or s < 1:
        raise PreconditionError("need x >= 2 and s >= 1")
    if x > SIEVE_GUARD:
        raise CostGuardError(f"x = {x} exceeds the guard {SIEVE_GUARD}")
    _warn_gcd_hypothesis(ctx, s)
    qs = np.zeros(0, dtype=np.int32)  # the primes <= x // 2 so far
    total = 0
    for lo, hi, primes in _prime_segments(x):
        qs = np.concatenate([qs, primes[primes <= x // 2].astype(np.int32)])
        marks = np.zeros(hi - lo, dtype=bool)
        marks[primes - lo] = True
        # int32 keys: with int64 keys, searchsorted would copy qs to int64
        top = qs.searchsorted(np.int32(math.isqrt(hi - 1)), side="right")
        for p in qs[:top].tolist():
            keys = np.array([max(p, -(-lo // p)), (hi - 1) // p + 1], dtype=np.int32)
            a, b = qs.searchsorted(keys)  # the q >= p with p q in [lo, hi)
            marks[qs[a:b].astype(np.int64) * p - lo] = True
        total += int(np.count_nonzero(marks & digit_class_range(ctx, hi, lo, r, s)))
    return total


def _prime_powers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The prime powers e = p^k <= n, ascending, and Lambda(e) = log p.

    The primes come from _prime_segments. log p comes from math.log: np.log
    differs from it by one ulp on some primes, and every Lambda_l inherits
    these values."""
    primes = np.concatenate([ps for _, _, ps in _prime_segments(n)])
    # math.log converts p to a double, exact below 2**53
    logs = np.fromiter(map(math.log, primes.tolist()), dtype=float, count=primes.size)
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
        mask = digit_class_range(ctx, lo + lam.size, lo, r, s)
        lhs += float(np.sum(lam[mask]))
    main = (ell / s) * x * math.log(x) ** (ell - 1)
    return VonMangoldtReport(
        x=x, ell=ell, r=r, s=s, lhs=lhs, main_term=main, ratio=lhs / main
    )
