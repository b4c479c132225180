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
_SEGMENT = 1 << 20  # odd numbers per segment of _prime_segments (2 _SEGMENT integers)
_WINDOW = 1 << 18  # integers per window of _lambda_windows at l <= 2
_WIDE_WINDOW = 1 << 20  # integers per window at l >= 3 (see _lambda_windows)
_ADD_AT_CHUNK = 1 << 16  # most (e, m) pairs per batch of _pair_batches (see _lambda_windows)
_SUM_BLOCK = 1 << 15  # integers per aligned block of von_mangoldt_sum's class sum
# Half-width, in double ulps, of the band around a rounding midpoint where
# _prime_logs falls back to math.log. Without the x87 extended format (64-bit
# mantissa) every log counts as near a midpoint.
_LOG_MARGIN = 0.02 + 2**-10 if np.finfo(np.longdouble).nmant >= 63 else math.inf
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
    """The primes <= x, one segment at a time: yields (lo, hi, primes in
    [lo, hi)) for the segments [lo, lo + 2 _SEGMENT), cut at x + 1, in order.

    A segment holds _SEGMENT odd numbers, lo + 1 + 2i, in a bool array of
    _SEGMENT bytes, small enough to stay in cache. Each odd prime
    p <= isqrt(hi - 1), from _primes_upto, clears its odd multiples from
    max(p^2, lo) on; consecutive odd multiples are 2p apart, p entries. Every
    odd composite n has an odd prime factor p with p^2 <= n, so it is
    cleared. 1 is cleared by hand, and 2 is the one even prime."""
    odd = _primes_upto(math.isqrt(x))[1:]
    for lo in range(0, x + 1, 2 * _SEGMENT):
        hi = min(lo + 2 * _SEGMENT, x + 1)
        seg = np.ones((hi - lo) // 2, dtype=bool)
        for p in odd:
            if p * p >= hi:
                break
            # the first odd multiple of p at or above lo (lo is even)
            seg[(max(p * p, (-(-lo // p) | 1) * p) - lo) // 2 :: p] = False
        if lo == 0:
            seg[:1] = False  # 1
        # in place, with seg freed first: this step sets vmsum's traced peak
        primes = np.flatnonzero(seg)
        del seg
        primes *= 2
        primes += lo + 1
        if lo <= 2 < hi:
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


def _prime_count_bound(y: int) -> int:
    """An upper bound on pi(y), the number of primes <= y, to size buffers
    that are filled as the sieve streams: Dusart's (1999)
    pi(y) <= y / ln y (1 + 1 / ln y + 2.51 / ln^2 y) for y >= 355991, else
    Rosser and Schoenfeld's pi(y) < 1.25506 y / ln y for y > 1, plus 1 for
    the rounding of the float expression; 0 for y <= 1. At 10**7 Dusart's
    bound exceeds pi by 329, Rosser and Schoenfeld's by 114,087. A buffer
    that still ran short would make its slice assignment raise."""
    if y <= 1:
        return 0
    log = math.log(y)
    if y >= 355991:
        return int(y / log * (1 + 1 / log + 2.51 / log**2)) + 1
    return int(1.25506 * y / log) + 1


def almost_prime_count(ctx: BaseContext, x: int, r: int, s: int) -> int:
    """#{k <= x : s_G(k) = r (mod s), k prime or a product of two primes}.

    Semiprimes include squares p^2 (the two prime factors need not differ).
    A failed coprimality hypothesis warns, as in von_mangoldt_sum.

    The segments of _prime_segments, in order. Each marks its primes and the
    products p q in it with p <= q prime; p q <= x needs p <= isqrt(x), and
    p = q gives the squares. Every q <= (hi - 1) // 2 lies in a segment
    already sieved, so the primes <= x // 2 found so far hold all of them.
    They fill one int32 buffer (x <= 10**8 < 2**31) in place, sized by
    _prime_count_bound(x // 2): 1.3 MB at x = 10**7 and 11.5 MB at the guard.
    The products are int64. The count is the marks inside the digit
    class.

    SIEVE_GUARD bounds the running time and that buffer; it is checked
    before any work.
    """
    if x < 2 or s < 1:
        raise PreconditionError("need x >= 2 and s >= 1")
    if x > SIEVE_GUARD:
        raise CostGuardError(f"x = {x} exceeds the guard {SIEVE_GUARD}")
    _warn_gcd_hypothesis(ctx, s)
    half = x // 2
    buf = np.empty(_prime_count_bound(half), np.int32)
    n_qs = 0
    total = 0
    for lo, hi, primes in _prime_segments(x):
        new = primes[primes <= half]
        buf[n_qs : n_qs + new.size] = new
        n_qs += new.size
        qs = buf[:n_qs]  # the primes <= x // 2 so far
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


def _prime_logs(ps: np.ndarray) -> np.ndarray:
    """math.log(p) for each p of the int64 array ps, 2 <= p <= 10**13, in
    one vectorised pass: math.log is called only near double rounding
    midpoints.

    np.log in np.longdouble (x87 extended, 64-bit mantissa) is within one
    extended ulp of log p, 2^-11 ulp of the double result. glibc's log (the
    ARM optimized-routines code, glibc >= 2.28) is within 0.519 ulp of
    log p. So where log p lies more than 0.019 ulp from a midpoint, the
    double on its far side is more than 0.519 ulp away, and math.log
    returns log p correctly rounded. Where the extended value lies at least
    _LOG_MARGIN = 0.02 + 2^-10 ulp from a midpoint, log p lies at least
    0.02 + 2^-11 ulp from it, on the same side, so both equal the extended
    value rounded to double. The residual of that rounding has at most 11
    significant bits, so it is exact in double, and so is its ratio to the
    ulp, a power of two. That ulp is np.spacing of the double: log p stays
    more than 10**7 ulps from every power of two at these p (nearest,
    log 8886111 - 16 = 5.4e-8), so the doubles around it are evenly spaced.

    The rest take math.log: 27,564 of the 664,579 primes below 10**7
    (4.1 %, twice the margin). With no fallback (a margin of 0) the rounded
    extended values differ from math.log on 168 of them, the first at
    39133: each an extended value exactly on a midpoint, which rounds to
    even."""
    ext = np.log(ps.astype(np.longdouble))
    logs = ext.astype(np.float64)
    ext -= logs
    off = ext.astype(np.float64)
    del ext
    off /= np.spacing(logs)
    np.abs(off, out=off)
    off -= 0.5
    near = np.abs(off, out=off) < _LOG_MARGIN
    # math.log converts p to a double, exact below 2**53
    logs[near] = [math.log(p) for p in ps[near].tolist()]
    return logs


def _prime_windows(n: int, width: int):
    """The primes <= n in the windows [lo, lo + width), cut at n + 1, in
    order: yields (lo, primes in the window). The segments of _prime_segments
    are regrouped as they stream, so at most one segment that reaches past
    the window is held."""
    segments = _prime_segments(n)
    held, end = [], 0  # the segments not yet passed, and where they end
    for lo in range(0, n + 1, width):
        hi = min(lo + width, n + 1)
        while end < hi:
            _, end, ps = next(segments)
            held.append(ps)
        parts = [ps[ps.searchsorted(lo) : ps.searchsorted(hi)] for ps in held]
        held = held[-1:] if end > hi else []
        yield lo, parts[0] if len(parts) == 1 else np.concatenate(parts)


def _higher_powers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The prime powers p^j <= n with j >= 2, ascending (555 below 10**7),
    with log p and j."""
    higher = []
    for p in _primes_upto(math.isqrt(n)):
        pj, j = p * p, 2
        while pj <= n:
            higher.append((pj, math.log(p), j))
            pj, j = pj * p, j + 1
    higher.sort()
    hp = np.array([pj for pj, _, _ in higher], dtype=np.int64)
    hj = np.array([j for _, _, j in higher], dtype=np.int64)
    return hp, np.array([log for _, log, _ in higher]), hj


def _pair_batches(first, count, size):
    """The pairs (i, j), first[i] <= j < first[i] + count[i], in ascending i
    and then j, size at a time: yields (i0, i1, run, j), where the batch's
    pairs belong to the i in [i0, i1), run[i - i0] to each, and j holds
    their second indices."""
    bounds = np.zeros(count.size + 1, dtype=np.int64)
    np.cumsum(count, out=bounds[1:])
    shift = first - bounds[:-1]
    total = int(bounds[-1])
    for b0 in range(0, total, size):
        b1 = min(b0 + size, total)
        # the i whose runs meet pairs [b0, b1)
        i0 = int(np.searchsorted(bounds, b0, side="right")) - 1
        i1 = int(np.searchsorted(bounds, b1, side="left"))
        run = np.minimum(bounds[i0 + 1 : i1 + 1], b1) - np.maximum(bounds[i0:i1], b0)
        yield i0, i1, run, np.arange(b0, b1) + np.repeat(shift[i0:i1], run)


def _batch_size(out) -> int:
    """Pairs per batch in the window out (see _lambda_windows' memory); the
    size changes no bits."""
    return max(1, min(_ADD_AT_CHUNK, out.size // 16))


def _add_pairs(out, lo, es, lv, ms, cv, ptr) -> None:
    """Add cv[j] lv[i] to out[es[i] ms[j] - lo] for every pair with
    es[i] ms[j] in the window [lo, lo + out.size), in ascending i and then j,
    by np.add.at in batches of _batch_size(out) pairs.

    ptr[i] is the first j whose product with es[i] is >= lo; it moves to the
    window's end. The windows must come in order, and es and ms must hold
    every prime power and every m of the support up to
    (lo + out.size - 1) // 2, in ascending order. es may grow between
    windows: ms[0] = 2, so an e first active here has 2 e >= lo, and its
    ptr starts at 0."""
    if not ms.size:
        return
    top = lo + out.size - 1
    active = int(np.searchsorted(es, top // ms[0], side="right"))
    end = np.searchsorted(ms, top // es[:active], side="right")
    for i0, i1, run, j in _pair_batches(ptr[:active], end - ptr[:active], _batch_size(out)):
        e, lam = np.repeat(es[i0:i1], run), np.repeat(lv[i0:i1], run)
        np.add.at(out, e * ms[j] - lo, cv[j] * lam)
    ptr[:active] = end


def _set_unordered_pairs(out, lo, es, lv) -> None:
    """Set out[e m - lo] = x + x, x = Lambda(m) Lambda(e), for every pair of
    prime powers e < m with e m in the window [lo, lo + out.size), in batches
    of _batch_size(out) pairs. e^2 < e m <= top, so e <= isqrt(top), and the
    m of each e are one slice of es.

    Pairs of powers of one prime land on a prime power and leave a wrong
    value there; the caller overwrites those."""
    top = lo + out.size - 1
    t = int(np.searchsorted(es, math.isqrt(top), side="right"))
    e = es[:t]
    first = np.searchsorted(es, np.maximum(e + 1, -(-lo // e)))
    count = np.searchsorted(es, top // e, side="right") - first
    np.maximum(count, 0, out=count)
    for i0, i1, run, j in _pair_batches(first, count, _batch_size(out)):
        x = lv[j] * np.repeat(lv[i0:i1], run)
        x += x
        out[np.repeat(es[i0:i1], run) * es[j] - lo] = x


def _lambda_windows(n: int, ell: int):
    """Lambda_l(k) = (mu * log^l)(k) for 0 <= k <= n, one window at a time:
    yields (lo, Lambda_l on [lo, hi)) for the windows [lo, lo + width) in
    order, in one buffer that the next window overwrites. The width is
    _WINDOW at l <= 2 and _WIDE_WINDOW at l >= 3. The recursion is
    Lambda_l = Lambda_{l-1} . log + Lambda_{l-1} * Lambda, seeded with
    Lambda_1 = Lambda at the window's prime powers: its primes from
    _prime_windows, with the higher powers merged in at their searchsorted
    positions and log p from _prime_logs (equal to math.log(p); np.log in
    double differs from it by one ulp on 44 of the 664,579 primes below
    10**7, and every Lambda_l inherits these values).

    The bits are those of the dense recursion that sets log(k) Lambda_{l-1}(k)
    at the support of Lambda_{l-1}, then adds Lambda_{l-1}(m) Lambda(e) at
    k = e m with one strided slice-add per prime power e, in ascending e: at
    each k, one left-to-right sum. A pair left out would add an exact 0.0,
    which changes nothing as every Lambda_l is >= 0. np.bincount would
    regroup the sums and change the bits.

    Level 1 (Lambda_2 from Lambda_1, at every l >= 2) by its closed form.
    Lambda * Lambda is nonzero only at k = p^a q^b and k = p^j:
    - k = p^a q^b, p != q: the prime-power pairs with product k are
      (p^a, q^b) and (q^b, p^a), so the dense sum is 0 + x + x with
      x = fl(log p log q) both times (multiplication commutes), and
      0 + x + x = x + x exactly. `_set_unordered_pairs` writes x + x at each
      unordered pair e < m; k names its pair, so no index repeats.
    - k = p^j, j >= 2: the pairs (p^c, p^(j-c)), c = 1..j-1, each add
      sq = fl(log p log p), in sequence onto fl(log(k) log p). The unordered
      pairs of powers of p also write there, so each such k is set again
      afterwards from the saved fl(log(k) log p) plus j - 1 additions of sq.
    - Other k, primes included, get no pair and keep fl(log(k) Lambda(k)).

    Levels l >= 2 (_add_pairs) add Lambda_l(m) Lambda(e) at k = e m in
    ascending e by np.add.at, which is unbuffered and adds in input order,
    so Lambda_{l+1}(k) gets log(k) Lambda_l(k) first, then its terms in
    ascending e. Before numpy 1.25, np.add.at is slower, not different.

    Every pair e m = k has m >= 2 and e >= 2, so both factors are <= k // 2
    <= n // 2: the pairs read the prime powers up to n // 2 (the store es,
    lv) and the supports of Lambda_{l-1} up to n // 2, and a window only
    below half its own end. So everything runs in lockstep with the sieve:
    each window appends its own prime powers <= n // 2 to the store, then
    computes Lambda_1, ..., Lambda_l in turn and appends the support of each
    level >= 2 below l before the next level reads it. A window's own
    Lambda_1 comes from the sieve, never from the store.

    Level 1 costs each window O(width + #{e <= isqrt(top)}), so narrow
    windows cost little. Each level >= 2 scans every e <= top // 2
    (_add_pairs) and regrows its support by np.concatenate in every window,
    so at l >= 3 windows stay wide.

    Memory, nothing of length n. The live set at l = 2:
    - the store, 16 bytes per prime power <= n // 2, in buffers sized by
      _prime_count_bound(n // 2) plus the higher powers: 5.6 MB at
      n = 10**7;
    - one or two segments of _prime_segments: _SEGMENT bytes while one is
      sieved, and 8 bytes per prime of each;
    - one window of float64, the window's prime powers k with their
      log(k) Lambda(k), 16 bytes each, and _prime_logs' temporaries, at most
      33 bytes per prime in the window;
    - one batch of pairs, at most five int64 or float64 temporaries
      (40 bytes) per pair. A batch holds _ADD_AT_CHUNK pairs, but at most
      one per 16 integers of the window, so its temporaries stay below the
      window's own buffer: 2^14 pairs, 0.66 MB, at l = 2.
    For l >= 3 add the supports of Lambda_2, ..., Lambda_{l-1} up to n // 2
    (16 bytes per entry) and one int64 pointer per store entry for each.
    """
    width = _WINDOW if ell <= 2 else _WIDE_WINDOW
    hp, hl, hj = _higher_powers(n)
    half = n // 2
    size = _prime_count_bound(half) + int(hp.searchsorted(half, side="right"))
    es, lv = np.empty(size, dtype=np.int64), np.empty(size)
    stored = 0  # es[:stored], lv[:stored]: the prime powers <= n // 2 so far
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0))
    # (ms, cv): the support of Lambda_2, ..., Lambda_{l-1} up to n // 2 as
    # far as the windows have reached
    supports = [empty] * (ell - 2)
    ptrs = [np.zeros(size, dtype=np.int64) for _ in range(ell - 2)]
    buf = np.empty(min(width, n + 1))
    for lo, ps in _prime_windows(n, width):
        hi = min(lo + width, n + 1)
        cur = buf[: hi - lo]
        cur.fill(0.0)
        a, b = hp.searchsorted((lo, hi))
        ins = ps.searchsorted(hp[a:b])
        k = np.insert(ps, ins, hp[a:b])  # the support of Lambda_1, and its values
        vals = np.insert(_prime_logs(ps), ins, hl[a:b])
        if lo <= half:
            h = int(k.searchsorted(half, side="right"))
            es[stored : stored + h], lv[stored : stored + h] = k[:h], vals[:h]
            stored += h
        k -= lo
        cur[k] = vals
        for level in range(1, ell):
            # Lambda_{level+1} overwrites Lambda_level, which is 0 off k
            base = np.log(k + lo) * vals
            cur[k] = base
            if level == 1:
                _set_unordered_pairs(cur, lo, es[:stored], lv[:stored])
                pj = ins + np.arange(b - a)  # the window's p^j, j >= 2, as indices into k
                v, sq = base[pj], vals[pj] * vals[pj]
                for t in range(2, int(hj[a:b].max(initial=1)) + 1):
                    more = hj[a:b] >= t
                    v[more] += sq[more]
                cur[k[pj]] = v
            else:
                _add_pairs(cur, lo, es[:stored], lv[:stored], *supports[level - 2], ptrs[level - 2])
            if level < ell - 1:
                k = np.flatnonzero(cur)
                vals = cur[k]
                if lo <= half:
                    h = int(np.searchsorted(k, half - lo, side="right"))
                    ms, cv = supports[level - 1]
                    ms, cv = np.concatenate([ms, k[:h] + lo]), np.concatenate([cv, vals[:h]])
                    supports[level - 1] = ms, cv
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
    a GcdPreconditionWarning rather than an error. Lambda_l streams in the
    windows of _lambda_windows after the arguments are checked. lhs is the
    math.fsum, correctly rounded, of np.sum over the class members of each
    aligned block [i _SUM_BLOCK, (i + 1) _SUM_BLOCK) cut at x. A block that
    spans windows gathers its members in a buffer first, so the bits of lhs
    depend on _SUM_BLOCK alone, not on the windows.

    Memory: the live set of _lambda_windows, plus the window's class mask
    (one byte per integer), one block's members (8 _SUM_BLOCK bytes) and
    the context's class table mod s (`digits._mod_table`, built once).
    """
    if ell < 2:
        raise PreconditionError("need ell >= 2")
    if x > COUNT_GUARD:
        raise CostGuardError(f"x = {x} exceeds the guard {COUNT_GUARD}")
    if x < 2 or s < 1:
        raise PreconditionError("need x >= 2 and s >= 1")
    _warn_gcd_hypothesis(ctx, s)
    sums = []  # np.sum of each finished block's members
    members = np.empty(min(_SUM_BLOCK, x))
    n = 0  # members[:n]: the current block's members so far
    for lo, lam in _lambda_windows(x - 1, ell):
        hi = lo + lam.size
        mask = digit_class_range(ctx, hi, lo, r, s)
        cuts = [lo, *range(lo - lo % _SUM_BLOCK + _SUM_BLOCK, hi, _SUM_BLOCK), hi]
        for a, b in zip(cuts, cuts[1:]):
            m = mask[a - lo : b - lo]
            c = np.count_nonzero(m)
            np.compress(m, lam[a - lo : b - lo], out=members[n : n + c])
            n += c
            if b % _SUM_BLOCK == 0 or b == x:
                sums.append(float(np.sum(members[:n])))
                n = 0
    lhs = math.fsum(sums)
    main = (ell / s) * x * math.log(x) ** (ell - 1)
    return VonMangoldtReport(
        x=x, ell=ell, r=r, s=s, lhs=lhs, main_term=main, ratio=lhs / main
    )
