"""Greedy digit expansions and the sum-of-digits function.

Every integer nu >= 1 has a unique expansion nu = eps_0 G_0 + ... + eps_l G_l
with G_l <= nu < G_{l+1}, obtained by repeatedly subtracting the largest
fitting term. Digits are stored little-endian (eps_0 first). The sum of
digits s_G(nu) = eps_0 + ... + eps_l, with s_G(0) = 0 by convention; 0 itself
gets the empty expansion.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .base import BaseContext, PreconditionError


@dataclass(frozen=True)
class Expansion:
    """Little-endian digit string together with its value."""

    digits: tuple[int, ...]
    value: int

    def __len__(self) -> int:
        return len(self.digits)


def expand(ctx: BaseContext, nu: int) -> Expansion:
    """Greedy expansion of nu >= 0; expand(0) is the empty expansion."""
    if nu < 0:
        raise PreconditionError("can only expand non-negative integers")
    if nu == 0:
        return Expansion((), 0)
    terms = ctx.terms_upto(nu)
    digits = [0] * len(terms)
    rem = nu
    for j in range(len(terms) - 1, -1, -1):
        digits[j], rem = divmod(rem, terms[j])
    assert rem == 0
    return Expansion(tuple(digits), nu)


def value_of(ctx: BaseContext, e: Expansion | tuple[int, ...]) -> int:
    """Exact value sum(eps_j * G_j) of a digit string."""
    digits = e.digits if isinstance(e, Expansion) else tuple(e)
    if any(d < 0 for d in digits):
        raise PreconditionError("digits must be non-negative")
    return sum(d * ctx.term(j) for j, d in enumerate(digits))


def sum_of_digits(ctx: BaseContext, nu: int) -> int:
    return sum(expand(ctx, nu).digits)


# Each context caches one prefix table of s_G over [0, G_m), G_m the largest
# term <= TABLE_LIMIT (8 MB at most), and one copy mod s per class modulus s
# asked for (1 MB at most for s < 256); they are dropped with their context.
TABLE_LIMIT = 1 << 20
_TABLES: weakref.WeakKeyDictionary[BaseContext, np.ndarray] = (
    weakref.WeakKeyDictionary()
)
_MOD_TABLES: weakref.WeakKeyDictionary[BaseContext, dict[int, np.ndarray]] = (
    weakref.WeakKeyDictionary()
)


def _prefix_table(ctx: BaseContext) -> np.ndarray:
    """s_G(k) for k in [0, G_m), built block by block: for G_j <= k < G_{j+1}
    the greedy top digit is k // G_j, so s(k) = k // G_j + s(k mod G_j).

    Two threads racing here build equal tables, and either store may win.
    """
    table = _TABLES.get(ctx)
    if table is None:
        terms = ctx.terms_upto(TABLE_LIMIT)
        table = np.zeros(terms[-1], dtype=np.int64)
        for g, g_next in zip(terms, terms[1:]):
            ks = np.arange(g, g_next, dtype=np.int64)
            table[g:g_next] = ks // g + table[ks % g]
        _TABLES[ctx] = table
    return table


def _high_part(high: list[int], k: int) -> tuple[int, int]:
    """(H, s_H): the value and the digit sum of k's greedy digits at the terms
    in high, given in descending order; floor division from the top term
    down is exactly the greedy rule."""
    h = s_h = 0
    for g in high:
        d, k = divmod(k, g)
        h += d * g
        s_h += d
    return h, s_h


def _fill_low(table: np.ndarray, out: np.ndarray, rem: int, s_h: int, op) -> None:
    """out[i] = op(table[t], s_h + d) for rem + i = d G_m + t, t < G_m, and
    rem + len(out) <= G_{m+1}, with op(part, c, out=...) a row operation such
    as np.add. With the prefix table and np.add this is s_h + s_G(rem + i):
    below G_{m+1} the greedy digit at G_m is d and the rest is t, so the
    values form rows of length G_m, the table plus the row's digit. A partial
    first and last row are slices; the full rows in between are one broadcast
    op, with c a column of ints."""
    g = len(table)
    end = rem + len(out)
    first = -(-rem // g)  # the first row that starts at or after rem
    last = end // g  # the row that holds end, or starts at it
    if first > last:  # inside one row
        d = rem // g
        op(table[rem - d * g : end - d * g], s_h + d, out=out)
        return
    head = first * g - rem
    op(table[g - head :], s_h + first - 1, out=out[:head])
    body = out[head : head + (last - first) * g].reshape(last - first, g)
    op(table, (s_h + np.arange(first, last))[:, None], out=body)
    op(table[: end - last * g], s_h + last, out=out[head + (last - first) * g :])


def _walk(ctx: BaseContext, table: np.ndarray, out: np.ndarray, lo: int, op) -> None:
    """Fill out over [lo, lo + len(out)) run by run, as digit_sums_range
    describes: each run is one _fill_low call with the run's high digit sum.
    table is the prefix table or a function of it, entry by entry."""
    if lo < 0:
        raise PreconditionError("window start must be non-negative")
    n = lo + len(out)
    if n <= max(lo, len(table)):
        op(table[lo:n], 0, out=out)
        return
    top = ctx.term(len(ctx.terms_upto(TABLE_LIMIT)))  # G_M = G_{m+1}
    high = [g for g in reversed(ctx.terms_upto(n - 1)) if g >= top]
    k = lo
    while k < n:
        h, s_h = _high_part(high, k)
        end = min(n, h + top)
        if _high_part(high, end - 1)[0] != h:
            # H(inside) == h != H(outside); the run ends at outside
            inside, outside = k, end - 1
            while outside - inside > 1:
                mid = (inside + outside) // 2
                if _high_part(high, mid)[0] == h:
                    inside = mid
                else:
                    outside = mid
            end = outside
        _fill_low(table, out[k - lo : end - lo], k - h, s_h, op)
        k = end


def digit_sums_range(ctx: BaseContext, n: int, lo: int = 0) -> np.ndarray:
    """s_G(k) for all k in [lo, n) as an int64 array, built run by run.

    Let G_m be the largest term <= TABLE_LIMIT, so the context's prefix table
    holds s_G on [0, G_m), and let G_M = G_{m+1} > TABLE_LIMIT be the next
    term. Split k = H(k) + rem(k), where H(k) is the value of k's greedy
    digits at the terms >= G_M. The greedy expansion of rem(k) is the rest of
    k's, so rem(k) < G_M and s_G(k) = s_H(k) + s_G(rem(k)), with s_H(k) the
    sum of those high digits; _fill_low reads s_G below G_M off the table.

    Runs. Greedy expansions are ordered like the integers: if k < k' first
    differ, read from the top, at term G_j, the residual k' leaves for G_j is
    larger, so its digit there is too. If j >= M, then
    H(k') - H(k) >= G_j - (k's high digits below G_j) > 0, since the greedy
    residual below G_j is < G_j; if j < M, H(k') = H(k). So H is
    non-decreasing and the k with H(k) = H form one run [H, H + L). Within it
    rem = k - H rises by 1 per step, so the run's digit sums are s_H plus
    s_G over consecutive values, that is table rows. rem < G_M gives
    L <= G_M; L is smaller where the high digits restrict the ones below
    (Zeckendorf with a 1 at G_M leaves rem < G_{M-1}). Because H is monotone,
    the run ends at the first k with H(k) != H, found by bisection whenever the
    window goes on past it (_walk).

    Runs at G_M rather than G_m keep them long on every base: G_M exceeds
    TABLE_LIMIT even where G_m is tiny (a_1 >= 2**20 leaves the table one
    entry long, and runs at G_m would hold one integer each).

    Each run adds into its slice of the output from views of the table, plus
    one digit per row of G_m integers; finding runs is scalar integer work.
    """
    out = np.empty(max(n - lo, 0), dtype=np.int64)
    _walk(ctx, _prefix_table(ctx), out, lo, np.add)
    return out


def _mod_table(ctx: BaseContext, s: int) -> np.ndarray:
    """The prefix table mod s, in the smallest unsigned dtype that holds s;
    cached per context and modulus."""
    tables = _MOD_TABLES.setdefault(ctx, {})
    if s not in tables:
        tables[s] = (_prefix_table(ctx) % s).astype(np.min_scalar_type(s))
    return tables[s]


def digit_class_range(ctx: BaseContext, n: int, lo: int, r: int, s: int) -> np.ndarray:
    """The bool mask s_G(k) = r (mod s) over k in [lo, n).

    The same run walk as digit_sums_range over the prefix table mod s: a row
    with high digit sum c matches where the table entry equals (r - c) mod s,
    so the digit sums are never formed."""
    if s < 1:
        raise PreconditionError(f"need s >= 1, got {s}")
    table = _mod_table(ctx, s)

    def match(part, c, out):
        np.equal(part, np.remainder(r - c, s).astype(table.dtype), out=out)

    out = np.empty(max(n - lo, 0), dtype=bool)
    _walk(ctx, table, out, lo, match)
    return out


def is_parry_admissible(ctx: BaseContext, digits) -> bool:
    """Window criterion for digit strings, read from the top digit down.

    A string is accepted iff every window of d consecutive digits, starting
    at the most significant position and padded below with d-1 zeros, is
    lexicographically strictly smaller than (a_1, ..., a_d).

    For strengthened bases (condition (1) tight up to +1) this is exactly the
    set of greedy digit strings; for other bases it is only a necessary
    condition on greedy strings.
    """
    digits = digits.digits if isinstance(digits, Expansion) else tuple(digits)
    if any(d < 0 for d in digits):
        raise PreconditionError("digits must be non-negative")
    d = ctx.d
    a = ctx.coeffs
    # big-endian with d-1 zeros below the least significant digit
    seq = tuple(reversed(digits)) + (0,) * (d - 1)
    for j in range(len(digits)):
        if seq[j : j + d] >= a:
            return False
    return True
