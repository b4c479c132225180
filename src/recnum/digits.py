"""Greedy digit expansions and the sum-of-digits function.

Every integer nu >= 1 has a unique expansion nu = eps_0 G_0 + ... + eps_l G_l
with G_l <= nu < G_{l+1}, obtained by repeatedly subtracting the largest
fitting term. Digits are stored little-endian (eps_0 first). The sum of
digits s_G(nu) = eps_0 + ... + eps_l, with s_G(0) = 0 by convention; 0 itself
gets the empty expansion.
"""

from __future__ import annotations

import threading
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


# Each context caches one prefix table of s_G, if digit sums are asked for,
# and one table mod s, for the last modulus s asked for, built without the
# prefix table. Each covers [0, G) for the smallest term G >= n that a call
# needs, grown as calls need more and capped at G_m, the largest term <=
# TABLE_LIMIT: 8 MB at most for the prefix table, and for the table mod s
# 1 MB at most for s < 256 and 4 MB for the residues of the exact direct sum,
# s <= 2^20. A table is stored as (key, table), key None or s, and is dropped
# with its context.
TABLE_LIMIT = 1 << 20
_TABLES: weakref.WeakKeyDictionary[BaseContext, tuple[None, np.ndarray]] = (
    weakref.WeakKeyDictionary()
)
_MOD_TABLES: weakref.WeakKeyDictionary[BaseContext, tuple[int, np.ndarray]] = (
    weakref.WeakKeyDictionary()
)
_TABLES_LOCK = threading.Lock()


def _block_table(ctx: BaseContext, dtype, op, end: int | None = None,
                 head: np.ndarray | None = None) -> np.ndarray:
    """A table over [0, G), G the largest term <= end (TABLE_LIMIT if end is
    None), built block by block by `_fill_low`: for G_j <= k < G_{j+1} the
    greedy top digit is d = k // G_j and the rest is t = k - d G_j < G_j, so
    entry k is op(entry t, d), read from the blocks below. With np.add this
    is s_G(k) = d + s_G(t). A head, the same table over [0, G_a) for a term
    G_a, is copied in, and only the blocks from G_a on are built."""
    terms = ctx.terms_upto(TABLE_LIMIT if end is None else end)
    table = np.zeros(terms[-1], dtype=dtype)
    done = 1  # entry 0 is 0
    if head is not None:
        done = len(head)
        table[:done] = head
    for g, g_next in zip(terms, terms[1:]):
        if g >= done:
            _fill_low(table[:g], table[g:g_next], g, 0, op)
    return table


def _grown_table(cache: weakref.WeakKeyDictionary, key, ctx: BaseContext, n: int | None,
                 dtype, build_dtype, op) -> np.ndarray:
    """The context's table for key in cache, of `_block_table` (built in
    build_dtype with op, kept in dtype), over [0, G), G the smallest term
    >= min(n, G_m); with no n, over [0, G_m).

    A cached table for the same key only grows: a shorter one is extended
    block by block from its last term. A thread that loses a race to store
    keeps the longer table of its key, so that table never shrinks. A table
    for another key is replaced."""
    stored = cache.get(ctx)
    table = stored[1] if stored is not None and stored[0] == key else None
    g_m = ctx.terms_upto(TABLE_LIMIT)[-1]
    need = g_m if n is None else min(n, g_m)
    if table is not None and len(table) >= need:
        return table
    end = ctx.term(len(ctx.terms_upto(need - 1)))  # the smallest term >= need
    table = _block_table(ctx, build_dtype, op, end, table).astype(dtype, copy=False)
    with _TABLES_LOCK:
        stored = cache.get(ctx)
        if stored is not None and stored[0] == key and len(stored[1]) >= len(table):
            return stored[1]
        cache[ctx] = (key, table)
    return table


def _prefix_table(ctx: BaseContext, n: int | None = None) -> np.ndarray:
    """s_G(k) for k in [0, G) by the block identity, G the smallest term
    >= min(n, G_m); with no n, the whole table over [0, G_m)
    (`_grown_table`)."""
    return _grown_table(_TABLES, None, ctx, n, np.int64, np.int64, np.add)


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
    """Fill out over [lo, lo + len(out)) piece by piece, as digit_sums_range
    describes. table is the prefix table or a function of it, entry by
    entry."""
    if lo < 0:
        raise PreconditionError("window start must be non-negative")
    n = lo + len(out)
    if n <= max(lo, len(table)):
        op(table[lo:n], 0, out=out)
        return
    terms = ctx.terms_upto(n - 1)
    low = len(ctx.terms_upto(TABLE_LIMIT))  # m + 1: G_m is the table's length

    def descend(top: int, out: np.ndarray, lo: int, c: int) -> None:
        # out over [lo, lo + len(out)), below G_top, with c added: strip the
        # digit at each G_j, j >= m + 1, in this loop while the window lies
        # in one block, else once per block the window meets
        n = lo + len(out)
        for j in range(top - 1, low - 1, -1):
            g = terms[j]
            d, d_last = lo // g, (n - 1) // g
            if d < d_last:
                for e in range(d, d_last + 1):
                    a, b = max(lo, e * g), min(n, (e + 1) * g)
                    descend(j, out[a - lo : b - lo], a - e * g, c + e)
                return
            lo, n, c = lo - d * g, n - d * g, c + d
        _fill_low(table, out, lo, c, op)

    descend(len(terms), out, lo, 0)


def digit_sums_range(ctx: BaseContext, n: int, lo: int = 0, mod: int | None = None) -> np.ndarray:
    """s_G(k) for all k in [lo, n) as an int64 array, by the block identity;
    with mod, s_G(k) mod `mod` as an int32 array (1 <= mod <= 2^30), and the
    digit sums are never formed.

    Block identity: for k < G_{j+1} the greedy digit at G_j is d = k // G_j
    and the rest of the expansion is that of k - d G_j < G_j, so on the
    block [d G_j, (d + 1) G_j) s_G(k) = d + s_G(k - d G_j). Let G_m be the
    largest term <= TABLE_LIMIT. A window below G_m is read off the
    context's prefix table, grown to the smallest term >= n
    (`_prefix_table`); past G_m the table holds s_G on [0, G_m). From the
    window's top term down to G_{m+1}, a window inside one block moves down
    by d G_j and adds d to its digit sums; a window across blocks splits
    into one piece per block, and each piece goes on the same way. Below
    G_{m+1}, _fill_low reads the rest off the table. With mod, the table is
    the prefix table mod `mod` (`_mod_table`), and a row with high digit sum
    c adds c mod `mod` to its entries and reduces the sums (`_add_mod`).

    Scalar work. A piece inside one block costs two integer divisions per
    level. Pieces are the window's distinct strings of digits at the terms
    >= G_{m+1}, and a new one starts only at a k whose digits below G_{m+1}
    are all 0 (such k are at least G_m apart in Zeckendorf), so a window
    meets few of them. Pieces end at G_{m+1} rather than G_m to stay long on
    every base: G_{m+1} exceeds TABLE_LIMIT even where G_m is tiny (a_1 >=
    2**20 leaves the table one entry long, and pieces at G_m would hold one
    integer each). Each piece adds into its slice of the output from views
    of the table, plus one digit per row of G_m integers.
    """
    if mod is None:
        out = np.empty(max(n - lo, 0), dtype=np.int64)
        _walk(ctx, _prefix_table(ctx, n), out, lo, np.add)
        return out
    if not 1 <= mod <= 1 << 30:
        raise PreconditionError(f"need 1 <= mod <= 2^30, got {mod}")
    out = np.empty(max(n - lo, 0), dtype=np.uint32)  # holds 2 mod - 2
    _walk(ctx, _mod_table(ctx, mod, n), out, lo, _add_mod(mod))
    return out.view(np.int32)  # residues < 2^30


_REDUCE_SLICE = 1 << 14


def _add_mod(s: int):
    """The row operation out = (part + (c mod s)) mod s of the tables mod s,
    for part and out in an unsigned dtype that holds 2s - 2, the largest sum
    of two residues. The row's digit c is reduced mod s and cast to the
    smallest dtype that holds 2s - 1 first: a Python int added to a narrow
    array takes the array's dtype and wraps, and that cast makes the sum
    wide enough. A sum x < 2s reduces as min(x, x - s): below s, x - s
    wraps past every residue in the unsigned dtype. It runs in slices of
    _REDUCE_SLICE entries, so that its temporary x - s stays small where out
    is a large block of a table being built."""
    wide = np.min_scalar_type(2 * s - 1)

    def add_mod(part, c, out):
        np.add(part, np.remainder(c, s).astype(wide), out=out)
        flat = out.reshape(-1)  # a view: every out is a contiguous slice
        for k in range(0, flat.size, _REDUCE_SLICE):
            x = flat[k : k + _REDUCE_SLICE]
            np.minimum(x, x - s, out=x)

    return add_mod


def _mod_table(ctx: BaseContext, s: int, n: int | None = None) -> np.ndarray:
    """The prefix table mod s, in the smallest unsigned dtype that holds s,
    over [0, G) as in _prefix_table; the context caches it for the last s
    asked for.

    Built by the block identity mod s, (d + s_G(t)) mod s = ((d mod s) +
    (s_G(t) mod s)) mod s (`_add_mod`), in the smallest dtype that holds
    2s - 1, so the int64 prefix table is never formed."""
    return _grown_table(_MOD_TABLES, s, ctx, n, np.min_scalar_type(s),
                        np.min_scalar_type(2 * s - 1), _add_mod(s))


def digit_class_range(ctx: BaseContext, n: int, lo: int, r: int, s: int) -> np.ndarray:
    """The bool mask s_G(k) = r (mod s) over k in [lo, n).

    The same walk as digit_sums_range over the prefix table mod s: a row
    with high digit sum c matches where the table entry equals (r - c) mod s,
    so the digit sums are never formed."""
    if s < 1:
        raise PreconditionError(f"need s >= 1, got {s}")
    table = _mod_table(ctx, s, n)

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
