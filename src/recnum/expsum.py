"""Exponential sums over digit expansions.

The central object is

    S_n(y, beta) = sum_{k < G_n} e(beta * s_G(k) + y * k),   e(z) = exp(2 pi i z),

together with the coefficient sums

    A_{n,j}(y, beta) = sum_{l=0}^{a_j - 1}
        e(y * (a_1 G_{n-1} + ... + a_{j-1} G_{n-j+1} + l G_{n-j})
          + beta * (a_1 + ... + a_{j-1} + l)),

which satisfy S_n = sum_{j : a_j != 0} A_{n,j} S_{n-j} for n >= d. The modulus
|A_{k,j}| equals the Dirichlet-kernel ratio |sin(pi a_j x)/sin(pi x)| at
x = beta + y G_{k-j} (`bounds.dirichlet_kernel_abs`).

1-norms of S_n and of dS_n/dy over y in [0,1) are estimated by the midpoint
rule with node density tied to G_n, since the integrand oscillates on the
scale 1/G_n. The midpoints are equally spaced, so S_n and dS_n/dy at all of
them come from fast Fourier transforms of the terms e(beta s_G(k)) over
k < G_n, the library's only source of dS_n/dy; the recurrence carries S_n
alone and serves single frequencies and sets of them such as the Farey
points.

The frequencies are exact: y and beta are ints or Fractions, never floats, so
every phase y k + beta s is reduced mod 1 in integers and rounded to double
once (`_turns`), at any denominator and any n.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

from .base import BaseContext, CostGuardError, PreconditionError
from .digits import digit_sums_range

DIRECT_SUM_GUARD = 10**7
# Worst admissible 1-norm: G_n prime just below the guard, so every transform
# in _transform takes Bluestein's route. `recnum onenorm --coeffs 99990,1
# --n 1 --beta 0.2` (G_1 = 99991, 1,599,856 nodes) takes 0.25-0.31 s and
# peaks at 83 MB RSS, against 29 MB for the interpreter with numpy and
# recnum, in a fresh interpreter on a shared 2-vCPU x86-64 machine (numpy
# 2.4): the 16 x G_n terms, transformed in place, are 25.6 MB, and the node
# moduli 12.8 MB (one_norm). (1, 1) at n = 23 (1,200,400 nodes) takes
# 0.22-0.24 s and 68 MB.
ONE_NORM_GUARD = 10**5
SAMPLES_PER_OSCILLATION = 16  # quadrature nodes per unit of G_n in the 1-norms
_WINDOW = 1 << 20  # integers per window of the direct sum
_COUNT_WINDOW = 1 << 16  # least integers per window of its counted path
_TERM_BLOCK = 1 << 14  # (i, y) phases per block of exp_sum_recurrent's initial values


@dataclass(frozen=True)
class ExpSumParams:
    """Frequencies y (on k) and beta (on the digit sum), exact rationals
    reduced mod 1.

    y is a Fraction or a tuple of them: `exp_sum_recurrent` and
    `coefficient_A` then evaluate at every y at once, and a scalar y is
    their length-1 case. beta is a Fraction. `make` takes ints and Fractions
    (a sequence of them for several y) and refuses floats, whose error of
    up to 2^-54 offsets near G_n would turn into whole turns.
    """

    y: Fraction | tuple[Fraction, ...]
    beta: Fraction

    @classmethod
    def make(cls, y, beta) -> "ExpSumParams":
        return cls(tuple(map(_exact, y)) if np.ndim(y) else _exact(y), _exact(beta))

    @cached_property
    def _hq(self) -> tuple[np.ndarray, np.ndarray]:
        """Numerators and denominators of the y, as object arrays of Python ints."""
        ys = self.y if isinstance(self.y, tuple) else (self.y,)
        return (np.array([v.numerator for v in ys], dtype=object),
                np.array([v.denominator for v in ys], dtype=object))


def _exact(v) -> Fraction:
    if not isinstance(v, numbers.Rational):
        raise PreconditionError(f"frequencies must be ints or Fractions, not {type(v).__name__}")
    return Fraction(v) % 1


def _e(phase: np.ndarray) -> np.ndarray:
    """e(phase) elementwise, exponentiated in place in its own complex array."""
    z = 2j * np.pi * np.asarray(phase, dtype=float)
    return np.exp(z, out=z)


def _roots_of_unity(mod: int) -> np.ndarray:
    """e(j/mod) for j < mod, each from its quarter turn: with j/mod = quad/4 + f,
    0 <= f < 1/4 taken exactly in integers and rounded once, e(j/mod) =
    i^quad e(f), and the factor i^quad only swaps and negates parts."""
    j = np.arange(mod, dtype=np.int64)
    quad = 4 * j // mod
    return np.array([1, 1j, -1, -1j])[quad] * _e((4 * j - quad * mod) / (4 * mod))


def _turns(params: ExpSumParams, k, s) -> np.ndarray:
    """The phases (y k + beta s) mod 1 at every y of params, for Python ints
    k, s >= 0 (or object arrays of them that broadcast against the y).

    With y = h/q and beta = r/sden, the phase is num/mod, mod = q sden, with
    num = ((h (k mod q) mod q) sden + (r s mod sden) q) mod mod taken in
    Python integers at any denominator; int / int rounds the quotient
    correctly, so each phase is rounded once."""
    h, q = params._hq
    r, sden = params.beta.numerator, params.beta.denominator
    mod = q * sden
    num = (h * (k % q) % q * sden + r * s % sden * q) % mod
    return (num / mod).astype(float)


def _counted_sum(ctx: BaseContext, g_n: int, y: Fraction, beta: Fraction) -> complex:
    """sum_{k < G_n} e(y k + beta s_G(k)) for fractions with mod = q * sden <=
    min(G_n, _WINDOW), q and sden the denominators of y and beta.

    Each term is e(num/mod) with num = (h i mod q) sden + (r b mod sden) q,
    where y = h/q, beta = r/sden, i = k mod q and b = s_G(k) mod sden. So the
    sum is the dot product `_residue_dot` of the int64 counts of the pairs
    (i, b) with the mod roots of unity. The pairs i sden + b are formed in
    int32 (mod <= _WINDOW < 2^31) and counted by np.bincount over windows of
    max(_COUNT_WINDOW, mod) integers rounded down to a multiple of q, so one
    array holds i sden for every window. b comes off the context's table of
    s_G mod sden (`digit_sums_range` with mod = sden), and the digit sums
    are never formed. The counts are exact, so the window size moves no bit.

    Memory: the table mod sden over [0, min(G_n, G_m)) (1, 2 or 4 bytes
    per entry); per window the pairs and i sden (4 bytes per integer each)
    and bincount's int64 copy of the pairs (8 bytes per integer); and a few
    arrays per residue: the counts, one bincount of them and those of
    _residue_dot (8 or 16 bytes per residue each)."""
    q, sden = y.denominator, beta.denominator
    mod = q * sden
    step = max(_COUNT_WINDOW, mod) // q * q
    i_part = np.arange(min(step, g_n), dtype=np.int32) % q * sden
    counts = np.zeros(mod, dtype=np.int64)
    for lo in range(0, g_n, step):
        pair = digit_sums_range(ctx, min(lo + step, g_n), lo, sden)
        pair += i_part[: pair.size]
        counts += np.bincount(pair, minlength=mod)
        del pair  # before the next window's pairs are formed
    return _residue_dot(counts, y, beta)


def _residue_dot(counts: np.ndarray, y: Fraction, beta: Fraction) -> complex:
    """sum over i < q, b < sden of counts[i sden + b] e((h i mod q) / q +
    (r b mod sden) / sden): each product of a count with its root of unity
    e(num/mod) is rounded once, and math.fsum adds them exactly."""
    q, sden = y.denominator, beta.denominator
    h, r = y.numerator % q, beta.numerator % sden
    mod = q * sden
    num = (np.arange(q) * h % q * sden)[:, None] + np.arange(sden) * r % sden * q
    terms = counts * _roots_of_unity(mod)[num.ravel() % mod]
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def exp_sum_direct(ctx: BaseContext, n: int, params: ExpSumParams) -> complex:
    """S_n(y, beta) at a scalar y by summation over all k < G_n, in windows
    of _WINDOW integers.

    Every term is e(num/mod) with an integer num in [0, mod), mod = q * sden,
    reduced exactly as in _turns. While mod <= min(G_n, _WINDOW),
    _counted_sum adds counts of residues and rounds only the final sum. A
    larger mod evaluates each term over the least common denominator
    lcd = lcm(q, sden), as e(num/lcd) with num = ((h k mod q) lcd/q +
    (r s mod sden) lcd/sden) mod lcd, the same rational: in int64 while the
    products fit and lcd <= 2^53, else over Python ints; each window is summed
    pairwise by np.sum, and the window sums are added in order. In int64,
    num and lcd are converted to double before the division, exactly while
    lcd <= 2^53, so each phase is rounded once on both paths.

    Memory: the counted path holds the context's table of s_G mod sden and
    O(mod + _COUNT_WINDOW) more (`_counted_sum`), and never the int64
    digit sums or prefix table. Each window of the per-term path allocates
    its digit sums and a few index, phase or term arrays, of length _WINDOW
    at most, beside the prefix table over [0, min(G_n, G_m))."""
    if isinstance(params.y, tuple):
        raise PreconditionError("exp_sum_direct takes a scalar y, not a tuple")
    g_n = ctx.term(n)
    if g_n > DIRECT_SUM_GUARD:
        raise CostGuardError(f"G_{n} = {g_n} exceeds the direct summation guard")
    q, sden = params.y.denominator, params.beta.denominator
    h, r = params.y.numerator, params.beta.numerator
    mod = q * sden
    if mod <= min(g_n, _WINDOW):
        return _counted_sum(ctx, g_n, params.y, params.beta)
    # int64 holds h k < q G_n, r s < sden G_n (s_G(k) <= k) and num < 2 lcd
    # only below 2**63, and num / lcd rounds once only for lcd <= 2**53; other
    # fractions run the same expression over Python ints
    lcd = math.lcm(q, sden)
    dtype = np.int64 if max(q, sden) * g_n < 2**63 and lcd <= 2**53 else object
    total = 0j
    for lo in range(0, g_n, _WINDOW):
        hi = min(lo + _WINDOW, g_n)
        s = digit_sums_range(ctx, hi, lo).astype(dtype, copy=False)
        ks = np.arange(lo, hi, dtype=dtype)
        num = ((h * ks % q) * (lcd // q) + (r * s % sden) * (lcd // sden)) % lcd
        terms = _e(num / lcd)
        total += complex(np.sum(terms))
    return total


def coefficient_A(ctx: BaseContext, n: int, j: int, params: ExpSumParams) -> complex | np.ndarray:
    """A_{n,j} at every y of params (a complex for a scalar y, an array for a
    tuple of y); |A_{n,j}| <= a_j.

    Each term is e(y offset + beta (pre_a + l)), its phase reduced exactly
    by _turns."""
    if j not in ctx.index_set:
        raise PreconditionError(f"j={j} has a_j = 0; not in the index set")
    if n < j:
        raise PreconditionError(f"need n >= j, got n={n}, j={j}")
    a = ctx.coeffs
    pre_g = sum(a[k - 1] * ctx.term(n - k) for k in range(1, j))
    pre_a = sum(a[k - 1] for k in range(1, j))
    total = np.zeros(len(params._hq[0]), dtype=complex)
    for ell in range(a[j - 1]):
        total += _e(_turns(params, pre_g + ell * ctx.term(n - j), pre_a + ell))
    return total if isinstance(params.y, tuple) else complex(total[0])


def exp_sum_recurrent(ctx: BaseContext, n: int, params: ExpSumParams) -> complex | np.ndarray:
    """S_n via the order-d coefficient recurrence, at every y of params (a
    complex for a scalar y, an array for a tuple of y). Only the last d
    values are kept.

    The initial values S_k, k < d, are the direct sums over i < G_k, with
    the bits of the loop acc += _e(_turns(params, i, s_G(i))) from acc = 0
    in ascending i, but without a Python call per i. The phases come as
    (i, y) arrays of at most _TERM_BLOCK entries, from object arrays of
    Python ints (`_turns`). Each block's first row takes the running sum
    (addition commutes), and np.cumsum, which adds in sequence, carries it
    down the rows to the last."""
    if n < 0:
        raise PreconditionError("term index must be non-negative")
    size = len(params._hq[0])
    rows = max(1, _TERM_BLOCK // size)
    sums: deque = deque(maxlen=ctx.d)
    for k in range(min(ctx.d, n + 1)):
        g_k = ctx.term(k)
        s = digit_sums_range(ctx, g_k)
        acc = np.zeros(size, dtype=complex)
        for b in range(0, g_k, rows):
            i = np.arange(b, min(b + rows, g_k), dtype=object)[:, None]
            terms = _e(_turns(params, i, s[b : b + rows].astype(object)[:, None]))
            terms[0] += acc
            acc = np.cumsum(terms, axis=0, out=terms)[-1]
        sums.append(acc)
    for k in range(ctx.d, n + 1):
        sums.append(sum(coefficient_A(ctx, k, j, params) * sums[-j] for j in ctx.index_set))
    return sums[-1] if isinstance(params.y, tuple) else complex(sums[-1][0])


@dataclass
class QuadratureEstimate:
    value: float
    nodes: int


def _twisted_terms(ctx: BaseContext, n: int, beta: Fraction | int) -> np.ndarray:
    """The 16 x G_n terms c_t[k] = e(beta s_G(k) + (2t + 1) k / (2N)) whose
    transforms give S_n at the midpoint nodes y_j = (2j + 1)/(2N), j < N,
    that both 1-norms share, N = max(64, 16 G_n) = 16 L with L = max(4, G_n).

    For j = 16 m + t, e(y_j k) = e(m k / L) e((2t + 1) k / (2N)), so the nodes
    of residue t are one inverse DFT of length L of c_t, zero-padded past
    G_n (`_transform`), and dS_n/dy the same transform of 2 pi i k c_t[k]
    (`_derivative_terms`). Each twist is reduced mod 1 in integers, and
    beta s_G(k) comes from a table over the digit sums filled by _turns,
    each rounded once. Memory: the twists (16 G_n floats) and the terms
    (16 G_n complex), exponentiated in place by _e, and the digit sums of
    [0, G_n) with the prefix table grown to G_n; then `_node_moduli`, which
    transforms the terms in place (see one_norm and ONE_NORM_GUARD)."""
    g_n = ctx.term(n)
    if g_n > ONE_NORM_GUARD:
        raise CostGuardError(f"G_{n} = {g_n} exceeds the 1-norm oscillation guard")
    params = ExpSumParams.make(0, beta)
    nodes = max(64, SAMPLES_PER_OSCILLATION * g_n)
    ks = np.arange(g_n, dtype=np.int64)
    twist = np.arange(1, 2 * SAMPLES_PER_OSCILLATION, 2)[:, None] * ks % (2 * nodes)
    phase = twist / (2 * nodes)
    del ks, twist
    s = digit_sums_range(ctx, g_n)
    phase += _turns(params, 0, np.arange(int(s.max()) + 1, dtype=object))[s]
    del s  # the phases and terms alone are live in _e, as in _node_moduli
    return _e(phase)


def _derivative_terms(terms: np.ndarray) -> np.ndarray:
    """2 pi i k c_t[k], in place of the c_t[k] of _twisted_terms."""
    terms *= 2j * np.pi * np.arange(terms.shape[1])
    return terms


def _transform(terms: np.ndarray) -> np.ndarray:
    """The node values of _twisted_terms' rows by one batched inverse DFT of
    length L: row t holds the nodes 16 m + t, m < L. norm="forward" leaves
    the inverse unscaled. The transform consumes its terms: for L = G_n it
    is written over them (`out=`, numpy >= 2.0), and only the zero-padded
    G_n < 4 case, L = 4, takes a separate output."""
    length = max(4, terms.shape[1])
    out = terms if length == terms.shape[1] else None
    return np.fft.ifft(terms, n=length, axis=1, norm="forward", out=out)


def _node_moduli(terms: np.ndarray) -> np.ndarray:
    """|.| of the node values of `_transform`, in node order: the moduli of
    the transposed transform go straight into one (L, 16) float buffer,
    whose rows are the nodes 16 m .. 16 m + 15, so no reordered copy is
    made. Memory: the terms, transformed in place (16 G_n complex), and the
    moduli (16 L floats), 24 bytes per node."""
    values = _transform(terms).T
    return np.abs(values, out=np.empty(values.shape)).ravel()


def one_norm(ctx: BaseContext, n: int, beta: Fraction | int) -> QuadratureEstimate:
    """Midpoint-rule estimate of the integral of |S_n(y, beta)| over [0, 1),
    on the nodes of _twisted_terms; beta is an int or a Fraction.

    Memory: the terms of _twisted_terms (16 G_n complex), transformed in
    place, and their moduli (16 L floats) at the peak, 24 bytes per node
    (`_node_moduli`)."""
    vals = _node_moduli(_twisted_terms(ctx, n, beta))
    return QuadratureEstimate(value=float(np.mean(vals)), nodes=vals.size)


def derivative_one_norm(ctx: BaseContext, n: int, beta: Fraction | int) -> QuadratureEstimate:
    """Midpoint-rule estimate of the 1-norm of dS_n/dy over [0, 1), with the
    memory of one_norm."""
    vals = _node_moduli(_derivative_terms(_twisted_terms(ctx, n, beta)))
    return QuadratureEstimate(value=float(np.mean(vals)), nodes=vals.size)


def farey_points(q_max: int) -> list[Fraction]:
    """All reduced fractions h/q in [0, 1) with q <= q_max."""
    pts = {Fraction(0, 1)}
    for q in range(1, q_max + 1):
        for h in range(1, q):
            if gcd(h, q) == 1:
                pts.add(Fraction(h, q))
    return sorted(pts)


@dataclass
class GallagherReport:
    lhs: float
    rhs: float
    ok: bool
    n_points: int
    delta: float
    one_norm: float
    derivative_one_norm: float


def gallagher_check(ctx: BaseContext, n: int, beta: Fraction | int, q_max: int) -> GallagherReport:
    """Numeric check of the well-spaced-points inequality.

    Sums |S_n| over the Farey fractions of order q_max (pairwise spacing at
    least delta = 1/q_max^2) and compares with
    delta^{-1} * ||S_n||_1 + (1/2) * ||dS_n/dy||_1 over one full period.

    Memory: that of one_norm, as each norm builds its own terms, then the
    Farey recurrence's: the points and its arrays over them, Python ints
    among them, a few hundred bytes per point.
    """
    if q_max < 1:
        raise PreconditionError("need q_max >= 1")
    if q_max * q_max > 10**4:
        raise CostGuardError("Farey order guard: need Q^2 <= 10^4")
    # the norms go first, so their guard refuses before any other work; the
    # transform consumes its terms, so each norm builds its own, and the
    # peak is one_norm's
    nrm = one_norm(ctx, n, beta).value
    dnrm = derivative_one_norm(ctx, n, beta).value
    pts = farey_points(q_max)
    s_n = exp_sum_recurrent(ctx, n, ExpSumParams.make(pts, beta))
    lhs = float(np.sum(np.abs(s_n)))
    delta = 1.0 / (q_max * q_max)
    rhs = nrm / delta + 0.5 * dnrm
    return GallagherReport(
        lhs=lhs,
        rhs=rhs,
        ok=lhs <= rhs * (1.0 + 1e-6),
        n_points=len(pts),
        delta=delta,
        one_norm=nrm,
        derivative_one_norm=dnrm,
    )
