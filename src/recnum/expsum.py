"""Exponential sums over digit expansions.

The central object is

    S_n(y, beta) = sum_{k < G_n} e(beta * s_G(k) + y * k),   e(z) = exp(2 pi i z),

together with the coefficient sums

    A_{n,j}(y, beta) = sum_{l=0}^{a_j - 1}
        e(y * (a_1 G_{n-1} + ... + a_{j-1} G_{n-j+1} + l G_{n-j})
          + beta * (a_1 + ... + a_{j-1} + l)),

which satisfy S_n = sum_{j : a_j != 0} A_{n,j} S_{n-j} for n >= d. The modulus
|A_{k,j}| equals the Dirichlet-kernel ratio |sin(pi a_j x)/sin(pi x)| at
x = beta + y G_{k-j} (`bounds.dirichlet_kernel_abs`). Differentiated in y, the
recurrence gives dS_n = sum_j (dA_{n,j} S_{n-j} + A_{n,j} dS_{n-j}), d = d/dy.

1-norms of S_n and of dS_n/dy over y in [0,1) are estimated by the midpoint
rule with node density tied to G_n, since the integrand oscillates on the
scale 1/G_n. The midpoints are equally spaced, so S_n and dS_n/dy at all of
them come from fast Fourier transforms of the terms e(beta s_G(k)) over
k < G_n; the recurrence serves single frequencies and sets of them such as
the Farey points.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

import numpy as np

from .base import BaseContext, CostGuardError, PreconditionError
from .digits import digit_sums_range

DIRECT_SUM_GUARD = 10**7
# Worst admissible 1-norm: G_n prime just below the guard, so every transform
# in _norm_nodes takes Bluestein's route. `recnum onenorm --coeffs 99990,1
# --n 1` (G_1 = 99991, 1,599,856 nodes) takes 0.60-0.64 s and peaks at 143 MB
# RSS, against 30 MB for the interpreter with numpy and recnum, in a fresh
# interpreter on a 2-vCPU x86-64 machine (numpy 2.4): the 16 x G_n terms and
# the node arrays are 25.6 MB each. (1, 1) at n = 23 (1,200,400 nodes) takes
# 0.46 s and 121 MB.
ONE_NORM_GUARD = 10**5
SAMPLES_PER_OSCILLATION = 16  # quadrature nodes per unit of G_n in the 1-norms
_WINDOW = 1 << 20  # integers per window of the direct sum


@dataclass(frozen=True)
class ExpSumParams:
    """Frequencies y (on k) and beta (on the digit sum), both taken mod 1.

    y may be an array: `exp_sum_recurrent` and `coefficient_A` then evaluate
    at every y at once, and a scalar y is their length-1 case. Exact
    fractions, when available, are reduced mod 1 before they are rounded to
    float. With both y_frac and beta_frac set, the direct sum and the
    recurrence (its initial terms and every A_{n,j}) reduce each phase
    exactly mod 1 before one rounding to double, so a fraction y such as
    1/3 stays exact at any n; the float y alone is off by up to 2^-54,
    which offsets near G_n turn into whole turns. y and beta must be finite.
    """

    y: float | np.ndarray
    beta: float
    y_frac: Fraction | None = None
    beta_frac: Fraction | None = None

    @classmethod
    def make(cls, y, beta) -> "ExpSumParams":
        y_frac = y if isinstance(y, Fraction) else None
        beta_frac = beta if isinstance(beta, Fraction) else None
        if y_frac is not None:
            y = y_frac % 1
        if beta_frac is not None:
            beta = beta_frac % 1
        yf = np.asarray(y, dtype=float) % 1.0 if np.ndim(y) else float(y) % 1.0
        bf = float(beta) % 1.0
        if not (math.isfinite(bf) and np.all(np.isfinite(yf))):
            raise PreconditionError("y and beta must be finite")
        return cls(yf, bf, y_frac, beta_frac)


def _e(phase: np.ndarray | float) -> np.ndarray | complex:
    return np.exp(2j * np.pi * np.asarray(phase))


def _roots_of_unity(mod: int) -> np.ndarray:
    """e(j/mod) for j < mod, each from its quarter turn: with j/mod = quad/4 + f,
    0 <= f < 1/4 taken exactly in integers and rounded once, e(j/mod) =
    i^quad e(f), and the factor i^quad only swaps and negates parts."""
    j = np.arange(mod, dtype=np.int64)
    quad = 4 * j // mod
    return np.array([1, 1j, -1, -1j])[quad] * _e((4 * j - quad * mod) / (4 * mod))


def _phase_mod1(y: float, ints) -> np.ndarray | float:
    """y * ints mod 1 in extended precision.

    The products reach y * G_n. With the 64-bit significand of x86
    longdouble the product errs by at most 2^-64 * y * ints < 2^-64 * G_n,
    the reduction mod 1 is exact, and the rounding to double adds at most
    2^-54: about 2^-64 * G_n in all, against 2^-53 * G_n for a product in
    double. (Where longdouble is double, the latter holds.) The bound is
    relative to the double y, not to a fraction it stands for.
    """
    out = (np.asarray(y, dtype=np.longdouble) * ints) % 1.0
    return float(out) if out.shape == () else out.astype(float)


def _phase(params: ExpSumParams, k: int, s: int) -> np.ndarray | float:
    """The phase y k + beta s of a term e(y k + beta s), k, s >= 0, at every
    y of params. With both exact fractions it is reduced mod 1 exactly and
    rounded to double once; else y k goes through _phase_mod1."""
    if params.y_frac is not None and params.beta_frac is not None:
        return float((params.y_frac * k + params.beta_frac * int(s)) % 1)
    return _phase_mod1(params.y, k) + params.beta * s


def _counted_sum(ctx: BaseContext, g_n: int, y: Fraction, beta: Fraction) -> complex:
    """sum_{k < G_n} e(y k + beta s_G(k)) for fractions with mod = q * sden <=
    min(G_n, _WINDOW), q and sden the denominators of y and beta.

    Each term is e(num/mod) with num = (h i mod q) sden + (r b mod sden) q,
    where y = h/q, beta = r/sden, i = k mod q and b = s_G(k) mod sden. So the
    sum is a dot product of the int64 counts of the pairs (i, b), added per
    window by np.bincount, with the mod roots of unity: each product is
    rounded once and math.fsum adds them exactly. Windows start at multiples
    of q, so one array holds i * sden for every window; b is looked up in a
    table of s mod sden over the window's few distinct s, which costs less
    than a remainder per integer."""
    q, sden = y.denominator, beta.denominator
    h, r = y.numerator % q, beta.numerator % sden
    mod = q * sden
    step = _WINDOW // q * q
    i_part = np.arange(min(step, g_n), dtype=np.int64) % q * sden
    counts = np.zeros(mod, dtype=np.int64)
    for lo in range(0, g_n, step):
        hi = min(lo + step, g_n)
        s = digit_sums_range(ctx, hi, lo)
        pair = (np.arange(int(s.max()) + 1, dtype=np.int64) % sden)[s]
        pair += i_part[: hi - lo]
        counts += np.bincount(pair, minlength=mod)
    num = (np.arange(q) * h % q * sden)[:, None] + np.arange(sden) * r % sden * q
    terms = counts * _roots_of_unity(mod)[num.ravel() % mod]
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def exp_sum_direct(ctx: BaseContext, n: int, params: ExpSumParams) -> complex:
    """S_n(y, beta) by summation over all k < G_n, in windows of _WINDOW
    integers.

    On the exact path every term is e(num/mod) with an integer num in
    [0, mod), mod = q * sden. While mod <= min(G_n, _WINDOW), _counted_sum
    adds counts of residues and rounds only the final sum. A larger mod
    evaluates e(num/mod) per term, and the float path e(phase) per term; each
    of their windows is summed pairwise by np.sum, and the window sums are
    added in order. Each window allocates its digit sums and a few index,
    phase or term arrays, of length _WINDOW at most."""
    g_n = ctx.term(n)
    if g_n > DIRECT_SUM_GUARD:
        raise CostGuardError(f"G_{n} = {g_n} exceeds the direct summation guard")
    exact = params.y_frac is not None and params.beta_frac is not None
    if exact:
        q, sden = params.y_frac.denominator, params.beta_frac.denominator
        h, r = params.y_frac.numerator % q, params.beta_frac.numerator % sden
        mod = q * sden
        if mod <= min(g_n, _WINDOW):
            return _counted_sum(ctx, g_n, params.y_frac, params.beta_frac)
        # int64 holds h k < q G_n, r s < sden G_n (s_G(k) <= k) and num < 2 q sden
        # only below 2**63; larger fractions take the extended-precision path
        exact = max(q, sden) * g_n < 2**63 and 2 * mod < 2**63
    total = 0j
    for lo in range(0, g_n, _WINDOW):
        hi = min(lo + _WINDOW, g_n)
        s = digit_sums_range(ctx, hi, lo)
        ks = np.arange(lo, hi, dtype=np.int64)
        if exact:
            num = ((h * ks % q) * sden + (r * s % sden) * q) % mod
            terms = _e(num / mod)
        else:
            terms = _e(_phase_mod1(params.beta, s) + _phase_mod1(params.y, ks))
        total += complex(np.sum(terms))
    return total


def coefficient_A(ctx: BaseContext, n: int, j: int, params: ExpSumParams) -> tuple:
    """(A_{n,j}, dA_{n,j}/dy) at every y of params; |A_{n,j}| <= a_j. The
    derivative is 2 pi i sum_l (pre_g + l G_{n-j}) e(...) over the same terms.

    For j = 1 the l = 0 term is e(0) = 1 with weight 0 in the derivative, so
    the sums start there instead of evaluating it. Each other term is
    e(y offset + beta (pre_a + l)): from the exact fractions, when params
    has both, reduced mod 1 in integers and rounded once, as in
    exp_sum_direct; else through _phase_mod1."""
    if j not in ctx.index_set:
        raise PreconditionError(f"j={j} has a_j = 0; not in the index set")
    if n < j:
        raise PreconditionError(f"need n >= j, got n={n}, j={j}")
    a = ctx.coeffs
    pre_g = sum(a[k - 1] * ctx.term(n - k) for k in range(1, j))
    pre_a = sum(a[k - 1] for k in range(1, j))
    ys = np.atleast_1d(params.y)
    skip = int(j == 1)  # the e(0) terms, each adding 1 to A and 0 to dA
    total = np.full(len(ys), skip, dtype=complex)
    d_total = np.zeros(len(ys), dtype=complex)
    for ell in range(skip, a[j - 1]):
        offset = pre_g + ell * ctx.term(n - j)
        term = _e(_phase(params, offset, pre_a + ell))
        total += term
        d_total += float(offset) * term
    d_total *= 2j * np.pi
    if np.ndim(params.y):
        return total, d_total
    return complex(total[0]), complex(d_total[0])


def exp_sum_recurrent(ctx: BaseContext, n: int, params: ExpSumParams) -> tuple:
    """(S_n, dS_n/dy) via the order-d coefficient recurrence, at every y of
    params (complex values for a scalar y, arrays for an array of y). Only the
    last d values of each are kept."""
    if n < 0:
        raise PreconditionError("term index must be non-negative")
    # _phase_mod1 multiplies y in longdouble: convert it once, not per term;
    # coefficient_A then returns arrays, also for a scalar y
    ys = np.atleast_1d(params.y).astype(np.longdouble)
    ext = replace(params, y=ys)
    sums: deque = deque(maxlen=ctx.d)
    d_sums: deque = deque(maxlen=ctx.d)
    for k in range(min(ctx.d, n + 1)):
        s = digit_sums_range(ctx, ctx.term(k))
        acc = np.zeros(len(ys), dtype=complex)
        d_acc = np.zeros(len(ys), dtype=complex)
        for kk, s_kk in enumerate(s):
            term = _e(_phase(ext, kk, s_kk))
            acc += term
            d_acc += kk * term
        sums.append(acc)
        d_sums.append(2j * np.pi * d_acc)
    # with a_1 = 1, coefficient_A gives A_{k,1} = 1 and dA_{k,1} = 0 exactly,
    # and j = 1 comes first: 0 + 1*S and 0 + (0*S + 1*dS) round to the bits
    # of 0 + S and 0 + dS, signed zeros included, so the products are skipped
    unit_first = ctx.coeffs[0] == 1
    for k in range(ctx.d, n + 1):
        s_k = d_s_k = 0
        for j in ctx.index_set:
            if j == 1 and unit_first:
                s_k += sums[-1]
                d_s_k += d_sums[-1]
                continue
            a_kj, d_a_kj = coefficient_A(ctx, k, j, ext)
            s_k += a_kj * sums[-j]
            d_s_k += d_a_kj * sums[-j] + a_kj * d_sums[-j]
        sums.append(s_k)
        d_sums.append(d_s_k)
    if np.ndim(params.y):
        return sums[-1], d_sums[-1]
    return complex(sums[-1][0]), complex(d_sums[-1][0])


@dataclass
class QuadratureEstimate:
    value: float
    nodes: int


def _norm_nodes(ctx: BaseContext, n: int, beta: float) -> tuple:
    """(S_n, dS_n/dy) at the midpoint nodes y_j = (2j + 1)/(2N), j < N, that
    both 1-norms share, N = max(64, 16 G_n) = 16 L with L = max(4, G_n).

    For j = 16 m + t, e(y_j k) = e(m k / L) e((2t + 1) k / (2N)), so the nodes
    of residue t are one inverse DFT of length L of the twisted terms
    c_t[k] = e(beta s_G(k) + (2t + 1) k / (2N)), zero-padded past G_n, and
    dS_n/dy the same transform of 2 pi i k c_t[k]. The 16 transforms run as
    one batched call, whose (t, m) rows are then copied into node order. Each
    twist is reduced mod 1 in integers before one rounding. Memory: one
    16 x G_n array of terms and three node arrays at most, all complex, plus
    the transform's work space (see ONE_NORM_GUARD)."""
    g_n = ctx.term(n)
    if g_n > ONE_NORM_GUARD:
        raise CostGuardError(f"G_{n} = {g_n} exceeds the 1-norm oscillation guard")
    beta = ExpSumParams.make(0.0, beta).beta
    nodes = max(64, SAMPLES_PER_OSCILLATION * g_n)
    length = nodes // SAMPLES_PER_OSCILLATION
    ks = np.arange(g_n, dtype=np.int64)
    twist = np.arange(1, 2 * SAMPLES_PER_OSCILLATION, 2)[:, None] * ks % (2 * nodes)
    phase = twist / (2 * nodes)
    del twist
    phase += beta * digit_sums_range(ctx, g_n) % 1.0
    terms = _e(phase)
    del phase
    # row t holds the nodes 16 m + t; norm="forward" leaves the inverse unscaled
    s_n = np.fft.ifft(terms, n=length, axis=1, norm="forward").T.ravel()
    terms *= 2j * np.pi * ks
    d_s_n = np.fft.ifft(terms, n=length, axis=1, norm="forward").T.ravel()
    return s_n, d_s_n


def one_norm(ctx: BaseContext, n: int, beta: float) -> QuadratureEstimate:
    """Midpoint-rule estimate of the integral of |S_n(y, beta)| over [0, 1),
    on the nodes of _norm_nodes."""
    vals = np.abs(_norm_nodes(ctx, n, beta)[0])
    return QuadratureEstimate(value=float(np.mean(vals)), nodes=vals.size)


def derivative_one_norm(ctx: BaseContext, n: int, beta: float) -> QuadratureEstimate:
    """Midpoint-rule estimate of the 1-norm of dS_n/dy over [0, 1)."""
    vals = np.abs(_norm_nodes(ctx, n, beta)[1])
    return QuadratureEstimate(value=float(np.mean(vals)), nodes=vals.size)


def farey_fractions(q_max: int) -> list[Fraction]:
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


def gallagher_check(ctx: BaseContext, n: int, beta: float, q_max: int) -> GallagherReport:
    """Numeric check of the well-spaced-points inequality.

    Sums |S_n| over the Farey fractions of order q_max (pairwise spacing at
    least delta = 1/q_max^2) and compares with
    delta^{-1} * ||S_n||_1 + (1/2) * ||dS_n/dy||_1 over one full period.
    """
    if q_max < 1:
        raise PreconditionError("need q_max >= 1")
    if q_max * q_max > 10**4:
        raise CostGuardError("Farey order guard: need Q^2 <= 10^4")
    # one node pass feeds both norms, as in one_norm and derivative_one_norm;
    # it goes first, so its guard refuses before any other work
    s_nodes, ds_nodes = _norm_nodes(ctx, n, beta)
    nrm = float(np.mean(np.abs(s_nodes)))
    dnrm = float(np.mean(np.abs(ds_nodes)))
    del s_nodes, ds_nodes
    pts = farey_fractions(q_max)
    ys = np.array([float(p) for p in pts])
    s_n, _ = exp_sum_recurrent(ctx, n, ExpSumParams.make(ys, beta))
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
