"""Certified suprema of Dirichlet-kernel ratios and the distribution exponent.

For g(y) = sin(pi a_j y)/sin(pi y) and the partition of [0, 1) into the a = a_1
intervals (b/a, (b+1)/a), the quantities

    m(j, b) = sup over (b/a, (b+1)/a) of |g|,
    m(j)    = (1/a) * sum_{b=0}^{a-1} m(j, b),
    m_G     = max over j with a_j != 0 of m(j)

control the 1-norm of S_n(., beta): the averaged interval suprema propagate
through the coefficient recurrence one step at a time. A shifted refinement
m^(r) also uses the intervals ((b+t)/a, (b+t+1)/a) for t in {0, 1/r, ...,
(r-1)/r}, which lets a window be covered by one interval fewer, gaining one
unit in the resulting base; `m_shifted` gives the covering argument and the
shifts it has to take.

All suprema here are certified from above. sup |g| is located: |g| is
log-concave on every lobe between two zeros, so each lobe's maximizer is
bracketed by bisection on the sign of (log|g|)', and the bound is the
largest value at the brackets and the interval ends plus a Lipschitz term
for the bracket width and a rounding allowance (`dirichlet_sup`). sup |g'|
is a uniform grid maximum plus a gap term from a per-interval |g''| bound
(`interval_sup_deriv`). Intervals whose closure meets an integer
short-circuit to the exact supremum a_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import BaseContext, PreconditionError

DERIV_SUP_SLACK = 0.005
THETA_FLOOR_EXPONENT = 0.5  # Parseval route always gives this
SHIFT_EPS_SLACK = 1e-6
# distance to the nearest integer below which a point counts as the
# removable singularity of the kernel ratio (or of its derivative)
KERNEL_INTEGER_TOL = 1e-12
DERIV_INTEGER_TOL = 1e-9


def reduced_argument(x: np.ndarray) -> np.ndarray:
    """f' = min(f, 1 - f), f = x - floor(x): the distance from x to the nearest
    integer. As |x - rint(x)| it is exact for every finite x (Sterbenz, since
    |n|/2 <= |x| <= 2|n| for n = rint(x) != 0), where x - floor(x) rounds
    1 + x for x in (-1/2, 0). |g| and |g'| are even and 1-periodic, so the
    kernels take them at f' in [0, 1/2], where sin(pi f'), cos(pi f') >= 0."""
    x = np.asarray(x, dtype=float)
    f = np.rint(x, out=np.empty_like(x))
    np.subtract(x, f, out=f)
    return np.abs(f, out=f)


def dirichlet_kernel_abs(x: np.ndarray, a: int) -> np.ndarray:
    """|g(x)| = |sin(pi a x)/sin(pi x)| at f' = `reduced_argument`(x), and a
    where f' < KERNEL_INTEGER_TOL (the removable singularities).

    Within 23.2 a u of |g(x)| (u = 2^-53, a <= 8000): pi f' and pi a f' are
    rounded within 1.4 u and 2.5 u relative and sin within 4 ulp, so
    sin(pi f') >= 2 f' is within 10.2 u relative, |sin(pi a f')| within
    2.5 u pi a f' + 8 u |sin(pi a f')|, and the quotient within
    19.2 u |g| + 3.93 a u. The substituted a is within (pi^2/6) a^3 f'^2 < a u.
    """
    f = reduced_argument(x)
    near = f < KERNEL_INTEGER_TOL
    num = np.multiply(f, np.pi * a, out=np.empty_like(f))
    np.sin(num, out=num)
    np.abs(num, out=num)
    np.multiply(f, np.pi, out=f)
    np.sin(f, out=f)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(num, f, out=num)
    num[near] = a
    return num


def kernel_derivative_cap(a: int) -> float:
    """Global bound pi a (a-1) on |g'|, from the exponential-series expansion."""
    return math.pi * a * (a - 1)


def dirichlet_kernel_deriv_abs(x: np.ndarray, a: int) -> np.ndarray:
    """|g'(x)| = pi |a C s - c S| / s^2, with s, c = sin, cos(pi f') and
    S, C = sin, cos(pi a f') at f' = `reduced_argument`(x), capped at pi a (a-1).

    g' vanishes at the integers: where f' < DERIV_INTEGER_TOL the result 0 is
    within (pi^2/3) a^3 f' of |g'|. Elsewhere it is within 72 a u/f' + 88 a^2 u:
    rounded as in `dirichlet_kernel_abs`, the numerator is within
    (45.4 + 2.5 pi a f') u a s (by |S| <= a s and pi f' <= pi s/2), which
    pi/s^2 with s >= 2 f' turns into 71.3 a u/f' + 12.4 a^2 u; pi, s^2 and the
    last two roundings add 24 u |g'| <= 75.4 a^2 u.
    """
    f = reduced_argument(x)
    near = f < DERIV_INTEGER_TOL
    # c, s = cos, sin(pi f') and f, sa = cos, sin(pi a f'): four buffers
    c = np.multiply(f, np.pi, out=np.empty_like(f))
    s = np.sin(c, out=np.empty_like(c))
    np.cos(c, out=c)
    np.multiply(f, np.pi * a, out=f)
    sa = np.sin(f, out=np.empty_like(f))
    np.cos(f, out=f)
    np.multiply(f, a, out=f)
    np.multiply(f, s, out=f)
    np.multiply(c, sa, out=c)
    np.subtract(f, c, out=f)
    np.multiply(f, np.pi, out=f)
    np.abs(f, out=f)
    np.multiply(s, s, out=s)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(f, s, out=f)
    f[near] = 0.0
    return np.minimum(f, kernel_derivative_cap(a), out=f)


def kernel_second_derivative_cap(a: int) -> float:
    """Bound (2 pi)^2 a (a^2 - 1) / 12 on |g''| (centered-series coefficients)."""
    return (2.0 * math.pi) ** 2 * a * (a * a - 1) / 12.0


def _contains_integer(lo: float, hi: float) -> bool:
    return math.floor(hi) >= math.ceil(lo)


_U = 2.0**-53  # unit roundoff of float64


def _min_abs_sin(lo: float, hi: float) -> float:
    """A lower bound for m = min |sin pi y| over [lo, hi]; 0 if it holds an integer.

    |sin pi y| is concave between integers, so on an integer-free interval
    its minimum sits at an endpoint. At the exact `reduced_argument` f' of
    each, sin(pi f') is within a few units in the last place; the factor
    1 - 2^-48 covers them.
    """
    if _contains_integer(lo, hi):
        return 0.0
    fs = reduced_argument([lo, hi]).tolist()
    return min(math.sin(math.pi * f) for f in fs) * (1.0 - 2.0**-48)


def _local_lipschitz(a: int, lo: float, hi: float) -> float:
    """Per-interval bound on |g'|: pi (a + min(a, 1/m)) / m with m = min |sin pi y|.

    Falls back to the global cap when that is smaller, or when the interval
    holds an integer.
    """
    m = _min_abs_sin(lo, hi)
    cap = kernel_derivative_cap(a)
    if m <= 0.0:
        return cap
    return min(cap, math.pi * (a + min(a, 1.0 / m)) / m)


def _local_second_derivative_bound(a: int, lo: float, hi: float) -> float:
    """Per-interval bound on |g''|, with m = min |sin pi y| over [lo, hi]:

        pi^2 ((a^2 - 1) min(a, 1/m) + 2a/m^2 + 2/m^3).

    With N = sin(pi a y) and D = sin(pi y), N'' = -(pi a)^2 N and
    D'' = -pi^2 D turn g'' = (N/D)'' into

        g'' = -pi^2 (a^2 - 1) g - 2 N' D' / D^2 + 2 N D'^2 / D^3,

    and |g| <= min(a, 1/m), |N| <= 1, |N'| <= pi a, |D'| <= pi, |D| >= m
    bound the three terms. Falls back to the global cap when that is
    smaller, or when the interval holds an integer: the cap is |g''| at the
    integers, so it is exact there.
    """
    m = _min_abs_sin(lo, hi)
    cap = kernel_second_derivative_cap(a)
    if m <= 0.0:
        return cap
    local = (a * a - 1) * min(a, 1.0 / m) + 2.0 * a / m**2 + 2.0 / m**3
    return min(cap, math.pi**2 * local)


_GRID_POINT_CAP = 6 * 10**6


def _lobe_peak(a: int, lo: float, hi: float) -> tuple[float, float]:
    """Bracket [l, r] of float width for the maximizer of |g| over [lo, hi],
    an interval inside one lobe (k/a, (k+1)/a) of g.

    (log|g|)' = pi phi with phi = a cot(pi a y) - cot(pi y), and
    (log|g|)'' = pi^2 (1/sin^2(pi y) - a^2/sin^2(pi a y)) <= 0 because
    |sin(a t)| <= a |sin t|: |g| is log-concave on every lobe, so it rises
    while phi > 0 and falls after. On a side lobe sin(pi y) >= sin(pi/a) >=
    2/a gives (log|g|)'' <= -(3/4)(pi a)^2; on a main lobe phi keeps one
    sign and the bracket closes on an end.
    """
    l, r = lo, hi
    while True:
        mid = 0.5 * (l + r)
        if not l < mid < r:
            return l, r
        if a / math.tan(math.pi * a * mid) > 1.0 / math.tan(math.pi * mid):
            l = mid
        else:
            r = mid


def dirichlet_sup(a_j: int, lo: float, hi: float) -> float:
    """Certified upper bound for sup over (lo, hi) of |sin(pi a_j y)/sin(pi y)|.

    The zeros k/a_j inside (lo, hi) cut it into pieces, each inside one lobe,
    where |g| is unimodal (`_lobe_peak`). The bound is the largest |g| over
    the piece ends and the bracket ends of each piece's maximizer, all
    evaluated in one `dirichlet_kernel_abs` call, plus

    - (w/2 + delta) L per bracket of width w, with L = `_local_lipschitz` on
      it: |g| is L-Lipschitz there, so a maximizer within delta of the
      bracket exceeds the larger end value by at most (w/2 + delta) L. A
      computed sign of phi is wrong only where |phi| is below its rounding
      error, at most 9.5 a^2 u (1 + |y|) beside a side-lobe maximizer
      (u = 2^-53, tan within 4 ulp, |sin(pi a y)| >= 0.97 there), and
      |phi'| >= (3/4) pi a^2, so delta = 8 u (1 + |y|) covers it. A main
      lobe, or a piece peaking at an end, peaks at lo or hi.
    - 32 a_j u for rounding: each kernel value is within 23.2 a_j u of |g|
      (`dirichlet_kernel_abs`), and the rest covers the two sums. A float
      cut point sits within u |y| of its zero, so it can move a piece end
      into the next lobe only where |g| is near 0.

    The result never exceeds a_j. Intervals touching an integer return a_j
    exactly, since the supremum there is attained in the limit, and a_j = 1
    gives |g| = 1.
    """
    if not hi > lo:
        raise PreconditionError("degenerate interval")
    if a_j < 1:
        raise PreconditionError("a_j must be a positive integer")
    if a_j == 1 or _contains_integer(lo, hi):
        return float(a_j)
    cuts = [k / a_j for k in range(math.floor(lo * a_j), math.ceil(hi * a_j) + 1)]
    ends = [lo, *(c for c in cuts if lo < c < hi), hi]
    points = [lo, hi]
    gap = 0.0
    for p, q in zip(ends, ends[1:]):
        l, r = _lobe_peak(a_j, p, q)
        points += [l, r]
        delta = 8.0 * _U * (1.0 + max(abs(l), abs(r)))
        gap = max(gap, (0.5 * (r - l) + delta) * _local_lipschitz(a_j, l, r))
    peak = float(np.max(dirichlet_kernel_abs(points, a_j)))
    return min(peak + gap + 32.0 * a_j * _U, float(a_j))


def interval_sup_deriv(a: int, lo: float, hi: float) -> float:
    """Certified upper bound for sup over (lo, hi) of |g'|, g the kernel ratio.

    The max of |g'| on a grid of ceil((hi - lo) lip2 / (2 DERIV_SUP_SLACK)) + 2
    points of [lo, hi] plus (step/2) lip2 <= DERIV_SUP_SLACK (unless
    _GRID_POINT_CAP binds), lip2 the |g''| bound of
    `_local_second_derivative_bound`. On intervals that hold an integer lip2
    is the global cap, and g' extends continuously through the removable
    singularity with value 0.
    """
    lip2 = _local_second_derivative_bound(a, lo, hi)
    npts = min(int(math.ceil((hi - lo) * lip2 / (2.0 * DERIV_SUP_SLACK))) + 2, _GRID_POINT_CAP)
    step = (hi - lo) / (npts - 1)
    grid_max = float(np.max(dirichlet_kernel_deriv_abs(np.linspace(lo, hi, npts), a)))
    return min(grid_max + 0.5 * step * lip2, kernel_derivative_cap(a))


def _sup_table(a: int, a_j: int, shift: float) -> list[float]:
    """dirichlet_sup(a_j, .) over the a intervals ((b + shift)/a, (b + shift + 1)/a)."""
    return [dirichlet_sup(a_j, (b + shift) / a, (b + shift + 1) / a) for b in range(a)]


def _distinct_coeffs(ctx: BaseContext) -> list[int]:
    """The distinct a_j over the index set: m(j, b) depends on j only through
    a_j, so each needs one table per shift."""
    return sorted({ctx.coeffs[j - 1] for j in ctx.index_set})


def m_value(ctx: BaseContext) -> float:
    """The base quantity m_G = max over the index set of the averaged suprema."""
    a = ctx.coeffs[0]
    return max(sum(_sup_table(a, a_j, 0.0)) / a for a_j in _distinct_coeffs(ctx))


def m_closed_form(a1: int) -> float:
    """Closed-form bound 2 + 2/(a sin(pi/a)) - (2/pi) log tan(pi/(2a)), a >= 3."""
    if a1 < 3:
        raise PreconditionError("closed-form bound requires a_1 >= 3")
    a = float(a1)
    return (
        2.0
        + 2.0 / (a * math.sin(math.pi / a))
        - (2.0 / math.pi) * math.log(math.tan(math.pi / (2.0 * a)))
    )


def shift_modulus_limit(ctx: BaseContext) -> float:
    """u = floor(alpha) + 1 - alpha - eps: the eventual gap of G_n/G_{n-1} below
    the next integer. A shift modulus r is usable when 1/r < u."""
    return math.floor(ctx.alpha) + 1.0 - ctx.alpha - SHIFT_EPS_SLACK


def m_shifted(ctx: BaseContext, r: int) -> float:
    """m^(r): the shifted average the covering argument below needs.

    Write P_t for the partition of R/Z into the a = a_1 intervals
    I^t_b = ((b+t)/a, (b+t+1)/a), and m_j(t) for its averaged suprema
    (the mean of _sup_table(a, a_j, t)). P_0 is cut at the zeros b/a of the
    kernel for a_j = a, and at the integers, where the main lobe peaks at a_j.
    A step of the recurrence bounds the kernel term j over a window
    J = [c, c + L/a) of R/Z with L <= alpha + eps (the eventual ratio
    G_n/G_{n-1}) by the suprema of a run of consecutive intervals covering J.
    The two routes differ only in this window sum; the unit both add after it
    is not touched here.

    - Route m + 3: J meets at most floor(alpha) + 2 = a + 2 consecutive
      intervals of P_0. a of them make one period (sum a m_j(0)); each of
      the other two has supremum at most a_j <= a. So the sum is at most
      a (m_j(0) + 2); a window from just below one integer to just above
      the next reaches it.
    - Route m^(r) + 2: if P_t has a cut point p = (k+t)/a with
      c - u/a <= p <= c (u from `shift_modulus_limit`), the a + 1 intervals
      of P_t from p on cover J, since p + (a+1)/a >= c + (a+1-u)/a
      = c + L/a. Their sum is a m_j(t) + sup I^t_k <= a (m_j(t) + 1).
    - Which shifts qualify depends on where J starts: with phi = frac(a c),
      t qualifies unless it lies in the open arc (phi, phi + 1 - u) of R/Z.
      A run of K consecutive shifts fits in that arc when (K-1)/r < 1 - u,
      so it holds at most K = floor((1-u) r) + 1 of them (one too many when
      (1-u) r is an integer, which only makes the bound larger). 1/r < u
      keeps K < r, so some shift always qualifies, and as phi varies the
      arc holds every run of K. The route therefore needs

          m^(r) = max_j  max over runs R of K shifts  min_{t not in R} m_j(t),

      with the shift chosen per window and per term j.
    - When u < 2/r, K = r - 1: one shift is left, every shift is forced at
      some window, and m^(r) is the worst shift. That is always so for
      r = 2 (u < 1). Its half shift cuts the main lobe at 1/(2a) from its
      peak, where |g| is still about 2a/pi, so m^(2) exceeds m by about
      0.24 for a = 40..59. The half shift is forced for the windows from
      just below one integer to just above the next; P_{1/2} covers them
      with a + 1 intervals, two of which contain an integer, summing to
      a m_j(1/2) + a.
    - When u >= 2/r, K < r - 1 and the shifts the worst run leaves include
      some near 0. A small shift t puts the integer inside one interval, so
      only that one reaches a_j; the next starts at t/a, where |g| is below
      a_j (about 0.975 a at t = 1/8), and the side-lobe peaks stay inside
      their intervals. Such shifts average below m: for the bases (a, 1),
      a = 39..59, m^(4) is about m - 0.017.
    """
    if r < 1:
        raise PreconditionError("shift modulus r must be >= 1")
    u = shift_modulus_limit(ctx)
    if 1.0 / r >= u:
        raise PreconditionError(
            f"shift modulus r={r} violates 1/r < u (u = {u:.6g} for this base)"
        )
    run = math.floor((1.0 - u) * r) + 1  # K: shifts one window can rule out
    a = ctx.coeffs[0]
    worst = 0.0
    for a_j in _distinct_coeffs(ctx):
        avgs = [sum(_sup_table(a, a_j, t / r)) / a for t in range(r)]
        for i in range(r):
            kept = [avgs[(i + run + s) % r] for s in range(r - run)]
            worst = max(worst, min(kept))
    return worst


@dataclass
class MBoundReport:
    coeffs: tuple[int, ...]
    m_jb: dict[int, list[float]]
    m_j: dict[int, float]
    m: float
    closed_form: float | None
    shift_r: int | None
    m_shifted: float | None
    theta: float


@dataclass
class ThetaReport:
    theta: float
    eta: float
    winner: str
    candidates: dict[str, float] = field(default_factory=dict)


def _theta_report(
    ctx: BaseContext, m: float, m_r: float | None, block_kappa: float | None = None
) -> ThetaReport:
    """theta = 1 - eta, eta the best decay exponent from the computed m
    (and m^(r), when given)."""
    log_alpha = math.log(ctx.alpha)
    candidates = {
        "parseval": THETA_FLOOR_EXPONENT,
        "interval-sup": math.log(m + 3.0) / log_alpha,
    }
    if m_r is not None:
        candidates["shifted-sup"] = math.log(m_r + 2.0) / log_alpha
    if block_kappa is not None:
        candidates["block"] = block_kappa / 2 - 1.0
    winner = min(candidates, key=candidates.get)
    eta = candidates[winner]
    return ThetaReport(theta=1.0 - eta, eta=eta, winner=winner, candidates=candidates)


def theta_lower_bound(
    ctx: BaseContext, shift_r: int | None = None, block_kappa: float | None = None
) -> ThetaReport:
    """Lower bound for the level-of-distribution exponent theta = 1 - eta.

    eta is the best available decay exponent for the 1-norm of S_n:
    1/2 from Parseval, log_alpha(m_G + 3) from the interval suprema,
    log_alpha(m^(r) + 2) from the shifted refinement (`m_shifted` with
    r = shift_r, best covering shift per window), and kappa/2 - 1 from a
    width-2 block certificate with exponent kappa.
    """
    # The k = 0 term is the only one with a nonzero integral over y, so
    # int_0^1 S_n(y, beta) dy = 1 and ||S_n||_1 >= 1 for every n: no decay
    # exponent is negative, eta = kappa/2 - 1 >= 0, and a kappa below 2 (or
    # not a number) cannot come from a block certificate.
    if block_kappa is not None and not (math.isfinite(block_kappa) and block_kappa >= 2.0):
        raise PreconditionError(f"block kappa must be finite and >= 2, got {block_kappa}")
    m_r = m_shifted(ctx, shift_r) if shift_r is not None else None
    return _theta_report(ctx, m_value(ctx), m_r, block_kappa)


def compute_mbound_report(ctx: BaseContext, shift_r: int | None = None) -> MBoundReport:
    a1 = ctx.coeffs[0]
    tables = {a_j: _sup_table(a1, a_j, 0.0) for a_j in _distinct_coeffs(ctx)}
    m_jb = {j: tables[ctx.coeffs[j - 1]] for j in ctx.index_set}
    m_j = {j: sum(v) / a1 for j, v in m_jb.items()}
    m = max(m_j.values())
    shifted = m_shifted(ctx, shift_r) if shift_r is not None else None
    return MBoundReport(
        coeffs=ctx.coeffs,
        m_jb=m_jb,
        m_j=m_j,
        m=m,
        closed_form=m_closed_form(a1) if a1 >= 3 else None,
        shift_r=shift_r,
        m_shifted=shifted,
        theta=_theta_report(ctx, m, shifted).theta,
    )
