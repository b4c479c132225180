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

All suprema here are certified from above by one lobe argument: |g| is
log-concave on every lobe between two zeros, so over an interval it peaks
at an end unless a lobe's maximizer lies inside. `lobe_table` brackets each
side lobe's maximizer once, by bisection on the sign of (log|g|)', and
certifies the lobe's supremum from the bracket values, a Lipschitz term from
the closed-form sup |g'| over the residue interval (`interval_sup_deriv`)
and a rounding allowance. `interval_sup_abs` bounds |g| over whole arrays of
intervals from their end values and the sups of the lobes whose brackets
they meet; `dirichlet_sup` and `sup_table` give it intervals by their ends.
Intervals whose closure meets an integer get the exact supremum a_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import BaseContext, PreconditionError

THETA_FLOOR_EXPONENT = 0.5  # Parseval route always gives this
SHIFT_EPS_SLACK = 1e-6
# distance to the nearest integer below which a point counts as the
# removable singularity of the kernel ratio
KERNEL_INTEGER_TOL = 1e-12
# max over [0, pi] of the spherical Bessel function
# j1(phi) = (sin phi - phi cos phi)/phi^2, at phi = 2.08157597781810..., rounded up
J1_MAX = 0.43618181727145855


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


_U = 2.0**-53  # unit roundoff of float64


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


def interval_sup_deriv(a: int, c: int) -> float:
    """Certified upper bound for sup |g'| over the closed residue interval
    [c/a, (c+1)/a], 0 <= c < a: with c' = min(c, a-1-c), the value

        pi a / sin(pi c'/a)                             for c' >= 1 (exact),
        pi (a^2 - 1) J1_MAX / (1 - pi^2/(6 a^2))^2       for c' = 0,

    times 1 + 2^-48 for rounding.

    Proof. |g'(1 - x)| = |g'(x)| carries residue c onto a-1-c, so c' may
    replace c; for odd a the middle interval c' = (a-1)/2 is symmetric about
    1/2 and only [c'/a, 1/2] is needed. Put x = c'/a + t/pi, t in [0, pi/a]
    (t <= pi/(2a) on that middle half), s0, c0 = sin, cos(pi c'/a) and
    s = sin(pi x) >= s0 (pi x stays in [0, pi/2]). Then s^2 |g'(x)| / pi = |N|,

        N = s0 k(t) + c0 h(t),
        k = a cos(at) cos t + sin(at) sin t,  h = a cos(at) sin t - sin(at) cos t,

    and k' = -(a^2-1) sin(at) cos t <= 0, h' = -(a^2-1) sin(at) sin t <= 0,
    with k(0) = a, h(0) = 0, k(pi/a) = -a cos(pi/a), h(pi/a) = -a sin(pi/a).

    - c' >= 1, where k >= 0 (every t <= pi/(2a), so all of the middle half):
      0 <= s0 k <= a s0 and 0 <= -c0 h <= a c0 sin(pi/a) <= a s0, since
      tan(pi c'/a) >= sin(pi/a). So |N| <= a s0 and |g'| <= pi a/s0.
    - c' >= 1, where k < 0: both terms of N are negative and grow in size,
      so |N| <= a (s0 cos(pi/a) + c0 sin(pi/a)) = a s1, s1 = sin(pi(c'+1)/a).
      There at > pi/2, so pi x is past the midpoint of
      [pi c'/a, pi(c'+1)/a], where s^2 >= s0 s1 since log sin is concave.
      So |g'| <= pi a s1/(s0 s1) = pi a/s0 again, and |g'(c'/a)| attains it
      (sin(pi a x) = 0 there).
    - c' = 0: s0 = 0 and c0 = 1, so with phi = a t and sin u <= u,
      |N| = |h(t)| = (a^2-1) int_0^t sin(au) sin u du
      <= (a^2-1)(sin phi - phi cos phi)/a^2 = (a^2-1) t^2 j1(phi), and
      s = sin t >= t (1 - t^2/6) >= t (1 - pi^2/(6 a^2)) > 0 for a >= 2.
      j1 <= J1_MAX on [0, pi] gives the bound (0 for a = 1, where g = 1).

    Rounding (u = 2^-53): math.pi is within 0.4 u of pi, every other
    operation rounds within u, and math.sin is taken within 4 ulp (8 u
    relative); an argument within 2.4 u relative moves sin on [0, pi/2] by
    at most as much (theta cot theta <= 1). So the c' >= 1 value is within
    13.4 u of pi a/s0, and the c' = 0 value within 12 u of its formula
    (J1_MAX rounded up). The factor 1 + 32 u, rounded once, covers both.
    """
    if not 0 <= c < a:
        raise PreconditionError(f"residue c={c} outside 0..{a - 1}")
    c = min(c, a - 1 - c)
    if c:
        value = math.pi * a / math.sin(math.pi * c / a)
    else:
        lead = 1.0 - math.pi * math.pi / (6 * a * a)
        value = math.pi * (a * a - 1) * J1_MAX / (lead * lead)
    return value * (1.0 + 2.0**-48)


@dataclass(frozen=True)
class LobeTable:
    """|g| for a_j = a, lobe by lobe. sup[c] bounds |g| on the lobe
    (c/a, (c+1)/a) from above; over the side lobes c = 1..a-2 it is
    valley-shaped, falling to its least entry and rising after. The side
    lobes peak inside: [left[c-1], right[c-1]] holds the maximizer, the
    bracket of `_side_lobes` widened and rounded outward, so the brackets
    are disjoint and ascending. The main-lobe halves c = 0 and a-1 peak at
    the integers, where sup[c] = a."""

    sup: np.ndarray
    left: np.ndarray
    right: np.ndarray


def _side_lobes(a: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sup, left, right) of the side lobes c = 1..a-2, each bisected once by
    `_lobe_peak` to [l, r], w = r - l, delta = 8 u (1 + r):

        sup[c] = min(a, max(g_l, g_r) + (w/2 + delta) L_c + 32 a u),

    g_l, g_r the float kernel at l, r and L_c = `interval_sup_deriv`(a, c).
    left and right are the brackets widened by delta and rounded outward.

    Proof. A computed sign of phi is wrong only where |phi| is below its
    rounding error, at most 9.5 a^2 u (1 + |y|) beside a side-lobe maximizer
    (u = 2^-53, tan within 4 ulp, |sin(pi a y)| >= 0.97 there), and
    |phi'| >= (3/4) pi a^2, so the maximizer x* lies in [l - delta,
    r + delta], within w/2 + delta of the nearer bracket end e. phi(x*) = 0
    needs |cot(pi a x*)| <= 1/(pi a min(x*, 1 - x*)) <= 1/pi, so x* is at
    least 0.4/a from both zeros of its lobe, far beyond delta < 16 u: the
    segment from e to x* lies in [c/a, (c+1)/a], where |g'| <= L_c. So
    sup |g| = |g(x*)| <= |g(e)| + (w/2 + delta) L_c, and |g(e)| is within
    23.2 a u of g_e (`dirichlet_kernel_abs`); 32 a u covers that and the
    two sums.
    """
    brackets = np.array([_lobe_peak(a, c / a, (c + 1) / a) for c in range(1, a - 1)]).reshape(-1, 2)
    l, r = brackets.T
    slack = 8.0 * _U * (1.0 + r)  # delta
    lip = np.array([interval_sup_deriv(a, c) for c in range(1, a - 1)])
    sup = np.max(dirichlet_kernel_abs(brackets, a), axis=1)
    sup = np.minimum(sup + (0.5 * (r - l) + slack) * lip + 32.0 * a * _U, a)
    return sup, np.nextafter(l - slack, -np.inf), np.nextafter(r + slack, np.inf)


def lobe_table(a: int) -> LobeTable:
    """The `LobeTable` of a >= 1: the main-lobe halves get a, the side lobes
    `_side_lobes`' sups replaced by their valley hull, a running max from
    the least entry k toward each end (from k down to c for c < k, from k up
    to c for c > k). Entries only rise, so each stays an upper bound, and
    the max over a run of consecutive side lobes is at one end of the run.
    The certified sups are valley-shaped already (for x in lobe
    c <= (a-3)/2, x < (a-1)/(2a) gives sin(pi (x + 1/a)) >= sin(pi x), so
    |g(x + 1/a)| <= |g(x)|, and mirrored past 1/2); the hull guards the
    allowances.
    """
    side, left, right = _side_lobes(a)
    sup = np.full(a, float(a))
    if side.size:
        k = int(np.argmin(side))
        sup[1 : k + 2] = np.maximum.accumulate(side[k::-1])[::-1]
        sup[k + 1 : a - 1] = np.maximum.accumulate(side[k:])
    return LobeTable(sup, left, right)


def interval_sup_abs(
    lo: np.ndarray, hi: np.ndarray, g_lo: np.ndarray, g_hi: np.ndarray, lobes: LobeTable
) -> np.ndarray:
    """Upper bound for `dirichlet_kernel_abs`(x, a) at every float x in
    [lo, hi], and for |g| on [lo, hi], elementwise over arrays of interval
    ends 0 <= lo <= hi, given the kernel's values g_lo and g_hi at the
    ends; a = len(lobes.sup).

    Let v be the larger end value. If [lo, hi] holds an integer, v = a.
    Otherwise reduce by n = floor(lo) to [t_lo, t_hi] in (0, 1): if that
    meets the maximizer brackets of the side lobes first..last,
    v = max(v, sup[first], sup[last]). The result is fl(v + 48 a u).

    Proof. A kernel value at x is at most |g(x)| + 23.2 a u
    (`dirichlet_kernel_abs`), so it suffices that S = sup |g| over [lo, hi]
    is at most v + 23.2 a u.

    - An integer in [lo, hi]: S <= a, since |g| <= a everywhere.
    - Otherwise n < lo <= hi < n + 1. t = x - n is exact (Sterbenz for
      n >= 1), and |g| is 1-periodic, so S is the sup over [t_lo, t_hi].
      The zeros k/a cut that into pieces, one per lobe. |g| is log-concave
      on each lobe (`_lobe_peak`), so on a piece it is largest at an end,
      where it is |g| at lo or hi, or 0 at a zero, unless the lobe's
      maximizer lies in the piece; then it is at most sup[c]. The main-lobe
      halves peak at the integers, outside [lo, hi]. A side-lobe maximizer
      lies in its bracket, so if it lies in [t_lo, t_hi] the two meet. The
      brackets are disjoint and ascending, so those that meet [t_lo, t_hi]
      run from `first`, the first with right >= t_lo, to `last`, the last
      with left <= t_hi (one `searchsorted` each); none meets when
      last < first. sup is valley-shaped over the side lobes (`lobe_table`),
      so its max over the run is max(sup[first], sup[last]). So S is at
      most the larger end value of |g|, or that max when the run is not
      empty.
    - The end values of |g| are within 23.2 a u of g_lo and g_hi, so
      S <= v + 23.2 a u in every case.

    Rounding of the last sum: v <= a + 23.2 a u, so fl(v + 48 a u) >=
    v + 48 a u - u (v + 48 a u) > v + 46.9 a u, above the v + 46.4 a u that
    the two kernel errors need.
    """
    a = len(lobes.sup)
    if np.any(lo < 0.0):
        raise PreconditionError("interval_sup_abs needs lo >= 0")
    n = np.floor(lo)
    wide = np.floor(hi) > n  # an integer in (lo, hi]
    t = np.subtract(lo, n)
    wide |= t == 0.0  # lo is an integer
    first = np.searchsorted(lobes.right, t)  # brackets entirely below t_lo
    t_hi = np.subtract(hi, n, out=n)
    last = np.searchsorted(lobes.left, t_hi, side="right")  # brackets with left <= t_hi
    last -= 1  # the last of them
    # sups of the first and the last bracket met; one past the last side lobe reads 0
    side = np.append(lobes.sup[1 : a - 1], 0.0)
    peak = np.take(side, first, out=t)
    np.maximum(peak, np.take(side, last, out=t_hi), out=peak)
    peak[last < first] = 0.0
    v = np.maximum(g_lo, g_hi)
    np.maximum(v, peak, out=v)
    v[wide] = a
    v += 48.0 * a * _U
    return v


def dirichlet_sup(a_j: int, lo: float | np.ndarray, hi: float | np.ndarray) -> float | np.ndarray:
    """Certified upper bound for sup over (lo, hi) of |sin(pi a_j y)/sin(pi y)|,
    elementwise over arrays of interval ends; a float for scalar ends.

    |g| is even, so an interval with hi <= 0 is taken as (-hi, -lo); one
    left below 0 then holds the integer 0, and its lower end is raised to 0.
    The kernel at the ends and `lobe_table`(a_j) give `interval_sup_abs`,
    capped at a_j >= sup |g|: intervals that hold an integer get a_j
    exactly, the supremum there being attained in the limit, and so does
    every interval for a_j = 1, where |g| = 1.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if not np.all(hi > lo):
        raise PreconditionError("degenerate interval")
    if a_j < 1:
        raise PreconditionError("a_j must be a positive integer")
    flip = hi <= 0.0
    lo, hi = np.where(flip, -hi, lo).ravel(), np.where(flip, -lo, hi).ravel()
    np.maximum(lo, 0.0, out=lo)
    g_lo, g_hi = dirichlet_kernel_abs(lo, a_j), dirichlet_kernel_abs(hi, a_j)
    v = interval_sup_abs(lo, hi, g_lo, g_hi, lobe_table(a_j))
    np.minimum(v, a_j, out=v)
    return float(v[0]) if flip.ndim == 0 else v.reshape(flip.shape)


def sup_table(a: int, a_j: int, shift: float) -> list[float]:
    """`dirichlet_sup`(a_j, .) over the a intervals ((b + shift)/a, (b + shift + 1)/a)."""
    b = np.arange(a) + shift
    return dirichlet_sup(a_j, b / a, (b + 1) / a).tolist()


def _distinct_coeffs(ctx: BaseContext) -> list[int]:
    """The distinct a_j over the index set: m(j, b) depends on j only through
    a_j, so each needs one table per shift."""
    return sorted({ctx.coeffs[j - 1] for j in ctx.index_set})


def m_value(ctx: BaseContext) -> float:
    """The base quantity m_G = max over the index set of the averaged suprema."""
    return _m_routes(ctx, None)[0]


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
    (the mean of sup_table(a, a_j, t)). P_0 is cut at the zeros b/a of the
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
    return _m_routes(ctx, r)[2]


def _m_routes(
    ctx: BaseContext, shift_r: int | None
) -> tuple[float, dict[int, list[float]], float | None]:
    """(m_G, the shift-0 sup table of each distinct a_j, m^(shift_r)), the last
    None without shift_r. m^(r) reads its shift-0 averages off the same
    tables, so each (a_j, shift) table is built once; `m_shifted` gives the
    covering argument."""
    r = 1
    if shift_r is not None:
        r = shift_r
        if r < 1:
            raise PreconditionError("shift modulus r must be >= 1")
        u = shift_modulus_limit(ctx)
        if 1.0 / r >= u:
            raise PreconditionError(
                f"shift modulus r={r} violates 1/r < u (u = {u:.6g} for this base)"
            )
        run = math.floor((1.0 - u) * r) + 1  # K: shifts one window can rule out
    a = ctx.coeffs[0]
    tables = {a_j: [sup_table(a, a_j, t / r) for t in range(r)] for a_j in _distinct_coeffs(ctx)}
    avgs = [[sum(row) / a for row in rows] for rows in tables.values()]
    m = max(v[0] for v in avgs)
    m_r = None
    if shift_r is not None:
        m_r = max(
            min(v[(i + run + s) % r] for s in range(r - run)) for v in avgs for i in range(r)
        )
    return m, {a_j: rows[0] for a_j, rows in tables.items()}, m_r


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
    m, _, m_r = _m_routes(ctx, shift_r)
    return _theta_report(ctx, m, m_r, block_kappa)


def compute_mbound_report(ctx: BaseContext, shift_r: int | None = None) -> MBoundReport:
    a1 = ctx.coeffs[0]
    m, tables, shifted = _m_routes(ctx, shift_r)
    m_jb = {j: tables[ctx.coeffs[j - 1]] for j in ctx.index_set}
    m_j = {j: sum(v) / a1 for j, v in m_jb.items()}
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
