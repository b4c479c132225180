"""Width-2 block certification for the quadratic family G_{n+2} = a G_{n+1} + G_n.

Grouping the order-2 coefficient recurrence into blocks of width w gives

    S_n = A^(w)_{n,w} S_{n-w} + A^(w)_{n,w+1} S_{n-w-1},

with the block coefficients defined by A^(1)_{n,j} = A_{n,j} and

    A^(l)_{n,l}   = A^(l-1)_{n,l-1} A_{n-l+1,1} + A^(l-1)_{n,l},
    A^(l)_{n,l+1} = A^(l-1)_{n,l-1} A_{n-l+1,2}.

For w = 2 the relevant supremum quantities reduce to expressions in the
kernel ratio g(x) = sin(pi a x)/sin(pi x):

    M_2(2) - delta' <= floor(alpha^2) + 1 + max_q [
          max_{gamma0} sum_b max_{y0} |h(y0, gamma0, q)|           (main term)
        + eps * alpha^{-1} * a * sum_b sup |g'(y + q/a)|
        + eps * alpha^{-1} * pi a(a-1) * sum_b sup |g(y + q/a)|
        + eta * pi a(a-1) * sum_b sup |g(y + q/a)| ],

with h(y, gamma, q) = g(y + q/a) g(alpha^{-1} y + gamma), q in {0..a-1},
gamma0 on the eta-grid of [0, 1 + eta/2), b in {0..floor(alpha^2)+1}, y0 on
the eps-lattice points of [b/a, (b+1)/a) (a disjoint cover, so every y in
the b-th interval is within eps of a grid point assigned to b), and
delta' = (floor(alpha^2)+2) delta. The interval suprema in the correction
lines are certified over the closed intervals [b/a, (b+1)/a]. The
correction lines account for the displacement of y from its nearest grid
point (the |g'| line carries the alpha^{-1} scale of the inner factor) and
of gamma from the eta-grid, making the grid maximum an upper bound for the
continuous supremum in practice; soundness is property-tested against
random in-interval evaluations.

    M_2(3) <= max_q sum_{b=0}^{floor(alpha^3)+1} sup_{(b/a,(b+1)/a)}
              |g(y + q/a)| + (floor(alpha^3) + 2) delta.

The lemma-grade target is M_2 := max(M_2(2), 1) + max(M_2(3), 1)^{2/3}
< alpha^kappa with kappa < 2.9772122 = 2 * 1.4886061, which yields the decay
exponent eta = kappa/2 - 1 for the 1-norm of S_n.

Interval suprema are shift-periodic with period a in b + q, so a row needs
one table of a per-residue suprema for |g| and one for |g'|. The |g|
table is `sup_table`, the one `m_value` reads: each residue interval is one
lobe of g, bounded by `interval_sup_abs` from the lobe sups of
`lobe_table`, whose maximizer brackets also serve the main term's bound
pass. `interval_sup_deriv` gives sup |g'| per residue in closed form.
M_2(3) sums the |g| table that M_2(2)'s correction lines used.

The main term lives on a shared y-grid with one column per interval b, so
the max over y0 is a column max, and the certificate reads it only at the
binding q. It is found by bound and prune (`_main_terms`), after the
correction sums. A bound pass over chunks of the gamma-grid, on the thread
pool, gives every pair (q, gamma0) the upper bound
sum_b max|g(y + q/a)| I(gamma0, b), inflated to cover rounding, where
I(gamma0, b) bounds the inner factor |g(alpha^{-1} y + gamma0)| over column
b from the kernel at the column's two edges (`bounds.interval_sup_abs`):
the computed arguments never decrease along a column, since rounding is
monotone, and |g| is log-concave on every lobe, so over the column it peaks
at an edge unless a lobe maximizer or an integer lies inside, where the
lobe's certified sup or a takes over. The top pair by that bound plus the
q's correction sum is evaluated exactly, and an exact pass on the pool then
evaluates every pair whose bound plus correction sum reaches that pair's
total. Only the pairs that can still bind are evaluated (36 of 36,279 on
row 29), and the binding q and its main term are bit for bit those of the
full grid, for any thread count.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .base import BaseContext, CostGuardError, PreconditionError, make_context
from .bounds import (
    _U,
    LobeTable,
    dirichlet_kernel_abs,
    interval_sup_abs,
    interval_sup_deriv,
    kernel_derivative_cap,
    lobe_table,
    sup_table,
)

KAPPA_TARGET = 2.9772122
_GRID_SNAP = 1e-9
# a * n_gamma * (y-grid points) above which a certificate is refused: 13 times
# the release row's 7.6e9 (a = 15 on its reference grid)
MAIN_NODE_GUARD = 10**11


@dataclass(frozen=True)
class GridParams:
    """Grid steps for the certification: eps on y, eta on gamma. delta, the
    supremum-approximation allowance baked into the M-quantities, is fixed."""

    eps: float
    eta: float
    delta: ClassVar[float] = 1e-10

    def __post_init__(self):
        if self.eps <= 0 or self.eta <= 0:
            raise PreconditionError("grid parameters must be positive")
        if self.eps > 0.01 or self.eta > 0.001:
            raise PreconditionError("grid too coarse: need eps <= 0.01, eta <= 0.001")


@dataclass
class BlockBoundReport:
    a: int
    grid: GridParams
    M2_2: float
    M2_3: float
    M2: float
    kappa: float
    ok: bool
    runtime_s: float
    main_nodes: int
    detail: M22Certificate  # the M_2(2) certificate behind M2_2


def quadratic_context(a: int) -> BaseContext:
    return make_context((a, 1))


def floor_alpha_sq(a: int, alpha: float) -> int:
    # alpha^2 = a*alpha + 1 exactly for this family; avoids squaring error
    return math.floor(a * alpha + 1.0)


def floor_alpha_cube(a: int, alpha: float) -> int:
    # alpha^3 = (a^2 + 1)*alpha + a
    return math.floor((a * a + 1) * alpha + a)


def polished_alpha_inv(a: int, alpha: float) -> float:
    """1/alpha after one Newton step on x^2 - a x - 1 at the certified root."""
    x = alpha - (alpha * alpha - a * alpha - 1.0) / (2.0 * alpha - a)
    return 1.0 / x


def _shifted_residue_sums(vals: np.ndarray, n_terms: int) -> np.ndarray:
    """For each q: sum_{b=0}^{n_terms-1} vals[(b + q) mod len(vals)]."""
    a = len(vals)
    full, rem = divmod(n_terms, a)
    base = full * float(np.sum(vals))
    if rem == 0:
        return np.full(a, base)
    csum = np.concatenate([[0.0], np.cumsum(np.concatenate([vals, vals]))])
    return base + (csum[rem : rem + a] - csum[:a])


def _pool_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], on a pool of `threads` workers when threads > 1."""
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _build_y_grid(a: int, b_max: int, eps: float) -> np.ndarray:
    """Main-term grid, one column per interval: column b holds the
    eps-lattice points of [b/a, (b+1)/a), b = 0..b_max, topped up to a
    common height by repeating its last point. The columns partition the
    lattice, every point of the b-th interval lies within eps of a point of
    column b, and a repeated point leaves the column maximum unchanged."""
    edges = np.array(
        [math.ceil(b / (a * eps) - _GRID_SNAP) for b in range(b_max + 2)],
        dtype=np.int64,
    )
    counts = np.diff(edges)
    if counts.min() < 1:
        raise PreconditionError(
            f"eps={eps} leaves an interval of width 1/a without a grid point"
        )
    ells = edges[:-1] + np.minimum(np.arange(counts.max())[:, None], counts - 1)
    return ells * eps


def _gamma_grid_size(eta: float) -> int:
    # the eta-lattice points of [0, 1 + eta/2), overshoot point included
    return math.floor((1.0 + eta / 2.0) / eta - _GRID_SNAP) + 1


# floats per chunk array (1 MB): a chunk's kernel values, products and
# temporaries stay in cache, so the pool's threads do not wait on memory
_CHUNK_FLOATS = 1 << 17


def _inner_bounds(ys_inner: np.ndarray, gammas: np.ndarray, lobes: LobeTable) -> np.ndarray:
    """I[gamma0, b] >= every inner kernel value of column b at gamma0,
    dirichlet_kernel_abs(x, a) at x = fl(ys_inner[y, b] + gamma0), where
    ys_inner = fl(alpha^-1 ys) on the column grid and a = len(lobes.sup).

    Rounding is monotone, so x never decreases along the lattice: column b's
    arguments lie in [x_b, x_{b+1}], with x_b at the column's first point and
    x_{b+1} at the next column's first point (the last point, for the last
    column), both computed as the column's own arguments are. The kernel is
    taken at these n_b + 1 edges only, and `interval_sup_abs` bounds every
    kernel value on [x_b, x_{b+1}] from the two edge values and the lobe
    table, by log-concavity of |g| on each lobe and a rounding allowance.
    """
    edges = np.append(ys_inner[0], ys_inner[-1, -1])
    xs = edges + gammas[:, None]
    ks = dirichlet_kernel_abs(xs, len(lobes.sup))
    return interval_sup_abs(xs[:, :-1], xs[:, 1:], ks[:, :-1], ks[:, 1:], lobes)


def _main_terms(
    a: int,
    alpha_inv: float,
    ys: np.ndarray,
    eta: float,
    n_gamma: int,
    corrs: np.ndarray,
    lobes: LobeTable,
    threads: int = 1,
) -> tuple[int, float, int]:
    """The binding shift of the certificate and its main term, by bound and
    prune: returns (q*, main, exact_pairs), where q* is the first argmax over
    q of fl(main[q] + corrs[q]) with main[q] = max_{gamma0} S(q, gamma0),
    S(q, gamma0) = sum_b max_{y0} |h(y0, gamma0, q)| on the column grid of
    `_build_y_grid`, and exact_pairs counts the (q, gamma0) pairs of the
    exact pass. `lobes` is the `lobe_table` of a.

    Bound pass. On the pool, over chunks of the gamma-grid, every pair gets
    U = sum_b O[q, b] I[gamma0, b], with O[q, b] = max_y |g(y + q/a)| and
    I[gamma0, b] from `_inner_bounds`, which reads the kernel at the
    n_b + 1 column edges only and bounds every inner kernel value i of
    column b: 0 <= i <= I[gamma0, b].

    U bounds S, whatever order either sum is taken in. S sums, over the B
    columns, c_b = max_y fl(o i) with 0 <= o <= O[q, b] and
    0 <= i <= I[gamma0, b]. Rounding is monotone, so c_b <= fl(p_b) <=
    (1 + u) p_b with p_b = O[q, b] I[gamma0, b] exact, and with
    gamma_k = k u / (1 - k u) the sum of the c_b comes out at most
    (1 + u)(1 + gamma_{B-1}) sum_b p_b. U takes at most B roundings of
    nonnegative partial sums, whether its products are rounded first or
    fused into the sum, so it is at least (1 - gamma_B) sum_b p_b. The ratio
    of the two factors is 1 + 2 B u to first order, below the
    1 + (4B - 1) u of fl(U (1 + 4 B u)) while B u << 1 (the y-grid needs
    a <= 100, so B < 2^14). Both sums are far above the subnormal
    range. np.einsum without `optimize` runs its own loops, not BLAS, so no
    BLAS threads compete with the pool.

    Exact pass. The score fl(U (1 + 4 B u) + corrs[q]) is at least
    fl(S + corrs[q]) by monotone rounding. The top-scoring pair is evaluated
    first; the final best total is at least its total, so every pair whose
    total can reach the final best, ties included, is among the pairs
    scoring at least the top pair's total. That fixed set, ordered by
    gamma0, is evaluated on the pool in batches of whole gamma0 groups, of
    at most chunk pairs or else one group, so the inner kernel is taken
    once per gamma0 of the set, and the per-q maxima are folded after the
    map. S is evaluated as the full grid evaluates it: a column max, then a
    row sum. So q* is the first argmax and main[q*] is exact: the result is
    bit for bit that of evaluating every pair, for any thread count, batch
    size and order of the pairs.
    """
    n_cols = ys.shape[1]

    def outer(qs: np.ndarray) -> np.ndarray:
        return dirichlet_kernel_abs(ys + (qs / a)[:, None, None], a)

    ys_inner = alpha_inv * ys
    chunk = max(1, _CHUNK_FLOATS // ys.size)  # pairs per exact batch, or one group
    # O[q, b] for chunk shifts q at a time, an exact batch's worth of kernel
    # values, so that no (a, rows, cols) tensor is held
    o_max = np.concatenate([
        np.max(outer(np.arange(q, min(q + chunk, a))), axis=1) for q in range(0, a, chunk)
    ])
    # gamma rows per bound chunk: its kernel and interval bound hold about
    # eight arrays of the chunk's n_b + 1 edges at once, as much as one
    # exact batch
    rows = max(1, _CHUNK_FLOATS // (8 * (n_cols + 1)))

    def inner(js: np.ndarray) -> np.ndarray:
        return dirichlet_kernel_abs(ys_inner + (js * eta)[:, None, None], a)

    def bound(lo: int) -> np.ndarray:
        gammas = np.arange(lo, min(lo + rows, n_gamma)) * eta
        return np.einsum("gb,qb->qg", _inner_bounds(ys_inner, gammas, lobes), o_max)

    def exact(pairs: np.ndarray) -> np.ndarray:
        """S of each pair, given by its flat index q * n_gamma + gamma0: the
        inner and outer kernels once per distinct gamma0 and q, gathered to
        the pairs."""
        qs, js = np.divmod(pairs, n_gamma)
        distinct, which = np.unique(js, return_inverse=True)
        prods = inner(distinct)[which]
        distinct, which = np.unique(qs, return_inverse=True)
        prods *= outer(distinct)[which]
        return np.sum(np.max(prods, axis=1), axis=1)

    scores = np.concatenate(_pool_map(bound, range(0, n_gamma, rows), threads), axis=1)
    scores *= 1.0 + 4.0 * n_cols * _U
    scores += corrs[:, None]
    flat = scores.ravel()
    top = int(np.argmax(flat))
    top_total = float(exact(np.array([top]))[0] + corrs[top // n_gamma])
    pairs = np.flatnonzero(flat >= top_total)
    # by gamma0, so that a batch shares its inner kernel rows across q, and
    # cut between gamma0 groups only, so that no row is evaluated twice: a
    # batch holds at most chunk pairs, or one group of at most a pairs
    pairs = pairs[np.argsort(pairs % n_gamma, kind="stable")]
    groups = [0, *(np.flatnonzero(np.diff(pairs % n_gamma)) + 1).tolist(), len(pairs)]
    cuts = [0]
    for lo, hi in zip(groups[:-1], groups[1:]):
        if hi - cuts[-1] > chunk and lo > cuts[-1]:
            cuts.append(lo)
    cuts.append(len(pairs))
    batches = [pairs[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    sums = np.full(a, -math.inf)  # per q, the largest S evaluated
    np.maximum.at(sums, pairs // n_gamma, np.concatenate(_pool_map(exact, batches, threads)))
    q_star = int(np.argmax(sums + corrs))
    return q_star, float(sums[q_star]), len(pairs)


@dataclass
class M22Certificate:
    main: float
    corr_gprime: float
    corr_g_alpha: float
    corr_g_eta: float
    additive: int
    delta_prime: float
    main_nodes: int
    exact_pairs: int  # (q, gamma0) pairs of the main term evaluated exactly
    q_star: int  # the binding shift q of the main term and correction lines
    sup_g: tuple[float, ...]  # per-residue sup|g| behind the correction lines

    @property
    def total(self) -> float:
        return (
            self.additive
            + self.main
            + self.corr_gprime
            + self.corr_g_alpha
            + self.corr_g_eta
            + self.delta_prime
        )


def certify_M2_2_detail(a: int, grid: GridParams, threads: int = 1) -> M22Certificate:
    if a < 2:
        raise PreconditionError("need a >= 2")
    if threads < 1:
        raise PreconditionError(f"need threads >= 1, got {threads}")
    ctx = quadratic_context(a)
    alpha = ctx.alpha
    alpha_inv = polished_alpha_inv(a, alpha)
    b_max = floor_alpha_sq(a, alpha) + 1
    n_terms = b_max + 1

    n_gamma = _gamma_grid_size(grid.eta)
    # a * n_gamma * (points of _build_y_grid, whose lattice starts at 0)
    main_nodes = a * n_gamma * math.ceil((b_max + 1) / (a * grid.eps) - _GRID_SNAP)
    if main_nodes > MAIN_NODE_GUARD:
        raise CostGuardError(
            f"{main_nodes} main-term nodes exceed the guard {MAIN_NODE_GUARD}"
        )
    # the max over q binds the main term and the correction sums jointly:
    # both sides of the sum depend on the same shift q
    lobes = lobe_table(a)
    sup_g = np.array(sup_table(a, a, 0.0))
    sup_gp = np.array([interval_sup_deriv(a, c) for c in range(a)])
    cap = kernel_derivative_cap(a)
    gp_sums = _shifted_residue_sums(sup_gp, n_terms)
    g_sums = _shifted_residue_sums(sup_g, n_terms)
    corrs = (
        grid.eps * alpha_inv * a * gp_sums
        + (grid.eps * alpha_inv + grid.eta) * cap * g_sums
    )
    ys = _build_y_grid(a, b_max, grid.eps)
    q_star, main, exact_pairs = _main_terms(
        a, alpha_inv, ys, grid.eta, n_gamma, corrs, lobes, threads
    )
    return M22Certificate(
        main=main,
        corr_gprime=grid.eps * alpha_inv * a * float(gp_sums[q_star]),
        corr_g_alpha=grid.eps * alpha_inv * cap * float(g_sums[q_star]),
        corr_g_eta=grid.eta * cap * float(g_sums[q_star]),
        additive=b_max,  # floor(alpha^2) + 1
        delta_prime=(b_max + 1) * grid.delta,  # (floor(alpha^2) + 2) delta
        main_nodes=main_nodes,
        exact_pairs=exact_pairs,
        q_star=q_star,
        sup_g=tuple(sup_g.tolist()),
    )


def certify_M2_3(a: int, sup_g: Sequence[float]) -> float:
    """Certified upper bound for M_2(3): shifted sums of sup_g, the
    per-residue sup|g| table of `M22Certificate`."""
    if a < 2 or len(sup_g) != a:
        raise PreconditionError("need a >= 2 and one sup|g| entry per residue")
    ctx = quadratic_context(a)
    n_terms = floor_alpha_cube(a, ctx.alpha) + 2
    sums = _shifted_residue_sums(np.asarray(sup_g, dtype=float), n_terms)
    return float(np.max(sums)) + n_terms * GridParams.delta


def combine_M2(m2_2: float, m2_3: float) -> float:
    return max(m2_2, 1.0) + max(m2_3, 1.0) ** (2.0 / 3.0)


def certify_block_bound(a: int, grid: GridParams, threads: int = 1) -> BlockBoundReport:
    """Full width-2 report: M_2(2), M_2(3), combined M_2, kappa, pass/fail."""
    t0 = time.perf_counter()
    detail = certify_M2_2_detail(a, grid, threads=threads)
    m2_2 = detail.total
    m2_3 = certify_M2_3(a, detail.sup_g)
    m2 = combine_M2(m2_2, m2_3)
    alpha = quadratic_context(a).alpha
    kappa = math.log(m2) / math.log(alpha)
    return BlockBoundReport(
        a=a,
        grid=grid,
        M2_2=m2_2,
        M2_3=m2_3,
        M2=m2,
        kappa=kappa,
        ok=kappa < KAPPA_TARGET,
        runtime_s=time.perf_counter() - t0,
        main_nodes=detail.main_nodes,
        detail=detail,
    )


# Reference values for the quadratic family, a = 39 down to 15: the grid
# (eps, eta) used per row, the published upper bound for M_2, its exponent
# kappa, and round(alpha^3). Only the pass/fail against KAPPA_TARGET is
# ground truth; the bounds themselves depend on grid implementation details.
REFERENCE_ROWS: dict[int, tuple[float, float, float, float, int]] = {
    39: (0.005, 0.0005, 46695.7, 2.93416, 59436),
    38: (0.005, 0.0005, 43255.2, 2.93405, 54986),
    37: (0.005, 0.0005, 39994.9, 2.93398, 50764),
    36: (0.005, 0.0005, 36989.9, 2.93458, 46764),
    35: (0.005, 0.0008, 39595.4, 2.97694, 42980),
    34: (0.005, 0.0008, 36279.6, 2.97656, 39406),
    33: (0.005, 0.0008, 33182.6, 2.97641, 36036),
    32: (0.005, 0.0008, 30243.8, 2.97603, 32864),
    31: (0.005, 0.0008, 27544.8, 2.97627, 29884),
    30: (0.005, 0.0008, 24991.4, 2.97630, 27090),
    29: (0.005, 0.0008, 22665.7, 2.97719, 24476),
    28: (0.005, 0.0007, 19735.6, 2.96693, 22036),
    27: (0.005, 0.0007, 17807.7, 2.96839, 19764),
    26: (0.005, 0.0007, 16017.7, 2.97016, 17654),
    25: (0.005, 0.0007, 14374.2, 2.97261, 15700),
    24: (0.005, 0.0007, 12841.2, 2.97517, 13896),
    23: (0.005, 0.0006, 11122.8, 2.96960, 12236),
    22: (0.005, 0.0006, 9885.92, 2.97399, 10714),
    21: (0.005, 0.0005, 8524.75, 2.97059, 9324),
    20: (0.005, 0.0005, 7518.04, 2.97678, 8060),
    19: (0.005, 0.0004, 6454.22, 2.97655, 6916),
    18: (0.001, 0.0004, 5303.48, 2.96398, 5886),
    17: (0.001, 0.0004, 4613.01, 2.97415, 4964),
    16: (0.001, 0.0001, 3773.67, 2.96628, 4144),
    15: (0.001, 0.00003, 3212.43, 2.97692, 3420),
}


def reference_grid(a: int) -> GridParams:
    eps, eta, _, _, _ = REFERENCE_ROWS[a]
    return GridParams(eps=eps, eta=eta)
