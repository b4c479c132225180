"""Test-only helpers over recnum's bounds: the per-index m tables and their
averages, the float |g'| kernel that dense grids check the closed-form
sup |g'| against, and the sampled lower-bound check on the M_2(2) main term.
No code in src calls these; the tests and the acceptance criteria do."""

import numpy as np

from recnum.base import BaseContext, PreconditionError
from recnum.blockcert import floor_alpha_sq, polished_alpha_inv, quadratic_context
from recnum.bounds import (
    dirichlet_kernel_abs,
    kernel_derivative_cap,
    reduced_argument,
    sup_table,
)

# distance to the nearest integer below which |g'| is taken as its value 0
# at the removable singularity
DERIV_INTEGER_TOL = 1e-9


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


def m_table(ctx: BaseContext, j: int, shift: float = 0.0) -> list[float]:
    """Certified bounds for m(j, b) (or its shifted variant) over b = 0..a-1."""
    if j not in ctx.index_set:
        raise PreconditionError(f"j={j} not in the index set")
    return sup_table(ctx.coeffs[0], ctx.coeffs[j - 1], shift)


def m_of_j(ctx: BaseContext, j: int, shift: float = 0.0) -> float:
    return sum(m_table(ctx, j, shift=shift)) / ctx.coeffs[0]


def sample_main_sums(
    a: int, n_samples: int, gamma_hi: float, rng: np.random.Generator
) -> float:
    """Worst of n_samples exact main-term evaluations at random points:
    q uniform over {0..a-1}, gamma uniform over [0, gamma_hi), one uniform y
    per interval b, summing |h(y_b, gamma, q)| over b. Any such value must
    stay below the certified main term plus its corrections. Samples are
    drawn 2000 at a time."""
    ctx = quadratic_context(a)
    alpha_inv = polished_alpha_inv(a, ctx.alpha)
    b_max = floor_alpha_sq(a, ctx.alpha) + 1
    bs = np.arange(b_max + 1, dtype=float)
    worst = 0.0
    for lo in range(0, n_samples, 2000):
        m = min(2000, n_samples - lo)
        ys = (bs[None, :] + rng.random((m, b_max + 1))) / a
        qs = rng.integers(0, a, size=m).astype(float)
        gammas = gamma_hi * rng.random(m)
        h = dirichlet_kernel_abs(ys + qs[:, None] / a, a) * dirichlet_kernel_abs(
            alpha_inv * ys + gammas[:, None], a
        )
        worst = max(worst, float(h.sum(axis=1).max()))
    return worst
