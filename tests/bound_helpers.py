"""Test-only helpers over recnum's bounds: the per-index m tables and their
averages, and the sampled lower-bound check on the M_2(2) main term. No code
in src calls these; the tests and the acceptance criteria do."""

import numpy as np

from recnum.base import BaseContext, PreconditionError
from recnum.blockcert import floor_alpha_sq, polished_alpha_inv, quadratic_context
from recnum.bounds import _sup_table, dirichlet_kernel_abs


def m_table(ctx: BaseContext, j: int, shift: float = 0.0) -> list[float]:
    """Certified bounds for m(j, b) (or its shifted variant) over b = 0..a-1."""
    if j not in ctx.index_set:
        raise PreconditionError(f"j={j} not in the index set")
    return _sup_table(ctx.coeffs[0], ctx.coeffs[j - 1], shift)


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
