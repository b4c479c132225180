import dataclasses
import math

import numpy as np
import pytest

from recnum import blockcert
from recnum.base import PreconditionError
from recnum.blockcert import (
    GridParams,
    KAPPA_TARGET,
    REFERENCE_ROWS,
    _CHUNK_FLOATS,
    _GRID_SNAP,
    _build_y_grid,
    _gamma_grid_size,
    _main_terms,
    block_coefficient,
    certify_M2_2_detail,
    certify_M2_3,
    certify_block_bound,
    combine_M2,
    floor_alpha_cube,
    floor_alpha_sq,
    polished_alpha_inv,
    quadratic_context,
    reference_grid,
    sample_main_sums,
)
from recnum.bounds import dirichlet_kernel_abs, dirichlet_sup
from recnum.expsum import ExpSumParams, exp_sum_recurrent

COARSE = GridParams(eps=0.01, eta=0.001)


def test_grid_params_validation():
    with pytest.raises(PreconditionError):
        GridParams(eps=0.05, eta=0.0005)
    with pytest.raises(PreconditionError):
        GridParams(eps=0.005, eta=0.005)
    with pytest.raises(PreconditionError):
        GridParams(eps=-0.001, eta=0.0005)
    # delta is a constant of the certificate, not a grid parameter
    with pytest.raises(TypeError):
        GridParams(eps=0.01, eta=0.001, delta=1e-9)
    assert COARSE.delta == 1e-10


def test_floor_powers_match_float_arithmetic():
    for a in (15, 20, 39):
        alpha = quadratic_context(a).alpha
        assert floor_alpha_sq(a, alpha) == math.floor(alpha * alpha)
        assert floor_alpha_cube(a, alpha) == math.floor(alpha**3)


def test_polished_alpha_inv():
    for a in (15, 39):
        alpha = quadratic_context(a).alpha
        inv = polished_alpha_inv(a, alpha)
        assert inv * alpha == pytest.approx(1.0, abs=1e-12)


def test_block_coefficient_reproduces_recurrence():
    ctx = quadratic_context(5)
    rng = np.random.default_rng(41)
    for _ in range(10):
        params = ExpSumParams.make(rng.random(), rng.random())
        table = {k: exp_sum_recurrent(ctx, k, params)[0] for k in (5, 6, 7, 9)}
        for w in (2, 3):
            n = 9
            lhs = table[n]
            rhs = (
                block_coefficient(ctx, w, w, n, params) * table[n - w]
                + block_coefficient(ctx, w, w + 1, n, params) * table[n - w - 1]
            )
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_block_coefficient_modulus_bound():
    ctx = quadratic_context(5)
    rng = np.random.default_rng(42)
    for _ in range(10):
        params = ExpSumParams.make(rng.random(), rng.random())
        for j in (2, 3):
            val = block_coefficient(ctx, 2, j, 9, params)
            assert abs(val) <= ctx.alpha**j + 1e-9


def test_block_coefficient_preconditions():
    ctx = quadratic_context(5)
    params = ExpSumParams.make(0.1, 0.2)
    with pytest.raises(PreconditionError):
        block_coefficient(ctx, 2, 4, 9, params)
    with pytest.raises(PreconditionError):
        block_coefficient(ctx, 2, 2, 2, params)


def test_certificate_components_positive():
    detail = certify_M2_2_detail(15, COARSE)
    assert detail.main > 0
    assert detail.corr_gprime > 0
    assert detail.corr_g_alpha > 0
    assert detail.corr_g_eta > 0
    assert detail.additive == floor_alpha_sq(15, quadratic_context(15).alpha) + 1
    assert detail.total == pytest.approx(
        detail.additive
        + detail.main
        + detail.corr_gprime
        + detail.corr_g_alpha
        + detail.corr_g_eta
        + detail.delta_prime
    )


def _main_grid(a, grid):
    alpha = quadratic_context(a).alpha
    ys, n_points = _build_y_grid(a, floor_alpha_sq(a, alpha) + 1, grid.eps)
    return polished_alpha_inv(a, alpha), ys, n_points, _gamma_grid_size(grid.eta)


def test_coarse_grid_has_several_gamma_chunks():
    # a = 15 on COARSE: 1520 points in 228 columns of height 7, so the
    # 1001-point gamma-grid splits into 13 chunks, the last one short
    _, ys, n_points, n_gamma = _main_grid(15, COARSE)
    chunk = _CHUNK_FLOATS // ys.size
    assert (n_points, ys.shape, n_gamma) == (1520, (7, 228), 1001)
    assert n_gamma // chunk > 3 and n_gamma % chunk


def test_y_grid_columns_partition_the_lattice():
    a, eps = 15, 0.01
    ys, n_points = _build_y_grid(a, 228, eps)
    flat = np.unique(ys)
    assert len(flat) == n_points
    np.testing.assert_array_equal(flat, np.arange(n_points) * eps)
    b = np.arange(ys.shape[1])
    assert np.all((ys >= b / a - 1e-12) & (ys < (b + 1) / a))


def test_y_grid_rejects_empty_interval():
    # a * eps > 1 leaves some interval [b/a, (b+1)/a) without a lattice point
    with pytest.raises(PreconditionError):
        certify_M2_2_detail(101, COARSE)


def _hexed(cert):
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(cert)]


def test_threaded_equals_serial():
    # more gamma chunks than threads, the last one short: the pool combines
    # chunks by an exact max, so every field is bitwise identical
    serial = _hexed(certify_M2_2_detail(15, COARSE, threads=1))
    for threads in (2, 3):
        assert _hexed(certify_M2_2_detail(15, COARSE, threads=threads)) == serial


def test_m2_3_reads_the_residue_table_from_cache():
    # M_2(3) sums the sup|g| table that M_2(2) built: with equal slacks every
    # one of its a dirichlet_sup calls is a cache hit
    dirichlet_sup.cache_clear()
    certify_M2_2_detail(7, COARSE)
    before = dirichlet_sup.cache_info()
    certify_M2_3(7, COARSE)
    after = dirichlet_sup.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (7, 0)


def _per_q_main_terms(a, grid):
    """Each q's main term on its own, by the per-q formula: the flat
    eps-lattice cut into intervals by maximum.reduceat, the whole gamma-grid
    at once, no column grid, no chunks and no pool."""
    alpha = quadratic_context(a).alpha
    alpha_inv = polished_alpha_inv(a, alpha)
    b_max = floor_alpha_sq(a, alpha) + 1
    edges = [math.ceil(b / (a * grid.eps) - _GRID_SNAP) for b in range(b_max + 2)]
    ys = np.arange(edges[0], edges[-1]) * grid.eps
    starts = np.array(edges[:-1]) - edges[0]
    gammas = np.arange(_gamma_grid_size(grid.eta)) * grid.eta
    inner = dirichlet_kernel_abs(alpha_inv * ys + gammas[:, None], a)
    mains = []
    for q in range(a):
        prod = dirichlet_kernel_abs(ys + q / a, a) * inner
        seg_max = np.maximum.reduceat(prod, starts, axis=1)
        mains.append(float(np.max(np.sum(seg_max, axis=1))))
    return mains


@pytest.fixture(scope="module")
def per_q_reference():
    return [v.hex() for v in _per_q_main_terms(15, COARSE)]


@pytest.mark.parametrize("rows_per_chunk", [1, 2, None])
def test_main_terms_match_per_q_reference(per_q_reference, rows_per_chunk, monkeypatch):
    # bit for bit, for any chunk size (None: the default one)
    alpha_inv, ys, _, n_gamma = _main_grid(15, COARSE)
    if rows_per_chunk:
        monkeypatch.setattr(blockcert, "_CHUNK_FLOATS", rows_per_chunk * ys.size)
    for threads in (1, 2):
        got = _main_terms(15, alpha_inv, ys, COARSE.eta, n_gamma, threads)
        assert [float(v).hex() for v in got] == per_q_reference


def test_sampled_main_never_exceeds_certificate():
    a = 15
    detail = certify_M2_2_detail(a, COARSE)
    rng = np.random.default_rng(2026)
    worst = sample_main_sums(a, 2000, 1 + COARSE.eta, rng)
    assert worst <= detail.main + detail.corr_gprime + detail.corr_g_alpha + detail.corr_g_eta


def test_m2_3_scales_like_alpha_cubed():
    grid = COARSE
    v15 = certify_M2_3(15, grid)
    v20 = certify_M2_3(20, grid)
    assert v15 > 0 and v20 > v15
    # ~alpha^3/a terms of typical size ~log a: the ratio sits near
    # (alpha_20/alpha_15)^3 * (15/20), i.e. between 2x and 4x
    assert 2.0 * v15 < v20 < 4.0 * v15


def test_combine_m2():
    assert combine_M2(10.0, 8.0) == pytest.approx(10.0 + 8.0 ** (2 / 3))
    assert combine_M2(0.5, 0.5) == pytest.approx(2.0)


def test_block_bound_report_fields():
    rep = certify_block_bound(15, COARSE, threads=4)
    assert rep.M2 == pytest.approx(combine_M2(rep.M2_2, rep.M2_3))
    assert rep.kappa == pytest.approx(
        math.log(rep.M2) / math.log(quadratic_context(15).alpha)
    )
    assert rep.ok == (rep.kappa < KAPPA_TARGET)
    assert rep.runtime_s > 0 and rep.main_nodes > 0
    assert rep.M2_2 == rep.detail.total and rep.main_nodes == rep.detail.main_nodes


def test_reference_rows_cover_15_to_39():
    assert sorted(REFERENCE_ROWS) == list(range(15, 40))
    grid = reference_grid(39)
    assert grid.eps == 0.005 and grid.eta == 0.0005


def test_reference_grid_unknown_row():
    with pytest.raises(KeyError):
        reference_grid(14)
