import dataclasses
import math

import numpy as np
import pytest

from bound_helpers import dirichlet_kernel_deriv_abs, sample_main_sums
from recnum import blockcert
from recnum.base import CostGuardError, PreconditionError
from recnum.blockcert import (
    GridParams,
    KAPPA_TARGET,
    MAIN_NODE_GUARD,
    REFERENCE_ROWS,
    _CHUNK_FLOATS,
    _GRID_SNAP,
    _build_y_grid,
    _gamma_grid_size,
    _inner_bounds,
    _main_terms,
    certify_M2_2_detail,
    certify_M2_3,
    certify_block_bound,
    combine_M2,
    floor_alpha_cube,
    floor_alpha_sq,
    polished_alpha_inv,
    quadratic_context,
    reference_grid,
)
from recnum.bounds import _U, dirichlet_kernel_abs, interval_sup_deriv, lobe_table, sup_table

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
    ys = _build_y_grid(a, floor_alpha_sq(a, alpha) + 1, grid.eps)
    return polished_alpha_inv(a, alpha), ys, _gamma_grid_size(grid.eta)


def test_coarse_grid_has_several_gamma_chunks():
    # a = 15 on COARSE: 1520 points in 228 columns of height 7, so the
    # 1001-point gamma-grid splits into 13 exact batches and, over the 229
    # column edges, 15 bound chunks, the last one short each time
    _, ys, n_gamma = _main_grid(15, COARSE)
    chunk = _CHUNK_FLOATS // ys.size
    rows = _CHUNK_FLOATS // (8 * (ys.shape[1] + 1))
    assert (len(np.unique(ys)), ys.shape, n_gamma) == (1520, (7, 228), 1001)
    assert n_gamma // chunk > 3 and n_gamma % chunk
    assert n_gamma // rows > 3 and n_gamma % rows


def test_y_grid_columns_partition_the_lattice():
    a, eps = 15, 0.01
    ys = _build_y_grid(a, 228, eps)
    flat = np.unique(ys)
    np.testing.assert_array_equal(flat, np.arange(len(flat)) * eps)
    b = np.arange(ys.shape[1])
    assert np.all((ys >= b / a - 1e-12) & (ys < (b + 1) / a))


def test_y_grid_rejects_empty_interval():
    # a * eps > 1 leaves some interval [b/a, (b+1)/a) without a lattice point
    with pytest.raises(PreconditionError):
        certify_M2_2_detail(101, COARSE)


def _hexed(cert):
    *fields, sup_g = dataclasses.astuple(cert)
    return [v.hex() if isinstance(v, float) else v for v in fields] + [
        v.hex() for v in sup_g
    ]


def test_threaded_equals_serial():
    # more gamma chunks than threads, the last one short: the pool combines
    # chunks by an exact max, so every field, the sup|g| table included, is
    # bitwise identical
    serial = _hexed(certify_M2_2_detail(15, COARSE, threads=1))
    for threads in (2, 3):
        assert _hexed(certify_M2_2_detail(15, COARSE, threads=threads)) == serial


def test_m2_3_sums_the_certificate_table():
    rep = certify_block_bound(7, COARSE)
    assert len(rep.detail.sup_g) == 7
    assert rep.M2_3 == certify_M2_3(7, rep.detail.sup_g)
    # a flat table of ones: every shift sums floor(alpha^3) + 2 of them
    n_terms = floor_alpha_cube(7, quadratic_context(7).alpha) + 2
    assert certify_M2_3(7, [1.0] * 7) == pytest.approx(n_terms * (1 + COARSE.delta))
    with pytest.raises(PreconditionError):
        certify_M2_3(7, rep.detail.sup_g[:-1])


@pytest.mark.parametrize("a", [7, 8, 15])
def test_mirrored_tables_match_direct_evaluation(a):
    # the |g'| table reads residue a-1-c from residue c; evaluated directly
    # at the end nearer an integer, where each side residue peaks, |g'|
    # differs from the table only by rounding
    sup_gp = [interval_sup_deriv(a, c) for c in range(a)]
    assert sup_gp == sup_gp[::-1]
    for c in range(1, a - 1):
        near = c / a if 2 * c < a else (c + 1) / a
        direct = float(dirichlet_kernel_deriv_abs(np.array([near]), a)[0])
        assert sup_gp[c] == pytest.approx(direct, rel=1e-13)


def test_certificate_reads_the_residue_table_of_m():
    # M_2(2)'s correction lines and M_2(3) use the |g| table that m_value reads
    assert certify_M2_2_detail(7, COARSE).sup_g == tuple(sup_table(7, 7, 0.0))


@pytest.mark.parametrize("a, grid, expected", [
    # the benchmark's tiny rows, the release row and a reference row
    (5, COARSE, 2802800),
    (6, COARSE, 3903900),
    (7, COARSE, 5206201),
    (15, reference_grid(15), None),
    (29, reference_grid(29), None),
])
def test_main_nodes_closed_form_counts_the_grid(monkeypatch, a, grid, expected):
    # main_nodes is formed before the y-grid exists, for the cost guard
    monkeypatch.setattr(blockcert, "_main_terms", lambda *args: (0, 0.0, 0))
    nodes = certify_M2_2_detail(a, grid).main_nodes
    _, ys, n_gamma = _main_grid(a, grid)
    assert nodes == a * n_gamma * len(np.unique(ys)) <= MAIN_NODE_GUARD
    assert expected is None or nodes == expected


def test_main_node_guard_refuses_before_the_main_term(monkeypatch):
    # eta = 1e-9 means 1e9 + 1 gamma points and about 2.8e12 nodes at a = 5
    def no_main(*args):
        raise AssertionError("_main_terms called past the node guard")

    monkeypatch.setattr(blockcert, "_main_terms", no_main)
    with pytest.raises(CostGuardError, match="exceed the guard 100000000000"):
        certify_M2_2_detail(5, GridParams(eps=0.01, eta=1e-9), threads=2)


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
    return _per_q_main_terms(15, COARSE)


def _binding_corrs(mains, q0):
    """Corrections under which q0 binds: every other shift scores at most
    max(mains), q0 one unit more."""
    corrs = np.zeros(len(mains))
    corrs[q0] = max(mains) - mains[q0] + 1.0
    return corrs


@pytest.mark.parametrize("rows_per_chunk", [1, 2, None])
def test_main_terms_match_per_q_reference(per_q_reference, rows_per_chunk, monkeypatch):
    # bit for bit, for any chunk size (None: the default one) and thread
    # count: the binding q and its main term, whichever q the corrections
    # make bind, and the plain argmax without corrections
    alpha_inv, ys, n_gamma = _main_grid(15, COARSE)
    if rows_per_chunk:
        monkeypatch.setattr(blockcert, "_CHUNK_FLOATS", rows_per_chunk * ys.size)
    mains = per_q_reference
    cases = [(int(np.argmax(mains)), np.zeros(15))]
    cases += [(q0, _binding_corrs(mains, q0)) for q0 in range(15)]
    for threads in (1, 2):
        for q0, corrs in cases:
            q, main, pairs = _main_terms(
                15, alpha_inv, ys, COARSE.eta, n_gamma, corrs, lobe_table(15), threads
            )
            assert (q, main.hex()) == (q0, mains[q0].hex())
            assert 1 <= pairs < 15 * n_gamma


def test_main_terms_evaluate_every_tied_pair(per_q_reference):
    # corrections that swallow every main term: all 2 * 1001 pairs of q = 3
    # and 9 score 2^70, the first q binds, and its main term is the largest
    # of its gamma0 row, not the one at its largest bound
    alpha_inv, ys, n_gamma = _main_grid(15, COARSE)
    ties = np.zeros(15)
    ties[[3, 9]] = 2.0**70
    for threads in (1, 2):
        q, main, pairs = _main_terms(
            15, alpha_inv, ys, COARSE.eta, n_gamma, ties, lobe_table(15), threads
        )
        assert (q, main.hex(), pairs) == (3, per_q_reference[3].hex(), 2 * n_gamma)


@pytest.mark.parametrize("rows_per_chunk", [1, 3, 4])
def test_exact_pass_takes_each_gamma0_row_once(per_q_reference, rows_per_chunk, monkeypatch):
    # the tied pairs of q = 3 and 9 form n_gamma groups of two; batches of
    # 1 or 3 pairs would split them, but a batch ends only between groups,
    # so each gamma0 row of the inner kernel is evaluated once, besides the
    # top pair's row; 4 pairs hold two whole groups
    alpha_inv, ys, n_gamma = _main_grid(15, COARSE)
    monkeypatch.setattr(blockcert, "_CHUNK_FLOATS", rows_per_chunk * ys.size)
    ties = np.zeros(15)
    ties[[3, 9]] = 2.0**70
    for threads in (1, 2):
        rows = []

        def counted(x, a, rows=rows):
            if np.ndim(x) == 3:
                rows.append(len(x))
            return dirichlet_kernel_abs(x, a)

        monkeypatch.setattr(blockcert, "dirichlet_kernel_abs", counted)
        q, main, pairs = _main_terms(
            15, alpha_inv, ys, COARSE.eta, n_gamma, ties, lobe_table(15), threads
        )
        assert (q, main.hex(), pairs) == (3, per_q_reference[3].hex(), 2 * n_gamma)
        assert rows[0] == 15  # the outer kernel, one row per q
        assert sum(rows[1:]) == n_gamma + 1


def _pair_scores(a, grid, corrs):
    """The bound pass's flat scores in _main_terms' arithmetic (same chunks,
    same edge bounds, same einsum), with the kernel factors for exact
    evaluation."""
    alpha_inv, ys, n_gamma = _main_grid(a, grid)
    outer = dirichlet_kernel_abs(ys + (np.arange(a) / a)[:, None, None], a)
    gammas = np.arange(n_gamma) * grid.eta
    inner = dirichlet_kernel_abs(alpha_inv * ys + gammas[:, None, None], a)
    i_max = _inner_bounds(alpha_inv * ys, gammas, lobe_table(a))
    o_max = np.max(outer, axis=1)
    rows = max(1, _CHUNK_FLOATS // (8 * (ys.shape[1] + 1)))
    scores = np.concatenate(
        [np.einsum("gb,qb->qg", i_max[lo : lo + rows], o_max) for lo in range(0, n_gamma, rows)],
        axis=1,
    )
    scores *= 1.0 + 4.0 * ys.shape[1] * _U
    scores += corrs[:, None]
    return scores.ravel(), outer, inner


@pytest.mark.parametrize("binding", [None, 0])
def test_exact_pairs_count_the_pairs_reaching_the_top_total(per_q_reference, binding):
    # the exact pass evaluates exactly the pairs whose score reaches the top
    # pair's total, with no corrections and with q = 0 made to bind
    alpha_inv, ys, n_gamma = _main_grid(15, COARSE)
    mains = per_q_reference
    corrs = np.zeros(15) if binding is None else _binding_corrs(mains, binding)
    flat, outer, inner = _pair_scores(15, COARSE, corrs)
    q_top, j_top = divmod(int(np.argmax(flat)), n_gamma)
    s_top = np.sum(np.max(outer[[q_top]] * inner[[j_top]], axis=1), axis=1)[0]
    reaching = np.count_nonzero(flat >= s_top + corrs[q_top])
    q0 = int(np.argmax(mains)) if binding is None else binding
    for threads in (1, 2):
        q, main, pairs = _main_terms(
            15, alpha_inv, ys, COARSE.eta, n_gamma, corrs, lobe_table(15), threads
        )
        assert (q, main.hex(), pairs) == (q0, mains[q0].hex(), reaching)


@pytest.mark.parametrize("a, grid", [
    # the tiny rows, where a column holds 14 to 20 y points, the release
    # row's coarse grid and a reference row
    (5, COARSE),
    (6, COARSE),
    (7, COARSE),
    (15, COARSE),
    (29, reference_grid(29)),
])
def test_inner_bounds_dominate_the_column_maxima(a, grid):
    # at every (gamma0, b) of the whole gamma-grid, the edge bound is at
    # least the largest float inner kernel value of column b, taken over
    # every y point of the column as the exact pass takes it
    alpha_inv, ys, n_gamma = _main_grid(a, grid)
    ys_inner = alpha_inv * ys
    lobes = lobe_table(a)
    rows = max(1, _CHUNK_FLOATS // ys.size)
    for lo in range(0, n_gamma, rows):
        gammas = np.arange(lo, min(lo + rows, n_gamma)) * grid.eta
        col_max = np.max(dirichlet_kernel_abs(ys_inner + gammas[:, None, None], a), axis=1)
        bound = _inner_bounds(ys_inner, gammas, lobes)
        assert bound.shape == col_max.shape
        assert np.all(bound >= col_max), (a, lo)


def test_certificate_keeps_the_binding_q(monkeypatch):
    # q_star is _main_terms' first return, a shift in 0..a-1
    returned = []

    def recording(*args):
        returned.append(_main_terms(*args))
        return returned[-1]

    monkeypatch.setattr(blockcert, "_main_terms", recording)
    detail = certify_M2_2_detail(15, COARSE, threads=2)
    assert detail.q_star == returned[0][0] and 0 <= detail.q_star < 15


def test_main_terms_prune_most_pairs_on_a_reference_row():
    # row 29 on its reference grid: 29 * 1251 pairs, of which under 1 % are
    # evaluated exactly
    a = 29
    detail = certify_M2_2_detail(a, reference_grid(a), threads=2)
    n_gamma = _gamma_grid_size(reference_grid(a).eta)
    assert 1 <= detail.exact_pairs < 0.01 * a * n_gamma


def test_sampled_main_never_exceeds_certificate():
    a = 15
    detail = certify_M2_2_detail(a, COARSE)
    rng = np.random.default_rng(2026)
    worst = sample_main_sums(a, 2000, 1 + COARSE.eta, rng)
    assert worst <= detail.main + detail.corr_gprime + detail.corr_g_alpha + detail.corr_g_eta


def test_m2_3_scales_like_alpha_cubed():
    v15 = certify_M2_3(15, sup_table(15, 15, 0.0))
    v20 = certify_M2_3(20, sup_table(20, 20, 0.0))
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
