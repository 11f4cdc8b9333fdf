import warnings

import numpy as np
import pytest

from opcross import crossratio as cr
from opcross import grassmann as gr
from opcross import numerics
from opcross.errors import (DegeneratePosition, NonConvergence, NotPolarization,
                            OutsideChart, Overflow, RankDeficient)
from conftest import (chart_subspaces, complementary_pair, contains, random_orthogonal,
                      same_subspace)


def test_subspace_requires_orthonormal_columns():
    with pytest.raises(ValueError):
        gr.Subspace(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
    w = gr.Subspace(np.eye(3)[:, :2])
    assert w.dim == 2 and w.ambient_dim == 3


def test_subspace_from_basis_orthonormalizes(rng):
    cols = rng.standard_normal((5, 2))
    w = gr.subspace_from_basis(cols)
    assert np.allclose(w.basis.T @ w.basis, np.eye(2))
    # Same span: the original columns are fixed by the projector.
    assert np.allclose(w.projector() @ cols, cols)


def test_subspace_from_basis_rejects_rank_deficient():
    cols = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    with pytest.raises(RankDeficient):
        gr.subspace_from_basis(cols)
    # The rank test is relative: uniformly tiny columns still span.
    w = gr.subspace_from_basis(1e-30 * np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0]]))
    assert w.dim == 2


@pytest.mark.parametrize("dtype", [float, complex])
def test_a_power_of_two_leaves_the_orthonormal_basis_as_it_is(dtype):
    # Seeded Gaussian 4 x 2 columns times 2^1022 (every entry finite), 2^500 and
    # 2^-1000 give the unscaled columns' basis bit for bit, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(200):
            rng = np.random.default_rng(seed)
            cols = rng.standard_normal((4, 2)) + (1j * rng.standard_normal((4, 2))
                                                  if dtype is complex else 0.0)
            basis = gr.subspace_from_basis(cols).basis.tobytes()
            for e in (1022, 500, -1000):
                assert gr.subspace_from_basis(cols * 2.0 ** e).basis.tobytes() == basis


def test_same_subspace_is_basis_independent(rng):
    cols = rng.standard_normal((6, 3))
    w1 = gr.subspace_from_basis(cols)
    w2 = gr.subspace_from_basis(cols @ rng.standard_normal((3, 3)) + 0.0)
    assert same_subspace(w1, w2)
    w3 = gr.random_subspace(6, 3, 7)
    assert not same_subspace(w1, w3)


def test_random_subspace_is_deterministic():
    a = gr.random_subspace(5, 2, 42)
    b = gr.random_subspace(5, 2, 42)
    assert np.array_equal(a.basis, b.basis)


def test_project_parallel_decomposition(rng):
    for _ in range(20):
        onto = gr.random_subspace(6, 2, int(rng.integers(2**31)))
        along = gr.random_subspace(6, 4, int(rng.integers(2**31)))
        x = rng.standard_normal((6, 3))
        y = gr.project_parallel(x, onto, along)
        assert contains(onto, y)
        # The residual lies in `along`.
        assert contains(along, x - y)
        # Idempotence.
        assert np.allclose(gr.project_parallel(y, onto, along), y, atol=1e-9)


def test_project_parallel_rejects_non_complementary():
    e = np.eye(4)
    w1 = gr.Subspace(e[:, :2])
    with pytest.raises(NotPolarization):
        gr.project_parallel(e[:, 0], w1, gr.Subspace(e[:, 1:3]))
    with pytest.raises(NotPolarization):
        gr.project_parallel(e[:, 0], w1, gr.Subspace(e[:, 1:2]))


def test_polarization_validates():
    e = np.eye(4)
    with pytest.raises(NotPolarization):
        gr.Polarization(gr.Subspace(e[:, :2]), gr.Subspace(e[:, 1:3]))
    pol = gr.standard_polarization(5)
    assert pol.horizontal.dim == 3 and pol.vertical.dim == 2
    assert np.allclose(pol.frame(), np.eye(5))


def test_graph_coordinate_round_trip(rng):
    pol = gr.standard_polarization(7, 3)
    for _ in range(20):
        t = rng.standard_normal((4, 3))
        w = gr.subspace_from_graph(t, pol)
        assert np.allclose(gr.graph_coordinate(w, pol), t, atol=1e-9)


def test_graph_coordinate_in_rotated_frame(rng):
    g = random_orthogonal(rng, 6)
    pol = gr.Polarization(gr.Subspace(g[:, :3]), gr.Subspace(g[:, 3:]))
    t = rng.standard_normal((3, 3))
    w = gr.subspace_from_graph(t, pol)
    assert np.allclose(gr.graph_coordinate(w, pol), t, atol=1e-9)


def test_graph_coordinate_outside_chart():
    pol = gr.standard_polarization(4, 2)
    vertical = pol.vertical
    with pytest.raises(OutsideChart):
        gr.graph_coordinate(vertical, pol)
    e = np.eye(4)
    c = np.sqrt(1.0 - 1e-24)
    # Horizontal block with singular values (1, 1e-12).
    w = gr.Subspace(np.column_stack([e[:, 0], 1e-12 * e[:, 1] + c * e[:, 2]]))
    with pytest.raises(OutsideChart):
        gr.graph_coordinate(w, pol)
    # Singular values (1e-12, 1e-12): well conditioned, but the chart-level
    # rule floors the scale at 1, so it is still outside the chart.
    w = gr.Subspace(np.column_stack([1e-12 * e[:, 0] + c * e[:, 2],
                                     1e-12 * e[:, 1] + c * e[:, 3]]))
    with pytest.raises(OutsideChart):
        gr.graph_coordinate(w, pol)


def test_mobius_action_commutes_with_charts(rng):
    pol = gr.standard_polarization(6, 3)
    for _ in range(20):
        m = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        g = gr.BlockMobius.from_matrix(m, 3, pol)
        t = rng.standard_normal((3, 3))
        w = gr.subspace_from_graph(t, pol)
        try:
            t_new = gr.mobius_apply_coordinate(g, t)
        except OutsideChart:
            continue
        w_new = gr.mobius_apply_subspace(g, w)
        assert same_subspace(w_new, gr.subspace_from_graph(t_new, pol))


def test_mobius_outside_chart_detected():
    pol = gr.standard_polarization(2, 1)
    # The quarter rotation sends the horizontal axis to the vertical one.
    g = gr.BlockMobius.from_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]), 1, pol)
    with pytest.raises(OutsideChart):
        gr.mobius_apply_coordinate(g, np.zeros((1, 1)))
    # The subspace-level action still works.
    w = gr.mobius_apply_subspace(g, pol.horizontal)
    assert same_subspace(w, pol.vertical)


def test_overflowing_mobius_denominator_is_a_silent_overflow():
    g = gr.BlockMobius.from_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a + b T = 1 + 2e308 leaves the float range.
        with pytest.raises(Overflow, match="^a factor to invert is not finite$"):
            gr.mobius_apply_coordinate(g, np.array([[1e308]]))


def test_overflowing_mobius_image_is_a_silent_overflow():
    g = gr.BlockMobius.from_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a + b T = 1 is finite, the numerator c + d T = 2e308 is not.
        with pytest.raises(Overflow, match="^the Moebius image is not finite$"):
            gr.mobius_apply_coordinate(g, np.array([[1e308]]))


def test_principal_angles_known_values():
    thetas = np.array([0.2, 0.7, 1.3])
    pb = np.zeros((6, 3))
    qb = np.zeros((6, 3))
    for j, th in enumerate(thetas):
        pb[j, j] = 1.0
        qb[j, j] = np.cos(th)
        qb[3 + j, j] = np.sin(th)
    out = gr.principal_angles(gr.Subspace(pb), gr.subspace_from_basis(qb))
    assert np.allclose(out, np.sort(thetas), atol=1e-12)


def test_principal_angles_invariant_under_rotation(rng):
    w1 = gr.random_subspace(8, 3, 1)
    w2 = gr.random_subspace(8, 4, 2)
    base = gr.principal_angles(w1, w2)
    g = random_orthogonal(rng, 8)
    rot = gr.principal_angles(gr.subspace_from_basis(g @ w1.basis),
                              gr.subspace_from_basis(g @ w2.basis))
    assert np.allclose(base, rot, atol=1e-9)


def test_subspace_json_round_trip(rng):
    w = gr.random_subspace(5, 2, 11)
    back = gr.Subspace.from_json(w.to_json())
    assert same_subspace(w, back)
    with pytest.raises(ValueError):
        gr.Subspace.from_json({"dim": 2})


# Smallest singular values of the stacked basis [A | B] placed on both sides
# of COMPLEMENT_TOL = 1e-8 and of the cosine screen's margin.
SIGMA_MINS = (0.0, 1e-12, 3e-9, 9.99e-9, 1e-8, 1.01e-8, 3e-8, 1e-6, 1e-3, 0.5)


def _angled_pair(rng, n, k, m, sigma, dtype, perturb):
    """Orthonormal A (n x k) and B (n x m), k + m <= n, whose one nonzero cosine
    is that of the angle theta with sigma_min([A | B]) = sqrt(2) sin(theta / 2),
    each basis then moved by 3e-11 in Frobenius norm when perturb is set."""
    g = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if dtype is complex else 0)
    q, _ = np.linalg.qr(g)
    theta = 2.0 * np.arcsin(sigma / np.sqrt(2.0))
    a = q[:, :k]
    b = np.column_stack([np.cos(theta) * q[:, 0] + np.sin(theta) * q[:, k], q[:, k + 1:k + m]])
    if perturb:
        a, b = (x + 3e-11 * (e := rng.standard_normal(x.shape)) / np.linalg.norm(e) for x in (a, b))
    return gr.Subspace(a), gr.Subspace(b)


def _pair_battery(rng, dims):
    for n, k, m in dims:
        for dtype in (float, complex):
            for sigma in SIGMA_MINS:
                for perturb in (False, True):
                    a, b = _angled_pair(rng, n, k, m, sigma, dtype, perturb)
                    s_min = np.linalg.svd(np.hstack([a.basis, b.basis]), compute_uv=False)[-1]
                    yield a, b, s_min


def test_cosine_screen_decides_as_the_stacked_svd(rng):
    # check_complementary rejects exactly the pairs whose stacked basis has
    # sigma_min <= 1e-8, with that sigma_min in its message.
    dims = sorted({(n, k, n - k) for n in (2, 3, 4, 6, 12, 64) for k in (1, n // 2, n - 1)})
    cases = rejected = 0
    for a, b, s_min in _pair_battery(rng, dims):
        cases += 1
        if s_min <= 1e-8:
            rejected += 1
            with pytest.raises(NotPolarization) as exc:
                gr.check_complementary(a, b)
            assert str(exc.value) == f"stacked basis nearly singular (sigma_min = {s_min:.3e})"
        else:
            assert np.array_equal(gr.check_complementary(a, b), np.hstack([a.basis, b.basis]))
    assert cases == 15 * 40 and 0 < rejected < cases


def test_dv_unequal_pair_test_decides_as_the_stacked_svd(rng):
    # The smaller pair (P1, P3) of dv_unequal is a tall stack (2k < n).
    dims = [(n, k, k) for n in (3, 4, 6, 12, 64) for k in sorted({1, (n - 1) // 2})]
    rejected = 0
    for p1, p3, s_min in _pair_battery(rng, dims):
        p2, p4 = (gr.Subspace(np.linalg.svd(p.basis)[0][:, p.dim:]) for p in (p1, p3))
        if s_min <= 1e-8:
            rejected += 1
            with pytest.raises(DegeneratePosition,
                               match="^the two small subspaces are not in direct sum$"):
                cr.dv_unequal(p1, p2, p3, p4)
        else:
            cr.dv_unequal(p1, p2, p3, p4)
    assert rejected > 0


def test_separated_pairs_are_screened_by_their_cosine_matrix(svd_calls):
    # n = 64, k = 32: every pair is separated, so its Gram Cholesky accepts it
    # and no SVD runs, not even of the 32 x 32 cosine matrices.
    subs = [gr.random_subspace(64, 32, seed) for seed in range(5)]
    cr.dv_composition(*subs[:4])
    cr.cocycle_product(*subs)
    assert svd_calls == []


def test_every_svd_failure_is_non_convergence(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    e = np.eye(4)
    # Columns with sigma_min / sigma_max = 1e-9 and a pair whose largest cosine
    # is 1 - 5e-9: no certificate or screen settles them, so the SVD runs.
    cols = e[:, :2] * [1.0, 1e-9]
    theta = 1e-4
    a = gr.Subspace(e[:, :2])
    b = gr.Subspace(np.column_stack([np.cos(theta) * e[:, 0] + np.sin(theta) * e[:, 2], e[:, 3]]))
    monkeypatch.setattr(np.linalg, "svd", fail)
    for call in (lambda: numerics.singular_values(e), lambda: gr.subspace_from_basis(cols),
                 lambda: gr.check_complementary(a, b), lambda: cr.comparability_witness(e, e)):
        with pytest.raises(NonConvergence, match="SVD did not converge"):
            call()


# 1 - ||A^H B||_2 on both sides of SCREEN_MARGIN = 1e-6, then a degenerate pair.
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n, k, m", [(12, 6, 6), (12, 4, 8), (12, 8, 4), (64, 32, 32), (9, 2, 4)])
def test_gram_cholesky_screen(rng, svd_calls, dtype, n, k, m):
    for perturb in (False, True):
        # sigma_min^2 = 1 - (largest cosine): above the margin no SVD runs at all.
        a, b = _angled_pair(rng, n, k, m, np.sqrt(2e-6), dtype, perturb)
        svd_calls.clear()
        assert gr.degenerate_sigma_min(a, b) is None
        assert svd_calls == []
        # Below it, exactly one SVD of the stacked basis [a | b] decides.
        a, b = _angled_pair(rng, n, k, m, np.sqrt(5e-7), dtype, perturb)
        svd_calls.clear()
        assert gr.degenerate_sigma_min(a, b) is None
        assert svd_calls == [(n, k + m)]
        a, b = _angled_pair(rng, n, k, m, 1e-9, dtype, perturb)
        s_min = np.linalg.svd(np.hstack([a.basis, b.basis]), compute_uv=False)[-1]
        assert s_min <= gr.COMPLEMENT_TOL
        assert gr.degenerate_sigma_min(a, b) == s_min
        if k + m == n:
            with pytest.raises(NotPolarization) as exc:
                gr.check_complementary(a, b)
            assert str(exc.value) == f"stacked basis nearly singular (sigma_min = {s_min:.3e})"


def _gaussian(rng, shape, dtype):
    g = rng.standard_normal(shape)
    return g + 1j * rng.standard_normal(shape) if dtype is complex else g


def _columns_with_ratio(rng, n, k, ratio, dtype):
    """n x k columns U diag(s) V^H, s geometric from 1 down to ratio."""
    u, v = (np.linalg.qr(_gaussian(rng, shape, dtype))[0] for shape in ((n, k), (k, k)))
    return u * np.geomspace(1.0, ratio, k) @ v.conj().T


RANK_SHAPES = [(4, 2), (6, 3), (12, 5), (32, 16), (64, 32)]


@pytest.mark.parametrize("dtype", [float, complex])
def test_qr_rank_verdict_is_the_svd_rule(rng, dtype):
    for n, k in RANK_SHAPES:
        for ratio in (1e-12, 1e-11, 0.9e-10, 1.1e-10, 1e-9, 1e-8, 1e-6):
            cols = _columns_with_ratio(rng, n, k, ratio, dtype)
            message = f"columns have numerical rank < {k}"
            try:
                numerics.require_nonsingular(np.linalg.svd(cols, compute_uv=False),
                                             RankDeficient, message)
            except RankDeficient:
                with pytest.raises(RankDeficient) as exc:
                    gr.subspace_from_basis(cols)
                assert str(exc.value) == message
                assert ratio < 1e-10
            else:
                assert ratio > 1e-10
                assert gr.subspace_from_basis(cols).dim == k
    # Wider than tall: the rank is below the column count.
    with pytest.raises(RankDeficient, match="^columns have numerical rank < 3$"):
        gr.subspace_from_basis(np.eye(2, 3))


@pytest.mark.parametrize("dtype", [float, complex])
def test_qr_basis_spans_what_the_svd_basis_spans(rng, dtype):
    for n, k in RANK_SHAPES:
        cols = _gaussian(rng, (n, k), dtype)
        u = np.linalg.svd(cols, full_matrices=False)[0]
        w = gr.subspace_from_basis(cols)
        assert np.abs(w.projector() - u @ u.conj().T).max() <= 1e-13


@pytest.mark.parametrize("dtype", [float, complex])
def test_orthonormal_columns_are_kept(rng, dtype):
    for n, k in RANK_SHAPES:
        q = np.linalg.qr(_gaussian(rng, (n, k), dtype))[0]
        basis = gr.subspace_from_basis(q).basis
        signs = np.diag(q.conj().T @ basis)  # unit-modulus phases, one per column
        assert np.allclose(np.abs(signs), 1.0, atol=1e-14)
        assert np.abs(basis - q * signs).max() <= 1e-14


def test_separated_compositions_make_no_n_by_n_solve(rng, solve_calls, svd_calls):
    # Graphs of charts at levels -3, -1, 1, 3 (and 5): every pair the two
    # verbs project along has 1 - ||C||_2^2 near 0.2 or above, so one stacked
    # k x k Schur solve serves the whole chain, with no n x n solve and no SVD.
    n, k = 64, 32
    p1, p2, p3, p4 = chart_subspaces(rng, k, (-3, -1, 1, 3))
    cr.dv_composition(p1, p2, p3, p4)
    assert solve_calls == [(2, k, k)]
    solve_calls.clear()
    p1, p2, *qs = chart_subspaces(rng, k, (-3, -1, 1, 3, 5))
    cr.cocycle_product(p1, p2, *qs)
    assert solve_calls == [(6, k, k)]
    assert svd_calls == []


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k", [4, 3, 5])
def test_only_pairs_past_the_schur_gate_make_an_n_by_n_solve(rng, solve_calls, dtype, k):
    # 1 - ||C||_2^2 = 0.011 passes the gate (1 / SCHUR_COND_MAX = 0.01) and takes
    # one solve on the smaller side; 0.009 takes the n x n stacked basis.
    n = 8
    side = min(k, n - k)
    for gap, shape in ((0.011, (1, side, side)), (0.009, (n, n))):
        a, b = complementary_pair(rng, n, side, gap, dtype)
        onto, along = (a, b) if k == side else (b, a)
        x = rng.standard_normal(n)
        solve_calls.clear()
        y = gr.project_parallel(x, onto, along)
        assert solve_calls == [shape]  # one pair: a stack of one, or the n x n solve
        coeffs = np.linalg.solve(np.hstack([onto.basis, along.basis]), x)
        assert np.linalg.norm(y - onto.basis @ coeffs[:k]) <= 1e-12 * np.linalg.norm(x)
    # In a dv chain, only the pair past the gate pays the n x n solve.
    p1, p2 = complementary_pair(rng, n, 4, 0.009, dtype)
    p3, p4 = complementary_pair(rng, n, 4, 0.5, dtype)
    solve_calls.clear()
    cr.dv_composition(p1, p2, p3, p4)
    assert sorted(solve_calls) == [(4, 4), (n, n)]


def _sharing(p, q):
    """q with its first basis vector replaced by p's: [p | q] is singular."""
    return gr.subspace_from_basis(np.column_stack([p.basis[:, 0], q.basis[:, 1:]]))


def test_cocycle_chain_raises_at_its_first_failing_arrow(rng):
    # The arrows run (P2, Q2), (P1, Q1), (P2, Q1), (P1, Q3), (P2, Q3), (P1, Q2);
    # the first pair that is no polarization raises check_complementary's error.
    p1, p2, q1, q2, q3 = chart_subspaces(rng, 4, (-3, -1, 1, 3, 5))
    short = gr.Subspace(q2.basis[:, :3])
    cases = (((q1, short, q3), (p2, short)),                     # arrow 1: dims 4+3 != 8
             ((_sharing(p1, q1), q2, q3), (p1, _sharing(p1, q1))),  # arrow 2
             ((_sharing(p2, q1), q2, q3), (p2, _sharing(p2, q1))),  # arrow 3
             ((q1, q2, _sharing(p1, q3)), (p1, _sharing(p1, q3))),  # arrow 4
             ((q1, q2, _sharing(p2, q3)), (p2, _sharing(p2, q3))),  # arrow 5
             ((_sharing(p2, q1), q2, _sharing(p1, q3)), (p2, _sharing(p2, q1))))  # 3 before 4
    for qs, (a, b) in cases:
        with pytest.raises(NotPolarization) as want:
            gr.check_complementary(a, b)
        with pytest.raises(NotPolarization) as got:
            cr.cocycle_product(p1, p2, *qs)
        assert str(got.value) == str(want.value)
    # P2 in R^6, the rest in R^4: arrow 1 raises check_complementary's error before
    # any cosine matrix is formed (P2^H P1 would be a matmul shape error).
    p1, q1, q2, q3 = chart_subspaces(rng, 2, (-3, 1, 3, 5))
    with pytest.raises(NotPolarization, match=r"^dims 3\+2 != ambient 6$"):
        cr.cocycle_product(p1, gr.random_subspace(6, 3, 0), q1, q2, q3)
