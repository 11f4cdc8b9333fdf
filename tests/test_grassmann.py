import numpy as np
import pytest

from opcross import grassmann as gr
from opcross.errors import (NotComplementary, NotPolarization, OutsideChart,
                            RankDeficient)
from conftest import random_orthogonal


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


def test_same_subspace_is_basis_independent(rng):
    cols = rng.standard_normal((6, 3))
    w1 = gr.subspace_from_basis(cols)
    w2 = gr.subspace_from_basis(cols @ rng.standard_normal((3, 3)) + 0.0)
    assert gr.same_subspace(w1, w2)
    w3 = gr.random_subspace(6, 3, 7)
    assert not gr.same_subspace(w1, w3)


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
        assert onto.contains(y)
        # The residual lies in `along`.
        assert along.contains(x - y)
        # Idempotence.
        assert np.allclose(gr.project_parallel(y, onto, along), y, atol=1e-9)


def test_project_parallel_rejects_non_complementary():
    e = np.eye(4)
    w1 = gr.Subspace(e[:, :2])
    with pytest.raises(NotPolarization):
        gr.project_parallel(e[:, 0], w1, gr.Subspace(e[:, 1:3]))
    # NotPolarization is a NotComplementary, so older handlers still catch it.
    with pytest.raises(NotComplementary):
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
        assert gr.same_subspace(w_new, gr.subspace_from_graph(t_new, pol))


def test_mobius_outside_chart_detected():
    pol = gr.standard_polarization(2, 1)
    # The quarter rotation sends the horizontal axis to the vertical one.
    g = gr.BlockMobius.from_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]), 1, pol)
    with pytest.raises(OutsideChart):
        gr.mobius_apply_coordinate(g, np.zeros((1, 1)))
    # The subspace-level action still works.
    w = gr.mobius_apply_subspace(g, pol.horizontal)
    assert gr.same_subspace(w, pol.vertical)


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


def test_intersect_subspaces(rng):
    e = np.eye(5)
    a = gr.Subspace(e[:, :3])
    b = gr.Subspace(e[:, 2:])
    inter = gr.intersect_subspaces(a, b)
    assert inter.shape == (5, 1)
    assert np.allclose(np.abs(inter[:, 0]), e[:, 2])
    # Generic subspaces of complementary-or-less dimension meet trivially.
    w1 = gr.random_subspace(6, 2, 3)
    w2 = gr.random_subspace(6, 3, 4)
    assert gr.intersect_subspaces(w1, w2).shape == (6, 0)


def test_subspace_json_round_trip(rng):
    w = gr.random_subspace(5, 2, 11)
    back = gr.Subspace.from_json(w.to_json())
    assert gr.same_subspace(w, back)
    with pytest.raises(ValueError):
        gr.Subspace.from_json({"dim": 2})
