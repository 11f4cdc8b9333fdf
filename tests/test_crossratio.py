import warnings

import numpy as np
import pytest

from opcross import crossratio as cr
from opcross import flows
from opcross import grassmann as gr
from opcross import numerics
from opcross.errors import DegeneratePosition, NotPolarization, Overflow, Singular
from conftest import (block_mobius, complementary_pair, overflowing_dv_config, pair_with_angles,
                      random_half_dim_charts, random_orthogonal, spectra_close,
                      unequal_sharing_config)


def scalar_charts(t1, t2, t3, t4):
    return [np.array([[float(t)]]) for t in (t1, t2, t3, t4)]


def test_scalar_cross_ratio_fixture():
    # Classical value for points 1, 2, 3, 4 on the line.
    d = cr.dv_matrix(*scalar_charts(1, 2, 3, 4))
    assert abs(d.matrix[0, 0] + 3.0) < 1e-12
    assert abs(d.det + 3.0) < 1e-12


def test_three_presentations_agree(rng):
    for n in (2, 4, 6):
        for _ in range(15):
            ts, subs, pol = random_half_dim_charts(rng, n,
                                                   need_invertible_verticals=True)
            s_chart = cr.dv_matrix(*ts).spectrum
            s_comp = cr.dv_composition(*subs).spectrum
            swapped = gr.Polarization(pol.vertical, pol.horizontal)
            mixed = cr.dv_mixed(ts[0],
                                gr.graph_coordinate(subs[1], swapped),
                                ts[2],
                                gr.graph_coordinate(subs[3], swapped))
            assert spectra_close(s_chart, s_comp, 1e-8)
            assert spectra_close(s_chart, mixed.spectrum, 1e-8)


def test_composition_really_is_two_projections(rng):
    _, subs, _ = random_half_dim_charts(rng, 6)
    p1, p2, p3, p4 = subs
    x = p1.basis @ rng.standard_normal(3)
    y = gr.project_parallel(x, p3, p4)
    z = gr.project_parallel(y, p1, p2)
    d = cr.dv_composition(p1, p2, p3, p4)
    assert np.allclose(p1.basis @ (d.matrix @ (p1.basis.T @ x)), z, atol=1e-9)


def test_dv_composition_rejects_bad_polarizations():
    e = np.eye(4)
    p1 = gr.Subspace(e[:, :2])
    p3 = gr.Subspace(e[:, 1:3])
    with pytest.raises(NotPolarization):
        cr.dv_composition(p1, gr.Subspace(e[:, 1:3]), p3, gr.Subspace(e[:, :2]))


def test_dv_matrix_singular_difference():
    t = scalar_charts(1, 1, 3, 4)
    with pytest.raises(Singular):
        cr.dv_matrix(*t)
    # A difference that is well conditioned but tiny in absolute terms is
    # singular at chart level, in agreement with the composition form.
    pol = gr.standard_polarization(4, 2)
    t1, t3, t4 = (np.array([[1.0, 0.5], [0.0, 2.0]]) + s * np.eye(2) for s in (0.0, 3.0, 5.0))
    t2 = t1 - 1e-11 * np.eye(2)
    with pytest.raises(Singular):
        cr.dv_matrix(t1, t2, t3, t4)
    with pytest.raises(NotPolarization):
        cr.dv_composition(*(gr.subspace_from_graph(t, pol) for t in (t1, t2, t3, t4)))


def test_permutation_table_scalar():
    d = cr.dv_matrix(*scalar_charts(1, 2, 3, 4))
    expected = {"12,34": -3.0, "34,12": -3.0, "12,43": 4.0,
                "14,32": -1.0 / 3.0, "13,24": 3.0 / 4.0, "14,23": 4.0 / 3.0}
    for label, value in expected.items():
        out = cr.dv_permuted(d, label)
        assert abs(out.matrix[0, 0] - value) < 1e-12, label
    with pytest.raises(ValueError):
        cr.dv_permuted(d, "21,34")


def test_permutation_table_matches_composition(rng):
    perm_order = {"12,34": (0, 1, 2, 3), "34,12": (2, 3, 0, 1),
                  "12,43": (0, 1, 3, 2), "14,32": (0, 3, 2, 1),
                  "13,24": (0, 2, 1, 3), "14,23": (0, 3, 1, 2)}
    for _ in range(10):
        _, subs, _ = random_half_dim_charts(rng, 6)
        d = cr.dv_composition(*subs)
        for label, order in perm_order.items():
            direct = cr.dv_composition(*(subs[i] for i in order))
            table = cr.dv_permuted(d, label)
            assert spectra_close(direct.spectrum, table.spectrum, 1e-8), label


def test_mobius_invariance_of_spectrum(rng):
    pol = gr.standard_polarization(6, 3)
    for _ in range(15):
        ts, subs, _ = random_half_dim_charts(rng, 6)
        base = cr.dv_composition(*subs).spectrum
        m = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        g = block_mobius(m, pol)
        moved = [gr.mobius_apply_subspace(g, w) for w in subs]
        try:
            spec = cr.dv_composition(*moved).spectrum
        except NotPolarization:
            continue
        assert spectra_close(base, spec, 1e-7)


def test_unequal_dimensions_reduction(rng):
    # In R^3: lines P1, P3 and planes P2, P4.  The spectrum must match the
    # cross-ratio computed inside the plane spanned by the two lines.
    for _ in range(10):
        p1 = gr.random_subspace(3, 1, int(rng.integers(2**31)))
        p3 = gr.random_subspace(3, 1, int(rng.integers(2**31)))
        p2 = gr.random_subspace(3, 2, int(rng.integers(2**31)))
        p4 = gr.random_subspace(3, 2, int(rng.integers(2**31)))
        try:
            d = cr.dv_unequal(p1, p2, p3, p4)
        except NotPolarization:
            continue
        # Oracle: chase a vector of P1 through the two oblique projections.
        x = p1.basis[:, 0]
        y = gr.project_parallel(x, p3, p4)
        z = gr.project_parallel(y, p1, p2)
        lam = (p1.basis[:, 0] @ z) / (p1.basis[:, 0] @ x)
        assert abs(d.spectrum[0] - lam) < 1e-8


def test_unequal_larger_first_pair(rng):
    # dim P1 > dim P2: the composite on the larger P1 has the reduced
    # spectrum plus 2 dim P1 - n eigenvalues 1, which live on the
    # intersection of P1 and P3.
    checked = 0
    for n, k in ((3, 2), (5, 3), (7, 5), (8, 5)):
        for _ in range(10):
            p1, p3 = (gr.random_subspace(n, k, int(rng.integers(2**31))) for _ in range(2))
            p2, p4 = (gr.random_subspace(n, n - k, int(rng.integers(2**31))) for _ in range(2))
            try:
                full = cr.dv_composition(p1, p2, p3, p4).spectrum
            except NotPolarization:
                continue
            reduced = cr.dv_unequal(p1, p2, p3, p4).spectrum
            assert len(reduced) == n - k
            expected = numerics.sort_spectrum(np.concatenate([reduced, np.ones(2 * k - n)]))
            assert np.max(np.abs(full - expected)) < 1e-9
            checked += 1
    assert checked >= 30


def test_unequal_small_pair_sharing_a_vector_is_degenerate():
    p1, p2, p3, p4 = unequal_sharing_config()
    with pytest.raises(DegeneratePosition):
        cr.dv_unequal(p1, p2, p3, p4)
    with pytest.raises(DegeneratePosition):
        cr.dv_unequal(p2, p1, p4, p3)


def test_unequal_names_the_basis_of_its_matrix():
    # dims (3, 2, 3, 2) in R^5 run as (P2, P1; P4, P3): the 2 x 2 matrix is
    # in the stored basis of P2.
    big = [gr.random_subspace(5, 3, seed) for seed in (1, 3)]
    small = [gr.random_subspace(5, 2, seed) for seed in (2, 4)]
    d = cr.dv_unequal(big[0], small[0], big[1], small[1])
    swapped = cr.dv_unequal(small[0], big[0], small[1], big[1])
    assert (d.basis_space, swapped.basis_space) == ("P2", "P1")
    assert d.matrix.shape == (2, 2) and np.array_equal(d.matrix, swapped.matrix)


def test_unequal_passes_through_at_equal_dims(rng):
    _, subs, _ = random_half_dim_charts(rng, 4)
    a = cr.dv_composition(*subs).spectrum
    b = cr.dv_unequal(*subs).spectrum
    assert spectra_close(a, b, 1e-12)


def test_unequal_rejects_mismatched_dims():
    p1 = gr.random_subspace(4, 1, 1)
    p2 = gr.random_subspace(4, 3, 2)
    p3 = gr.random_subspace(4, 2, 3)
    p4 = gr.random_subspace(4, 2, 4)
    with pytest.raises(ValueError):
        cr.dv_unequal(p1, p2, p3, p4)


def test_cocycle_identity(rng):
    for _ in range(20):
        p1 = gr.random_subspace(6, 3, int(rng.integers(2**31)))
        p2 = gr.random_subspace(6, 3, int(rng.integers(2**31)))
        qs = [gr.random_subspace(6, 3, int(rng.integers(2**31))) for _ in range(3)]
        try:
            prod = cr.cocycle_product(p1, p2, *qs)
        except NotPolarization:
            continue
        assert numerics.fro(prod - np.eye(3)) < 1e-8


def test_operator_angle_scalar_fixture():
    out = cr.operator_angle([[1.0]], [[2.0]])
    assert abs(out.matrix[0, 0] - 0.9) < 1e-12


def test_operator_angle_eigenvalues_are_cos_squared(rng):
    pol = gr.standard_polarization(6, 3)
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        spec = np.sort(cr.operator_angle(a, b).spectrum.real)
        wa = gr.subspace_from_graph(a, pol)
        wb = gr.subspace_from_graph(b, pol)
        cos2 = np.sort(np.cos(gr.principal_angles(wa, wb)) ** 2)
        assert np.max(np.abs(spec - cos2)) < 1e-8


def test_comparable_and_witness(rng):
    for _ in range(10):
        v = rng.standard_normal((4, 4))
        alpha = random_orthogonal(rng, 4)
        beta = random_orthogonal(rng, 4)
        w = alpha @ v @ beta
        assert cr.comparable(v, w)
        assert not cr.comparable(v, 2.0 * v)
        a2, b2 = cr.comparability_witness(v, w)
        assert np.allclose(a2 @ a2.T, np.eye(4), atol=1e-10)
        assert np.allclose(b2 @ b2.T, np.eye(4), atol=1e-10)
        assert numerics.fro(a2 @ v @ b2 - w) < 1e-8


def test_comparable_shape_mismatch():
    assert not cr.comparable(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        cr.comparability_witness(np.eye(2), np.eye(3))


def test_pair_equivalence_classifier(rng, svd_calls):
    thetas = np.array([0.3, 0.9])
    p, q = pair_with_angles(thetas, 6)
    s, t = pair_with_angles(thetas, 6, rng)
    assert cr.pair_equivalent(p, q, s, t)
    s2, t2 = pair_with_angles(thetas + np.array([0.0, 0.01]), 6, rng)
    assert not cr.pair_equivalent(p, q, s2, t2)
    # A dimension mismatch, and a pair whose own ambient dimensions differ, are
    # automatic rejects: no SVD runs.
    others = [gr.random_subspace(6, 3, 1), gr.random_subspace(6, 3, 2)]
    mixed = [gr.random_subspace(n, 2, seed) for n, seed in ((4, 5), (5, 6))]
    svd_calls.clear()
    assert cr.pair_equivalent(p, q, *others) is False
    assert cr.pair_equivalent(*mixed, *mixed) is False
    assert svd_calls == []


def test_result_invariants(rng):
    ts, _, _ = random_half_dim_charts(rng, 4)
    d = cr.dv_matrix(*ts)
    assert len(d.trace_powers) == 2
    assert abs(d.trace_powers[0] - np.trace(d.matrix)) < 1e-10
    assert abs(d.det - np.linalg.det(d.matrix)) < 1e-8
    # Every presentation returns tr D^j for j = 1..n, n = len(spectrum) the size of D.
    ts, subs, pol = random_half_dim_charts(rng, 6, need_invertible_verticals=True)
    v2, v4 = (gr.graph_coordinate(subs[i], gr.Polarization(pol.vertical, pol.horizontal))
              for i in (1, 3))
    unequal = [gr.random_subspace(5, k, seed) for seed, k in enumerate((3, 2, 3, 2))]
    swapped = cr.dv_unequal(*unequal)
    assert swapped.basis_space == "P2"
    composite = cr.dv_composition(*subs)
    results = [composite, cr.dv_matrix(*ts), cr.dv_mixed(ts[0], v2, ts[2], v4),
               *(cr.dv_permuted(composite, perm) for perm in cr.PERMUTATION_LABELS),
               swapped, cr.dv_unequal(*(unequal[i] for i in (1, 0, 3, 2))),
               cr.operator_angle(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))]
    assert [len(r.spectrum) for r in results] == [3] * 9 + [2, 2, 3]
    for r in results:
        n = len(r.spectrum)
        assert r.matrix.shape == (n, n)
        ref = [np.trace(np.linalg.matrix_power(r.matrix, j)) for j in range(1, n + 1)]
        assert rel_err_above_one(r.trace_powers, np.array(ref)) <= 1e-8
    for m in (rng.standard_normal((4, 4)), np.diag([1j, 2.0, 3.0])):
        traces, _ = flows.trace_invariants(m)
        assert len(traces) == len(m)
    scenario = flows.FlowScenario(flows.shift_generator(6, 1),
                                  [gr.random_subspace(6, 3, seed) for seed in range(4)],
                                  [0.0, 0.5, 1.0])
    for _, spectrum, traces, _ in flows.spectrum_along_flow(scenario):
        assert len(spectrum) == len(traces) == 3


def test_non_finite_invariants_raise_overflow():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(Overflow):
            cr.dv_composition(*overflowing_dv_config())
        # tr M^2 = 2e400 leaves the float range; the traces run to the size.
        with pytest.raises(Overflow, match=r"^tr M\^2 is not finite$"):
            cr.CrossRatioResult.from_matrix(1e200 * np.eye(2), "P1")
        # Finite, well-formed inputs whose operator leaves the float range.
        with pytest.raises(Overflow):
            cr.dv_matrix(*scalar_charts(0.0, 1.0, 1e300, 1e300 * (1 + 1e-10)))
        with pytest.raises(Overflow):
            cr.operator_angle(np.full((2, 2), 1e200), np.eye(2))


def test_determinant_overflow_is_typed_and_silent():
    # from_matrix's finite traces bound the determinant, so only a result built
    # directly reaches the check: the product of this spectrum is not finite.
    spectrum = np.array([1e200, 1e200], dtype=complex)
    result = cr.CrossRatioResult(np.diag(spectrum.real), "P1", spectrum, np.array([2e200]))
    with warnings.catch_warnings(), pytest.raises(Overflow) as exc_info:
        warnings.simplefilter("error")
        result.det
    assert str(exc_info.value) == "the determinant is not finite"


def test_overflowing_chart_factors_are_silent_overflows():
    eye, zero, big = np.eye(2), np.zeros((2, 2)), 1e308 * np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # T1 - T2 = 2e308 I and P2 P1 - I = 1e400 I leave the float range.
        for call in (lambda: cr.dv_matrix(big, -big, zero, eye),
                     lambda: cr.dv_mixed(1e200 * eye, 1e200 * eye, zero, zero)):
            with pytest.raises(Overflow, match="^a factor to invert is not finite$"):
                call()


def test_stacked_chart_factors_raise_the_first_failing_one():
    # Both factors are inverted by one stacked call, which raises what the formula's
    # first failing factor, in order, raises alone: T1 = T2 is singular although
    # T3 - T4 = 2e308 I overflows, and (T1 - T2) = 2e308 I overflows before T3 = T4.
    eye, big = np.eye(2), 1e308 * np.eye(2)
    overflow = (Overflow, "a factor to invert is not finite")
    cases = [(cr.dv_matrix, (eye, eye, big, -big), (Singular, "(T1 - T2) is not invertible")),
             (cr.dv_matrix, (2 * eye, eye, eye, eye), (Singular, "(T3 - T4) is not invertible")),
             (cr.dv_matrix, (big, -big, eye, eye), overflow),
             (cr.dv_mixed, (eye, eye, big, big), (Singular, "(P2 P1 - I) is not invertible")),
             (cr.dv_mixed, (2 * eye, eye, eye, eye), (Singular, "(P4 P3 - I) is not invertible")),
             (cr.dv_mixed, (big, big, eye, eye), overflow)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for formula, args, (error, message) in cases:
            with pytest.raises(error) as got:
                formula(*args)
            assert type(got.value) is error and str(got.value) == message


def mp_trace_powers(m, kmax):
    """tr M^j for j = 1..kmax in 50-digit mpmath arithmetic, as complex.

    Powers up to h = ceil(kmax / 2) are formed by the chain; the higher traces
    use tr(M^h M^i) = sum of the entries of M^h * (M^i)^T.
    """
    import mpmath
    with mpmath.workdps(50):
        a = np.vectorize(mpmath.mpmathify, otypes=[object])(m)
        powers = [a]
        for _ in range((kmax + 1) // 2 - 1):
            powers.append(powers[-1].dot(a))
        traces = [p.trace() for p in powers]
        traces += [(powers[-1] * p.T).sum() for p in powers]
        return np.array([complex(t) for t in traces[:kmax]])


def rel_err_above_one(got, ref):
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


def test_trace_powers_match_mpmath(rng):
    for k in (2, 6, 32):
        ts, _, _ = random_half_dim_charts(rng, 2 * k)
        d = cr.dv_matrix(*ts)
        assert rel_err_above_one(d.trace_powers, mp_trace_powers(d.matrix, k)) <= 1e-10
    # A rotated Jordan block J_6(1): its computed spectrum is spread by about
    # eps^(1/6), but the power sums of the cluster stay accurate.
    q = random_orthogonal(rng, 6)
    jordan = q @ (np.eye(6) + np.eye(6, k=1)) @ q.T
    d = cr.CrossRatioResult.from_matrix(jordan, "P1")
    assert rel_err_above_one(d.trace_powers, mp_trace_powers(jordan, 6)) <= 1e-10


def test_trace_powers_match_matrix_power(rng):
    for m in (rng.standard_normal((6, 6)),
              rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))):
        n = m.shape[0]
        d = cr.CrossRatioResult.from_matrix(m, "P1")
        ref = np.array([np.trace(np.linalg.matrix_power(m, j)) for j in range(1, n + 1)])
        assert rel_err_above_one(d.trace_powers, ref) <= 1e-10


def test_trace_powers_dtype_follows_matrix(rng):
    m = rng.standard_normal((4, 4))
    assert cr.CrossRatioResult.from_matrix(m, "P1").trace_powers.dtype == np.float64
    z = cr.CrossRatioResult.from_matrix(m + 1j * m.T, "P1").trace_powers
    assert z.dtype == np.complex128


def test_overflow_names_first_non_finite_power():
    # tr M^j = 1e100^j + 3 leaves the float range at j = 4.
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(Overflow, match=r"tr M\^4 is not finite"):
        cr.CrossRatioResult.from_matrix(np.diag([1e100, 1.0, 1.0, 1.0]), "P1")


# 1 - ||C||_2^2 of the polarizations: far from, just above and just below the
# Schur gate 1 / SCHUR_COND_MAX = 0.01 (below it, the stacked n x n solve).
SCHUR_GAPS = (0.5, 0.05, 0.011, 0.009)


def mp_composite_spectrum(p1, p2, p3, p4):
    """Eigenvalues of the dv_composition operator in 40-digit mpmath: the first
    dim P1 rows of [P3 | P4]^-1 P1, then of [P1 | P2]^-1 P3, from the float bases."""
    import mpmath

    def mp(a):
        return mpmath.matrix(np.vectorize(mpmath.mpmathify, otypes=[object])(a).tolist())

    def coords(onto, along, x):
        c = mpmath.inverse(mp(np.hstack([onto.basis, along.basis]))) * mp(x.basis)
        return c[:onto.dim, :]

    with mpmath.workdps(40):
        ev = mpmath.eig(coords(p1, p2, p3) * coords(p3, p4, p1), left=False, right=False)
        return np.array([complex(e) for e in ev])


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k", [4, 3])
def test_composition_spectrum_against_40_digits(rng, dtype, k):
    # n = 8: k = 4 is dv_composition itself, k = 3 dv_unequal's (3, 5, 3, 5)
    # (rectangular cosine matrices).  About SCHUR_COND_MAX * eps per projection.
    for gap in SCHUR_GAPS:
        for _ in range(3):
            p1, p2 = complementary_pair(rng, 8, k, gap, dtype)
            p3, p4 = complementary_pair(rng, 8, k, gap, dtype)
            got = cr.dv_unequal(p1, p2, p3, p4).spectrum
            ref = mp_composite_spectrum(p1, p2, p3, p4)
            gap_to = np.abs(got[:, None] - ref[None, :])
            err = max(gap_to.min(axis=0).max(), gap_to.min(axis=1).max())
            assert err <= 1e-12 * np.abs(ref).max(), (gap, err)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k", [4, 3, 5])
def test_cocycle_is_the_identity_at_the_schur_gate(rng, dtype, k):
    # (P1, Q1) has the prescribed gap; P2, Q2 and Q3 are P1 and Q1 moved by
    # about 1e-2, so every arrow sits near that gap, on either side of the gate
    # for 0.011 and 0.009.  k = 5 takes the tall cosine matrices (dim P > dim Q).
    n = 8
    side = min(k, n - k)
    for gap in SCHUR_GAPS:
        for _ in range(3):
            a, b = complementary_pair(rng, n, side, gap, dtype)
            p1, q1 = (a, b) if k == side else (b, a)

            def moved(w):
                return gr.subspace_from_basis(w.basis + 1e-2 * rng.standard_normal(w.basis.shape))

            prod = cr.cocycle_product(p1, moved(p1), q1, moved(q1), moved(q1))
            assert numerics.fro(prod - np.eye(k)) <= 1e-10, gap
