import warnings

import mpmath
import numpy as np
import pytest

from opcross import crossratio, flows, grassmann, numerics, schwarzian
from opcross.errors import NonConvergence, OutsideChart, Overflow, Singular
from conftest import (LOADED_SCIPY, fresh_python, overflowing_flow_scenario, random_conditioned,
                      spectra_close)


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        numerics.as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        numerics.as_square([[np.inf, 0.0], [0.0, 1.0]])


def test_as_square_rejects_rectangular():
    with pytest.raises(ValueError):
        numerics.as_square(np.zeros((2, 3)))


def test_inverse_raises_singular():
    with pytest.raises(Singular, match="^z is singular$"):
        numerics.inverse(np.zeros((3, 3)), Singular, "z is singular")
    # A tiny but well-scaled matrix is fine.
    tiny = 1e-30 * np.eye(2)
    assert np.array_equal(numerics.inverse(tiny, Singular, "z is singular"), np.linalg.inv(tiny))


def test_an_inaccurate_inverse_certifies_nothing(svd_calls):
    # Wilkinson's matrix (unit diagonal, -1 below it, last column 1) with its
    # columns scaled: kappa_2 is about 30, but partial pivoting grows it by
    # 2^59, so inv(A) is far from an inverse.  Its norm is small enough to
    # certify; the residual is not, and the SVD accepts A.
    n = 60
    a = np.eye(n) - np.tril(np.ones((n, n)), -1)
    a[:, -1] = 1.0
    a *= np.random.default_rng(0).uniform(0.9, 1.1, n)
    x = np.linalg.inv(a)
    assert numerics.fro(np.eye(n) - x @ a) > 0.5
    assert 2.0 * numerics.fro(x) * numerics.fro(a) <= np.finfo(float).eps ** -0.5
    assert np.array_equal(numerics.inverse(a, Singular, "a is singular"), x)
    assert svd_calls == [(n, n)]


def test_a_factor_beyond_the_float_range_is_judged_by_its_conditioning():
    # sigma = 2.0e308 and 7.7e307: the certificate's ||T||_F^2 is inf, and the SVD
    # of T itself returns sigma_max = inf; that of T 2^-1024 decides (ratio 0.377).
    t = np.array([[9.33e307, -1.03e308], [0.0, -1.67e308]])
    zero, eye = np.zeros((2, 2)), np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grassmann.BlockMobius(t, zero, zero, t, _POL)
        flip = grassmann.BlockMobius(zero, eye, eye, zero, _POL)
        image = grassmann.mobius_apply_coordinate(flip, t)
        # diag(T, I) has sigma_min / sigma_max = 4.5e-309: singular by the rule.
        with pytest.raises(ValueError, match="^assembled block matrix is singular$"):
            grassmann.BlockMobius(t, zero, zero, eye, _POL)
    with np.errstate(under="ignore"):  # T^-1 has entries near 1e-308
        assert np.array_equal(image, np.linalg.inv(t))  # (c + d T)(a + b T)^-1 = T^-1
        assert numerics.fro(t @ image - eye) <= 1e-15


def _rule(a, chart):
    """The singularity rule's verdict from the singular values: True when a passes."""
    try:
        numerics.require_nonsingular(numerics.singular_values(a), Singular, "singular", chart)
    except Singular:
        return False
    return True


@pytest.mark.parametrize("scale, chart, passes, svds", [
    (1e-5, True, True, 0),     # small but well conditioned: certified under the floor too
    (1e-12, True, False, 1),   # certified without the floor; the chart rule rejects it
    (1e-12, False, True, 0)])
def test_the_chart_floor_holds_in_the_certificate(rng, svd_calls, scale, chart, passes, svds):
    # chart=True floors ||a||_F at 1 in the certificate, as the rule floors
    # sigma_max, so a certified chart factor passes the chart rule.
    a = scale * (np.eye(3) if scale == 1e-12 else random_conditioned(rng, 3, 10.0))
    svd_calls.clear()
    try:
        x = numerics.inverse(a, Singular, "singular", chart=chart)
    except Singular:
        x = None
    assert len(svd_calls) == svds
    assert (x is not None) == passes == _rule(a, chart)
    if passes:
        assert np.array_equal(x, np.linalg.inv(a))


def test_well_conditioned_charts_take_no_svd(rng, svd_calls):
    # k = 32: the horizontal blocks and the chart differences are certified
    # by their inverses, so neither graph_coordinate nor dv_matrix takes an SVD.
    pol = grassmann.standard_polarization(64, 32)
    subs = [grassmann.subspace_from_graph(rng.standard_normal((32, 32)), pol) for _ in range(4)]
    svd_calls.clear()
    coords = [grassmann.graph_coordinate(w, pol) for w in subs]
    crossratio.dv_matrix(*coords)
    assert svd_calls == []


def _curve_jet(z1):
    return schwarzian.CurveJet(0.5, np.eye(2), z1, np.eye(2), np.eye(2))


def _mobius(a, b, c, d):
    return grassmann.BlockMobius(*(np.atleast_2d(m) for m in (a, b, c, d)),
                                 grassmann.standard_polarization(2, 1))


_I, _O = np.eye(2), np.zeros((2, 2))
_E2, _E4 = np.eye(4)[:, :2], np.eye(4)[:, 2:]
_POL = grassmann.standard_polarization(4, 2)


_SINGULAR_FACTORS = [
    (lambda: crossratio.dv_matrix(_I, _I, _O, _I), Singular, "(T1 - T2) is not invertible"),
    (lambda: crossratio.dv_matrix(_I, _O, _I, _I), Singular, "(T3 - T4) is not invertible"),
    (lambda: crossratio.dv_mixed(_I, _I, _I, _I), Singular, "(P2 P1 - I) is not invertible"),
    (lambda: crossratio.dv_mixed(2 * _I, _I, _I, _I), Singular, "(P4 P3 - I) is not invertible"),
    (lambda: crossratio.dv_permuted(_O, "14,32"), Singular, "D is not invertible"),
    (lambda: crossratio.dv_permuted(_O, "14,23"), Singular, "D is not invertible"),
    (lambda: crossratio.dv_permuted(_I, "13,24"), Singular, "(I - D^-1) is not invertible"),
    (lambda: grassmann.graph_coordinate(grassmann.Subspace(_E4), _POL),
     OutsideChart, "projection onto the horizontal subspace is singular"),
    (lambda: grassmann.mobius_apply_coordinate(_mobius(0.0, 1.0, 1.0, 0.0), [[0.0]]),
     OutsideChart, "(a + bT) is singular: image leaves the big cell"),
    (lambda: _mobius(1.0, 1.0, 1.0, 1.0), ValueError, "assembled block matrix is singular"),
    (lambda: _curve_jet(_O), Singular, "z' is numerically singular at t = 0.5"),
    (lambda: schwarzian.PhasePoint(_O, _I).w(), Singular, "q is numerically singular"),
    (lambda: schwarzian.mobius_curve_jet(_I, _O, _O, _O, _curve_jet(_I)), Singular,
     "(C3 z + C4) is singular at the curve point"),
    (lambda: schwarzian.curve_from_riccati([0.0, 1.0], [_O, _O], schwarzian.MatrixPolynomial([_O]),
                                           _O, _O, schwarzian.MatrixPolynomial([_O])),
     Singular, "z1_0 is numerically singular")]


@pytest.mark.parametrize("call, error, message", _SINGULAR_FACTORS,
                         ids=[message for _, _, message in _SINGULAR_FACTORS])
def test_singular_factors_keep_their_messages(call, error, message):
    with pytest.raises(error) as exc_info:
        call()
    assert type(exc_info.value) is error and str(exc_info.value) == message


def _lines(n, *cols):
    return grassmann.Subspace(np.eye(n)[:, list(cols)])


def _curve(z0=_O, z1_0=_I, a=_O):
    """curve_from_riccati from z0, z1_0 with A(t) = a along two nodes of W = 0 (2 x 2)."""
    return schwarzian.curve_from_riccati([0.0, 1.0], [_O, _O], schwarzian.MatrixPolynomial([a]),
                                         z0, z1_0, schwarzian.MatrixPolynomial([_O]))


_E3 = np.eye(3)
_JET = _curve_jet(_I)
_SCENARIO = flows.FlowScenario(np.zeros((4, 4)), [grassmann.Subspace(_E2)] * 4, [0.0])
_INPUT_CHECKS = [
    ("dv_composition", lambda: crossratio.dv_composition(
        _lines(4, 0, 1), _lines(4, 2, 3), _lines(4, 0), _lines(4, 2, 3)),
     ValueError, "dim P1 != dim P3; use dv_unequal for the reduction"),
    ("dv_matrix-shapes", lambda: crossratio.dv_matrix(_I, _I, _I, _E3),
     ValueError, "chart coordinates must share one shape"),
    ("dv_matrix-square", lambda: crossratio.dv_matrix(*[np.ones((2, 3))] * 4),
     ValueError, "chart formula needs square (half-dimensional) coordinates"),
    ("dv_mixed", lambda: crossratio.dv_mixed(_I, _I, _I, _E3),
     ValueError, "mixed-chart coordinate shapes are inconsistent"),
    ("operator_angle", lambda: crossratio.operator_angle(_I, _E3),
     ValueError, "A and B must have the same shape"),
    ("FlowScenario-times", lambda: flows.FlowScenario(_I, [], []),
     ValueError, "times must be a non-empty 1-d grid"),
    ("FlowScenario-initials", lambda: flows.FlowScenario(np.eye(4), [_E2], [0.0]),
     ValueError, "initials must be Subspace values"),
    ("FlowScenario.from_json", lambda: flows.FlowScenario.from_json([]),
     ValueError, "scenario JSON must be an object"),
    ("AlmostNilpotent", lambda: flows.AlmostNilpotent(_I, 3), ValueError, "block size out of range"),
    ("spectrum_along_flow", lambda: flows.spectrum_along_flow(_SCENARIO, (True,) * 3),
     ValueError, "flowed mask must have four entries"),
    ("Subspace", lambda: grassmann.Subspace(np.eye(2, 3)),
     ValueError, "need 1 <= dim <= ambient_dim, got basis shape (2, 3)"),
    ("random_subspace", lambda: grassmann.random_subspace(4, 4, 0),
     ValueError, "need 1 <= k < n, got k=4, n=4"),
    ("degenerate_sigma_min", lambda: grassmann.degenerate_sigma_min(_lines(4, 0, 1), _lines(3, 0)),
     ValueError, "ambient dimensions differ"),
    ("graph_coordinate-ambient", lambda: grassmann.graph_coordinate(_lines(3, 0), _POL),
     ValueError, "ambient dimensions differ"),
    ("graph_coordinate-dim", lambda: grassmann.graph_coordinate(_lines(4, 0), _POL),
     OutsideChart, "dim 1 != horizontal dim 2"),
    ("principal_angles", lambda: grassmann.principal_angles(_lines(4, 0, 1), _lines(3, 0)),
     ValueError, "ambient dimensions differ"),
    ("subspace_from_graph", lambda: grassmann.subspace_from_graph(_E3, _POL),
     ValueError, "T must be 2x2, got (3, 3)"),
    ("BlockMobius", lambda: grassmann.BlockMobius(_I, _I, _E3, _I, _POL),
     ValueError, "block shapes are inconsistent"),
    ("MatrixPolynomial", lambda: schwarzian.MatrixPolynomial([_I, _E3]),
     ValueError, "coefficient shapes differ"),
    ("HamiltonianSystem", lambda: schwarzian.HamiltonianSystem(
        schwarzian.MatrixPolynomial([_I]), schwarzian.MatrixPolynomial([_E3])),
     ValueError, "A and B dimensions differ"),
    ("PhasePoint", lambda: schwarzian.PhasePoint(_I, _E3), ValueError, "q and p shapes differ"),
    ("mobius_curve_jet", lambda: schwarzian.mobius_curve_jet(_E3, _E3, _E3, _E3, _JET),
     ValueError, "Moebius blocks must match the jet dimension"),
    ("curve_from_riccati-lengths", lambda: schwarzian.curve_from_riccati(
        [0.0, 1.0, 2.0], [_O, _O], schwarzian.MatrixPolynomial([_O]), _O, _I,
        schwarzian.MatrixPolynomial([_O])),
     ValueError, "need matching times and W values, at least two nodes"),
    ("curve_from_riccati-nodes", lambda: schwarzian.curve_from_riccati(
        [0.0], [_O], schwarzian.MatrixPolynomial([_O]), _O, _I, schwarzian.MatrixPolynomial([_O])),
     ValueError, "need matching times and W values, at least two nodes"),
    ("curve_from_riccati-z0", lambda: _curve(z0=_E3), ValueError, "z0 is 3x3 but W is 2x2"),
    ("curve_from_riccati-z1_0", lambda: _curve(z1_0=_E3), ValueError, "z1_0 is 3x3 but W is 2x2"),
    ("curve_from_riccati-a_poly", lambda: _curve(a=_E3), ValueError, "a_poly is 3x3 but W is 2x2")]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in _INPUT_CHECKS],
                         ids=[case[0] for case in _INPUT_CHECKS])
def test_input_checks_keep_their_messages(call, error, message):
    with pytest.raises(error) as exc_info:
        call()
    assert type(exc_info.value) is error and str(exc_info.value) == message


def test_eigvals_failure_is_non_convergence(monkeypatch):
    def failing(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with pytest.raises(NonConvergence, match="did not converge"):
        numerics.eigenvalues(np.eye(2))


def test_integer_charts_are_read_as_floats():
    charts = [[[2, 1], [0, 3]], [[0, 1], [1, -1]], [[-1, 0], [2, 1]], [[4, -2], [1, 0]]]
    got = crossratio.dv_matrix(*(np.array(t) for t in charts))
    ref = crossratio.dv_matrix(*(np.array(t, dtype=float) for t in charts))
    for a, b in ((got.matrix, ref.matrix), (got.spectrum, ref.spectrum),
                 (got.trace_powers, ref.trace_powers)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_spectrum_sorting_is_lexicographic():
    w = np.array([1 + 1j, -2.0, 1 - 1j, 0.5])
    out = numerics.sort_spectrum(w)
    assert list(out) == [-2.0, 0.5, 1 - 1j, 1 + 1j]


def test_eigenvalues_sorted(rng):
    for _ in range(20):
        m = rng.standard_normal((6, 6))
        w = numerics.eigenvalues(m)
        key = [(z.real, z.imag) for z in w]
        assert key == sorted(key)
        assert spectra_close(w, np.linalg.eigvals(m), 1e-10)


def test_spectra_close():
    assert spectra_close([1.0, 2.0], [2.0 + 1e-10, 1.0], 1e-8)
    assert not spectra_close([1.0, 2.0], [1.0, 2.1], 1e-8)
    assert not spectra_close([1.0], [1.0, 1.0], 1e-8)


def test_matrix_json_round_trip(rng):
    m = rng.standard_normal((3, 4))
    back = numerics.matrix_from_json(numerics.matrix_to_json(m))
    assert np.array_equal(back, m)

    c = m + 1j * rng.standard_normal((3, 4))
    back = numerics.matrix_from_json(numerics.matrix_to_json(c))
    assert np.array_equal(back, c)


def test_matrix_json_rejects_garbage():
    for bad in (None, [], {"rows": 2, "cols": 2},
                {"rows": 2, "cols": 2, "data": [[1.0, 2.0]]},
                {"rows": 1, "cols": 1, "data": [["x"]]},
                {"rows": 1, "cols": 1, "data": [[True]]},
                {"rows": 1, "cols": 1, "data": [[[1.0, False]]]},
                {"rows": 0, "cols": 0, "data": []}):
        with pytest.raises(ValueError):
            numerics.matrix_from_json(bad)


def test_json_numbers_reject_booleans_and_non_numbers():
    assert numerics.number_from_json(3, "n", int) == 3
    assert numerics.number_from_json(3.0, "n", int) == 3
    assert numerics.number_from_json(2, "t") == 2.0
    for bad, kind in ((True, float), (False, int), ("1", float), (None, float),
                      (float("nan"), float), (float("inf"), float), (10**400, float),
                      (1.5, int), ([1.0], float)):
        with pytest.raises(ValueError):
            numerics.number_from_json(bad, "x", kind)
    for field in ("rows", "cols"):
        obj = {"rows": 1, "cols": 1, "data": [[1.0]]}
        obj[field] = True
        with pytest.raises(ValueError):
            numerics.matrix_from_json(obj)


def test_expm_matches_series():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(numerics.expm(m), np.eye(2) + m)


def _mpmath_expm(a):
    with mpmath.workdps(50):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=complex)


def test_expm_matches_mpmath(rng):
    # 1-norms just below and just above each theta_m, so every Pade degree
    # runs and so does scaling by 2^-s, plus norms that need many squarings.
    thetas = numerics._PADE_THETA.values()
    norms = [f * theta for theta in thetas for f in (0.99, 1.01)] + [1e-3, 30.0, 300.0]
    for i, norm in enumerate(norms):
        for cplx in (False, True):
            n = (1, 2, 6, 12)[(2 * i + cplx) % 4]
            a = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0)
            a *= norm / np.abs(a).sum(axis=0).max()
            got, ref = numerics.expm(a), _mpmath_expm(a)
            assert got.dtype == (complex if cplx else float)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), (n, norm, cplx)


def test_expm_of_shift_is_its_taylor_sum():
    # shift_generator(n, p) is nilpotent, so exp(tS) is a finite sum.
    for n, p in ((2, 1), (6, 1), (6, 2), (12, 1), (12, 5), (64, 3)):
        s = flows.shift_generator(n, p)
        for t in (0.3, 1.0, 4.0):
            terms = [np.eye(n)]
            while terms[-1].any():
                terms.append(terms[-1] @ (t * s) / len(terms))
            got, ref = numerics.expm(t * s), sum(terms)
            assert got.dtype == np.float64
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref), (n, p, t)


def test_expm_of_zero_is_the_identity():
    for n in (1, 3, 12):
        for dtype in (float, complex):
            e = numerics.expm(np.zeros((n, n), dtype=dtype))
            assert e.dtype == dtype and np.array_equal(e, np.eye(n))


def test_expm_overflow_is_typed_and_silent():
    m = overflowing_flow_scenario().generator
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(numerics.expm(0.5 * m)).all()
        with pytest.raises(Overflow, match="matrix exponential is not finite"):
            numerics.expm(m)
        with pytest.raises(Overflow, match="1-norm"):
            numerics.expm(np.full((2, 2), 1e308))


def test_power_sums_overflow_is_typed_and_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow) as exc_info:
            numerics.power_sums(np.array([1e200, 2.0 + 0j]))
    assert str(exc_info.value) == "tr M^2 is not finite"


def test_finite_returns_its_argument_or_raises_overflow():
    ok = (2.5, 1.0 - 3.0j, np.array([[1.0, -2.0], [0.0, 1e308]]), (np.eye(2), 2.0 * np.eye(2)))
    for x in ok:
        assert numerics.finite(x, "x") is x
    for bad in (np.inf, -np.inf, np.nan):
        for x in (bad, complex(1.0, bad), np.array([[1.0, bad], [0.0, 1.0]]),
                  (np.eye(2), np.array([[1.0, 0.0], [bad, 1.0]]))):
            with pytest.raises(Overflow) as exc_info:
                numerics.finite(x, "the value")
            assert str(exc_info.value) == "the value is not finite"


def test_inverse_of_a_non_finite_factor_is_an_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.full((2, 2), np.nan),
                  np.array([np.eye(2), [[1.0, -np.inf], [0.0, 1.0]]])):
            for chart in (False, True):
                with pytest.raises(Overflow, match="^a factor to invert is not finite$"):
                    numerics.inverse(a, Singular, "singular", chart)


def test_stacks_only_where_asked():
    stack = np.array([np.eye(2), np.diag([1.0, 0.0]), np.zeros((2, 2))])
    assert numerics.as_square(stack, "W", stack=True) is stack
    s = numerics.singular_values(stack)
    assert s.shape == (3, 2)
    with pytest.raises(ValueError, match="2-dimensional"):
        numerics.singular_values(stack[None])
    with pytest.raises(Singular, match="row 1"):
        numerics.require_nonsingular(s, Singular, lambda i: f"row {i}")
    numerics.require_nonsingular(s[:1], Singular, lambda i: f"row {i}")
    with pytest.raises(Singular, match="row 1"):
        numerics.inverse(stack, Singular, lambda i: f"row {i}")
    assert np.array_equal(numerics.inverse(stack[:1], Singular, lambda i: f"row {i}"), stack[:1])
    with pytest.raises(ValueError, match="3-dimensional"):
        numerics.as_square(np.eye(2), "W", stack=True)
    with pytest.raises(ValueError, match="square"):
        numerics.as_square(np.zeros((3, 2, 3)), stack=True)
    with pytest.raises(ValueError, match="non-finite"):
        numerics.as_square(np.full((3, 2, 2), np.nan), stack=True)
    for single in (numerics.as_matrix, numerics.as_square, numerics.eigenvalues, numerics.expm,
                   numerics.matrix_to_json):
        with pytest.raises(ValueError, match="2-dimensional"):
            single(stack)
    # expm rejects a stack or a non-finite matrix, and loads no scipy.
    out = fresh_python(f"""
import sys
from opcross import numerics
for bad in ([[[0.0]]], [[float("nan")]]):
    try:
        numerics.expm(bad)
    except ValueError as exc:
        print(exc)
print({LOADED_SCIPY})
""")
    assert out.splitlines() == ["matrix must be 2-dimensional, got shape (1, 1, 1)",
                                "matrix contains non-finite entries", "[]"]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [2, 6, 64])
def test_stacked_linalg_is_the_per_matrix_calls(rng, n, dtype):
    # The stacked verbs (dv_matrix, dv_mixed, operator_angle, pair_equivalent, the
    # flows, the _chain Schur solves) are bit-identical to one call per matrix only
    # because these stacked calls are: a BLAS or numpy change that breaks this fails here.
    def draw(*shape):
        m = rng.standard_normal(shape)
        return m + 1j * rng.standard_normal(shape) if dtype is complex else m

    a, b = draw(3, n, n), draw(3, n, n)
    tall = draw(3, n, max(1, n // 2))
    spd = a @ a.conj().swapaxes(1, 2) + n * np.eye(n)
    ah = a.conj().swapaxes(1, 2)
    calls = {
        "inv": (np.linalg.inv, (a,)),
        "solve": (np.linalg.solve, (a, b)),
        "svd": (lambda m: np.linalg.svd(m, compute_uv=False), (tall,)),
        "qr.q": (lambda m: np.linalg.qr(m)[0], (tall,)),
        "qr.r": (lambda m: np.linalg.qr(m)[1], (tall,)),
        "cholesky": (np.linalg.cholesky, (spd,)),
        # A real stack's eigenvalues are complex if any matrix's are; sort_spectrum
        # casts to complex anyway, so the values are compared as complex.
        "eigvals": (lambda m: np.linalg.eigvals(m).astype(complex), (a,)),
        "matmul": (np.matmul, (a, b)),
        "gram": (np.matmul, (ah, a)),  # X^H X, on one buffer when real
        "reversed": (np.matmul, (ah, a[::-1])),
    }
    for name, (f, args) in calls.items():
        stacked = f(*args)
        for i in range(3):
            single = f(*(x[i] for x in args))
            assert stacked[i].tobytes() == single.tobytes(), (name, i)
    # A matrix times a stack, as a flow moves its planes.
    g = draw(n, n)
    for i, single in enumerate(g @ tall):
        assert single.tobytes() == (g @ tall[i]).tobytes()
