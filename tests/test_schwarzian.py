import math

import numpy as np
import pytest

from opcross import numerics
from opcross import schwarzian as sz
from opcross.errors import BlowUp, Overflow, Singular
from conftest import polynomial_curve, sampled_symmetric_b


def scalar_jet(t, z, z1, z2, z3):
    return sz.CurveJet(t, [[z]], [[z1]], [[z2]], [[z3]])


def tan_jet(t):
    c = np.cos(t)
    return scalar_jet(float(t), np.tan(t), 1 / c**2, 2 * np.sin(t) / c**3,
                      (6 - 4 * c**2) / c**4)


def oscillator():
    # q' = p, p' = -q: the scalar system whose Riccati solution is -tan.
    return sz.HamiltonianSystem(sz.MatrixPolynomial([np.zeros((1, 1))]),
                                sz.MatrixPolynomial([np.eye(1)]),
                                symmetric_a=True)


def test_jet_validates():
    with pytest.raises(Singular):
        scalar_jet(0.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sz.CurveJet(0.0, np.eye(2), np.eye(2), np.eye(2), np.eye(3))
    # The z' test is relative: a tiny but well-conditioned z' is accepted.
    jet = sz.CurveJet(0.0, np.eye(2), 1e-30 * np.eye(2), np.eye(2), np.eye(2))
    assert jet.dim == 2


def test_schwarzian_of_tan_is_two():
    for t in (0.0, 0.3, 1.0):
        s = sz.schwarz(tan_jet(t))
        assert abs(s[0, 0] - 2.0) < 1e-10


def test_schwarzian_of_affine_curve_is_zero(rng):
    c0 = rng.standard_normal((3, 3))
    c1 = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    jet = sz.CurveJet(0.7, c0 + 0.7 * c1, c1, np.zeros((3, 3)), np.zeros((3, 3)))
    assert numerics.fro(sz.schwarz(jet)) < 1e-12


def test_stencil_derivatives(rng):
    coeffs, jet_at = polynomial_curve(rng, 2)
    h = 1e-2
    samples = [sum(c * (k * h) ** i for i, c in enumerate(coeffs))
               for k in range(-3, 4)]
    jet = sz.jet_from_samples(samples, h)
    exact = jet_at(0.0)
    assert numerics.fro(jet.z1 - exact.z1) < 1e-9
    assert numerics.fro(jet.z2 - exact.z2) < 1e-8
    assert numerics.fro(jet.z3 - exact.z3) < 1e-6


def test_stencil_needs_seven_odd_samples():
    with pytest.raises(ValueError):
        sz.jet_from_samples([np.eye(1)] * 5, 0.1)
    with pytest.raises(ValueError):
        sz.jet_from_samples([np.eye(1)] * 8, 0.1)


def test_schwarz_from_samples_tan():
    h = 1e-2
    samples = [np.array([[np.tan(k * h)]]) for k in range(-3, 4)]
    s = sz.schwarz_from_samples(samples, h)
    assert abs(s[0, 0] - 2.0) < 1e-5


def test_richardson_improves_the_stencil():
    h = 0.05
    f = lambda t: np.array([[np.tan(t)]])
    coarse = [f(k * h) for k in range(-3, 4)]
    fine = [f(k * h / 2) for k in range(-3, 4)]
    plain = abs(sz.schwarz_from_samples(coarse, h)[0, 0] - 2.0)
    combined = abs(sz.schwarz_richardson(coarse, fine, h)[0, 0] - 2.0)
    assert combined < plain / 4.0


def test_mobius_jet_exact_on_polynomials(rng):
    # Oracle: sample M(z(t)) on a stencil and compare low-order derivatives.
    coeffs, jet_at = polynomial_curve(rng, 2)
    c1 = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    c2 = rng.standard_normal((2, 2))
    c3 = 0.3 * rng.standard_normal((2, 2))
    c4 = rng.standard_normal((2, 2)) + 2 * np.eye(2)

    def curve(t):
        z = sum(c * t ** i for i, c in enumerate(coeffs))
        return (c1 @ z + c2) @ np.linalg.inv(c3 @ z + c4)

    jet = sz.mobius_curve_jet(c1, c2, c3, c4, jet_at(0.0))
    h = 1e-3
    fd = sz.jet_from_samples([curve(k * h) for k in range(-3, 4)], h)
    assert numerics.fro(jet.z - curve(0.0)) < 1e-12
    assert numerics.fro(jet.z1 - fd.z1) < 1e-8
    assert numerics.fro(jet.z2 - fd.z2) < 1e-5
    assert numerics.fro(jet.z3 - fd.z3) < 1e-2


def test_mobius_isospectral_schwarzian(rng):
    coeffs, jet_at = polynomial_curve(rng, 3)
    jet = jet_at(0.4)
    base = numerics.eigenvalues(sz.schwarz(jet))
    for _ in range(5):
        c1 = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        c2 = rng.standard_normal((3, 3))
        c3 = 0.2 * rng.standard_normal((3, 3))
        c4 = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        moved = sz.mobius_curve_jet(c1, c2, c3, c4, jet)
        spec = numerics.eigenvalues(sz.schwarz(moved))
        assert numerics.spectra_close(base, spec, 1e-7)


def test_hamiltonian_vs_riccati(rng):
    a = sz.MatrixPolynomial([0.2 * _sym(rng, 2), 0.1 * _sym(rng, 2)])
    b = sz.MatrixPolynomial([_sym(rng, 2), 0.3 * _sym(rng, 2)])
    sys_ = sz.HamiltonianSystem(a, b, symmetric_a=True)
    w0 = 0.1 * _sym(rng, 2)
    x0 = sz.PhasePoint(np.eye(2), w0.copy())
    ts, points = sz.integrate_hamiltonian(sys_, x0, 0.0, 0.8, 400)
    ts2, ws = sz.integrate_riccati(sys_, w0, 0.0, 0.8, 400)
    assert np.allclose(ts, ts2)
    drift = max(numerics.fro(pt.w() - w) for pt, w in zip(points, ws))
    assert drift < 1e-8


def test_riccati_tan_solution():
    ts, ws = sz.integrate_riccati(oscillator(), np.zeros((1, 1)), 0.0, 1.3, 800)
    err = max(abs(w[0, 0] + np.tan(t)) for t, w in zip(ts, ws))
    assert err < 1e-8


def test_riccati_blow_up_detected():
    with pytest.raises(BlowUp) as exc_info:
        sz.integrate_riccati(oscillator(), np.zeros((1, 1)), 0.0, 2.0, 800)
    assert abs(exc_info.value.t - np.pi / 2) < 0.05


def test_riccati_overflow_is_blow_up():
    # W' = -B overflows inside the first step; that is a blow-up, not bad input.
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUp):
        sys_ = sz.HamiltonianSystem(sz.MatrixPolynomial([np.zeros((2, 2))]),
                                    sz.MatrixPolynomial([1e300 * np.eye(2)]))
        sz.integrate_riccati(sys_, np.zeros((2, 2)), 0.0, 1.0, 10)


def constant_system(a, b):
    return sz.HamiltonianSystem(sz.MatrixPolynomial([np.array(a, dtype=float)]),
                                sz.MatrixPolynomial([np.array(b, dtype=float)]))


def test_riccati_near_pole_accuracy():
    # W' = -1 - W^2 read off q = cos t, p = -sin t, 2.7e-8 short of the pole.
    t1 = 1.5707963
    _, ws = sz.integrate_riccati(oscillator(), np.zeros((1, 1)), 0.0, t1, 1000)
    assert abs(ws[-1][0, 0] + np.tan(t1)) <= 1e-5 * np.tan(t1)


def test_riccati_pole_at_a_node():
    # W' = -W^2, W0 = -1: W = -1/(1 - t), and q = 1 - t is exactly 0 at t = 1,
    # the last node of [0, 1] and an inner node of [0, 2].
    for t1, steps in ((1.0, 4), (2.0, 8)):
        with pytest.raises(BlowUp) as exc_info:
            sz.integrate_riccati(constant_system([[0.0]], [[0.0]]), -np.eye(1), 0.0, t1, steps)
        assert exc_info.value.t == 1.0 and type(exc_info.value.t) is float


def test_riccati_chart_norm_rule():
    # One step to 1e-12 short of the pole: no pole inside the step, but
    # ||W|| = 1e12 is past 1/SINGULAR_RTOL.
    t1 = 1.0 - 1e-12
    with pytest.raises(BlowUp) as exc_info:
        sz.integrate_riccati(constant_system([[0.0]], [[0.0]]), -np.eye(1), 0.0, t1, 1)
    assert exc_info.value.t == t1


@pytest.mark.parametrize("b, pole", [(np.eye(2), np.pi / 2), (np.diag([1.0, 4.0]), np.pi / 4)])
def test_riccati_matrix_poles(b, pole):
    # B = I: both eigen-directions escape at pi/2 together, so det q = cos^2 t
    # never changes sign; B = diag(1, 4): the first escape is at pi/4.
    with pytest.raises(BlowUp) as exc_info:
        sz.integrate_riccati(constant_system(np.zeros((2, 2)), b), np.zeros((2, 2)), 0.0, 2.0, 800)
    assert pole <= exc_info.value.t <= pole + 2.0 / 800


def test_riccati_against_mpmath():
    # Non-symmetric A(t) that commutes neither with itself nor with B(t).
    import mpmath

    a = [np.array([[0.3, 0.8], [0.6, -0.5]]), np.array([[-0.4, 0.7], [-1.0, 0.6]])]
    b = [np.array([[1.2, -0.5], [-0.5, -0.8]]), np.array([[-1.0, -0.1], [-0.1, 0.2]])]
    w0 = np.array([[1.0, 0.6], [0.2, 1.0]])

    def rhs(t, y):
        w = mpmath.matrix([y[:2], y[2:]])
        at, bt = (mpmath.matrix((c0 + t * c1).tolist()) for c0, c1 in (a, b))
        dw = -bt - at.T * w - w * at - w * w
        return [dw[i, j] for i in range(2) for j in range(2)]

    with mpmath.workdps(20):
        exact = mpmath.odefun(rhs, 0, list(w0.ravel()))
        ref = np.array([[float(v) for v in exact(t)] for t in (0.5, 1.0)]).reshape(-1, 2, 2)
    sys_ = sz.HamiltonianSystem(sz.MatrixPolynomial(a), sz.MatrixPolynomial(b))
    errors = []
    for steps in (50, 100, 200):
        _, ws = sz.integrate_riccati(sys_, w0, 0.0, 1.0, steps)
        errors.append(np.max(np.abs(np.array(ws[steps // 2::steps // 2]) - ref)))
    assert errors[-1] <= 1e-9, errors
    assert errors[0] / errors[1] >= 14.0 and errors[1] / errors[2] >= 14.0, errors


def test_steps_must_be_positive():
    x0 = sz.PhasePoint(np.eye(1), np.zeros((1, 1)))
    for steps in (0, -3):
        with pytest.raises(ValueError):
            sz.integrate_riccati(oscillator(), np.zeros((1, 1)), 0.0, 1.0, steps)
        with pytest.raises(ValueError):
            sz.integrate_hamiltonian(oscillator(), x0, 0.0, 1.0, steps)


def test_hamiltonian_overflow_is_numerical():
    # q' = 300 q grows like exp(300 t) and leaves the float range before t = 10.
    sys_ = sz.HamiltonianSystem(sz.MatrixPolynomial([300.0 * np.eye(1)]),
                                sz.MatrixPolynomial([np.zeros((1, 1))]))
    x0 = sz.PhasePoint(np.eye(1), np.zeros((1, 1)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Overflow):
        sz.integrate_hamiltonian(sys_, x0, 0.0, 10.0, 1000)


def test_curve_from_riccati_tan():
    # A = 0, B = I, W0 = 0: W = -tan t, and z'' = 2 z' tan t with z(0) = 0,
    # z'(0) = I gives z = tan t, z' = sec^2 t.
    sys_ = oscillator()
    ts, ws = sz.integrate_riccati(sys_, np.zeros((1, 1)), 0.0, 1.2, 600)
    jets = sz.curve_from_riccati(ts, ws, sys_.a, np.zeros((1, 1)), np.eye(1), sys_.b)
    assert max(abs(j.z[0, 0] - np.tan(j.t)) for j in jets) < 1e-9
    assert max(abs(j.z1[0, 0] - 1.0 / np.cos(j.t) ** 2) for j in jets) < 1e-9


def test_curve_overflow_is_overflow():
    ws = [1e200 * np.eye(2)] * 2
    zero = sz.MatrixPolynomial([np.zeros((2, 2))])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Overflow, match="t = 0"):
        sz.curve_from_riccati([0.0, 1.0], ws, zero, np.zeros((2, 2)), np.eye(2), zero)


def test_time_dependent_coefficients_closed_form():
    # A(t) = t, B = 0 on [0, 1].  With u = 1 + (sqrt(pi)/2) erf t: W = u'/u
    # from W(0) = 1, z' = u'/u^2 from z(0) = 0, z'(0) = 1, and q = exp(t^2/2)
    # from (q, p) = (1, 0).  A stage read at the wrong time drops RK4's order.
    sys_ = sz.HamiltonianSystem(sz.MatrixPolynomial([np.zeros((1, 1)), np.eye(1)]),
                                sz.MatrixPolynomial([np.zeros((1, 1))]), symmetric_a=True)

    def errors(steps):
        ts, ws = sz.integrate_riccati(sys_, np.eye(1), 0.0, 1.0, steps)
        jets = sz.curve_from_riccati(ts, ws, sys_.a, np.zeros((1, 1)), np.eye(1), sys_.b)
        _, points = sz.integrate_hamiltonian(sys_, sz.PhasePoint(np.eye(1), np.zeros((1, 1))),
                                             0.0, 1.0, steps)
        u = np.array([1.0 + math.sqrt(math.pi) / 2.0 * math.erf(t) for t in ts])
        du = np.exp(-ts ** 2)
        return np.array([
            np.max(np.abs(np.array(ws)[:, 0, 0] - du / u)),
            max(abs(j.z1[0, 0] - d / v ** 2) for j, d, v in zip(jets, du, u)),
            np.max(np.abs(np.array([pt.q[0, 0] for pt in points]) - np.exp(ts ** 2 / 2.0)))])

    coarse, fine = errors(100), errors(200)
    assert np.all(fine <= 1e-10), fine
    assert np.all(coarse / fine >= 12.0), coarse / fine


def test_w_from_jet_matches_riccati_solution():
    # For z = tan with A = 0, W = -(1/2)(z')^-1 z'' solves the oscillator
    # Riccati equation: W(t) = -tan(t).
    for t in (0.1, 0.5, 1.0):
        w = sz.w_from_jet(tan_jet(t), np.zeros((1, 1)))
        assert abs(w[0, 0] + np.tan(t)) < 1e-10


def test_schwarz_equation_residual_on_true_solutions(rng):
    a = sz.MatrixPolynomial([0.2 * _sym(rng, 2), 0.1 * _sym(rng, 2)])
    b = sz.MatrixPolynomial([_sym(rng, 2), 0.2 * _sym(rng, 2)])
    sys_ = sz.HamiltonianSystem(a, b, symmetric_a=True)
    ts, ws = sz.integrate_riccati(sys_, 0.1 * _sym(rng, 2), 0.0, 0.6, 300)
    jets = sz.curve_from_riccati(ts, ws, a, np.zeros((2, 2)), np.eye(2), b_poly=b)
    worst = max(numerics.fro(sz.schwarz_equation_residual(jet, sys_))
                for jet in jets)
    assert worst < 1e-8


def test_round_trip_curve_to_w(rng):
    a = sz.MatrixPolynomial([0.1 * _sym(rng, 2)])
    b = sz.MatrixPolynomial([_sym(rng, 2)])
    sys_ = sz.HamiltonianSystem(a, b, symmetric_a=True)
    ts, ws = sz.integrate_riccati(sys_, np.zeros((2, 2)), 0.0, 0.5, 250)
    jets = sz.curve_from_riccati(ts, ws, a, np.zeros((2, 2)), np.eye(2), b_poly=b)
    worst = max(numerics.fro(sz.w_from_jet(jet, a(jet.t)) - w)
                for jet, w in zip(jets, ws))
    assert worst < 1e-8


def test_euler_residual_on_hamiltonian_solutions(rng):
    a = sz.MatrixPolynomial([0.2 * _sym(rng, 2)])
    b = sz.MatrixPolynomial([_sym(rng, 2)])
    sys_ = sz.HamiltonianSystem(a, b)
    x0 = sz.PhasePoint(np.eye(2), 0.1 * rng.standard_normal((2, 2)))
    ts, points = sz.integrate_hamiltonian(sys_, x0, 0.0, 0.5, 250)
    for t, pt in list(zip(ts, points))[::50]:
        a, b = sys_.a(t), sys_.b(t)
        q1 = a @ pt.q + pt.p
        p1 = -b @ pt.q - a.T @ pt.p
        q2 = a @ q1 + p1  # differentiate q' = Aq + p (A constant)
        res = sz.euler_residual(pt.q, q1, q2, sys_, t)
        assert numerics.fro(res) < 1e-10


def test_euler_residual_is_complex_linear(rng):
    a = sz.MatrixPolynomial([0.2 * _sym(rng, 2)])
    sys_ = sz.HamiltonianSystem(a, sz.MatrixPolynomial([_sym(rng, 2)]))
    q, q1, q2 = (rng.standard_normal((2, 2)) for _ in range(3))
    res = sz.euler_residual(q, q1, q2, sys_, 0.3)
    c = 1.0 + 1.0j
    assert np.allclose(sz.euler_residual(c * q, c * q1, c * q2, sys_, 0.3), c * res,
                       rtol=0.0, atol=1e-14 * numerics.fro(res))
    for bad in (np.ones((2, 3)), np.array([[np.nan, 0.0], [0.0, 1.0]])):
        with pytest.raises(ValueError):
            sz.euler_residual(bad, q1, q2, sys_, 0.3)


def test_polynomial_on_a_time_stack(rng):
    ts = np.array([-0.7, 0.0, 0.4, 1.9])
    for coeffs in ([rng.standard_normal((3, 3))], [rng.standard_normal((3, 3)) for _ in range(3)]):
        poly = sz.MatrixPolynomial(coeffs)
        stacked = poly(ts[:, None, None])
        assert stacked.shape == (4, 3, 3)
        assert np.array_equal(stacked, np.array([poly(t) for t in ts]))
        assert not np.shares_memory(poly(0.5), poly.coeffs[-1])
    # A Python float time keeps float32 coefficients in float32.
    assert sz.MatrixPolynomial([np.eye(2, dtype=np.float32)])(0.5).dtype == np.float32


def test_system_validation(rng):
    asym = sz.MatrixPolynomial([np.array([[0.0, 1.0], [0.0, 0.0]])])
    sym = sz.MatrixPolynomial([np.eye(2)])
    with pytest.raises(ValueError):
        sz.HamiltonianSystem(sym, asym)  # B not symmetric
    b = sz.MatrixPolynomial(sampled_symmetric_b())
    assert numerics.fro(b(0.5) - b(0.5).T) > 0.1
    with pytest.raises(ValueError):
        sz.HamiltonianSystem(sym, b)
    with pytest.raises(ValueError):
        sz.HamiltonianSystem(asym, sym, symmetric_a=True)
    sz.HamiltonianSystem(asym, sym)  # fine without the flag
    with pytest.raises(ValueError):
        sz.schwarz_equation_residual(tan_jet(0.0), sz.HamiltonianSystem(asym, sym))


def test_json_round_trips(rng):
    jet = tan_jet(0.3)
    back = sz.CurveJet.from_json(jet.to_json())
    assert numerics.fro(back.z3 - jet.z3) < 1e-15
    sys_ = sz.HamiltonianSystem(sz.MatrixPolynomial([_sym(rng, 2)]),
                                sz.MatrixPolynomial([_sym(rng, 2)]),
                                symmetric_a=True)
    back = sz.HamiltonianSystem.from_json(sys_.to_json())
    assert back.symmetric_a
    assert numerics.fro(back.a(0.5) - sys_.a(0.5)) < 1e-15


def test_json_rejects_boolean_numbers():
    assert np.array_equal(sz.MatrixPolynomial.from_json([[[1, 2.5], [0, 1]]]).coeffs[0],
                          [[1.0, 2.5], [0.0, 1.0]])
    for coeffs in ([[[True]]], [[[1.0, "x"]]], [[[1.0], [1.0, 2.0]]]):
        with pytest.raises(ValueError):
            sz.MatrixPolynomial.from_json(coeffs)
    with pytest.raises(ValueError):
        sz.HamiltonianSystem.from_json({"dim": True, "A": [[[0.0]]], "B": [[[0.0]]]})
    obj = tan_jet(0.3).to_json()
    obj["t"] = True
    with pytest.raises(ValueError):
        sz.CurveJet.from_json(obj)


def _sym(rng, n):
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)
