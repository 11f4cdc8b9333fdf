import math
import tracemalloc
import warnings
from itertools import accumulate

import numpy as np
import pytest

from opcross import numerics
from opcross import schwarzian as sz
from opcross.errors import BlowUp, Overflow, Singular
from conftest import polynomial_curve, sampled_symmetric_b, spectra_close


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
    assert jet.z.shape == (2, 2)


def test_schwarzian_of_tan_is_two():
    for t in (0.0, 0.3, 1.0):
        s = sz.schwarz(tan_jet(t))
        assert abs(s[0, 0] - 2.0) < 1e-10


def test_schwarzian_of_affine_curve_is_zero(rng):
    c0 = rng.standard_normal((3, 3))
    c1 = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    jet = sz.CurveJet(0.7, c0 + 0.7 * c1, c1, np.zeros((3, 3)), np.zeros((3, 3)))
    assert numerics.fro(sz.schwarz(jet)) < 1e-12


def test_schwarzian_overflow_is_overflow():
    eye = np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Overflow):
        sz.schwarz(sz.CurveJet(0.0, eye, eye, 1e200 * eye, eye))


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
        assert spectra_close(base, spec, 1e-7)


def test_overflowing_mobius_series_denominator_is_a_silent_overflow():
    eye = np.eye(2)
    jet = sz.CurveJet(0.0, 1e308 * eye, eye, 0 * eye, 0 * eye)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # The series' constant term C3 z + C4 = 2e308 I + I leaves the float range.
        with pytest.raises(Overflow, match="^a factor to invert is not finite$"):
            sz.mobius_curve_jet(eye, eye, 2.0 * eye, eye, jet)


def test_overflowing_mobius_jet_is_a_silent_overflow():
    eye = np.eye(2)
    jet = sz.CurveJet(0.0, 1e308 * eye, eye, 0 * eye, 0 * eye)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # C3 z + C4 = I is finite, the numerator C1 z + C2 = 2e308 I + I is not.
        with pytest.raises(Overflow, match="^the Moebius image jet is not finite$"):
            sz.mobius_curve_jet(2.0 * eye, eye, 0 * eye, eye, jet)


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
    assert np.array_equal(points.w(), [pt.w() for pt in points])


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
    with pytest.raises(BlowUp):
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


def test_riccati_pole_before_the_state_overflows():
    # A = 0, B = diag(100, -1e6), W0 = 0: W_11 = -10 tan 10t has its pole at
    # pi/20 ~ 0.15708, and q_22 = cosh 1000t leaves the float range near 0.70.
    # The first lost node is the pole's, whether or not the run goes on to
    # overflow; neither run warns.
    sys_ = constant_system(np.zeros((2, 2)), np.diag([100.0, -1e6]))
    ts = np.array(list(accumulate([1e-4] * 10000, initial=0.0)))
    for t1, steps in ((0.5, 5000), (1.0, 10000)):
        with pytest.raises(BlowUp) as exc_info:
            sz.integrate_riccati(sys_, np.zeros((2, 2)), 0.0, t1, steps)
        assert exc_info.value.t == ts[1571]
    with pytest.raises(Overflow, match="overflowed at t = 0.7036$"):
        sz.integrate_hamiltonian(sys_, sz.PhasePoint(np.eye(2), np.zeros((2, 2))), 0.0, 1.0, 10000)


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


def test_steps_must_be_an_integer():
    x0 = sz.PhasePoint(np.eye(1), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="steps must be an integer, got 2.5"):
        sz.integrate_riccati(oscillator(), np.zeros((1, 1)), 0.0, 1.0, 2.5)
    with pytest.raises(ValueError, match="steps must be an integer, got 2.5"):
        sz.integrate_hamiltonian(oscillator(), x0, 0.0, 1.0, 2.5)
    # A numpy integer is a count, and runs as the int does.
    ts, ws = sz.integrate_riccati(oscillator(), np.zeros((1, 1)), 0.0, 1.0, np.int64(4))
    ref_ts, ref_ws = sz.integrate_riccati(oscillator(), np.zeros((1, 1)), 0.0, 1.0, 4)
    assert np.array_equal(ts, ref_ts) and np.array_equal(ws, ref_ws)
    _, points = sz.integrate_hamiltonian(oscillator(), x0, 0.0, 1.0, np.int64(4))
    _, ref = sz.integrate_hamiltonian(oscillator(), x0, 0.0, 1.0, 4)
    assert np.array_equal(points.q, ref.q) and np.array_equal(points.p, ref.p)


def test_hamiltonian_overflow_is_numerical():
    # q' = 300 q grows like exp(300 t) and leaves the float range before t = 10.
    sys_ = sz.HamiltonianSystem(sz.MatrixPolynomial([300.0 * np.eye(1)]),
                                sz.MatrixPolynomial([np.zeros((1, 1))]))
    x0 = sz.PhasePoint(np.eye(1), np.zeros((1, 1)))
    with pytest.raises(Overflow):
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


def test_an_overflowing_derivative_is_a_silent_overflow():
    # 2 * 1e308 I leaves the float range; the coefficients themselves are finite.
    poly = sz.MatrixPolynomial([np.eye(2), np.eye(2), 1e308 * np.eye(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow) as exc_info:
            poly.derivative()
    assert str(exc_info.value) == "a coefficient of the derivative is not finite"


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


def test_symmetry_test_of_huge_coefficients():
    # The test runs on scaled coefficients, so entries near the float limit raise
    # no numpy warning (an error under this suite's filter) and keep their verdict.
    zero = sz.MatrixPolynomial([np.zeros((2, 2))])
    for b in (1e300 * np.eye(2), np.diag([1.5e308 + 1.5e308j, 1.0])):
        sz.HamiltonianSystem(zero, sz.MatrixPolynomial([b]))
    with pytest.raises(ValueError, match="must be symmetric"):
        sz.HamiltonianSystem(zero, sz.MatrixPolynomial([np.array([[0.0, 1e308], [-1e308, 0.0]])]))
    # w_from_jet tests its A by the same rule.
    jet = sz.CurveJet(0.0, np.eye(2), np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
    assert np.array_equal(sz.w_from_jet(jet, 1e200 * np.eye(2)), -1e200 * np.eye(2))
    with pytest.raises(ValueError, match="must be symmetric"):
        sz.w_from_jet(jet, np.array([[0.0, 1e308], [-1e308, 0.0]]))


def jet_json(jet):
    return {"t": jet.t, **{k: numerics.matrix_to_json(getattr(jet, k)) for k in ("z", "z1", "z2", "z3")}}


def test_json_round_trips(rng):
    jet = tan_jet(0.3)
    back = sz.CurveJet.from_json(jet_json(jet))
    assert numerics.fro(back.z3 - jet.z3) < 1e-15
    sys_ = sz.HamiltonianSystem(sz.MatrixPolynomial([_sym(rng, 2)]),
                                sz.MatrixPolynomial([_sym(rng, 2)]),
                                symmetric_a=True)
    back = sz.HamiltonianSystem.from_json({"dim": 2, "symmetric_A": True,
                                           "A": [numerics.matrix_to_json(c) for c in sys_.a.coeffs],
                                           "B": [numerics.matrix_to_json(c) for c in sys_.b.coeffs]})
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
    obj = jet_json(tan_jet(0.3))
    obj["t"] = True
    with pytest.raises(ValueError):
        sz.CurveJet.from_json(obj)


def test_bare_coefficient_rows_take_the_entries_of_data():
    rows = [[1.0, [0.5, -2.0]], [[0.5, -2.0], 3]]
    bare = sz.MatrixPolynomial.from_json([rows]).coeffs[0]
    assert bare.dtype == complex and bare[0, 1] == 0.5 - 2j
    assert np.array_equal(bare, numerics.matrix_from_json({"rows": 2, "cols": 2, "data": rows}))


def _sym(rng, n):
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


def _random_trajectories(rng, steps):
    a = sz.MatrixPolynomial([0.2 * _sym(rng, 2), 0.1 * _sym(rng, 2)])
    b = sz.MatrixPolynomial([_sym(rng, 2), 0.2 * _sym(rng, 2)])
    sys_ = sz.HamiltonianSystem(a, b, symmetric_a=True)
    w0 = 0.1 * _sym(rng, 2)
    ts, ws = sz.integrate_riccati(sys_, w0, 0.0, 0.6, steps)
    jets = sz.curve_from_riccati(ts, ws, a, np.zeros((2, 2)), np.eye(2), b_poly=b)
    _, points = sz.integrate_hamiltonian(sys_, sz.PhasePoint(np.eye(2), w0), 0.0, 0.6, steps)
    return sys_, ts, ws, jets, points


def test_trajectories_are_validated_once(rng, monkeypatch):
    # One stacked object per trajectory: the curve makes at most one SVD for
    # z'(0) and one for the z' of all nodes, the Hamiltonian run one PhasePoint.
    svds, builds = [], []
    singular_values, post_init = numerics.singular_values, sz.PhasePoint.__post_init__
    monkeypatch.setattr(numerics, "singular_values",
                        lambda *args, **kw: svds.append(1) or singular_values(*args, **kw))
    monkeypatch.setattr(sz.PhasePoint, "__post_init__",
                        lambda self: builds.append(1) or post_init(self))
    sys_, ts, ws, _, _ = _random_trajectories(rng, 1000)
    x0 = sz.PhasePoint(np.eye(2), ws[0])
    svds.clear()
    builds.clear()
    jets = sz.curve_from_riccati(ts, ws, sys_.a, np.zeros((2, 2)), np.eye(2), b_poly=sys_.b)
    _, points = sz.integrate_hamiltonian(sys_, x0, 0.0, 0.6, 1000)
    assert len(svds) <= 2 and len(builds) <= 2, (len(svds), len(builds))
    assert jets.z.shape == points.q.shape == (1001, 2, 2)


def test_stacked_jet_names_the_first_singular_node():
    ts = np.linspace(0.0, 1.0, 11)
    z1 = np.array([np.eye(2)] * 11)
    z1[7] = [[1.0, 2.0], [2.0, 4.0]]
    z1[9] = 0.0
    with pytest.raises(Singular) as node:
        sz.CurveJet(ts[7], z1[7], z1[7], z1[7], z1[7])
    with pytest.raises(Singular) as stack:
        sz.CurveJet(ts, z1, z1, z1, z1)
    assert str(stack.value) == str(node.value) == f"z' is numerically singular at t = {ts[7]:.6g}"


def _node(rng, sigmas, dtype):
    """u diag(sigmas) v^H for random orthogonal (complex: unitary) u and v, in dtype."""
    n = len(sigmas)
    u, v = (np.linalg.qr(rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n))
                         if np.iscomplexobj(np.zeros(1, dtype)) else 0.0))[0] for _ in range(2))
    return ((u * sigmas) @ v.conj().T).astype(dtype)


def _svd_rule(ts, z1):
    """The SVD's verdict on the z' stack: None, or the message of its Singular."""
    try:
        numerics.require_nonsingular(numerics.singular_values(z1), Singular,
                                     lambda i: f"z' is numerically singular at t = {ts.item(i):.6g}")
    except Singular as exc:
        return str(exc)


def _jet_rule(ts, z1):
    try:
        sz.CurveJet(ts, z1, z1, z1, z1)
    except Singular as exc:
        return str(exc)


def _certified(z, svd_calls):
    """Whether numerics.inverse accepts z without an SVD."""
    svd_calls.clear()
    try:
        numerics.inverse(z, Singular, "z' is numerically singular")
    except Singular:
        return False
    return not svd_calls


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.float32])
def test_certificate_decides_as_the_svd(rng, svd_calls, dtype):
    # Certified nodes, then the uncertain ones: a node the inverse does not
    # certify but the SVD accepts, one the SVD rejects, and an exactly
    # singular one (a zero column: LU meets a zero pivot).  float32 cannot
    # hold kappa = 1e9 or 1e11, so its uncertain node has kappa = 1e4 and its
    # rejected one is a permuted diagonal with sigma_min = 1e-11.
    n = 6
    sigmas = np.geomspace(1.0, 0.1, n)
    well = [_node(rng, sigmas * 10.0 ** e, dtype) for e in (-15, -3, 0, 4, 15)]
    if dtype == np.float32:
        accepted = _node(rng, np.geomspace(1.0, 1e-4, n), dtype)
        rejected = np.eye(n, dtype=dtype)[::-1] * np.geomspace(1.0, 1e-11, n).astype(dtype)
    else:
        accepted, rejected = (_node(rng, np.geomspace(1.0, kappa ** -1.0, n), dtype)
                              for kappa in (1e9, 1e11))
    singular = _node(rng, sigmas, dtype)
    singular[:, 2] = 0.0
    assert all(_certified(z, svd_calls) for z in well)
    assert _certified(np.array(well), svd_calls)
    assert not any(_certified(z, svd_calls) for z in (accepted, rejected, singular))
    # (nodes, index of the first node the SVD rejects)
    stacks = [(well, None), ([*well, accepted], None), ([accepted, *well], None),
              ([*well, accepted, rejected], 6), ([rejected, accepted, *well], 0),
              ([*well, singular], 5), ([accepted, singular, rejected, *well], 1),
              ([well[0], rejected, singular, accepted], 1)]
    for nodes, first in stacks:
        z1 = np.array(nodes)
        ts = np.linspace(0.1, 0.9, len(z1))
        verdict = _svd_rule(ts, z1)
        assert verdict == (None if first is None else
                           f"z' is numerically singular at t = {ts[first]:.6g}")
        assert _jet_rule(ts, z1) == verdict
        for t, z in zip(ts, z1):
            assert _jet_rule(t, z) == _svd_rule(np.array([t]), z[None])
    for z in (*well, accepted, rejected, singular):
        s = numerics.singular_values(z)
        if s[-1] > numerics.SINGULAR_RTOL * s[0]:
            numerics.inverse(z, Singular, "z' is numerically singular")
        else:
            with pytest.raises(Singular, match="numerically singular"):
                numerics.inverse(z, Singular, "z' is numerically singular")


def test_a_certified_curve_takes_no_svd(rng, monkeypatch):
    # A 1000-step dim-6 curve: z'(0) and the z' of its nodes are certified
    # by their inverses, so the run takes no SVD.
    sys_ = linear_system(rng, 6)
    ts, ws = sz.integrate_riccati(sys_, 0.1 * _sym(rng, 6), 0.0, 0.6, 1000)
    svds = []
    singular_values = numerics.singular_values
    monkeypatch.setattr(numerics, "singular_values",
                        lambda *args, **kw: svds.append(1) or singular_values(*args, **kw))
    jets = sz.curve_from_riccati(ts, ws, sys_.a, np.zeros((6, 6)), np.eye(6), sys_.b)
    assert len(jets) == 1001 and svds == []


def test_stacked_jet_shapes_must_agree():
    stack = np.array([np.eye(2)] * 3)
    for t, z in ((np.zeros(2), stack), (np.zeros((3, 1)), stack), (0.0, stack), (np.zeros(3), np.eye(2))):
        with pytest.raises(ValueError):
            sz.CurveJet(t, z, z, z, z)


def test_stacked_schwarz_equation_residual_matches_nodes(rng):
    sys_, _, _, jets, _ = _random_trajectories(rng, 300)
    pair = jets[[0, 300]]
    per_node = np.array([sz.schwarz_equation_residual(jet, sys_) for jet in pair])
    assert per_node.shape == (2, 2, 2) and np.max(np.abs(per_node)) < 1e-8
    assert np.max(np.abs(sz.schwarz_equation_residual(pair, sys_) - per_node)) <= 1e-12


def test_integrate_hamiltonian_rejects_a_stacked_start():
    x0 = sz.PhasePoint(np.array([np.eye(2)] * 3), np.zeros((3, 2, 2)))
    with pytest.raises(ValueError, match="x0"):
        sz.integrate_hamiltonian(constant_system(np.zeros((2, 2)), np.eye(2)), x0, 0.0, 1.0, 10)


def test_nodes_are_the_stack_rows(rng):
    _, ts, ws, jets, points = _random_trajectories(rng, 50)
    nodes, phase = list(jets), list(points)
    assert len(jets) == len(points) == len(nodes) == len(phase) == len(ts) == len(ws)
    for i, (jet, pt) in enumerate(zip(nodes, phase)):
        assert type(jet.t) is float and jet.t == ts[i]
        for node, stacked, names in ((jet, jets, ("z", "z1", "z2", "z3")), (pt, points, ("q", "p"))):
            for name in names:
                assert getattr(node, name).tobytes() == getattr(stacked, name)[i].tobytes()
    assert jets[-1].t == ts[-1] and points[-1].q.tobytes() == points.q[-1].tobytes()
    for single in (jets[0], points[0]):
        with pytest.raises(TypeError):
            len(single)
        with pytest.raises((TypeError, ValueError)):
            single[0]


@pytest.mark.parametrize("h", [0.0, float("nan"), float("inf")])
def test_finite_difference_step_must_be_finite_and_nonzero(h):
    samples = [np.array([[np.tan(k * 0.01)]]) for k in range(-3, 4)]
    for call in (sz.jet_from_samples, sz.schwarz_from_samples):
        with pytest.raises(ValueError, match="h must be"):
            call(samples, h)


# --- the step-matrix kernel against classical RK4 run stage by stage ---------

def reference_rk4(f, y, hs, coef, error=None):
    """Classical RK4 for y' = f(y, c), c = coef(k) at stage time k, one stage
    vector at a time; error(i) at the first node i whose state is not finite."""
    y0, c = y, coef(0)
    for i, h in enumerate(hs):
        k1 = f(y, c)
        c = coef(2 * i + 1)
        k2 = f(y + (h / 2.0) * k1, c)
        k3 = f(y + (h / 2.0) * k2, c)
        c = coef(2 * i + 2)
        k4 = f(y + h * k3, c)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if error is not None and not np.isfinite(y).all():
            raise error(i + 1)
        if i == 0:
            ys = np.empty((len(hs) + 1, *y.shape), y.dtype)
            ys[0] = y0
        ys[i + 1] = y
    return ys


def reference_hamiltonian_run(sys_, q0, p0, t1, steps, error=None):
    """Node times and states (q, p) from t = 0 by reference_rk4, in the
    precision of q0 and p0."""
    hs = [t1 / steps] * steps
    ts = np.array(list(accumulate(hs, initial=0.0)))
    st = sz._stages(ts, ts[:-1] + np.divide(hs, 2.0))

    def rhs(y, c):
        (a, b), (q, p) = c, y
        return np.array([a @ q + p, -b @ q - a.T @ p])

    return ts, reference_rk4(rhs, np.array([q0, p0]), hs,
                             lambda k: (sys_.a(st.item(k)), sys_.b(st.item(k))),
                             error and (lambda i: error(ts.item(i))))


def reference_curve(ts, ws, a_poly, z0, z1_0, b_poly, dtype=None):
    """z and z' of curve_from_riccati by reference_rk4, or its Overflow; the
    states are integrated in dtype (default: that of z0 and W) and the jets
    formed in the precision of z0 and W."""
    hs, tcol = np.diff(ts), ts[:, None, None]
    a_st = a_poly(sz._stages(ts, ts[:-1] + np.divide(hs, 2.0))[:, None, None])
    slopes = sz.riccati_rhs(ws, (a_st[::2], b_poly(tcol)))
    mid = (ws[:-1] + ws[1:]) / 2.0 + hs[:, None, None] * (slopes[:-1] - slopes[1:]) / 8.0
    wa = np.insert(ws, np.arange(1, len(ts)), mid, axis=0) + a_st
    ys = reference_rk4(lambda y, c: np.array([y[1], -2.0 * y[1] @ c]),
                       np.array([z0, z1_0], dtype), hs, lambda k: wa[k])
    ys = ys.astype(np.result_type(ws, z0))
    z2 = -2.0 * ys[:, 1] @ wa[::2]
    z3 = -2.0 * z2 @ wa[::2] - 2.0 * ys[:, 1] @ (slopes + a_poly.derivative()(tcol))
    finite = np.all([np.isfinite(s).reshape(len(ts), -1).all(axis=1) for s in (ys, z2, z3)], axis=0)
    if not finite.all():
        raise Overflow(f"the curve jet overflowed at t = {ts[np.argmin(finite)]:.6g}")
    return ys[:, 0], ys[:, 1]


def expression_rk4(gs, y, hs):
    """RK4's states from y under the stack gs of G at the stage times, each step
    matrix M = I + h/6 (K1 + 2 K2 + 2 K3 + K4) formed as one expression over the
    whole run."""
    h, eye = np.asarray(hs)[:, None, None], np.eye(gs.shape[-1])
    k1, gm = gs[:-1:2], gs[1::2]
    k2 = gm @ (eye + h / 2.0 * k1)
    k3 = gm @ (eye + h / 2.0 * k2)
    k4 = gs[2::2] @ (eye + h * k3)
    ys = [y]
    for m in eye + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4):
        ys.append(m @ ys[-1])
    return np.array(ys)


def _rel(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


def linear_system(rng, n):
    a = sz.MatrixPolynomial([0.2 * _sym(rng, n), 0.1 * _sym(rng, n)])
    return sz.HamiltonianSystem(a, sz.MatrixPolynomial([_sym(rng, n), 0.2 * _sym(rng, n)]),
                                symmetric_a=True)


def test_constant_coefficients_step_by_the_stability_polynomial(rng):
    # For constant G, RK4's step matrix is R(hG) = sum_{k<=4} (hG)^k / k!.
    for n in (1, 2, 6):
        a, b, q0, p0 = 0.3 * rng.standard_normal((n, n)), _sym(rng, n), *rng.standard_normal((2, n, n))
        steps, t1 = 200, 0.8
        hg = t1 / steps * np.block([[a, np.eye(n)], [-b, -a.T]])
        r = sum(np.linalg.matrix_power(hg, k) / math.factorial(k) for k in range(5))
        y = np.concatenate([q0, p0])
        ref = [y := r @ y for _ in range(steps)]
        _, points = sz.integrate_hamiltonian(constant_system(a, b), sz.PhasePoint(q0, p0), 0.0, t1, steps)
        assert _rel(np.concatenate([points.q, points.p], axis=1)[1:], np.array(ref)) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize("steps", [1, 63, 64, 65, 1000])
def test_integrators_match_stage_by_stage_rk4(rng, n, steps):
    sys_ = linear_system(rng, n)
    for w0 in (0.1 * _sym(rng, n), 0.1 * (_sym(rng, n) + 1j * _sym(rng, n))):
        ts, ref = reference_hamiltonian_run(sys_, np.eye(n), w0, 0.6, steps, BlowUp)
        _, points = sz.integrate_hamiltonian(sys_, sz.PhasePoint(np.eye(n), w0), 0.0, 0.6, steps)
        assert _rel(np.stack([points.q, points.p], axis=1), ref) <= 1e-12
        _, ws = sz.integrate_riccati(sys_, w0, 0.0, 0.6, steps)
        ref_ws = sz.PhasePoint(ref[:, 0], ref[:, 1]).w()
        assert _rel(ws, ref_ws) <= 1e-12
        z0, z1_0 = 0.5 * rng.standard_normal((n, n)), np.eye(n)
        jets = sz.curve_from_riccati(ts, ref_ws, sys_.a, z0, z1_0, sys_.b)
        ref_z, ref_z1 = reference_curve(ts, ref_ws, sys_.a, z0, z1_0, sys_.b)
        assert _rel(jets.z, ref_z) <= 1e-12 and _rel(jets.z1, ref_z1) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 6])
def test_dot_steps_are_the_matmul_product(rng, monkeypatch, n):
    # The kernel advances each state by M_i.dot(y_i, out=y_{i+1}); it must write
    # exactly np.matmul's product, for real, complex and mixed operands (a complex
    # W0 under a real system; a complex W in the curve's run).  Each chunk's step
    # matrices and states reach the check through _rk4's on_chunk.
    steps, count, kinds, rk4 = [], [0], set(), sz._rk4

    def checked(on_chunk):
        def check(j, m, ys):
            for i in range(len(ys) - 1):
                mi = m[i] if len(m) > 1 else m[0]
                assert np.matmul(mi, ys[i]).tobytes() == ys[i + 1].tobytes()
                kinds.add((mi.dtype.kind, ys.dtype.kind))
            count[0] += len(ys) - 1
            if on_chunk is not None:
                on_chunk(j, m, ys)
        return check

    monkeypatch.setattr(sz, "_rk4", lambda g, y, hs, on_chunk=None: rk4(g, y, hs, checked(on_chunk)))
    sys_ = linear_system(rng, n)
    for w0 in (0.1 * _sym(rng, n), 0.1 * (_sym(rng, n) + 1j * _sym(rng, n))):
        ts, ws = sz.integrate_riccati(sys_, w0, 0.0, 0.6, 1000)
        sz.curve_from_riccati(ts, ws, sys_.a, np.zeros((n, n)), np.eye(n), sys_.b)
        steps.append(count[0])
    assert steps == [2000, 4000]
    assert kinds == {("f", "f"), ("f", "c"), ("c", "c")}


def test_chunk_size_does_not_change_a_bit(rng, monkeypatch):
    # Chunks of 1 step, of 64 steps, of the whole run and of the rule's own size
    # (2304, 576 and 64 steps at dims 1, 2 and 6, so the run ends in a part chunk)
    # give the same bits.
    for n, rule in ((1, 2304), (2, 576), (6, 64)):
        assert max(sz._CHUNK, sz._CHUNK_ENTRIES // (2 * n) ** 2) == rule
        steps, sys_, w0 = rule + 66, linear_system(rng, n), 0.1 * _sym(rng, n)

        def run():
            ts, ws = sz.integrate_riccati(sys_, w0, 0.0, 0.6, steps)
            jets = sz.curve_from_riccati(ts, ws, sys_.a, np.zeros((n, n)), np.eye(n), sys_.b)
            _, points = sz.integrate_hamiltonian(sys_, sz.PhasePoint(np.eye(n), w0), 0.0, 0.6, steps)
            return b"".join(x.tobytes() for x in (ws, jets.z, jets.z1, jets.z2, jets.z3, points.q, points.p))

        runs = [run()]
        with monkeypatch.context() as patch:
            patch.setattr(sz, "_CHUNK_ENTRIES", 0)
            for chunk in (1, 64, steps):
                patch.setattr(sz, "_CHUNK", chunk)
                runs.append(run())
        assert runs[0] == runs[1] == runs[2] == runs[3], n


@pytest.mark.parametrize("n, node", [(6, 64), (6, 65), (2, 576), (2, 577)])
@pytest.mark.parametrize("degree", [0, 1])
def test_a_pole_next_to_a_chunk_boundary(rng, n, node, degree):
    # B = S diag(c) S^T, A = 0, W0 = 0: q = S cos(sqrt(c) t) S^T, whose first pole
    # is placed mid-step into node 64 or 65 at dim 6 (chunks of 64 steps) and 576
    # or 577 at dim 2 (chunks of 576).  The step into node 64 is its chunk's last;
    # the one into node 65 is read with the W of the chunk before.  BlowUp.t must be
    # the pole of the stage-by-stage run, found from q_{i+1} q_i^-1 there.  A of
    # degree 1 (zero slope) gives one step matrix per step; a constant A, one per chunk.
    h, steps = 1e-3, node + 100
    s = np.linalg.qr(rng.standard_normal((n, n)))[0]
    c = (np.pi / (2.0 * (node - 0.5) * h)) ** 2 * np.append(1.0, rng.uniform(0.1, 0.8, n - 1))
    sys_ = sz.HamiltonianSystem(sz.MatrixPolynomial([np.zeros((n, n))] * (degree + 1)),
                                sz.MatrixPolynomial([(s * c) @ s.T]))
    ts, ref = reference_hamiltonian_run(sys_, np.eye(n), np.zeros((n, n)), steps * h, steps)
    d = np.linalg.solve(ref[:-1, 0].swapaxes(-1, -2), ref[1:, 0].swapaxes(-1, -2)) - np.eye(n)
    pole = 1 + next(i for i in range(steps) if numerics.eigenvalues(d[i])[0].real <= -1.0)
    assert pole == node
    with pytest.raises(BlowUp) as exc_info:
        sz.integrate_riccati(sys_, np.zeros((n, n)), 0.0, steps * h, steps)
    assert exc_info.value.t == ts[pole]


@pytest.mark.parametrize("steps", [1, 63, 64, 65, 1000])
def test_a_constant_system_steps_as_its_zero_slope_polynomial(rng, monkeypatch, steps):
    # A constant G gives the kernel a one-matrix stack, and each chunk one step
    # matrix; the same system written as degree-1 polynomials with zero slope
    # gives one G per stage time and one step matrix per step.  Both are the
    # same RK4 steps, bit for bit, for a real, complex or float32 W0.
    n = 3
    a, b = 0.3 * rng.standard_normal((n, n)), _sym(rng, n)
    const = constant_system(a, b)
    sloped = sz.HamiltonianSystem(sz.MatrixPolynomial([a, np.zeros((n, n))]),
                                  sz.MatrixPolynomial([b, np.zeros((n, n))]))
    stacks, rk4 = [], sz._rk4
    monkeypatch.setattr(sz, "_rk4", lambda g, *args: stacks.append(len(g(slice(0, 3)))) or rk4(g, *args))
    w0 = 0.1 * _sym(rng, n)
    for w in (w0, w0 + 0.1j * _sym(rng, n), w0.astype(np.float32)):
        runs = []
        for sys_ in (const, sloped):
            ts, ws = sz.integrate_riccati(sys_, w, -0.3, 0.5, steps)
            _, points = sz.integrate_hamiltonian(sys_, sz.PhasePoint(np.eye(n, dtype=w.dtype), w),
                                                 -0.3, 0.5, steps)
            runs.append([(x.dtype, x.tobytes()) for x in (ts, ws, points.q, points.p)])
        assert runs[0] == runs[1]
    assert stacks == [1, 1, 3, 3] * 3


@pytest.mark.parametrize("degrees", [(2, 0), (0, 3), (0, 0)])
def test_the_generator_polynomial_is_the_assembled_blocks(rng, monkeypatch, degrees):
    # The Hamiltonian run evaluates G = [[A, I], [-B, -A^T]] as one polynomial of
    # blocks (a constant G as one matrix).  At every stage time it must equal the
    # matrix assembled from A(t) and B(t); B is diagonal, its other entries 0.0 in
    # one pass and -0.0 in the next, and t0 < 0, so a zero may differ in sign,
    # which no output shows: the step matrices that _rk4 hands to on_chunk (the
    # pole verdict reads them) and the states must be those of _rk4 on the
    # assembled G, bit for bit, whose in-place stages give the bits of each step
    # matrix written as one expression.
    n, steps, t0, t1 = 3, 1000, -0.4, 0.5
    rk4 = sz._rk4
    for zero in (0.0, -0.0):
        a = sz.MatrixPolynomial([0.3 * rng.standard_normal((n, n)) for _ in range(degrees[0] + 1)])
        b = sz.MatrixPolynomial([np.where(np.eye(n, dtype=bool), rng.standard_normal(n), zero)
                                 for _ in range(degrees[1] + 1)])
        sys_ = sz.HamiltonianSystem(a, b)
        hs = [(t1 - t0) / steps] * steps
        ts = np.array(list(accumulate(hs, initial=t0)))
        st = sz._stages(ts, ts[:-1] + np.divide(hs, 2.0))[:, None, None]

        def assembled(s):
            at, bt = (p(st[s] if max(degrees) else st[:1]) for p in (a, b))
            return sz._blocks(at, np.eye(n), -bt, -at.swapaxes(-1, -2))

        generators, chunks = [], []

        def recording(g, y, hs, on_chunk=None):
            generators.append(g)
            return rk4(g, y, hs,
                       on_chunk and (lambda j, m, ys: chunks.append(m.copy()) or on_chunk(j, m, ys)))

        monkeypatch.setattr(sz, "_rk4", recording)
        w0 = 0.1 * _sym(rng, n)
        whole = slice(0, 2 * steps + 1)
        for w in (w0, w0 + 0.1j * _sym(rng, n)):
            y0 = np.concatenate([np.eye(n), w])
            ys = rk4(assembled, y0, hs)
            gs = np.broadcast_to(assembled(whole), (2 * steps + 1, 2 * n, 2 * n))
            assert ys.tobytes() == expression_rk4(gs, y0, hs).tobytes()
            got_ts, points = sz.integrate_hamiltonian(sys_, sz.PhasePoint(np.eye(n), w), t0, t1, steps)
            assert got_ts.tobytes() == ts.tobytes()
            got = np.stack([points.q, points.p], axis=1)
            assert got.dtype == ys.dtype and got.tobytes() == ys.reshape(got.shape).tobytes()
            expect, chunks[:] = [], []
            rk4(assembled, y0, hs, lambda j, m, ys: expect.append(m.copy()))
            sz.integrate_riccati(sys_, w, t0, t1, steps)
            assert [m.tobytes() for m in chunks] == [m.tobytes() for m in expect]
        assert np.array_equal(*np.broadcast_arrays(generators[0](whole), assembled(whole)))


@pytest.mark.parametrize("t0, t1", [(0.0, float("nan")), (float("nan"), 1.0),
                                    (0.0, float("inf")), (-1e308, 1e308)])
def test_a_time_grid_that_is_not_finite_is_malformed(t0, t1):
    # (t1 - t0) / steps of -1e308 and 1e308 overflows: the step is not finite.
    sys_ = constant_system([[0.0]], [[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the time grid must be finite"):
            sz.integrate_riccati(sys_, np.zeros((1, 1)), t0, t1, 10)
        with pytest.raises(ValueError, match="^the time grid must be finite"):
            sz.integrate_hamiltonian(sys_, sz.PhasePoint(np.eye(1), np.zeros((1, 1))), t0, t1, 10)


@pytest.mark.parametrize("ts", [[0.0, float("nan"), 1.0], [0.0, 0.5, float("inf")], [-1e308, 1e308]])
def test_curve_times_that_are_not_finite_are_malformed(ts):
    zero = sz.MatrixPolynomial([np.zeros((1, 1))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the times ts and their steps must be finite$"):
            sz.curve_from_riccati(ts, np.zeros((len(ts), 1, 1)), zero, np.zeros((1, 1)), np.eye(1), zero)


def test_overflow_in_the_second_chunk_is_the_first_state_out_of_range(monkeypatch):
    # A(t) = 2e5 t I: q = exp(1e5 t^2) leaves the float range at a node of
    # the second chunk of 64 steps, and so does z' under W + A = -4000 I (in
    # the first chunk of the dim-2 rule's 576 steps; both chunk sizes run).
    # The oracle is the stage-by-stage loop run in long double, whose range
    # holds these states: the first node whose state is beyond the float
    # range is where the integrators must stop.
    n, steps = 2, 1000
    sys_ = sz.HamiltonianSystem(sz.MatrixPolynomial([np.zeros((n, n)), 2e5 * np.eye(n)]),
                                sz.MatrixPolynomial([np.zeros((n, n))]))
    x0 = sz.PhasePoint(np.eye(n), np.zeros((n, n)))
    zero = sz.MatrixPolynomial([np.zeros((n, n))])
    ws = np.array([-4000.0 * np.eye(n)] * (steps + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        ts, wide = reference_hamiltonian_run(sys_, x0.q.astype(np.longdouble), x0.p, 1.0, steps)
        node = int(np.argmin(np.isfinite(wide.astype(float)).reshape(steps + 1, -1).all(axis=1)))
        with pytest.raises(Overflow) as ref_curve:
            reference_curve(ts, ws, zero, np.zeros((n, n)), np.eye(n), zero, np.longdouble)
        with pytest.raises(BlowUp) as staged:
            reference_hamiltonian_run(sys_, x0.q, x0.p, 1.0, steps, BlowUp)
    assert 64 < node <= 128
    for entries in (sz._CHUNK_ENTRIES, 0):  # 0: chunks of 64 steps
        monkeypatch.setattr(sz, "_CHUNK_ENTRIES", entries)
        with pytest.raises(BlowUp) as blowup:
            sz.integrate_riccati(sys_, x0.p, 0.0, 1.0, steps)
        with pytest.raises(Overflow) as overflow:
            sz.integrate_hamiltonian(sys_, x0, 0.0, 1.0, steps)
        with pytest.raises(Overflow) as curve:
            sz.curve_from_riccati(ts, ws, zero, np.zeros((n, n)), np.eye(n), zero)
        assert blowup.value.t == ts[node]
        assert str(overflow.value) == f"the Hamiltonian state overflowed at t = {ts[node]:.6g}"
        assert str(curve.value) == str(ref_curve.value)
    assert 64 < float(str(curve.value).split("= ")[1]) * steps <= 128
    # Run in float64, the stage-by-stage loop stops a node early: its stage
    # vectors G y are 1/h larger than the state and overflow first.
    assert staged.value.t == ts[node - 1]


def test_an_overflowing_curve_stops_at_its_first_bad_chunk(monkeypatch):
    # h (W + A) = -4 I, so each RK4 step multiplies z' by R(8) ~ 297 and
    # z''' = 6.4e7 z' leaves the float range at node 122 of 1000, in the
    # second chunk of 64 steps: the run builds no chunk after it.
    monkeypatch.setattr(sz, "_CHUNK_ENTRIES", 0)  # chunks of 64 steps
    n, steps = 2, 1000
    ts = np.linspace(0.0, 1.0, steps + 1)
    ws = np.array([-4000.0 * np.eye(n)] * (steps + 1))
    zero = sz.MatrixPolynomial([np.zeros((n, n))])
    chunks = []
    blocks = sz._blocks
    monkeypatch.setattr(sz, "_blocks", lambda *a: chunks.append(a) or blocks(*a))
    with pytest.raises(Overflow, match="at t = 0.122$"):
        sz.curve_from_riccati(ts, ws, zero, np.zeros((n, n)), np.eye(n), zero)
    assert len(chunks) <= 2


def test_a_riccati_blow_up_ends_the_run_at_its_chunk(monkeypatch):
    # W' = -I - W^2, W0 = 0, dim 6: W = -tan(t) I has its pole at pi/2, node 524 of
    # 1000 steps on [0, 3].  The constant system's chunks double from 64 steps, so
    # they start at steps 0, 64, 192 and 448, and the pole lies in the 4th; the run
    # builds no chunk after it.
    chunks, rk4 = [], sz._rk4

    def counted(g):
        return lambda s: chunks.append(s) or g(s)

    monkeypatch.setattr(sz, "_rk4", lambda g, y, hs, on_chunk=None: rk4(counted(g), y, hs, on_chunk))
    sys_ = constant_system(np.zeros((6, 6)), np.eye(6))
    with pytest.raises(BlowUp) as exc_info:
        sz.integrate_riccati(sys_, np.zeros((6, 6)), 0.0, 3.0, 1000)
    assert exc_info.value.t == 1.57199999999998
    assert [s.start // 2 for s in chunks] == [0, 64, 192, 448]


@pytest.mark.parametrize("node", [10, 64, 65, 300, 3000])
def test_a_constant_run_doubles_its_chunks_up_to_its_pole(monkeypatch, node):
    # W' = -cI - W^2, W0 = 0, dim 6: W = -sqrt(c) tan(sqrt(c) t) I, its pole placed
    # mid-step into the given node of a 10,000-step run.  The constant system builds
    # one step matrix per chunk and doubles its chunks from 64 steps; its zero-slope
    # degree-1 twin builds one per step, in chunks of 64.  Both must report the pole
    # at that node, and the constant run must build at most 2 node + 64 steps (a
    # whole-run chunk would build all 10,000).
    n, steps, t1 = 6, 10_000, 1.0
    c = (np.pi / (2.0 * (node - 0.5) * (t1 / steps))) ** 2
    zero = np.zeros((n, n))
    built, rk4 = [], sz._rk4

    def counted(g):
        return lambda s: built.append((s.stop - s.start) // 2) or g(s)

    monkeypatch.setattr(sz, "_rk4", lambda g, y, hs, on_chunk=None: rk4(counted(g), y, hs, on_chunk))
    blowups, counts = [], []
    for sys_ in (constant_system(zero, c * np.eye(n)),
                 sz.HamiltonianSystem(sz.MatrixPolynomial([zero, zero]),
                                      sz.MatrixPolynomial([c * np.eye(n), zero]))):
        built.clear()
        with pytest.raises(BlowUp) as exc_info:
            sz.integrate_riccati(sys_, zero, 0.0, t1, steps)
        blowups.append(exc_info.value.t)
        counts.append(sum(built))
    assert blowups[0] == blowups[1] == list(accumulate([t1 / steps] * steps, initial=0.0))[node]
    assert counts[0] <= 2 * node + 64
    assert counts[1] <= node + 64


@pytest.mark.parametrize("t0", [0, -0.4, 3, 1e6])
def test_the_node_times_are_the_repeated_sum_of_the_step(t0):
    # The node times are t0, t0 + h, (t0 + h) + h, ...: the left-to-right sums of
    # itertools.accumulate, byte for byte, for steps from 1e-300 to 1e3.
    sys_ = constant_system([[0.0]], [[0.0]])
    x0 = sz.PhasePoint(np.eye(1), np.zeros((1, 1)))
    for steps in (1, 63, 64, 65, 1000, 10**5):
        for step in (1e-300, 3.7e-9, 0.003, 1.0 / 3.0, 1e3):
            t1 = t0 + step * steps
            ts, _ = sz.integrate_hamiltonian(sys_, x0, t0, t1, steps)
            expect = np.array(list(accumulate([(t1 - t0) / steps] * steps, initial=t0)))
            assert ts.dtype == expect.dtype and ts.tobytes() == expect.tobytes(), (steps, step)


def test_a_constant_run_holds_its_states_and_w():
    # A constant dim-6 run of 20,000 steps builds one step matrix per chunk and
    # reads W in doubling chunks; its peak stays within 1.5 times the bytes of
    # its states [q; p] and its W stack, which it must hold whole.
    n, steps = 6, 20_000
    sys_ = constant_system(np.zeros((n, n)), -np.eye(n))
    sz.integrate_riccati(sys_, np.zeros((n, n)), 0.0, 1.0, steps)
    tracemalloc.start()
    try:
        sz.integrate_riccati(sys_, np.zeros((n, n)), 0.0, 1.0, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = (steps + 1) * (2 * n * n + n * n) * np.dtype(float).itemsize
    assert peak <= 1.5 * held, peak / held


def test_trajectory_memory_stays_at_its_states(rng):
    # The step matrices are built a chunk at a time: a 1000-step dim-6 run
    # peaks at about 3.87 MiB, where building the whole run's stacks at once
    # takes about 9.7 MiB.
    sys_ = linear_system(rng, 6)
    w0 = 0.1 * _sym(rng, 6)

    def run():
        ts, ws = sz.integrate_riccati(sys_, w0, 0.0, 0.6, 1000)
        sz.curve_from_riccati(ts, ws, sys_.a, np.zeros((6, 6)), np.eye(6), sys_.b)

    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * 2 ** 20, peak / 2 ** 20


def test_a_run_that_stops_early_holds_only_its_states_and_w():
    # W' = -cI - W^2, W0 = 0, dim 6, its pole placed mid-step into node 10 of a
    # 10,000-step run: the run ends with its first chunk.  Its peak stays within 1.1
    # times the bytes of the states [q; p] and the W stack it allocates whole; views
    # of every state row, made before the first product, would take 1.2 times.
    n, steps, node, t1 = 6, 10_000, 10, 1.0
    c = (np.pi / (2.0 * (node - 0.5) * (t1 / steps))) ** 2
    sys_ = constant_system(np.zeros((n, n)), c * np.eye(n))

    def run():
        with pytest.raises(BlowUp) as exc_info:
            sz.integrate_riccati(sys_, np.zeros((n, n)), 0.0, t1, steps)
        return exc_info.value.t

    run()
    tracemalloc.start()
    try:
        t = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t == list(accumulate([t1 / steps] * steps, initial=0.0))[node]
    held = (steps + 1) * (2 * n * n + n * n) * np.dtype(float).itemsize
    assert peak <= 1.1 * held, peak / held


@pytest.mark.parametrize("steps", [1, 63, 64, 65, 1000, 10**5])
def test_the_stage_grids_interleave_nodes_and_midpoints(rng, steps):
    # The stage times of a run and the W + A stack of curve_from_riccati take node i
    # at index 2i and the midpoint of step i at 2i + 1: np.insert's arrays, byte for byte.
    hs = np.full(steps, 0.3 / steps)
    ts = np.add.accumulate(np.append(-0.4, hs))
    mids = ts[:-1] + np.divide(hs, 2.0)
    ws = rng.standard_normal((steps + 1, 2, 2)) + 1j * rng.standard_normal((steps + 1, 2, 2))
    for nodes, mid in ((ts, mids), (ws, ws[1:] - ws[:-1]), (ws.real, ws.real[1:] / 2.0)):
        got = sz._stages(nodes, mid)
        expect = np.insert(nodes, np.arange(1, len(nodes)), mid, axis=0)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()


def test_a_real_w_stack_under_a_complex_a_keeps_its_complex_midpoints():
    # W = 0.3 t I stored real, A(t) = i t I, B = I: the midpoint W values take
    # complex Riccati slopes, so the curve is the one of the same W stored complex.
    ts = np.linspace(0.0, 0.5, 11)
    ws = 0.3 * ts[:, None, None] * np.eye(2)
    a, b = sz.MatrixPolynomial([np.zeros((2, 2)), 1j * np.eye(2)]), sz.MatrixPolynomial([np.eye(2)])
    real, stored_complex = (sz.curve_from_riccati(ts, w, a, np.zeros((2, 2)), np.eye(2), b)
                            for w in (ws, ws.astype(complex)))
    for name in ("z", "z1", "z2", "z3"):
        got, expect = getattr(real, name), getattr(stored_complex, name)
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes(), name
