import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import product

import mpmath
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


def test_the_pole_oscillator_is_exact_at_every_node():
    # W' = -1 - W^2 from W0 = 0 is -tan t, 2.7e-8 short of its pole at the end of
    # [0, 1.5707963].  A constant system takes its exact flow, so W at node i meets
    # -tan(t0 + i h) within 1e-8 relative (5.7e-9 at these step counts; RK4 read
    # 7.6e-4 at 250 steps and 3.0e-6 at 1000).
    t1 = 1.5707963
    for steps in (250, 1000, 4000):
        _, ws = sz.integrate_riccati(oscillator(), np.zeros((1, 1)), 0.0, t1, steps)
        with mpmath.workdps(30):
            exact = np.array([float(-mpmath.tan(i * mpmath.mpf(t1 / steps)))
                              for i in range(steps + 1)])
        assert np.all(np.abs(ws[:, 0, 0] - exact) <= 1e-8 * np.abs(exact)), steps


def test_tan_systems_meet_their_closed_form(rng):
    # W' = -b I - W^2 from W0 = V diag(mu) V^T, drawn as the benchmark's riccati_tan
    # problems are: W = V diag(-sqrt(b) tan(sqrt(b) t - atan(mu / sqrt(b)))) V^T up to
    # where the largest tangent argument reaches 1.2.  At t0 + i h the exact flow
    # meets it to 5e-15 of max |W| at every node of 1000 steps (RK4: 7e-15 to 8e-14).
    n, steps = 6, 1000
    for _ in range(6):
        b, mu = float(rng.uniform(0.5, 2.0)), rng.uniform(-0.5, 0.5, size=n)
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        w0 = (v * mu) @ v.T
        rb = np.sqrt(b)
        t1 = float((1.2 + np.arctan(mu.min() / rb)) / rb)
        _, ws = sz.integrate_riccati(constant_system(np.zeros((n, n)), b * np.eye(n)),
                                     0.5 * (w0 + w0.T), 0.0, t1, steps)
        t = np.arange(steps + 1)[:, None] * (t1 / steps)
        exact = (v * -rb * np.tan(rb * t - np.arctan(mu / rb))[:, None]) @ v.T
        assert np.max(np.abs(ws - exact)) <= 5e-15 * np.max(np.abs(exact))


def test_a_stiff_constant_system_decays(monkeypatch):
    # q' = -300 q, p = 0 on [0, 10] in 1000 steps: RK4 multiplies q by R(-3) = 1.375
    # per step (q(10) = 2.0e138, exit 0).  The exact flow gives q = e^(-300 t) at every
    # node, 0 once it leaves the float range.  Its exponentials 2^b h G have 1-norm
    # 2^b 3.01, past the float range's bound from 2^b = 256: E_0, ..., E_7 come from
    # one expm call, and E_8, tried on its own, overflows (p's block grows as e^(300 t)),
    # so the blocks stop doubling at 128 nodes.
    stacks, expm = [], numerics.expm
    monkeypatch.setattr(numerics, "expm", lambda m: stacks.append(len(m)) or expm(m))
    ts, points = sz.integrate_hamiltonian(constant_system([[-300.0]], [[0.0]]),
                                          sz.PhasePoint([[1.0]], [[0.0]]), 0.0, 10.0, 1000)
    exact = np.exp(-300.0 * (np.arange(1001) * 0.01))
    assert np.all(np.abs(points.q[:, 0, 0] - exact) <= 1e-11 * exact + np.finfo(float).tiny)
    assert points.q[-1, 0, 0] == 0.0 and not points.p.any()
    assert stacks == [8, 2]


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
    ts = np.arange(10001) * 1e-4
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
    # Each block's power series has no truncation error at these grids: W meets the
    # 20-digit solution to rounding (7.2e-16) at 50, 100 and 200 steps alike, where
    # RK4 converged at its fourth order to 1e-9 at 200 steps.
    sys_ = sz.HamiltonianSystem(sz.MatrixPolynomial(a), sz.MatrixPolynomial(b))
    errors = []
    for steps in (50, 100, 200):
        _, ws = sz.integrate_riccati(sys_, w0, 0.0, 1.0, steps)
        errors.append(np.max(np.abs(np.array(ws[steps // 2::steps // 2]) - ref)))
    assert max(errors) <= 1e-13, errors


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
    # from (q, p) = (1, 0).  W and q come from each block's power series, to rounding
    # on both grids; the curve's z' is RK4, where a stage read at the wrong time
    # drops its order.
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
    assert max(coarse[[0, 2]].max(), fine[[0, 2]].max()) <= 1e-14, (coarse, fine)
    assert coarse[1] / fine[1] >= 12.0, coarse / fine


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


# --- the kernels against classical RK4 and closed forms --------------------

def reference_rk4(f, y, hs, coef):
    """Classical RK4 for y' = f(y, c), c = coef(k) at stage time k, one stage
    vector at a time, in the dtype of the first step."""
    y0, c = y, coef(0)
    for i, h in enumerate(hs):
        k1 = f(y, c)
        c = coef(2 * i + 1)
        k2 = f(y + (h / 2.0) * k1, c)
        k3 = f(y + (h / 2.0) * k2, c)
        c = coef(2 * i + 2)
        k4 = f(y + h * k3, c)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if i == 0:
            ys = np.empty((len(hs) + 1, *y.shape), y.dtype)
            ys[0] = y0
        ys[i + 1] = y
    return ys


def reference_hamiltonian_run(sys_, q0, p0, t1, steps):
    """Node times i h and states (q, p) from t = 0 by reference_rk4."""
    h = t1 / steps
    hs, ts = [h] * steps, h * np.arange(steps + 1)
    st = sz._stages(ts, ts[:-1] + h / 2.0)

    def rhs(y, c):
        (a, b), (q, p) = c, y
        return np.array([a @ q + p, -b @ q - a.T @ p])

    return ts, reference_rk4(rhs, np.array([q0, p0]), hs, lambda k: (sys_.a(st[k]), sys_.b(st[k])))


def curve_stage_values(ts, ws, a_poly, b_poly):
    """W + A at the stage times of curve_from_riccati (W at a midpoint the cubic
    Hermite value from the Riccati slopes W'), and the slopes at the nodes."""
    hs, tcol = np.diff(ts), ts[:, None, None]
    a_st = a_poly(sz._stages(ts, ts[:-1] + np.divide(hs, 2.0))[:, None, None])
    slopes = sz.riccati_rhs(ws, (a_st[::2], b_poly(tcol)))
    mid = (ws[:-1] + ws[1:]) / 2.0 + hs[:, None, None] * (slopes[:-1] - slopes[1:]) / 8.0
    return np.insert(ws, np.arange(1, len(ts)), mid, axis=0) + a_st, slopes


def reference_curve(ts, ws, a_poly, z0, z1_0, b_poly, dtype=None):
    """z and z' of curve_from_riccati by reference_rk4, or its Overflow; the
    states are integrated in dtype (default: that of z0 and W) and the jets
    formed in the precision of z0 and W."""
    hs, tcol = np.diff(ts), ts[:, None, None]
    wa, slopes = curve_stage_values(ts, ws, a_poly, b_poly)
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


def fine_reference(sys_, t1, steps):
    """The fundamental solution (2n x 2n, from [q; p] = I) at the nodes i h of [0, t1],
    h = t1 / steps, by classical RK4 in long double on a grid of about 2048 steps (2^m
    times finer, m >= 1), and its largest difference from the same on a grid half as
    fine, relative to its largest entry: RK4's error on the finer grid is about 1/15
    of that difference."""
    n, h = sys_.dim, np.longdouble(t1 / steps)
    refine = 2 ** max(1, round(math.log2(2048 / steps)))
    runs = []
    for r in (refine, refine // 2):
        ts = h / r * np.arange(steps * r + 1)
        st = sz._stages(ts, ts[:-1] + h / (2 * r))[:, None, None]
        a, b = sys_.a(st), sys_.b(st)
        gs = sz._blocks(a, np.eye(n), -b, -a.swapaxes(-1, -2))
        runs.append(expression_rk4(gs, np.eye(2 * n, dtype=np.longdouble), np.full(steps * r, h / r))[::r])
    return runs[0], float(_rel(runs[1], runs[0]))


def meets_the_reference(sys_, w0, t1, steps, bound):
    """The Hamiltonian run from (I, W0) and the Riccati run from W0 over [0, t1]
    within bound of fine_reference, relative to their largest entry, whose own
    error is within bound / 10; returns the Riccati run."""
    phi, ref_error = fine_reference(sys_, t1, steps)
    assert ref_error <= 1.5 * bound, ref_error
    n = len(w0)
    ref = (phi @ np.concatenate([np.eye(n), w0])).astype(np.result_type(w0, float))
    _, points = sz.integrate_hamiltonian(sys_, sz.PhasePoint(np.eye(n), w0), 0.0, t1, steps)
    assert _rel(np.concatenate([points.q, points.p], axis=1), ref) <= bound
    ts, ws = sz.integrate_riccati(sys_, w0, 0.0, t1, steps)
    assert _rel(ws, sz.PhasePoint(ref[:, :n], ref[:, n:]).w()) <= bound
    return ts, ws


def linear_system(rng, n, degree=1):
    a = sz.MatrixPolynomial([0.2 * _sym(rng, n)] + [0.1 * _sym(rng, n) for _ in range(degree)])
    b = sz.MatrixPolynomial([_sym(rng, n)] + [0.2 * _sym(rng, n) for _ in range(degree)])
    return sz.HamiltonianSystem(a, b, symmetric_a=True)


def exact_flow(g, y0, h, steps):
    """exp(i h G) y0 at i = 0, ..., steps, stepped by exp(hG) in 30-digit mpmath: the
    exact flow of a constant G, hG rounded to double as the run rounds it."""
    with mpmath.workdps(30):
        e, y = mpmath.expm(mpmath.matrix((h * g).tolist())), mpmath.matrix(y0.tolist())
        ys = [y]
        for _ in range(steps):
            ys.append(e * ys[-1])
        ys = np.array([y.tolist() for y in ys], dtype=complex)
    return ys if np.iscomplexobj(g) or np.iscomplexobj(y0) else ys.real


def test_constant_coefficients_follow_the_exact_flow(rng):
    # For constant G the run is the exact flow: node i is exp(i h G) y0.
    for n in (1, 2, 6):
        a, b, q0, p0 = 0.3 * rng.standard_normal((n, n)), _sym(rng, n), *rng.standard_normal((2, n, n))
        steps, t1 = 200, 0.8
        g, y0 = np.block([[a, np.eye(n)], [-b, -a.T]]), np.concatenate([q0, p0])
        ref = exact_flow(g, y0, t1 / steps, steps)
        _, points = sz.integrate_hamiltonian(constant_system(a, b), sz.PhasePoint(q0, p0), 0.0, t1, steps)
        assert _rel(np.concatenate([points.q, points.p], axis=1), ref) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize("steps", [1, 63, 64, 65, 1000])
def test_integrators_match_stage_by_stage_rk4(rng, n, steps):
    # The Hamiltonian and Riccati runs of a linear A(t), B(t), over less than one
    # block, one block, a block and a step, and 16 blocks (a single step of 0.6 takes
    # blocks of one step), meet RK4 run in long double on a grid of about 2048 steps
    # (fine_reference); the curve is RK4 at the run's own nodes, and meets the
    # stage-by-stage loop run on the same W.
    sys_ = linear_system(rng, n)
    for w0 in (0.1 * _sym(rng, n), 0.1 * (_sym(rng, n) + 1j * _sym(rng, n))):
        ts, ws = meets_the_reference(sys_, w0, 0.6, steps, 1e-12)
        z0, z1_0 = 0.5 * rng.standard_normal((n, n)), np.eye(n)
        jets = sz.curve_from_riccati(ts, ws, sys_.a, z0, z1_0, sys_.b)
        ref_z, ref_z1 = reference_curve(ts, ws, sys_.a, z0, z1_0, sys_.b)
        assert _rel(jets.z, ref_z) <= 1e-12 and _rel(jets.z1, ref_z1) <= 1e-12


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize("steps", [1, 63, 64, 65, 1000])
def test_higher_degree_generators_match_stage_by_stage_rk4(rng, degree, steps):
    # Every degree takes the same kernel: A(t), B(t) of degrees 2 to 5 over less than
    # one block, one block, a block and a step, and 16 blocks meet RK4 run in long
    # double on a grid of about 2048 steps (fine_reference).
    n = 3
    meets_the_reference(linear_system(rng, n, degree), 0.1 * _sym(rng, n), 0.6, steps, 1e-12)


@pytest.mark.parametrize("c, center, r, staged", [(5.0, 100.0, 1.0, 1.58e-13),
                                                 (500.0, 10.0, 0.2, 1.75e-14)])
def test_a_generator_far_from_t_0_keeps_its_accuracy(rng, c, center, r, staged):
    # A(t) = c (t - center)^2 S, B = 0 on [center - r, center + r]: A's coefficients
    # c center^2 S, -2 c center S and c S are far larger than its values there.  The
    # series about each block's first node keeps |t - origin| <= 64 h, where one
    # expansion about t = 0 sums monomials of t^8 (RK4's step matrices from it read
    # 2.7e-4 and 1.5e-6 here).  Such A(t) commute, so from (q, p) = (I, 0) the run
    # is p = 0 and q = exp(F(t) S), F(t) = (c/3)((t - center)^3 + r^3), taken in 30
    # digits.  S has 21-bit entries, so the coefficients are exact.  The bound at
    # every node is twice staged, the rounding error of RK4 from G at the stage times
    # against its own long-double run on this interval; the run reads 2.2e-15 and
    # 2.1e-14, and RK4 at the same steps 2.6e-10 and 1.0e-10.
    n, steps = 3, 1000
    s = np.round(_sym(rng, n) * 2.0 ** 20) / 2.0 ** 20
    sys_ = sz.HamiltonianSystem(
        sz.MatrixPolynomial([c * center ** 2 * s, -2.0 * c * center * s, c * s]),
        sz.MatrixPolynomial([np.zeros((n, n))]))
    ts, points = sz.integrate_hamiltonian(sys_, sz.PhasePoint(np.eye(n), np.zeros((n, n))),
                                          center - r, center + r, steps)
    with mpmath.workdps(30):
        lam, v = mpmath.eigsy(mpmath.matrix(s.tolist()))
        exact = []
        for t in ts:
            f = mpmath.mpf(c) / 3 * ((mpmath.mpf(t) - center) ** 3 + mpmath.mpf(r) ** 3)
            e = [mpmath.exp(f * x) for x in lam]
            exact.append([[sum(v[i, k] * v[j, k] * e[k] for k in range(n)) for j in range(n)] for i in range(n)])
        exact = np.array(exact, dtype=float)
    assert not points.p.any()
    err = np.abs(points.q - exact).max(axis=(1, 2)) / np.abs(exact).max(axis=(1, 2))
    assert np.all(err <= 2.0 * staged), err.max()


def test_a_stiff_time_dependent_system_decays():
    # q' = -(300 + 30 t) q, p = 0 on [0, 1] in 100 steps: q = exp(-300 t - 15 t^2) at
    # every node within 1e-12 relative (1.3e-13; down to 1e-137 at t = 1), where RK4
    # multiplied q by R(-3.x) > 1 per step and ended at q(1) = 1.3e23, 8.0e159 times
    # the exact value.  ||G|| h = 3.3, so each block is one step.
    sys_ = sz.HamiltonianSystem(sz.MatrixPolynomial([[[-300.0]], [[-30.0]]]), sz.MatrixPolynomial([[[0.0]]]))
    ts, points = sz.integrate_hamiltonian(sys_, sz.PhasePoint([[1.0]], [[0.0]]), 0.0, 1.0, 100)
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.exp(-300 * mpmath.mpf(t) - 15 * mpmath.mpf(t) ** 2)) for t in ts])
    assert np.all(np.abs(points.q[:, 0, 0] - exact) <= 1e-12 * exact) and not points.p.any()


def test_a_time_dependent_oscillator_meets_its_airy_closed_form():
    # A = 0, B = diag(1, 4) + 0.1 t I on [0, 10] in 200 steps from (q, p) = (I, 0):
    # q_kk'' = -(b_k + 0.1 t) q_kk, so q_kk = c1 Ai(x) + c2 Bi(x), x = -0.1^(1/3)(t +
    # 10 b_k), and p = q', taken in 20 digits.  The run meets it at every node within
    # 1e-12 of the node's largest entry (5e-15), where RK4 at h = 0.05 read 3.7e-5.
    sys_ = sz.HamiltonianSystem(sz.MatrixPolynomial([np.zeros((2, 2))]),
                                sz.MatrixPolynomial([np.diag([1.0, 4.0]), 0.1 * np.eye(2)]))
    ts, points = sz.integrate_hamiltonian(sys_, sz.PhasePoint(np.eye(2), np.zeros((2, 2))), 0.0, 10.0, 200)
    exact = np.zeros((len(ts), 4, 2))
    with mpmath.workdps(20):
        k = mpmath.mpf("0.1") ** (mpmath.mpf(1) / 3)
        for i, b in enumerate((1, 4)):
            def x(t):
                return -k * (mpmath.mpf(t) + 10 * b)
            start = mpmath.matrix([[mpmath.airyai(x(0)), mpmath.airybi(x(0))],
                                   [-k * mpmath.airyai(x(0), 1), -k * mpmath.airybi(x(0), 1)]])
            c1, c2 = mpmath.lu_solve(start, mpmath.matrix([1, 0]))
            for j, t in enumerate(ts):
                exact[j, i, i] = c1 * mpmath.airyai(x(t)) + c2 * mpmath.airybi(x(t))
                exact[j, 2 + i, i] = -k * (c1 * mpmath.airyai(x(t), 1) + c2 * mpmath.airybi(x(t), 1))
    err = np.abs(np.concatenate([points.q, points.p], axis=1) - exact).max(axis=(1, 2))
    assert np.all(err <= 1e-12 * np.abs(exact).max(axis=(1, 2))), err.max()


@pytest.mark.parametrize("a, b", [(1e6, 0.0), (-500.0, 0.0), (0.0, 1e4), (0.0, -1e4), (0.0, 1e300)])
def test_a_run_far_past_its_step_ends(a, b):
    # ||G|| h from 1e3 to 1e299 in each of 10 steps: every block is one step, whose
    # series terms grow before they fall or overflow (a term that is not finite ends
    # the series, and its states are not finite).  Each run ends: with finite states,
    # Overflow or BlowUp.
    eye = np.eye(2)
    sys_ = sz.HamiltonianSystem(sz.MatrixPolynomial([a * eye, a * eye]), sz.MatrixPolynomial([b * eye, b * eye]))
    try:
        _, points = sz.integrate_hamiltonian(sys_, sz.PhasePoint(eye, 0 * eye), 0.0, 1.0, 10)
        assert np.isfinite(points.q).all() and np.isfinite(points.p).all()
    except Overflow:
        pass
    try:
        _, ws = sz.integrate_riccati(sys_, 0 * eye, 0.0, 1.0, 10)
        assert np.isfinite(ws).all()
    except BlowUp:
        pass


def test_taylor_coefficients_are_rounded_once(rng):
    # _taylor sums in double arithmetic alone, as if in twice the precision: at times
    # where the polynomials nearly vanish, 5 (t - 100)^2 S and a complex (t - 7)^3 C,
    # each Taylor coefficient is its exact value (in fractions) rounded once, to within
    # 1e-30 of its terms, where the plain Horner value is off by more than 1000 of
    # those roundings.
    s, c = _sym(rng, 3), rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for coeffs, times in (([5e4 * s, -1e3 * s, 5.0 * s], [99.5, 100.0 - 2.0 ** -20, 101.0]),
                          ([-343.0 * c, 147.0 * c, -21.0 * c, c], [6.9, 7.0 + 2.0 ** -30])):
        poly = sz.MatrixPolynomial(coeffs)
        x = np.array(times)[:, None, None, None]
        got, plain = sz._taylor(poly)(x), poly(x[:, 0])
        assert got.shape == (len(times), len(coeffs), 3, 3) and got.dtype == plain.dtype
        plain_missed = False
        for part in (np.real, np.imag):
            cs = np.vectorize(Fraction, otypes=[object])(part(np.array(coeffs)))
            for i, k in product(range(len(times)), range(len(coeffs))):
                t = Fraction(times[i])
                exact = sum(math.comb(j, k) * cs[j] * t ** (j - k) for j in range(k, len(cs)))
                terms = sum(math.comb(j, k) * abs(cs[j]) * abs(t) ** (j - k) for j in range(k, len(cs)))
                for g, e, bound in zip(part(got[i, k]).flat, exact.flat, terms.flat):
                    assert abs(Fraction(g) - e) <= 2.0 ** -53 * abs(e) + 1e-30 * bound
                if k == 0:
                    plain_missed |= any(abs(Fraction(g) - e) > 1e3 * 2.0 ** -53 * abs(e)
                                        for g, e in zip(part(plain[i]).flat, exact.flat))
        assert plain_missed


def test_a_large_cubic_run_builds_its_taylor_blocks_in_small_batches(rng):
    # The blocks whose power series are built together hold _BATCH_ENTRIES entries
    # per term: at dim 32 one block (64 x 64 matrices) at a time, and a 1000-step
    # cubic run peaks within twice its states.  A batch of 16 blocks, as at dim 6,
    # would peak at about 3 times its states.
    n, steps = 32, 1000
    sys_ = linear_system(rng, n, 3)
    x0 = sz.PhasePoint(np.eye(n), 0.01 * _sym(rng, n))
    sz.integrate_hamiltonian(sys_, x0, 0.0, 0.1, 10)
    tracemalloc.start()
    try:
        sz.integrate_hamiltonian(sys_, x0, 0.0, 0.1, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = (steps + 1) * 2 * n * n * np.dtype(float).itemsize
    assert peak <= 2.0 * held, peak / held


@pytest.mark.parametrize("n", [1, 2, 6])
def test_the_curve_is_rk4_on_its_block_generator(rng, n):
    # The curve takes RK4's step matrix of G = [[0, I], [0, F]], F = -2 (W + A)^T, as
    # its blocks [[I, M12], [0, M22]] (_rk4_steps): its z and z' must be within 1e-13
    # relative of RK4 on the 2n x 2n G at the stage times, each step matrix one
    # expression, from z(0) != 0, for a real and a complex W, with equal steps (a
    # power of two, so every step is the same scalar) and unequal ones (a column of
    # steps), over one chunk and, at dim 6, several.
    sys_ = linear_system(rng, n)
    w0, w1, wi = 0.1 * _sym(rng, n), _sym(rng, n), 0.1j * _sym(rng, n)
    z0, z1_0 = 0.5 * rng.standard_normal((n, n)), np.eye(n)
    for steps, equal, imag in product((7, 1000), (True, False), (0.0, 1.0)):
        h = 2.0 ** -round(math.log2(steps / 0.6))
        hs = np.full(steps, h) if equal else h * rng.uniform(0.5, 1.5, steps)
        ts = np.append(0.0, np.cumsum(hs))
        assert (np.diff(ts) == h).all() == equal
        ws = w0 + ts[:, None, None] * w1 + imag * wi
        jets = sz.curve_from_riccati(ts, ws, sys_.a, z0, z1_0, sys_.b)
        wa, _ = curve_stage_values(ts, ws, sys_.a, sys_.b)
        zero = np.zeros((n, n))
        gs = sz._blocks(zero, np.eye(n), zero, -2.0 * wa.swapaxes(-1, -2))
        ys = expression_rk4(gs, np.concatenate([z0.T, z1_0.T]), np.diff(ts)).swapaxes(-1, -2)
        assert _rel(jets.z, ys[..., :n]) <= 1e-13 and _rel(jets.z1, ys[..., n:]) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 6])
def test_dot_steps_are_the_matmul_product(rng, monkeypatch, n):
    # The curve's RK4 advances each z' by z'_i.dot(M22_i^T, out=z'_{i+1}); it must
    # write exactly np.matmul's product, for real, complex and mixed operands (a complex
    # z'(0) under a real W; a complex W).  The step matrices reach the check through
    # _rk4_steps, the states through _rk4's return value.
    steps, kinds, rk4, source = [], set(), sz._rk4, sz._rk4_steps

    def checked(wa, hs, z, z1):
        stacks = []
        with monkeypatch.context() as patch:
            patch.setattr(sz, "_rk4_steps", lambda *args: stacks.append(source(*args)) or stacks[-1])
            ys = rk4(wa, hs, z, z1)
        for mi, y0, y1 in zip(np.concatenate([m22 for _, m22 in stacks]), ys[1], ys[1, 1:]):
            assert np.matmul(y0, mi).tobytes() == y1.tobytes()
            kinds.add((mi.dtype.kind, ys.dtype.kind))
        steps.append(ys.shape[1] - 1)
        return ys

    monkeypatch.setattr(sz, "_rk4", checked)
    sys_ = linear_system(rng, n)
    ts, ws = sz.integrate_riccati(sys_, 0.1 * _sym(rng, n), 0.0, 0.6, 1000)
    eye = np.eye(n)
    for w, z1_0 in ((ws, eye), (ws, eye + 0.5j), (ws + 0.1j * _sym(rng, n), eye)):
        sz.curve_from_riccati(ts, w, sys_.a, np.zeros((n, n)), z1_0, sys_.b)
    assert steps == [1000] * 3
    assert kinds == {("f", "f"), ("f", "c"), ("c", "c")}


def test_chunk_size_does_not_change_a_bit(rng, monkeypatch):
    # Chunks of 1 step, of 64 steps, of the whole run and of the rules' own sizes
    # (the reader's 2304, 576 and 64 steps at dims 1, 2 and 6, so its run ends in a
    # part chunk; the curve's n x n rule, 9216, 2304 and 256 steps, takes the whole
    # run): the reader's and the curve's, give the same bits, for a linear and a cubic
    # system; the cubic run ends in a block of 17 steps.
    for (n, rule), (degree, extra) in product(((1, 2304), (2, 576), (6, 64)), ((1, 66), (3, 81))):
        assert max(sz._CHUNK, sz._CHUNK_ENTRIES // (2 * n) ** 2) == rule
        steps, sys_, w0 = rule + extra, linear_system(rng, n, degree), 0.1 * _sym(rng, n)

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
    # A constant G takes the exact flow; the same system written as degree-1
    # polynomials with zero slope takes each block's power series.  Each meets the
    # exact solution to rounding (the series within 1e-13, where RK4 was within its
    # O(h^4) truncation error, 0.017 at 1 step and 5.7e-14 at 1000), for a real,
    # complex or float32 W0, on the same node times and in the same precision.
    n = 3
    a, b = 0.3 * rng.standard_normal((n, n)), _sym(rng, n)
    const = constant_system(a, b)
    sloped = sz.HamiltonianSystem(sz.MatrixPolynomial([a, np.zeros((n, n))]),
                                  sz.MatrixPolynomial([b, np.zeros((n, n))]))
    kernels, flow, series = [], sz._flow, sz._series
    monkeypatch.setattr(sz, "_flow", lambda *args: kernels.append("flow") or flow(*args))
    monkeypatch.setattr(sz, "_series", lambda *args: kernels.append("series") or series(*args))
    g = np.block([[a, np.eye(n)], [-b, -a.T]])
    phi = exact_flow(g, np.eye(2 * n), (0.5 - -0.3) / steps, steps)  # the fundamental solution
    w0 = 0.1 * _sym(rng, n)
    for w in (w0, w0 + 0.1j * _sym(rng, n), w0.astype(np.float32)):
        exact = phi @ np.concatenate([np.eye(n), w])
        exact_w = sz.PhasePoint(exact[:, :n], exact[:, n:]).w()
        runs = []
        for sys_, tol in ((const, 1e-14), (sloped, 1e-13)):
            ts, ws = sz.integrate_riccati(sys_, w, -0.3, 0.5, steps)
            _, points = sz.integrate_hamiltonian(sys_, sz.PhasePoint(np.eye(n, dtype=w.dtype), w),
                                                 -0.3, 0.5, steps)
            assert _rel(np.concatenate([points.q, points.p], axis=1), exact) <= tol
            assert _rel(ws, exact_w) <= tol
            runs.append([(x.dtype, x.shape) for x in (ws, points.q, points.p)] + [ts.tobytes()])
        assert runs[0] == runs[1]
    assert kernels == ["flow", "flow", "series", "series"] * 3


@pytest.mark.parametrize("degrees", [(2, 0), (0, 3), (0, 0)])
def test_the_generator_polynomial_is_the_assembled_blocks(rng, monkeypatch, degrees):
    # The Hamiltonian run takes G = [[A, I], [-B, -A^T]] as one polynomial of blocks:
    # a constant G as one matrix, which takes the exact flow, else its Taylor
    # coefficients about the blocks' origins, which take the power series.  At every
    # time they must equal the blocks assembled from A's and B's own Taylor
    # coefficients (sz._taylor of each, its degree raised to G's); B is diagonal, its
    # other entries 0.0 in one pass and -0.0 in the next, and t0 < 0, so a zero may
    # differ in sign, which no state shows: the node times and states must be those of
    # the kernel on the assembled coefficients, bit for bit, and the Riccati run's W
    # the one read off them.
    n, steps, t0, t1 = 3, 1000, -0.4, 0.5
    degree = max(degrees)
    kernel, eye, h = (sz._series if degree else sz._flow), np.eye(n), (t1 - t0) / steps
    ts = t0 + h * np.arange(steps + 1)
    for zero in (0.0, -0.0):
        a = sz.MatrixPolynomial([0.3 * rng.standard_normal((n, n)) for _ in range(degrees[0] + 1)])
        b = sz.MatrixPolynomial([np.where(np.eye(n, dtype=bool), rng.standard_normal(n), zero)
                                 for _ in range(degrees[1] + 1)])
        sys_ = sz.HamiltonianSystem(a, b)

        # A's and B's Taylor functions, their degrees raised to G's
        ta, tb = (sz._taylor(sz.MatrixPolynomial(p.coeffs + [0.0 * p.coeffs[0]] * (degree + 1 - len(p.coeffs))))
                  for p in (a, b))

        def assembled(x):  # for a constant G, [G] at any time
            at, bt = ta(x), tb(x)
            ident = np.zeros_like(at)
            ident[..., 0, :, :] = eye
            return sz._blocks(at, ident, -bt, -at.swapaxes(-1, -2))

        def run(y0):  # the kernel on the assembled coefficients
            ys = np.empty((steps + 1, *y0.shape), np.result_type(y0, float))
            ys[0] = y0
            if degree:
                return sz._propagate(ys, kernel(assembled, ts, h, sz._BATCH_ENTRIES // (2 * n) ** 2))
            return sz._propagate(ys, kernel(assembled(0.0)[0], h, steps))

        generators = []
        monkeypatch.setattr(sz, "_series" if degree else "_flow",
                            lambda g, *args: generators.append(g) or kernel(g, *args))
        w0 = 0.1 * _sym(rng, n)
        for w in (w0, w0 + 0.1j * _sym(rng, n)):
            ys = run(np.concatenate([np.eye(n), w]))
            got_ts, points = sz.integrate_hamiltonian(sys_, sz.PhasePoint(np.eye(n), w), t0, t1, steps)
            assert got_ts.tobytes() == ts.tobytes()
            got = np.concatenate([points.q, points.p], axis=1)
            assert got.dtype == ys.dtype and got.tobytes() == ys.tobytes()
            got_ts, ws = sz.integrate_riccati(sys_, w, t0, t1, steps)
            assert got_ts.tobytes() == ts.tobytes()
            assert ws.tobytes() == sz.PhasePoint(ys[:, :n], ys[:, n:]).w().tobytes()
        g, x = generators[0], ts[::7, None, None, None]
        if degree:
            assert np.array_equal(g(x), assembled(x))
        else:
            assert np.array_equal(g, assembled(0.0)[0])


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
    # A(t) = 2e5 t I, B = 0 from (q, p) = (I, 0): p = 0 and q = exp(1e5 t^2) I, which
    # leaves the float range at node 85 of 1000 steps on [0, 1] (1e5 t^2 is 705.6 at
    # node 84 and 722.5 at node 85, ln DBL_MAX 709.8), in the second chunk of 64
    # steps; RK4 at the same step reached it late.  The integrators must stop there.
    # So must the curve under W + A = -4000 I, at the node where the stage-by-stage
    # loop run in long double, whose range holds these states, leaves the float range
    # (in the first chunk of the dim-2 curve rule's 2304 steps; both chunk sizes run).
    n, steps = 2, 1000
    sys_ = sz.HamiltonianSystem(sz.MatrixPolynomial([np.zeros((n, n)), 2e5 * np.eye(n)]),
                                sz.MatrixPolynomial([np.zeros((n, n))]))
    x0 = sz.PhasePoint(np.eye(n), np.zeros((n, n)))
    zero = sz.MatrixPolynomial([np.zeros((n, n))])
    ts = np.arange(steps + 1) * (1.0 / steps)
    ws = np.array([-4000.0 * np.eye(n)] * (steps + 1))
    node = next(i for i, t in enumerate(ts) if 1e5 * t * t > math.log(np.finfo(float).max))
    assert node == 85
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Overflow) as ref_curve:
        reference_curve(ts, ws, zero, np.zeros((n, n)), np.eye(n), zero, np.longdouble)
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
    # Up to node 84 the states meet the closed form.
    _, points = sz.integrate_hamiltonian(sys_, x0, 0.0, ts[84], 84)
    assert np.all(np.abs(points.q[:, 0, 0] / np.exp(1e5 * ts[:85] ** 2) - 1.0) <= 1e-12)


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
    source = sz._rk4_steps
    monkeypatch.setattr(sz, "_rk4_steps", lambda *a: chunks.append(a) or source(*a))
    with pytest.raises(Overflow, match="at t = 0.122$"):
        sz.curve_from_riccati(ts, ws, zero, np.zeros((n, n)), np.eye(n), zero)
    assert 1 <= len(chunks) <= 2


def read_chunks(monkeypatch, chunks):
    """Patch the propagation so that each chunk handed to the Riccati reader appends
    (its first node, the number of nodes built) to chunks."""
    propagate = sz._propagate

    def counting(ys, blocks, on_chunk, *args):
        return propagate(ys, blocks, lambda j, y: chunks.append((j, j + len(y))) or on_chunk(j, y), *args)

    monkeypatch.setattr(sz, "_propagate", counting)


def test_a_riccati_blow_up_ends_the_run_at_its_chunk(monkeypatch):
    # W' = -I - W^2, W0 = 0, dim 6: W = -tan(t) I has its pole at pi/2, node 524 of
    # 1000 steps on [0, 3].  The constant system's exact flow doubles its blocks of
    # nodes: the reader gets nodes 0-127, then the blocks from nodes 128, 256 and
    # 512 (each with the node before it), and the pole lies in the 4th.
    chunks = []
    read_chunks(monkeypatch, chunks)
    sys_ = constant_system(np.zeros((6, 6)), np.eye(6))
    with pytest.raises(BlowUp) as exc_info:
        sz.integrate_riccati(sys_, np.zeros((6, 6)), 0.0, 3.0, 1000)
    assert exc_info.value.t == 524 * (3.0 / 1000)
    assert chunks == [(0, 128), (127, 256), (255, 512), (511, 1001)]


def test_the_blocks_double_past_the_norm_bound_while_they_stay_finite(monkeypatch):
    # W' = -W^2 (A = B = 0, dim 2), W0 = -I/524500: q = I - t I/524500 is singular at
    # t = 524500, between nodes 524 and 525 of [0, 1e6] in 1000 steps.  Each exponent
    # 2^b hG = [[0, 2^b 1000 I], [0, 0]] has a 1-norm past ln(DBL_MAX) - 1, yet its
    # exponential I + 2^b hG is finite, so the blocks keep doubling.
    chunks = []
    read_chunks(monkeypatch, chunks)
    with pytest.raises(BlowUp) as exc_info:
        sz.integrate_riccati(constant_system(np.zeros((2, 2)), np.zeros((2, 2))),
                             -np.eye(2) / 524500.0, 0.0, 1e6, 1000)
    assert exc_info.value.t == 525000.0
    assert chunks == [(0, 128), (127, 256), (255, 512), (511, 1001)]


@pytest.mark.parametrize("node", [10, 64, 65, 300, 3000])
def test_a_constant_run_doubles_its_chunks_up_to_its_pole(monkeypatch, node):
    # W' = -cI - W^2, W0 = 0, dim 6: W = -sqrt(c) tan(sqrt(c) t) I, its pole placed
    # mid-step into the given node of a 10,000-step run.  The constant system's
    # exact flow builds its nodes in doubling blocks; its zero-slope degree-1 twin
    # runs its power series in chunks of 64 steps.  Both must report the pole at that node; the
    # constant run must build at most max(2 node + 1, 128) nodes, and the twin at
    # most node + 64 (a whole-run block would build all 10,001).
    n, steps, t1 = 6, 10_000, 1.0
    c = (np.pi / (2.0 * (node - 0.5) * (t1 / steps))) ** 2
    zero = np.zeros((n, n))
    chunks = []
    read_chunks(monkeypatch, chunks)
    blowups, built = [], []
    for sys_ in (constant_system(zero, c * np.eye(n)),
                 sz.HamiltonianSystem(sz.MatrixPolynomial([zero, zero]),
                                      sz.MatrixPolynomial([c * np.eye(n), zero]))):
        chunks.clear()
        with pytest.raises(BlowUp) as exc_info:
            sz.integrate_riccati(sys_, zero, 0.0, t1, steps)
        blowups.append(exc_info.value.t)
        built.append(chunks[-1][1])
    assert blowups[0] == blowups[1] == node * (t1 / steps)
    assert built[0] <= max(2 * node + 1, 2 * sz._CHUNK)
    assert built[1] <= node + 64


@pytest.mark.parametrize("t0", [0, -0.4, 3, 1e6])
def test_the_node_times_are_t0_plus_i_times_the_step(t0):
    # Node i is at t0 + i h, h = (t1 - t0) / steps, each rounded once from i h, byte
    # for byte, for steps from 1e-300 to 1e3, whether the run is the exact flow of a
    # constant system or the power series of its zero-slope twin.
    x0 = sz.PhasePoint(np.eye(1), np.zeros((1, 1)))
    zero = [[0.0]]
    for sys_, counts in ((constant_system(zero, zero), (1, 63, 64, 65, 1000, 10**5)),
                         (sz.HamiltonianSystem(sz.MatrixPolynomial([zero, zero]), sz.MatrixPolynomial([zero])),
                          (1, 63, 64, 65, 1000))):
        for steps in counts:
            for step in (1e-300, 3.7e-9, 0.003, 1.0 / 3.0, 1e3):
                t1 = t0 + step * steps
                ts, _ = sz.integrate_hamiltonian(sys_, x0, t0, t1, steps)
                h = (t1 - t0) / steps
                expect = np.array([t0 + i * h for i in range(steps + 1)])
                assert ts.dtype == expect.dtype and ts.tobytes() == expect.tobytes(), (steps, step)


def test_the_pole_run_meets_tan_at_its_reported_times():
    # W' = -1 - W^2 from W0 = 0 over [0, 1.5707963] in 1000 steps, 2.7e-8 short of the
    # pole of W = -tan t: at every node W meets -tan of the time the run reports,
    # within 1e-8 relative (5.7e-9; the repeated sum t0 + h + h + ... read 3.4e-7).
    ts, ws = sz.integrate_riccati(oscillator(), np.zeros((1, 1)), 0.0, 1.5707963, 1000)
    with mpmath.workdps(30):
        exact = np.array([float(-mpmath.tan(t)) for t in ts])
    assert np.all(np.abs(ws[:, 0, 0] - exact) <= 1e-8 * np.abs(exact))


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


def test_a_long_time_dependent_run_holds_its_states_and_w(rng):
    # A time-dependent dim-6 run of 100,000 steps builds its blocks' propagators a
    # batch of 16 blocks at a time; its peak stays within 1.5 times the bytes of its
    # states [q; p] and its W stack, which it must hold whole.
    n, steps = 6, 100_000
    sys_, w0 = linear_system(rng, n), 0.1 * _sym(rng, n)
    sz.integrate_riccati(sys_, w0, 0.0, 0.6, 1000)
    tracemalloc.start()
    try:
        sz.integrate_riccati(sys_, w0, 0.0, 0.6, steps)
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
    assert t == node * (t1 / steps)
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
