"""Operator Schwarzian derivative and its correspondence with linear
Hamiltonian systems and matrix Riccati equations.

Curves are handled through third-order jets; coefficient matrices A(t), B(t)
are matrix polynomials so that A' is exact.  All integrators are the
classical fixed-step fourth-order one-step method.
"""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import numerics
from .errors import BlowUp, Overflow, Singular

BLOWUP_NORM = 1e8


@dataclass(frozen=True)
class CurveJet:
    """A curve value with its first three derivatives at one parameter value."""

    t: float
    z: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    z3: np.ndarray

    def __post_init__(self):
        mats = {}
        for name in ("z", "z1", "z2", "z3"):
            mats[name] = numerics.as_square(getattr(self, name), name)
        if len({m.shape for m in mats.values()}) != 1:
            raise ValueError("jet matrices must share one square shape")
        numerics.require_nonsingular(numerics.singular_values(mats["z1"]), Singular,
                                     f"z' is numerically singular at t = {float(self.t):.6g}")
        for name, m in mats.items():
            object.__setattr__(self, name, m)
        object.__setattr__(self, "t", float(self.t))

    @property
    def dim(self):
        return self.z.shape[0]

    def to_json(self):
        return {"t": self.t,
                "z": numerics.matrix_to_json(self.z),
                "z1": numerics.matrix_to_json(self.z1),
                "z2": numerics.matrix_to_json(self.z2),
                "z3": numerics.matrix_to_json(self.z3)}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("jet JSON must be an object")
        return cls(numerics.number_from_json(obj.get("t", 0.0), "t"),
                   *(numerics.matrix_from_json(obj[k]) for k in ("z", "z1", "z2", "z3")))


class MatrixPolynomial:
    """A matrix-valued polynomial sum_k C_k t^k with exact differentiation."""

    def __init__(self, coeffs, dim=None):
        coeffs = [numerics.as_square(c, "coefficient") for c in coeffs]
        if not coeffs:
            if dim is None:
                raise ValueError("empty polynomial needs an explicit dim")
            coeffs = [np.zeros((dim, dim))]
        if len({c.shape for c in coeffs}) != 1:
            raise ValueError("coefficient shapes differ")
        if dim is not None and coeffs[0].shape[0] != dim:
            raise ValueError(f"coefficients are {coeffs[0].shape[0]}x..., expected {dim}")
        self.coeffs = coeffs

    @property
    def dim(self):
        return self.coeffs[0].shape[0]

    def __call__(self, t):
        out = np.zeros_like(self.coeffs[0])
        for c in reversed(self.coeffs):
            out = out * t + c
        return out

    def derivative(self):
        if len(self.coeffs) == 1:
            return MatrixPolynomial([np.zeros_like(self.coeffs[0])])
        return MatrixPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def is_symmetric(self):
        """Symmetric for every t, which holds exactly when every coefficient is."""
        return all(numerics.fro(c - c.T) <= 1e-12 * max(1.0, numerics.fro(c)) for c in self.coeffs)

    def to_json(self):
        return [numerics.matrix_to_json(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, obj, dim=None):
        if not isinstance(obj, list):
            raise ValueError("matrix polynomial JSON must be a list of matrices")
        return cls([numerics.matrix_from_json(c) if isinstance(c, dict) else
                    [[numerics.number_from_json(v, "coefficient entry") for v in row]
                     for row in c] for c in obj], dim=dim)


@dataclass(frozen=True)
class HamiltonianSystem:
    """Time-dependent coefficients of q' = A q + p, p' = -B q - A^T p.

    B(t) must be symmetric; set symmetric_a for the Schwarz-equation
    correspondence, which additionally requires A(t) symmetric.
    """

    a: MatrixPolynomial
    b: MatrixPolynomial
    symmetric_a: bool = False

    def __post_init__(self):
        if self.a.dim != self.b.dim:
            raise ValueError("A and B dimensions differ")
        if not self.b.is_symmetric():
            raise ValueError("B(t) must be symmetric")
        if self.symmetric_a and not self.a.is_symmetric():
            raise ValueError("symmetric_a is set but A(t) is not symmetric")

    @property
    def dim(self):
        return self.a.dim

    def to_json(self):
        return {"dim": self.dim, "A": self.a.to_json(), "B": self.b.to_json(),
                "symmetric_A": self.symmetric_a}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("system JSON must be an object")
        dim = numerics.number_from_json(obj["dim"], "dim", int) if "dim" in obj else None
        a = MatrixPolynomial.from_json(obj.get("A", []), dim=dim)
        b = MatrixPolynomial.from_json(obj.get("B", []), dim=dim)
        return cls(a, b, bool(obj.get("symmetric_A", False)))


@dataclass(frozen=True)
class PhasePoint:
    """Fundamental-system phase point: q and p are both n x n matrices."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = numerics.as_square(self.q, "q")
        p = numerics.as_square(self.p, "p")
        if q.shape != p.shape:
            raise ValueError("q and p shapes differ")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    def w(self):
        """Grassmann coordinate W = p q^-1 (requires q invertible)."""
        numerics.check_invertible(self.q, "q")
        return np.linalg.solve(self.q.T, self.p.T).T


def schwarz(jet):
    """Operator Schwarzian S(z) = (z')^-1 z''' - (3/2) ((z')^-1 z'')^2."""
    q2 = np.linalg.solve(jet.z1, jet.z2)
    q3 = np.linalg.solve(jet.z1, jet.z3)
    return q3 - 1.5 * (q2 @ q2)


# Centered 7-point finite-difference weights for offsets -3..3.
_D1_W = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_D2_W = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
_D3_W = np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0


def jet_from_samples(samples, h, t=0.0):
    """Finite-difference jet from an odd-length centered stencil of >= 7 points."""
    samples = [numerics.as_square(s, "sample") for s in samples]
    if len(samples) < 7 or len(samples) % 2 == 0:
        raise ValueError("need an odd number of samples, at least 7")
    mid = len(samples) // 2
    window = samples[mid - 3: mid + 4]
    z1 = sum(w * s for w, s in zip(_D1_W, window)) / h
    z2 = sum(w * s for w, s in zip(_D2_W, window)) / h ** 2
    z3 = sum(w * s for w, s in zip(_D3_W, window)) / h ** 3
    return CurveJet(t, samples[mid], z1, z2, z3)


def schwarz_from_samples(samples, h, t=0.0):
    """Schwarzian of a sampled curve; raises Singular when z' degenerates."""
    return schwarz(jet_from_samples(samples, h, t))


def schwarz_richardson(samples_h, samples_h2, h):
    """Richardson combination of stencil Schwarzians at steps h and h/2.

    The leading stencil error is fourth order, so the weights are 16/15
    and -1/15.
    """
    s1 = schwarz_from_samples(samples_h, h)
    s2 = schwarz_from_samples(samples_h2, h / 2.0)
    return (16.0 * s2 - s1) / 15.0


def _series_mul(a, b, order):
    return [sum((a[j] @ b[k - j] for j in range(k + 1)),
                np.zeros_like(a[0])) for k in range(order + 1)]


def _series_inv(d, order):
    numerics.check_invertible(d[0], "series constant term")
    e0 = np.linalg.inv(d[0])
    e = [e0]
    for k in range(1, order + 1):
        acc = np.zeros_like(e0)
        for j in range(1, k + 1):
            acc = acc + d[j] @ e[k - j]
        e.append(-e0 @ acc)
    return e


def mobius_curve_jet(c1, c2, c3, c4, jet):
    """Jet of M(z(t)) = (C1 z + C2)(C3 z + C4)^-1 by exact third-order chain rule.

    Implemented with truncated Taylor arithmetic: multiply and invert the
    numerator/denominator series of z(t) and read off the derivatives.
    """
    blocks = [numerics.as_square(c, f"C{i+1}") for i, c in enumerate((c1, c2, c3, c4))]
    if any(b.shape != jet.z.shape for b in blocks):
        raise ValueError("Moebius blocks must match the jet dimension")
    c1, c2, c3, c4 = blocks
    # Taylor coefficients of z(t + s) in s.
    zs = [jet.z, jet.z1, jet.z2 / 2.0, jet.z3 / 6.0]
    num = [c1 @ zs[0] + c2] + [c1 @ zk for zk in zs[1:]]
    den = [c3 @ zs[0] + c4] + [c3 @ zk for zk in zs[1:]]
    try:
        inv_den = _series_inv(den, 3)
    except Singular as exc:
        raise Singular("(C3 z + C4) is singular at the curve point") from exc
    w = _series_mul(num, inv_den, 3)
    return CurveJet(jet.t, w[0], w[1], 2.0 * w[2], 6.0 * w[3])


def _stage_times(ts, hs):
    """t0, t0 + h0/2, t1, ..., tN: where RK4 over the steps hs from the nodes
    ts reads its coefficients (index 2i is node i, 2i + 1 the midpoint of step i)."""
    return np.insert(ts, np.arange(1, len(ts)), ts[:-1] + np.divide(hs, 2.0))


def _rk4(f, y, hs, coef, check=None):
    """Classical RK4 from y over the steps hs for y' = f(y, c), where c is
    coef(k) at stage time k (see _stage_times), read once per stage time.
    Returns y followed by the state after each step; check(i, state), when
    given, sees the state at node i >= 1 and may raise.
    """
    ys, c = [y], coef(0)
    for i, h in enumerate(hs):
        k1 = f(y, c)
        c = coef(2 * i + 1)
        k2 = f(y + (h / 2.0) * k1, c)
        k3 = f(y + (h / 2.0) * k2, c)
        c = coef(2 * i + 2)
        k4 = f(y + h * k3, c)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if check is not None:
            check(i + 1, y)
        ys.append(y)
    return ys


def _fixed_steps(sys, t0, t1, steps):
    """Node times of a fixed-step run (t advances by repeated addition of h),
    its steps, and coef(k) = (A, B) at its k-th stage time."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    hs = [(t1 - t0) / steps] * steps
    ts = np.array(list(accumulate(hs, initial=t0)))
    st = _stage_times(ts, hs)
    return ts, hs, lambda k: (sys.a(st.item(k)), sys.b(st.item(k)))


def _check_finite(ts, what, *stacks):
    """Raise Overflow at the first node time ts[i] at which some stack[i] is not finite."""
    finite = np.all([np.isfinite(s).reshape(len(ts), -1).all(axis=1) for s in stacks], axis=0)
    if not finite.all():
        raise Overflow(f"{what} overflowed at t = {ts[np.argmin(finite)]:.6g}")


def integrate_hamiltonian(sys, x0, t0, t1, steps):
    """Fixed-step RK4 trajectory of the Hamiltonian system.

    Returns (times, [PhasePoint, ...]) including both endpoints; raises
    Overflow at the first time the state is no longer finite.
    """

    def rhs(y, c):
        (a, b), q, p = c, y[0], y[1]
        return np.array([a @ q + p, -b @ q - a.T @ p])

    ts, hs, coef = _fixed_steps(sys, t0, t1, steps)
    ys = np.array(_rk4(rhs, np.array([x0.q, x0.p]), hs, coef))
    _check_finite(ts, "the Hamiltonian state", ys)
    return ts, [PhasePoint(q, p) for q, p in ys]


def riccati_rhs(w, c):
    """W' = -B - A^T W - W A - W^2 (chart form of the Hamiltonian flow) for
    c = (A, B); w, A and B may be stacks of N matrices."""
    a, b = c
    return -b - a.swapaxes(-1, -2) @ w - w @ a - w @ w


def integrate_riccati(sys, w0, t0, t1, steps):
    """Fixed-step RK4 for the matrix Riccati equation with blow-up detection.

    When the iterate norm passes the blow-up threshold the integration is
    retried once at half step; a second escape raises BlowUp (finite escape
    time is intrinsic to Riccati flows).
    """
    w0 = numerics.as_square(w0, "W0")

    def attempt(n_steps):
        ts, hs, coef = _fixed_steps(sys, t0, t1, n_steps)

        def check(i, w):
            if not np.all(np.isfinite(w)) or numerics.fro(w) > BLOWUP_NORM:
                raise BlowUp(ts.item(i))

        return ts, _rk4(riccati_rhs, w0, hs, coef, check)

    try:
        return attempt(steps)
    except BlowUp:
        return attempt(2 * steps)


def w_from_jet(jet, a_t):
    """W = -(1/2) (z')^-1 z'' - A: the chart coordinate of a curve point."""
    a_t = numerics.as_square(a_t, "A")
    if numerics.fro(a_t - a_t.T) > 1e-10 * max(1.0, numerics.fro(a_t)):
        raise ValueError("A must be symmetric for the W-z relation")
    return -0.5 * np.linalg.solve(jet.z1, jet.z2) - a_t


def schwarz_equation_residual(jet, sys, t=None):
    """S(z) - 2 (B(t) - A'(t) - A(t)^2), the Schwarz-equation residual.

    With symmetric A, substituting W = -(1/2)(z')^-1 z'' - A into the
    Riccati equation gives the identity
    W' + W^2 + WA + AW = -(1/2) S(z) - A' - A^2, so a jet lies on a
    Riccati solution exactly when this residual vanishes.  All forms
    coincide at A = 0.
    """
    if not sys.symmetric_a:
        raise ValueError("the Schwarz equation requires symmetric A")
    if t is None:
        t = jet.t
    a = sys.a(t)
    return schwarz(jet) - 2.0 * (sys.b(t) - sys.a.derivative()(t) - a @ a)


def euler_residual(q, q1, q2, sys, t):
    """q'' + (A^T - A) q' + (B - A' - A^T A) q, the Euler-equation residual."""
    q = np.asarray(q, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    a, b, ad = sys.a(t), sys.b(t), sys.a.derivative()(t)
    return q2 + (a.T - a) @ q1 + (b - ad - a.T @ a) @ q


def curve_from_riccati(ts, ws, a_poly, z0, z1_0, b_poly):
    """Integrate z'' = -2 z' (W(t) + A(t)) along a trajectory ts, ws of the
    Riccati equation with coefficients a_poly, b_poly.

    RK4 reads W at the nodes and at the step midpoints, where it takes the
    cubic Hermite interpolant of the node values and the Riccati slopes W';
    the same slopes give W' in the third-derivative member of each jet.
    Returns one CurveJet per node; raises Overflow at the first node whose
    jet is not finite.
    """
    ts = np.asarray(ts, dtype=float)
    w_stack = np.array([numerics.as_square(w, "W") for w in ws])
    if len(ts) != len(w_stack) or len(ts) < 2:
        raise ValueError("need matching times and W values, at least two nodes")
    z0 = numerics.as_square(z0, "z0")
    z1_0 = numerics.as_square(z1_0, "z1_0")
    numerics.check_invertible(z1_0, "z1_0")
    HamiltonianSystem(a_poly, b_poly)  # rejects a non-symmetric or mis-sized b_poly
    hs = np.diff(ts)
    tcol = ts[:, None, None]
    a_st = a_poly(_stage_times(ts, hs)[:, None, None])
    slopes = riccati_rhs(w_stack, (a_st[::2], b_poly(tcol)))
    mid = (w_stack[:-1] + w_stack[1:]) / 2.0 + hs[:, None, None] * (slopes[:-1] - slopes[1:]) / 8.0
    wa = np.insert(w_stack, np.arange(1, len(ts)), mid, axis=0) + a_st

    def rhs(y, c):
        z1 = y[1]
        return np.array([z1, -2.0 * z1 @ c])

    ys = np.array(_rk4(rhs, np.array([z0, z1_0]), hs, lambda k: wa[k]))
    z, z1, wa = ys[:, 0], ys[:, 1], wa[::2]
    z2 = -2.0 * z1 @ wa
    z3 = -2.0 * z2 @ wa - 2.0 * z1 @ (slopes + a_poly.derivative()(tcol))
    _check_finite(ts, "the curve jet", ys, z2, z3)
    return [CurveJet(*jet) for jet in zip(ts, z, z1, z2, z3)]
