"""Operator Schwarzian derivative and its correspondence with linear
Hamiltonian systems and matrix Riccati equations.

Curves are handled through third-order jets; coefficient matrices A(t), B(t)
are matrix polynomials so that A' is exact.  All integrators are the
classical fixed-step fourth-order one-step method, run by one kernel; the
systems are linear in the state, so it takes one RK4 step matrix per step.

integrate_riccati reads W = p q^-1, the Lagrangian subspace of the linear
Hamiltonian system in one chart, off the run from (q, p) = (I, W0), a chunk
of steps at a time as the kernel hands each one over.  The chart is lost
where the state is not finite, q is exactly singular, ||W||_F >=
1/SINGULAR_RTOL (the singularity rule on the q block of an orthonormal basis
of span(q; p), whose smallest singular value is (1 + ||W||_2^2)^-1/2), or the
step to the node holds a pole: q_{i+1} q_i^-1 = M11 + M12 W_i, read off the
step matrix M_i without a solve and whatever basis the run has reached, has
an eigenvalue with real part <= 0.  BlowUp.t is the first such node; the chunk
reader finds it, and the run ends with that node's chunk.
"""

from collections import deque
from dataclasses import dataclass, fields
from itertools import islice, repeat, zip_longest
from numbers import Integral

import numpy as np

from . import numerics
from .errors import BlowUp, Overflow, Singular


class _Nodes:
    """len(x), x[i] and iteration over the nodes of a stack (a single node has
    none): node i is built by the class's validated constructor from row i of every field."""

    def __len__(self):
        return len(getattr(self, fields(self)[-1].name)[..., 0, 0])

    def __getitem__(self, i):
        return type(self)(*(getattr(self, f.name)[i] for f in fields(self)))


@dataclass(frozen=True)
class CurveJet(_Nodes):
    """A curve value with its first three derivatives at a time t, or stacked at times t (N,);
    z' is certified by its inverse, else an SVD names the first singular node."""

    t: float
    z: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    z3: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t if np.ndim(self.t) else float(self.t), dtype=float)
        mats = {}
        for name in ("z", "z1", "z2", "z3"):
            mats[name] = numerics.as_square(getattr(self, name), name, stack=t.ndim > 0)
        if len({m.shape for m in mats.values()} | {t.shape + mats["z"].shape[-2:]}) != 1:
            raise ValueError("jet matrices must share one square shape, one per time")
        numerics.inverse(mats["z1"], Singular,
                         lambda i: f"z' is numerically singular at t = {t.item(i):.6g}")
        for name, m in mats.items():
            object.__setattr__(self, name, m)
        object.__setattr__(self, "t", t if t.ndim else float(t))

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
        """sum_k C_k t^k, a new array of the shape of t and C_k broadcast together."""
        *lower, out = self.coeffs
        for c in reversed(lower):
            out = out * t + c
        return out if lower else out + 0 * t

    def derivative(self):
        """sum_k k C_k t^(k-1); Overflow when a coefficient k C_k is not finite."""
        if len(self.coeffs) == 1:
            return MatrixPolynomial([np.zeros_like(self.coeffs[0])])
        with np.errstate(over="ignore", invalid="ignore"):
            return MatrixPolynomial(numerics.finite([k * c for k, c in enumerate(self.coeffs)][1:],
                                                    "a coefficient of the derivative"))

    def is_symmetric(self):
        """Symmetric for every t, which holds exactly when every coefficient is."""
        return all(numerics.is_symmetric(c) for c in self.coeffs)

    @classmethod
    def from_json(cls, obj, dim=None):
        """Coefficients C_0, C_1, ...: each a matrix object or the list of its rows."""
        return cls([numerics.matrix_from_json(c) if isinstance(c, dict) else
                    numerics.rows_from_json(c, "coefficient")
                    for c in numerics.list_from_json(obj, "matrix polynomial")], dim=dim)


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

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("system JSON must be an object")
        dim = numerics.number_from_json(obj["dim"], "dim", int) if "dim" in obj else None
        if dim is not None and dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        a = MatrixPolynomial.from_json(obj.get("A", []), dim=dim)
        b = MatrixPolynomial.from_json(obj.get("B", []), dim=dim)
        symmetric_a = obj.get("symmetric_A", False)
        if not isinstance(symmetric_a, bool):
            raise ValueError(f"symmetric_A must be true or false, got {symmetric_a!r}")
        return cls(a, b, symmetric_a)


@dataclass(frozen=True)
class PhasePoint(_Nodes):
    """Fundamental-system phase point: q and p are both n x n matrices, or (N, n, n) stacks."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        stack = np.ndim(self.q) == 3
        q = numerics.as_square(self.q, "q", stack)
        p = numerics.as_square(self.p, "p", stack)
        if q.shape != p.shape:
            raise ValueError("q and p shapes differ")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    def w(self):
        """Grassmann coordinate W = p q^-1 (requires q invertible), one per node of a stack."""
        numerics.inverse(self.q, Singular, "q is numerically singular")
        return np.linalg.solve(self.q.swapaxes(-1, -2), self.p.swapaxes(-1, -2)).swapaxes(-1, -2)


def schwarz(jet):
    """Operator Schwarzian S(z) = (z')^-1 z''' - (3/2) ((z')^-1 z'')^2;
    Overflow when it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        q2 = np.linalg.solve(jet.z1, jet.z2)
        q3 = np.linalg.solve(jet.z1, jet.z3)
        return numerics.finite(q3 - 1.5 * (q2 @ q2), "the Schwarzian")


# Centered 7-point finite-difference weights for offsets -3..3.
_D1_W = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_D2_W = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
_D3_W = np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0


def jet_from_samples(samples, h):
    """Finite-difference jet at t = 0 from an odd-length centered stencil of >= 7
    points spaced by a finite nonzero step h; Overflow when a derivative is not finite."""
    samples = numerics.as_square(samples, "sample", stack=True)
    if len(samples) < 7 or len(samples) % 2 == 0:
        raise ValueError("need an odd number of samples, at least 7")
    if not (np.isfinite(h) and h != 0.0):
        raise ValueError(f"h must be a finite nonzero step, got {h!r}")
    mid = len(samples) // 2
    window, h = samples[mid - 3: mid + 4], np.float64(h)  # h ** 3 may leave the range
    with np.errstate(all="ignore"):
        z1, z2, z3 = numerics.finite([sum(w * s for w, s in zip(weights, window)) / h ** order
                                      for order, weights in enumerate((_D1_W, _D2_W, _D3_W), 1)],
                                     "the finite-difference jet")
    return CurveJet(0.0, samples[mid], z1, z2, z3)


def schwarz_from_samples(samples, h):
    """Schwarzian of a sampled curve; raises Singular when z' degenerates."""
    return schwarz(jet_from_samples(samples, h))


def mobius_curve_jet(c1, c2, c3, c4, jet):
    """Jet of M(z(t)) = (C1 z + C2)(C3 z + C4)^-1 by exact third-order chain rule.

    The Taylor coefficients W_k of the image solve N = W D order by order, N and
    D those of the numerator and denominator: W_k = (N_k - sum_{j<k} W_j D_{k-j}) D_0^-1.
    """
    blocks = [numerics.as_square(c, f"C{i+1}") for i, c in enumerate((c1, c2, c3, c4))]
    if any(b.shape != jet.z.shape for b in blocks):
        raise ValueError("Moebius blocks must match the jet dimension")
    c1, c2, c3, c4 = blocks
    # Taylor coefficients of z(t + s) in s.
    zs = [jet.z, jet.z1, jet.z2 / 2.0, jet.z3 / 6.0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing factor or image: Overflow
        num = [c1 @ zs[0] + c2] + [c1 @ zk for zk in zs[1:]]
        den = [c3 @ zs[0] + c4] + [c3 @ zk for zk in zs[1:]]
        e = numerics.inverse(den[0], Singular, "(C3 z + C4) is singular at the curve point")
        w = []
        for k in range(4):
            w.append((num[k] - sum(w[j] @ den[k - j] for j in range(k))) @ e)
        w[2], w[3] = 2.0 * w[2], 6.0 * w[3]
        return CurveJet(jet.t, *numerics.finite(w, "the Moebius image jet"))


def _stages(nodes, mids):
    """nodes[0], mids[0], nodes[1], ..., nodes[-1] along the first axis, in the dtype
    of both (complex midpoints of real nodes stay complex): the values where RK4 over
    the nodes reads its coefficients (index 2i is node i, 2i + 1 the midpoint of step i)."""
    out = np.empty((2 * len(nodes) - 1, *nodes.shape[1:]), np.result_type(nodes, mids))
    out[::2], out[1::2] = nodes, mids
    return out


# Steps whose RK4 step matrices are built together: one stack per chunk keeps
# the run's memory at its states (a whole run's stage stacks would not be).  A
# chunk takes _CHUNK steps, or more where their step matrices are small: as many
# as fill _CHUNK_ENTRIES entries (64 12 x 12 matrices, the steps of a dim-6 run).
# A chunk whose one step matrix advanced all its steps (a constant G over equal
# steps) held no stack, and the next chunk is twice as long: with c steps in the
# first, chunk k starts at step c (2^k - 1), so a run that stops at node i has
# built at most 2i + c steps.
_CHUNK, _CHUNK_ENTRIES = 64, 64 * 12 ** 2
# The most steps one run takes: it holds its step list, node times and states whole.
MAX_STEPS = 10**6


def _blocks(a, b, c, d):
    """The stack of block matrices [[a, b], [c, d]], the blocks broadcast to one stack."""
    n, blocks = a.shape[-1], (a, b, c, d)
    out = np.empty((*np.broadcast_shapes(*(x.shape for x in blocks))[:-2], 2 * n, 2 * n),
                   np.result_type(*blocks))
    out[..., :n, :n], out[..., :n, n:], out[..., n:, :n], out[..., n:, n:] = blocks
    return out


def _rk4(g, y, hs, on_chunk=None):
    """Classical RK4 from y over the steps hs for the linear system y' = G(t) y,
    where g(s) is the stack of G at the stage times s (a slice of the indices of
    _stages), or a one-matrix stack when G is constant.  On a linear system RK4
    is the step matrix y_{i+1} = M_i y_i, M = I + h/6 (K1 + 2 K2 + 2 K3 + K4) with
    K1 = G(t_i), K2 = G(t_i + h/2)(I + h/2 K1), K3 = G(t_i + h/2)(I + h/2 K2) and
    K4 = G(t_{i+1})(I + h K3): the stage vectors are K_j y_i, so the method and its
    nodes are the classical ones.  The M_i are built as stacks a chunk of steps at a
    time (see _CHUNK), each stage updated in place; a chunk of equal steps under a
    constant G has one M, which advances every step of the chunk, and the next
    chunk is twice as long.  y_{i+1} is one M_i.dot(y_i) (np.matmul's BLAS product,
    without a ufunc call), written into its row of the states, and map drives a
    chunk's products in order without a bytecode loop.  After each chunk,
    on_chunk(j, m, ys) gets its first step j, its stack m of step matrices (one matrix
    for a constant G) and its finite states ys, from y_j on, under the run's errstate;
    a true return ends the run there.  Returns one array of y and the states after each
    step, up to the first state that is not finite (the run stops at the end of that
    state's chunk) or to the end of a chunk that on_chunk ended."""
    hs, eye, ys, j = np.asarray(hs, dtype=float), np.eye(len(y)), None, 0
    chunk = max(_CHUNK, _CHUNK_ENTRIES // len(y) ** 2)
    with np.errstate(over="ignore", invalid="ignore"):  # a state out of range ends the run
        while j < len(hs):
            h = hs[j:j + chunk]
            steps = len(h)
            gs = g(slice(2 * j, 2 * (j + steps) + 1))
            # Equal steps make h a scalar; with a one-matrix gs every stage then
            # broadcasts to one matrix, and so does M.
            h = h.item(0) if (h == h[0]).all() else h[:, None, None]
            k1, gm, g1 = (gs, gs, gs) if len(gs) == 1 else (gs[:-1:2], gs[1::2], gs[2::2])
            x = k1 * (h / 2.0)
            x += eye
            k2 = gm @ x
            np.multiply(k2, h / 2.0, out=x)
            x += eye
            k3 = gm @ x
            np.multiply(k3, h, out=x)
            x += eye
            k4 = g1 @ x
            m = k2  # I + h/6 (K1 + 2 K2 + 2 K3 + K4), summed in that order
            m *= 2.0
            m += k1
            k3 *= 2.0
            m += k3
            m += k4
            m *= h / 6.0
            m += eye
            if ys is None:
                ys = np.empty((len(hs) + 1, *y.shape), np.result_type(y, m))
                ys[0] = y
            rows = list(ys[j:j + steps + 1])  # each product writes its state into its row of ys
            deque(map(np.ndarray.dot, m if len(m) == steps else repeat(m[0], steps),
                      rows, rows[1:]), maxlen=0)
            finite = np.isfinite(ys[j + 1:j + steps + 1]).reshape(steps, -1).all(axis=1)
            end = j + 1 + (steps if finite.all() else int(np.argmin(finite)))
            if on_chunk is not None and on_chunk(j, m, ys[j:end]) or end < j + 1 + steps:
                return ys[:end]
            j, chunk = j + steps, 2 * chunk if len(m) < steps else chunk
    return ys


def _hamiltonian_run(sys, q0, p0, t0, t1, steps, on_chunk=None):
    """Node times (t advances by repeated addition of h) and the RK4 states (q, p)
    from (q0, p0) up to the first that is not finite (see _rk4, which calls on_chunk
    with the states [q; p] of each chunk and stops where it returns true)."""
    if len(q0) != sys.dim:
        raise ValueError(f"the initial state is {len(q0)}x{len(q0)} but the system is "
                         f"{sys.dim}x{sys.dim}")
    if not isinstance(steps, Integral):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps > MAX_STEPS:
        raise ValueError(f"steps must be at most MAX_STEPS = {MAX_STEPS}, got {steps}")
    h = (t1 - t0) / steps
    if not np.isfinite([t0, t1, h]).all():
        raise ValueError(f"the time grid must be finite: t0 = {t0!r}, t1 = {t1!r}, step = {h!r}")
    hs = np.full(steps, h)
    ts = np.add.accumulate(np.append(t0, hs))
    st = _stages(ts, ts[:-1] + hs / 2.0)[:, None, None]

    # (q, p)' = G (q, p) with G = [[A, I], [-B, -A^T]]: one polynomial of blocks
    # [[A_k, I or 0], [-B_k, -A_k^T]], a missing coefficient zero.  Its Horner value
    # may differ from the assembled G in the sign of a zero, which no step matrix
    # shows: M adds I last, and x + 0 is +0 for x = -0.
    n, zero = sys.dim, np.zeros((sys.dim, sys.dim))
    coeffs = enumerate(zip_longest(sys.a.coeffs, sys.b.coeffs, fillvalue=zero))
    gen = MatrixPolynomial([_blocks(a, zero if k else np.eye(n), -b, -a.T) for k, (a, b) in coeffs])
    ys = _rk4(lambda s: gen(st[s] if len(gen.coeffs) > 1 else st[:1]),  # a constant G: one matrix
              np.concatenate([q0, p0]), hs, on_chunk)
    return ts, ys.reshape(len(ys), 2, *q0.shape)


def integrate_hamiltonian(sys, x0, t0, t1, steps):
    """Fixed-step RK4 trajectory of the Hamiltonian system from one phase point x0.

    Returns (times, PhasePoint) with the states stacked, both endpoints included;
    raises Overflow at the first time the state is no longer finite.
    """
    ts, ys = _hamiltonian_run(sys, numerics.as_square(x0.q, "x0.q"), x0.p, t0, t1, steps)
    if len(ys) < len(ts):
        raise Overflow(f"the Hamiltonian state overflowed at t = {ts.item(len(ys)):.6g}")
    return ts, PhasePoint(ys[:, 0], ys[:, 1])


def riccati_rhs(w, c):
    """W' = -B - A^T W - W A - W^2 (chart form of the Hamiltonian flow) for
    c = (A, B); w, A and B may be stacks of N matrices."""
    a, b = c
    return -b - a.swapaxes(-1, -2) @ w - w @ a - w @ w


def integrate_riccati(sys, w0, t0, t1, steps):
    """Fixed-step RK4 solution (times, W stack) of the matrix Riccati equation,
    read as W = p q^-1 off the Hamiltonian run from (q, p) = (I, W0); raises
    BlowUp at the first node where that chart is lost (see the module docstring)."""
    w0 = numerics.as_square(w0, "W0")
    n, wt, lost = len(w0), None, []

    def read(j, m, ys):
        # W^T = (q^T)^-1 p^T at the chunk's nodes j, ..., j + k - 1 into one stack
        # (node j was read with the chunk before, unless j = 0), each new one held to
        # ||W||_F < 1/SINGULAR_RTOL, then d_i = M11 + M12 W_i - I = q_{i+1} q_i^-1 - I
        # for the steps i from them: a step with ||d_i||_F < 1 holds no pole.  The
        # chunk records its first lost node (the first exactly singular q, large W or
        # pole) and then ends the run.
        nonlocal wt
        if wt is None:
            wt = np.empty((steps + 1, n, n), ys.dtype)
        qt, pt, k, new = ys[:, :n].swapaxes(-1, -2), ys[:, n:].swapaxes(-1, -2), len(ys), int(j > 0)
        try:
            wt[j + new:j + k] = np.linalg.solve(qt[new:], pt[new:])
        except np.linalg.LinAlgError:  # q is exactly singular at node j + k
            k = int(np.argmax(np.linalg.slogdet(qt)[0] == 0))
            lost.append(j + k)
            wt[j + new:j + k] = np.linalg.solve(qt[new:k], pt[new:k])
        big = ~(numerics.sq_fro(wt[j + new:j + k]) < numerics.SINGULAR_RTOL ** -2)
        lost.extend(j + new + np.flatnonzero(big)[:1])
        d = m[:k - 1, :n, n:] @ wt[j:j + k - 1].swapaxes(-1, -2)
        d += m[:k - 1, :n, :n]
        d -= np.eye(n)
        poles = (j + i + 1 for i in np.flatnonzero(~(numerics.sq_fro(d) < 1.0))
                 if not np.isfinite(d[i]).all() or numerics.eigenvalues(d[i])[0].real <= -1.0)
        lost.extend(islice(poles, 1))
        return bool(lost)

    ts, ys = _hamiltonian_run(sys, np.eye(n, dtype=w0.dtype), w0, t0, t1, steps, read)
    lost = min(lost, default=len(ys))  # or the first state that is not finite
    if lost < len(ts):
        raise BlowUp(ts.item(lost))
    return ts, wt.swapaxes(-1, -2)


def w_from_jet(jet, a_t):
    """W = -(1/2) (z')^-1 z'' - A: the chart coordinate of a curve point."""
    a_t = numerics.as_square(a_t, "A")
    if not numerics.is_symmetric(a_t):
        raise ValueError("A must be symmetric for the W-z relation")
    return -0.5 * np.linalg.solve(jet.z1, jet.z2) - a_t


def schwarz_equation_residual(jet, sys):
    """S(z) - 2 (B(t) - A'(t) - A(t)^2) at the jet's time t, the Schwarz-equation residual.

    With symmetric A, substituting W = -(1/2)(z')^-1 z'' - A into the
    Riccati equation gives the identity
    W' + W^2 + WA + AW = -(1/2) S(z) - A' - A^2, so a jet lies on a
    Riccati solution exactly when this residual vanishes.  All forms
    coincide at A = 0.
    """
    if not sys.symmetric_a:
        raise ValueError("the Schwarz equation requires symmetric A")
    t = np.asarray(jet.t, dtype=float)[..., None, None]
    a = sys.a(t)
    return schwarz(jet) - 2.0 * (sys.b(t) - sys.a.derivative()(t) - a @ a)


def euler_residual(q, q1, q2, sys, t):
    """q'' + (A^T - A) q' + (B - A' - A^T A) q, the Euler-equation residual."""
    q, q1, q2 = (numerics.as_square(m, name) for m, name in ((q, "q"), (q1, "q'"), (q2, "q''")))
    a, b, ad = sys.a(t), sys.b(t), sys.a.derivative()(t)
    return q2 + (a.T - a) @ q1 + (b - ad - a.T @ a) @ q


def curve_from_riccati(ts, ws, a_poly, z0, z1_0, b_poly):
    """Integrate z'' = -2 z' (W(t) + A(t)) along a trajectory ts, ws of the
    Riccati equation with coefficients a_poly, b_poly.

    RK4 reads W at the nodes and at the step midpoints, where it takes the
    cubic Hermite interpolant of the node values and the Riccati slopes W';
    the same slopes give W' in the third-derivative member of each jet.
    Returns one CurveJet stacked over the nodes; raises Overflow at the first
    node whose jet is not finite.
    """
    ts = np.asarray(ts, dtype=float)
    w_stack = numerics.as_square(ws, "W", stack=True)
    if len(ts) != len(w_stack) or len(ts) < 2:
        raise ValueError("need matching times and W values, at least two nodes")
    with np.errstate(over="ignore", invalid="ignore"):
        hs = np.diff(ts)  # not finite where a time is not, or where a step overflows
    if not np.isfinite(hs).all():
        raise ValueError("the times ts and their steps must be finite")
    z0 = numerics.as_square(z0, "z0")
    z1_0 = numerics.as_square(z1_0, "z1_0")
    n = w_stack.shape[-1]
    for name, size in (("z0", len(z0)), ("z1_0", len(z1_0)), ("a_poly", a_poly.dim)):
        if size != n:
            raise ValueError(f"{name} is {size}x{size} but W is {n}x{n}")
    numerics.inverse(z1_0, Singular, "z1_0 is numerically singular")
    HamiltonianSystem(a_poly, b_poly)  # rejects a non-symmetric or mis-sized b_poly
    tcol = ts[:, None, None]
    a_st = a_poly(_stages(ts, ts[:-1] + hs / 2.0)[:, None, None])
    slopes = riccati_rhs(w_stack, (a_st[::2], b_poly(tcol)))
    mid = (w_stack[:-1] + w_stack[1:]) / 2.0 + hs[:, None, None] * (slopes[:-1] - slopes[1:]) / 8.0
    wa = _stages(w_stack, mid) + a_st

    # (z^T, z'^T)' = [[0, I], [0, -2 (W + A)^T]] (z^T, z'^T)
    zero = np.zeros_like(z0)
    ys = _rk4(lambda s: _blocks(zero, np.eye(n), zero, -2.0 * wa[s].swapaxes(-1, -2)),
              np.concatenate([z0.T, z1_0.T]), hs)
    m = len(ys)  # the states at nodes before m are finite
    z, z1, wa = ys[:, :n].swapaxes(-1, -2), ys[:, n:].swapaxes(-1, -2), wa[:2 * m:2]
    with np.errstate(over="ignore", invalid="ignore"):  # a jet out of range: Overflow
        z2 = -2.0 * z1 @ wa
        z3 = -2.0 * z2 @ wa - 2.0 * z1 @ (slopes[:m] + a_poly.derivative()(tcol[:m]))
    finite = np.all([np.isfinite(s).reshape(m, -1).all(axis=1) for s in (z2, z3)], axis=0)
    if m < len(ts) or not finite.all():
        raise Overflow(f"the curve jet overflowed at t = {ts[np.append(finite, False).argmin()]:.6g}")
    return CurveJet(ts, z, z1, z2, z3)
