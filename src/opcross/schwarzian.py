"""Operator Schwarzian derivative and its correspondence with linear
Hamiltonian systems and matrix Riccati equations.

Curves are handled through third-order jets; coefficient matrices A(t), B(t)
are matrix polynomials so that A' is exact.  The systems integrated are
linear in the state, y' = G(t) y, and a Hamiltonian run's node i is at t0 + i h.
A constant G takes its exact flow, y_i = e^(i h G) y_0, from stacked matrix
exponentials (_flow); a polynomial G takes, on each block of up to 64 steps,
the power series of its fundamental solution (_series).  Both hand their blocks
of nodes to one propagation loop (_propagate).  The curve of curve_from_riccati,
whose W is tabulated, takes the classical fixed-step RK4 (_rk4) of the block
triangular (z^T, z'^T)' = [[0, I], [0, F]] (z^T, z'^T), as n x n step matrices.

integrate_riccati reads W = p q^-1, the Lagrangian subspace of the linear
Hamiltonian system in one chart, off the run from (q, p) = (I, W0), a chunk of
states at a time.  The chart is lost where the state is not finite, q is
exactly singular, ||W||_F >= 1/SINGULAR_RTOL (the singularity rule on the q
block of an orthonormal basis of span(q; p), whose smallest singular value is
(1 + ||W||_2^2)^-1/2), or the step to the node holds a pole: q_{i+1} q_i^-1,
solved with W_i against q_i in whatever basis the run has reached, has an
eigenvalue with real part <= 0.  BlowUp.t is the first such node; the run ends
with that node's chunk.
"""

from collections import deque
from dataclasses import dataclass, fields
from itertools import islice, zip_longest
from math import comb
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
    z' must pass the singularity rule (numerics.check_invertible: one stacked Cholesky of
    its Gram matrices certifies it, else inverse's SVD names the first singular node)."""

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
        numerics.check_invertible(mats["z1"], Singular,
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
        numerics.check_invertible(self.q, Singular, "q is numerically singular")
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


# A run hands its states to its reader a chunk at a time (see _propagate): the exact
# flow once at least _CHUNK new nodes exist, so a run that stops at node i has built
# at most max(2i + 1, 2 _CHUNK) nodes, its blocks of nodes doubling.  A chunk of the
# series, whose step matrices are built a chunk at a time (one stack per chunk keeps
# its memory at its states), and of the curve's RK4, whose stage values, step matrices
# and jets are (one chunk's temporaries keep its memory near its jets), is _CHUNK
# steps, or more where its matrices are small: as many as fill _CHUNK_ENTRIES
# entries, of 2n x 2n matrices for the series (64 12 x 12 matrices, the steps of a
# dim-6 run) and of n x n ones for the curve (256 steps at dim 6).
_CHUNK, _CHUNK_ENTRIES = 64, 64 * 12 ** 2
# The most steps that one block of a polynomial run spans (see _series).
_BLOCK = 64
# The blocks of a polynomial run whose series are built together (fewer numpy calls
# per block): as many as hold _BATCH_ENTRIES entries per term (16 blocks of 12 x 12
# matrices, a dim-6 run), at least one.  A run that stops early has built those of
# fewer blocks past its last.
_BATCH_ENTRIES = 16 * 12 ** 2
# The largest 1-norm of an exponent A of the exact flow's stacked expm call: e^A is
# then finite, since ||e^A||_1 <= e^||A||_1, with a factor e to spare for rounding.
_EXPONENT_NORM_MAX = np.log(np.finfo(float).max) - 1.0
# The most steps one run takes: it holds its node times and states whole.
MAX_STEPS = 10**6


def _blocks(a, b, c, d):
    """The stack of block matrices [[a, b], [c, d]], the blocks broadcast to one stack."""
    n, blocks = a.shape[-1], (a, b, c, d)
    out = np.empty((*np.broadcast_shapes(*(x.shape for x in blocks))[:-2], 2 * n, 2 * n),
                   np.result_type(*blocks))
    out[..., :n, :n], out[..., :n, n:], out[..., n:, :n], out[..., n:, n:] = blocks
    return out


def _rk4_steps(wa, h):
    """The curve's RK4 step matrices, for _rk4, from P = W + A at the stage times of
    k steps (wa, 2k + 1 matrices: see _stages) and the steps h (a scalar, or a column
    of k).  On (z^T, z'^T)' = G (z^T, z'^T), G = [[0, I], [0, F]], F = -2 P^T, RK4's
    step matrix is [[I, M12], [0, M22]]: with X2 = I + h/2 F_0, Y2 = F_m X2, X3 = I +
    h/2 Y2, Y3 = F_m X3, X4 = I + h Y3 and Y4 = F_1 X4, M22 = I + h/6 (F_0 + 2 Y2 +
    2 Y3 + Y4) and M12 = h/6 (I + 2 X2 + 2 X3 + X4) = h (I + h/6 (F_0 + Y2 + Y3)).
    The curve's rows take the transposes, so no P is transposed: with V_j = -Y_j^T / 2
    (V2 = X2^T P_m, X2^T = I - h P_0, and so on), M22^T = I - h/3 (P_0 + 2 V2 + 2 V3 +
    V4) and M12^T = h (I - h/3 (P_0 + V2 + V3)), three products per step, each stage
    updated in place.  Returns the stacks of M12^T and M22^T."""
    eye, p0, pm = np.eye(wa.shape[-1]), wa[:-1:2], wa[1::2]
    x = p0 * -h
    x += eye
    v2 = x @ pm
    np.multiply(v2, -h, out=x)
    x += eye
    v3 = x @ pm
    np.multiply(v3, -2.0 * h, out=x)
    x += eye
    m12 = p0 + v2
    m12 += v3
    m22 = m12 + v2
    m22 += v3
    m22 += np.matmul(x, wa[2::2], out=v2)
    for m in (m12, m22):
        m *= -h / 3.0
        m += eye
    m12 *= h
    return m12, m22


def _rk4_chunk(ys, wa, h):
    """One chunk of the curve's RK4: z and z' (ys[0], ys[1]) at the chunk's nodes from
    its first, with W + A at its stage times (wa, see _stages) and its steps h (a
    column).  z'_{i+1} = z'_i M22_i^T is one z'_i.dot(M22_i^T) (np.matmul's BLAS
    product, without a ufunc call), written into its row of ys, and map drives the
    products in order without a bytecode loop; z_{i+1} = z_i + z'_i M12_i^T are one
    stacked product and its running sum from the first z, in order (see _rk4_steps).
    A function of its own, so that a chunk's step matrices are freed before the next
    chunk's are built."""
    m12, m22 = _rk4_steps(wa, h)
    rows = list(ys[1])
    deque(map(np.ndarray.dot, rows, m22, rows[1:]), maxlen=0)
    zs = ys[0, 1:]
    np.matmul(ys[1, :-1], m12, out=zs)
    zs[0] += ys[0, 0]
    np.cumsum(zs, axis=0, out=zs)


def _rk4(ts, hs, ws, a_poly, b_poly, z0, z1_0):
    """The jets of curve_from_riccati, stacked as (z, z', z'', z''') over the nodes ts
    with the steps hs: the curve's classical RK4 from z0 and z1_0 (_rk4_chunk), a chunk
    of steps at a time (see _CHUNK).  Each chunk first evaluates A at its stage times
    (see _stages), B and the Riccati slopes W' at its nodes, W at the midpoints (the
    cubic Hermite value from the nodes and slopes) and W + A at the stage times; after
    its steps, its z'' = -2 z' (W + A) and z''' = -2 z'' (W + A) - 2 z' (W' + A') go
    into their rows.  Returns the jets up to the first node where one is not finite
    (the run stops with that node's chunk)."""
    steps, n = len(hs), ws.shape[-1]
    chunk = max(_CHUNK, _CHUNK_ENTRIES // n ** 2)
    a_dot = a_poly.derivative()
    jets = np.empty((4, steps + 1, n, n),
                    np.result_type(z0, z1_0, ws, *a_poly.coeffs, *b_poly.coeffs, float))
    jets[:2, 0] = z0, z1_0
    with np.errstate(over="ignore", invalid="ignore"):  # a jet out of range ends the run
        for j in range(0, steps, chunk):
            k = min(chunk, steps - j)
            h, w = hs[j:j + k, None, None], ws[j:j + k + 1]
            t = _stages(ts[j:j + k + 1], ts[j:j + k] + hs[j:j + k] / 2.0)[:, None, None]
            a = a_poly(t)
            s = riccati_rhs(w, (a[::2], b_poly(t[::2])))
            # The midpoints' mean is in W's precision, as its sum.
            wa = _stages(w, (w[:-1] + w[1:]) / 2.0 + h * (s[:-1] - s[1:]) / 8.0) + a
            _rk4_chunk(jets[:2, j:j + k + 1], wa, h)
            # The jets from node lo: node j's z'' and z''' are the chunk before's.
            lo = j + 1 if j else 0
            z1, z2, z3 = jets[1:, lo:j + k + 1]
            wa_nodes = wa[2 * (lo - j)::2]
            np.matmul(-2.0 * z1, wa_nodes, out=z2)
            np.matmul(-2.0 * z2, wa_nodes, out=z3)
            z3 -= 2.0 * z1 @ (s[lo - j:] + a_dot(t[2 * (lo - j)::2]))  # W' + A'
            finite = np.isfinite(jets[:, lo:j + k + 1]).all(axis=(0, 2, 3))
            if not finite.all():
                return jets[:, :lo + int(np.argmin(finite))]
    return jets


def _two_sum(a, b):
    """a + b = s + e exactly: s = fl(a + b) and its rounding error e (Knuth's TwoSum)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _split(x):
    """x = hi + lo, each half of at most 26 significant bits (Veltkamp's split by
    2^27 + 1); not finite where 2^27 x overflows."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _two_prod(a, b):
    """a b = p + e exactly: p = fl(a b) and its rounding error e (Dekker's TwoProduct),
    barring overflow and underflow."""
    p = a * b
    (a1, a2), (b1, b2) = _split(a), _split(b)
    return p, a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2)


def _taylor(poly):
    """The Taylor coefficients p^(k)(x)/k! = sum_{j >= k} C(j, k) C_j x^(j - k),
    k = 0, ..., degree, of a matrix polynomial p = sum_j C_j t^j, as a function of
    times x of shape (..., 1, 1, 1) that returns them stacked on the axis before the
    matrices.  One compensated Horner pass over the stacked C(j, k) C_j, each held
    exactly as a sum of two doubles, gives them all: each partial sum carries its
    rounding errors (TwoSum, TwoProduct) in a second double, so the result is as
    accurate as if summed in twice the precision and rounded once (Graillat, Langlois
    and Louvet 2005), in double arithmetic alone.  Where p is far smaller than its
    terms (A(t) = 5 (t - 100)^2 S near t = 100), a plain Horner value is off by about
    eps times the terms, and a block's series keeps that error for all of its steps.
    Where the error terms are not finite (a term beyond 2^996), the plain sum stands."""
    c = np.asarray(poly.coeffs, np.result_type(*poly.coeffs, float))
    dtype, c = c.dtype, c.view(float)  # complex as real and imaginary parts: x is real
    hi, lo = np.zeros((2, len(c), *c.shape))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, j in ((k, j) for k in range(len(c)) for j in range(k, len(c))):
            hi[j - k, k], lo[j - k, k] = _two_prod(float(comb(j, k)), c[j])

    def taylor(x):
        s, e = hi[-1], lo[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            for ah, al in zip(hi[-2::-1], lo[-2::-1]):
                p, pe = _two_prod(s, x)
                s, se = _two_sum(p, ah)
                e = e * x + (pe + se + al)
            return (s + np.where(np.isfinite(e), e, 0.0)).view(dtype)

    return taylor


def _series(taylor, ts, h, batch):
    """The blocks of nodes, for _propagate, of y' = G(t) y for a polynomial G of degree
    d >= 1 over the nodes ts with the equal steps h, where taylor(x) gives G's Taylor
    coefficients G_j at x (see _taylor).  The fundamental solution about a block's first
    node o is the power series Phi(o + s) = sum_k Phi_k s^k, Phi_0 = I and Phi_{k+1} =
    (sum_{j <= min(d, k)} G_j Phi_{k-j}) / (k + 1) (the Taylor-series method: Corliss
    and Chang 1982, Jorba and Zou 2005).  Scaled by the block's span R = L h, the terms
    R^k Phi_k follow the same recurrence from the R^(j+1) G_j, and the block's node at
    time o + tau R takes the propagator sum_k tau^k R^k Phi_k (tau = i/L up to the
    rounding of the node times): a block's propagators are one product V Phi, V[i, k]
    = tau_i^k, and its states one stacked product on its first node's state.  So each
    node's state is at its own time, and the blocks meet without a gap.
    The series of batch blocks are built together, each summed up to the (d + 1)th
    consecutive term whose entries are all within eps (or to a term that is not
    finite, whose states are not either).  L is the largest power of two <= _BLOCK with
    sum_j ||G_j(o)||_1 (L |h|)^(j+1) <= 1 at every node o, so the terms fall at least
    as fast as 1/k!: from G_j at every _BLOCK-th node o_b, that sum is at most
    sum_j ||G_j(o_b)||_1 r (_BLOCK |h| + r)^j, r = L |h|, for o within _BLOCK steps."""
    steps, eps = len(ts) - 1, np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.concatenate([taylor(ts[i:steps:_BLOCK][:batch, None, None, None])
                                 for i in range(0, steps, batch * _BLOCK)])
        d = coeffs.shape[1] - 1
        sizes = _BLOCK >> np.arange(_BLOCK.bit_length())  # _BLOCK, ..., 2, 1
        r = sizes[:, None] * abs(h)
        norms = np.abs(coeffs).sum(-2).max(-1)[:, None]
        rho = (norms * (r * (_BLOCK * abs(h) + r) ** np.arange(d + 1))).sum(-1).max(0)
        size = next((int(s) for s, x in zip(sizes, rho) if x <= 1.0), 1)
        scale = (size * h) ** np.arange(1.0, d + 2.0)[:, None, None]
        origins = ts[:steps:size]
        # Each block's nodes (the last block padded with the last node) as fractions
        # tau of its span R from its first node o: o + tau R is the node's own time.
        offsets = np.append(ts[1:], np.full(-steps % size, ts[-1])).reshape(-1, size) - origins[:, None]
        taus = offsets / (size * h) if h else offsets
        for first in range(0, len(origins), batch):
            g = (coeffs[first:first + batch] if size == _BLOCK else
                 taylor(origins[first:first + batch, None, None, None])) * scale
            nb, n2 = len(g), g.shape[-1]
            # [G_d, ..., G_0] side by side, times the d + 1 terms before the next,
            # stacked: each term is one product.  The terms sit after d zeros.
            gs = g[:, ::-1].transpose(0, 2, 1, 3).reshape(nb, n2, -1)
            phi = np.zeros((nb, d + 16, n2, n2), g.dtype)
            phi[:, d] = np.eye(n2)
            k, small = d + 1, 0
            while small <= d:
                if k == phi.shape[1]:
                    phi = np.concatenate([phi, np.zeros_like(phi)], axis=1)
                np.divide(gs @ phi[:, k - 1 - d:k].reshape(nb, -1, n2), k - d, out=phi[:, k])
                top = np.abs(phi[:, k]).max()
                k += 1
                if not np.isfinite(top):
                    break
                small = small + 1 if top <= eps else 0
            v = taus[first:first + nb, :, None] ** np.arange(k - d)
            for b, (vb, terms) in enumerate(zip(v, phi[:, d:k]), first):
                lo = b * size + 1
                hi = min(lo + size, steps + 1)
                yield lo, hi, (vb[:hi - lo] @ terms.reshape(k - d, -1)).reshape(hi - lo, n2, n2), lo - 1


def _flow(g, h, steps):
    """The blocks of nodes, for _propagate, of the exact flow y_i = e^(i h G) y_0 of a
    constant G at the nodes i = 0, ..., steps.  One stacked expm gives E_b = e^(2^b h G)
    for b = 0 and for each 2^b <= steps whose exponent has a 1-norm below
    _EXPONENT_NORM_MAX (so E_b is finite); if E_0 is not finite, node 1 is the first
    state out of range.  Each wider E_b then takes its own expm call, and the widths
    stop at the first that is not finite.  Node 2^b + i is E_b times node i, and past
    the widest E_b, node i is that E_b times node i - 2^b.  So unless an E_b
    overflows, node i is a product of at most log2(i) + 1 exponentials, each exact to
    rounding."""
    with np.errstate(over="ignore", invalid="ignore"):
        hg = h * g
        scales = 2.0 ** np.arange(int(steps).bit_length())  # 2^b <= steps
        norm = np.abs(hg).sum(axis=0).max()
        widths = 1 + np.count_nonzero(scales[1:] * norm < _EXPONENT_NORM_MAX)
        try:
            es = numerics.expm(numerics.finite(scales[:widths, None, None] * hg, "the exponent"))
        except Overflow:  # E_0 is out of range (every other E_b is in it)
            es = np.full((1, *hg.shape), np.inf)
        else:
            for scale in scales[widths:]:  # each wider E_b, up to the first out of range
                try:
                    e = numerics.expm(numerics.finite(scale * hg, "the exponent"))
                except Overflow:
                    break
                es = np.append(es, e[None], axis=0)
    lo = 1
    while lo <= steps:
        b = min(lo.bit_length(), len(es)) - 1
        hi = min(lo + 2 ** b, steps + 1)
        yield lo, hi, es[b], slice(lo - 2 ** b, hi - 2 ** b)
        lo = hi


def _propagate(ys, blocks, on_chunk=None, chunk=_CHUNK):
    """The states ys[1:] from ys[0], a block of nodes at a time: blocks yields
    (lo, hi, m, src) with ys[lo:hi] = m ys[src] (one stacked product), src built
    before.  Once at least chunk new nodes exist, at the last node and at the first
    state that is not finite, on_chunk(j, ys[j:end]) gets the states from j, the last
    node of the chunk before, under the run's errstate; a true return ends the run
    there.  Returns ys up to the first state that is not finite (the run stops with
    its block) or to the end of a chunk that on_chunk ended."""
    j = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a state out of range ends the run
        for lo, hi, m, src in blocks:
            np.matmul(m, ys[src], out=ys[lo:hi])
            end = hi if np.isfinite(ys[lo:hi]).all() else \
                lo + int(np.argmin(np.isfinite(ys[lo:hi]).reshape(hi - lo, -1).all(axis=1)))
            if end - 1 - j >= chunk or end == len(ys) or end < hi:
                if on_chunk is not None and on_chunk(j, ys[j:end]) or end < hi:
                    return ys[:end]
                j = end - 1
    return ys


def _hamiltonian_run(sys, q0, p0, t0, t1, steps, on_chunk=None):
    """Node times t0 + i h and the states (q, p) from (q0, p0) up to the first that is
    not finite: the exact flow of a constant G (_flow), else each block's power series
    (_series), through _propagate, which calls on_chunk with the states [q; p] of each
    chunk and stops where it returns true."""
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
    ts = t0 + h * np.arange(steps + 1)

    # (q, p)' = G (q, p) with G = [[A, I], [-B, -A^T]]: one polynomial of blocks
    # [[A_k, I or 0], [-B_k, -A_k^T]], a missing coefficient zero.
    n, zero = sys.dim, np.zeros((sys.dim, sys.dim))
    coeffs = enumerate(zip_longest(sys.a.coeffs, sys.b.coeffs, fillvalue=zero))
    gen = MatrixPolynomial([_blocks(a, zero if k else np.eye(n), -b, -a.T) for k, (a, b) in coeffs])
    y0 = np.concatenate([q0, p0])
    ys = np.empty((steps + 1, *y0.shape), np.result_type(y0, *gen.coeffs))
    ys[0] = y0
    if len(gen.coeffs) == 1:
        ys = _propagate(ys, _flow(gen.coeffs[0], h, steps), on_chunk)
    else:
        blocks = _series(_taylor(gen), ts, h, max(1, _BATCH_ENTRIES // len(y0) ** 2))
        ys = _propagate(ys, blocks, on_chunk, max(_CHUNK, _CHUNK_ENTRIES // len(y0) ** 2))
    return ts, ys.reshape(len(ys), 2, *q0.shape)


def integrate_hamiltonian(sys, x0, t0, t1, steps):
    """Fixed-step trajectory of the Hamiltonian system from one phase point x0: its
    exact flow for constant coefficients, else each block's power series.

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
    """Fixed-step solution (times, W stack) of the matrix Riccati equation,
    read as W = p q^-1 off the Hamiltonian run from (q, p) = (I, W0); raises
    BlowUp at the first node where that chart is lost (see the module docstring)."""
    w0 = numerics.as_square(w0, "W0")
    n, wt, lost = len(w0), None, []

    def solve(j, qt, rhs):
        # (q_i^T)^-1 rhs_i for the nodes i = j, j + 1, ... up to the first exactly
        # singular q, whose node is lost; W_i^T, the first n columns, goes into wt,
        # each held to ||W||_F < 1/SINGULAR_RTOL.  Returns the other columns.
        try:
            x = np.linalg.solve(qt, rhs)
        except np.linalg.LinAlgError:
            k = int(np.argmax(np.linalg.slogdet(qt)[0] == 0))
            lost.append(j + k)
            x = np.linalg.solve(qt[:k], rhs[:k])
        wt[j:j + len(x)] = x[..., :n]
        lost.extend(j + np.flatnonzero(~(numerics.sq_fro(x[..., :n]) < numerics.SINGULAR_RTOL ** -2))[:1])
        return x[..., n:]

    def read(j, ys):
        # One solve against q_i^T per step i of the chunk, of [p_i^T, q_{i+1}^T] (the
        # rows [p_i; q_{i+1}] of ys, transposed): W_i^T and (q_{i+1} q_i^-1)^T, so
        # d_i = q_{i+1} q_i^-1 - I in one basis, whatever the run has reached; a step
        # with ||d_i||_F < 1 holds no pole.  The chunk's last node is the next
        # chunk's first.  The chunk records its first lost node and then ends the run.
        nonlocal wt
        if wt is None:
            wt = np.empty((steps + 1, n, n), ys.dtype)
        k = len(ys) - 1
        rhs = ys.reshape(-1, n)[n:(2 * k + 1) * n].reshape(k, 2 * n, n).swapaxes(-1, -2)
        d = solve(j, ys[:k, :n].swapaxes(-1, -2), rhs)
        d -= np.eye(n)
        poles = (j + i + 1 for i in np.flatnonzero(~(numerics.sq_fro(d) < 1.0))
                 if not np.isfinite(d[i]).all() or numerics.eigenvalues(d[i])[0].real <= -1.0)
        lost.extend(islice(poles, 1))
        return bool(lost)

    ts, ys = _hamiltonian_run(sys, np.eye(n, dtype=w0.dtype), w0, t0, t1, steps, read)
    if not lost:  # the last state's W, which no step of a chunk reads
        solve(len(ys) - 1, ys[-1:, 0].swapaxes(-1, -2), ys[-1:, 1].swapaxes(-1, -2))
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
    the same slopes give W' in the third-derivative member of each jet.  Its
    step matrix of (z^T, z'^T) is [[I, M12], [0, M22]], so a step is
    z'_{i+1} = z'_i M22^T and z_{i+1} = z_i + z'_i M12^T (see _rk4_steps).
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
    numerics.check_invertible(z1_0, Singular, "z1_0 is numerically singular")
    HamiltonianSystem(a_poly, b_poly)  # rejects a non-symmetric or mis-sized b_poly
    jets = _rk4(ts, hs, w_stack, a_poly, b_poly, z0, z1_0)
    if jets.shape[1] < len(ts):
        raise Overflow(f"the curve jet overflowed at t = {ts[jets.shape[1]]:.6g}")
    return CurveJet(ts, *jets)
