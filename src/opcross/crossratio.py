"""The operator cross-ratio of four subspaces, in its three presentations,
together with its permutation identities, the cocycle identity, the operator
angle and the pair-equivalence classifier.

The composition-of-projections form (dv_composition) is canonical: the other
formulas are chart expressions validated against it.  The matrix of the
composite is expressed in the stored orthonormal basis of the first subspace;
only spectra and traces of powers are meaningful across bases.  The stored
basis is the Q of a Householder QR of the given columns (subspace_from_basis),
so an orthonormal input basis, as read from JSON, is kept up to column signs
and the dv and cocycle report matrices are in the input's own basis.

dv_composition and cocycle_product never form a projected vector: each oblique
projection maps coordinates in one stored basis to coordinates in the next,
read off the k x k cosine matrices Pi^H Pj.  With C_ij = Pi^H Pj and
S_ij = I - C_ij C_ij^H, the composite is
D = S_12^-1 (C_13 - C_12 C_23) S_34^-1 (C_31 - C_34 C_41), the cosine-matrix
twin of the chart formula.  A pair that fails the Schur gate
(grassmann.SCHUR_COND_MAX) is projected through its n x n stacked basis instead.

The chart formulas, operator_angle and pair_equivalent factor their two
independent matrices by one stacked call, which equals the per-matrix calls bit
for bit and raises the error of the first failing factor in formula order.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .errors import DegeneratePosition, NotPolarization, Singular
from .grassmann import _angles, _chain, degenerate_sigma_min, principal_angles
# perfbench/check_harness.py calls project_parallel through this module to check that
# the tracer wraps every binding of a traced function, so the re-export stays.
from .grassmann import project_parallel  # noqa: F401

# The six coset labels of the permutation action (see dv_permuted).
PERMUTATION_LABELS = ("12,34", "34,12", "12,43", "14,32", "13,24", "14,23")

# pair_equivalent's tolerance: the largest principal-angle difference of equivalent pairs.
EQUIV_TOL = 1e-6


@dataclass(frozen=True)
class CrossRatioResult:
    """A cross-ratio operator with its conjugation invariants.

    matrix       -- the operator in the basis named by basis_space
    basis_space  -- which space carries the matrix ("P1", "chart", ...)
    spectrum     -- eigenvalue multiset, sorted by (real, imag)
    trace_powers -- tr(D^k) for k = 1..n, D being n x n: the power sums of
                    the spectrum (real for a real matrix); det is its product
    """

    matrix: np.ndarray
    basis_space: str
    spectrum: np.ndarray
    trace_powers: np.ndarray

    @classmethod
    def from_matrix(cls, m, basis_space):
        """Overflow when the computed operator m or a trace of its powers is not finite."""
        spectrum = numerics._spectrum(numerics.finite(m, "the operator"))
        traces = numerics.power_sums(spectrum)
        return cls(m, basis_space, spectrum, traces if np.iscomplexobj(m) else traces.real)

    @property
    def det(self):
        """Determinant of the operator (the tau-function analog); Overflow if not finite,
        which from_matrix rules out: |det| <= max |lambda|^n, and tr D^n is finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            d = numerics.finite(complex(np.prod(self.spectrum)), "the determinant")
        if abs(d.imag) < 1e-12 * max(1.0, abs(d.real)):
            return d.real
        return d


def _chart_inv(m, *names):
    """inv(m) of a chart-level factor, or of a stack of them by one certified call:
    Singular names the first failing factor, in order."""
    return numerics.inverse(m, Singular, lambda i: f"{names[i]} is not invertible", chart=True)


def dv_composition(p1, p2, p3, p4):
    """Cross-ratio DV(P1,P2;P3,P4) as the composite of two oblique projections.

    Requires P1 + P2 = P3 + P4 = ambient (direct sums) and
    dim P1 = dim P3; use dv_unequal for mismatched dimensions.
    """
    if p1.dim != p3.dim:
        raise ValueError("dim P1 != dim P3; use dv_unequal for the reduction")
    return CrossRatioResult.from_matrix(_chain(p1.basis, ((p3, p4), (p1, p2))), "P1")


def dv_matrix(t1, t2, t3, t4):
    """Chart formula (T1-T2)^-1 (T2-T3)(T3-T4)^-1 (T4-T1).

    The Ti are big-cell coordinates of the four subspaces (square for
    half-dimensional configurations); the result is similar to the
    composition form on the graphed subspaces.
    """
    mats = [numerics.as_matrix(t, f"T{i+1}") for i, t in enumerate((t1, t2, t3, t4))]
    if len({m.shape for m in mats}) != 1:
        raise ValueError("chart coordinates must share one shape")
    if mats[0].shape[0] != mats[0].shape[1]:
        raise ValueError("chart formula needs square (half-dimensional) coordinates")
    t1, t2, t3, t4 = mats
    with np.errstate(over="ignore", invalid="ignore"):  # a factor that overflows is an Overflow
        inv12, inv34 = _chart_inv(np.array([t1 - t2, t3 - t4]), "(T1 - T2)", "(T3 - T4)")
        d = inv12 @ (t2 - t3) @ inv34 @ (t4 - t1)
    return CrossRatioResult.from_matrix(d, "chart")


def dv_mixed(p1, p2, p3, p4):
    """Mixed-chart formula (P2 P1 - I)^-1 (P2 P3 - I)(P4 P3 - I)^-1 (P4 P1 - I).

    P1, P3 are coordinates in the (horizontal -> vertical) chart; P2, P4 in
    the swapped (vertical -> horizontal) chart, so no difference of charts is
    ever inverted and the dimensions need not be equal halves.
    """
    p1 = numerics.as_matrix(p1, "P1")
    p2 = numerics.as_matrix(p2, "P2")
    p3 = numerics.as_matrix(p3, "P3")
    p4 = numerics.as_matrix(p4, "P4")
    if p1.shape != p3.shape or p2.shape != p4.shape or p2.shape != p1.shape[::-1]:
        raise ValueError("mixed-chart coordinate shapes are inconsistent")
    eye = np.eye(p1.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # a factor that overflows is an Overflow
        inv21, inv43 = _chart_inv(np.array([p2 @ p1 - eye, p4 @ p3 - eye]),
                                  "(P2 P1 - I)", "(P4 P3 - I)")
        d = inv21 @ (p2 @ p3 - eye) @ inv43 @ (p4 @ p1 - eye)
    return CrossRatioResult.from_matrix(d, "chart")


def dv_permuted(d, perm):
    """Value of the cross-ratio after permuting the four arguments.

    perm is one of the coset labels "12,34", "34,12", "12,43", "14,32",
    "13,24", "14,23"; with D = DV(P1,P2;P3,P4) the returned operator is the
    one dv_composition produces on the permuted argument order:

        12,34 -> D            34,12 -> D           12,43 -> I - D
        14,32 -> D^-1         13,24 -> (I - D^-1)^-1
        14,23 -> I - D^-1
    """
    m = numerics.as_square(d.matrix if isinstance(d, CrossRatioResult) else d)
    eye = np.eye(m.shape[0], dtype=m.dtype)
    if perm in ("12,34", "34,12"):
        out = m
    elif perm == "12,43":
        out = eye - m
    elif perm == "14,32":
        out = _chart_inv(m, "D")
    elif perm == "13,24":
        out = _chart_inv(eye - _chart_inv(m, "D"), "(I - D^-1)")
    elif perm == "14,23":
        out = eye - _chart_inv(m, "D")
    else:
        raise ValueError(f"unknown permutation label {perm!r}; "
                         f"expected one of {PERMUTATION_LABELS}")
    return CrossRatioResult.from_matrix(out, "P1")


def dv_unequal(p1, p2, p3, p4):
    """Cross-ratio for arguments of unequal dimensions: the dv_composition
    operator with the smaller pair first.

    When dim P1 > dim P2 the arguments become (P2, P1; P4, P3), whose
    operator has the same spectrum.  The two smaller subspaces must be in
    direct sum (else DegeneratePosition); both projections of the composite
    then map their span S into itself, so the operator is the paper's
    reduction to S.  Its matrix is in the stored basis of the smaller first
    argument, which basis_space names: "P1", or "P2" when P1 is the larger.
    Coincides with dv_composition when all dimensions already agree.
    """
    if p1.dim != p3.dim or p2.dim != p4.dim:
        raise ValueError("need dim P1 = dim P3 and dim P2 = dim P4")
    if p1.dim + p2.dim != p1.ambient_dim:
        raise NotPolarization("dim P1 + dim P2 != ambient dimension")
    if p1.dim > p2.dim:
        return replace(dv_unequal(p2, p1, p4, p3), basis_space="P2")
    if p1.dim < p2.dim and degenerate_sigma_min(p1, p3) is not None:
        raise DegeneratePosition("the two small subspaces are not in direct sum")
    return dv_composition(p1, p2, p3, p4)


def cocycle_product(p1, p2, q1, q2, q3):
    """The product of the three transition cross-ratios, as a matrix on P1.

    Computed by chasing the basis of P1 through the six-arrow chain of
    oblique projections, which visits every (Pi, Qj) once and raises
    NotPolarization when one is not a polarization; equals the identity
    otherwise.  Returned for residual inspection.
    """
    return _chain(p1.basis, ((p2, q2), (p1, q1), (p2, q1), (p1, q3), (p2, q3), (p1, q2)))


def operator_angle(a, b):
    """Operator angle (I+A*A)^-1 (I+A*B)(I+B*B)^-1 (I+B*A) of two charts.

    Eigenvalues are the squared cosines of the principal angles between the
    graphed subspaces; (I+A*A) and (I+B*B) are positive definite, so no
    invertibility precondition is needed.  Overflow when either is not finite
    (chart entries beyond about 1e154), where the form would return zeros.
    """
    a = numerics.as_matrix(a, "A")
    b = numerics.as_matrix(b, "B")
    if a.shape != b.shape:
        raise ValueError("A and B must have the same shape")
    x = np.array([a, b])
    xh = x.conj().swapaxes(1, 2)
    eye = np.eye(a.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # out of range: Overflow, or from_matrix's
        grams = numerics.finite(eye + xh @ x, "the factor I + A*A or I + B*B")
        # (I + A*A)^-1 (I + A*B) and (I + B*B)^-1 (I + B*A)
        sa, sb = np.linalg.solve(grams, eye + xh @ x[::-1])
        m = sa @ sb
    return CrossRatioResult.from_matrix(m, "chart")


def comparable(v, w):
    """True iff W = alpha V beta for some unitary alpha, beta.

    At finite dimension this is exactly equality of the singular-value
    vectors, compared pointwise within 1e-8.
    """
    v = numerics.as_matrix(v, "V")
    w = numerics.as_matrix(w, "W")
    if v.shape != w.shape:
        return False
    sv = numerics.singular_values(v)
    sw = numerics.singular_values(w)
    return bool(np.max(np.abs(sv - sw), initial=0.0) <= 1e-8)


def comparability_witness(v, w):
    """Unitary alpha, beta with alpha V beta = W, from two full SVDs.

    V = U1 S V1*, W = U2 S V2* gives alpha = U2 U1*, beta = V1 V2*; the
    identity alpha V beta = W is exact whenever the singular values agree.
    """
    v = numerics.as_matrix(v, "V")
    w = numerics.as_matrix(w, "W")
    if v.shape != w.shape:
        raise ValueError("V and W must have the same shape")
    u1, _, v1h = numerics.svd(v)
    u2, _, v2h = numerics.svd(w)
    alpha = u2 @ u1.conj().T
    beta = v1h.conj().T @ v2h
    return alpha, beta


def pair_equivalent(p, q, s, t, tol=EQUIV_TOL):
    """Whether pairs (P,Q) and (S,T) are related by one orthogonal map.

    The decision compares the principal-angle multisets (the chart-free
    form of the operator-angle criterion).  Pairs with mismatched
    dimensions are never equivalent.
    """
    if p.dim != s.dim or q.dim != t.dim:
        return False
    if p.ambient_dim != q.ambient_dim or s.ambient_dim != t.ambient_dim \
            or p.ambient_dim != s.ambient_dim:
        return False
    return compare_pairs(p, q, s, t, tol)[0]


def compare_pairs(p, q, s, t, tol=EQUIV_TOL):
    """(pair_equivalent's verdict, principal_angles(P, Q), principal_angles(S, T)).

    Pairs of one shape, the only ones that can be equivalent, take both SVDs from
    one call (their k x m cosine matrices stacked, not their n x k bases).
    """
    if (p.basis.shape, q.basis.shape) != (s.basis.shape, t.basis.shape):
        return False, principal_angles(p, q), principal_angles(s, t)
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("ambient dimensions differ")
    ang1, ang2 = _angles(np.array([p.basis.conj().T @ q.basis, s.basis.conj().T @ t.basis]))
    return bool(np.max(np.abs(ang1 - ang2), initial=0.0) <= tol), ang1, ang2
