"""Subspaces, polarizations, oblique projections, graph coordinates and the
block Moebius action on them.

A subspace is always stored as an orthonormal basis; oblique (non-orthogonal)
structure lives in the operations, not the type.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import NotPolarization, OutsideChart, RankDeficient

# A stacked basis whose smallest singular value falls below this has an
# "infinitesimally small" angle between its two halves and is rejected.
COMPLEMENT_TOL = 1e-8

# For orthonormal A and B, sigma_min([A | B])^2 = 1 - ||A^H B||_2 (Bjorck &
# Golub, Math. Comp. 27, 1973): the Gram matrix of [A | B] is I plus the
# matrix with off-diagonal blocks A^H B and B^H A, whose eigenvalues are plus
# and minus the cosines of the principal angles.  A Subspace admits bases with
# ||B^H B - I||_F <= 1e-10, so by Weyl's inequality 1 - ||A^H B||_2 is within
# about 1.5e-10 of sigma_min^2.  The screen accepts a pair when Cholesky
# factors G = (1 - SCREEN_MARGIN)^2 I - C^H C, C = A^H B (C C^H if C is wide):
# then ||C||_2 < 1 - SCREEN_MARGIN up to about m^2 eps for G of order m (4e-12
# at m = 128; Higham, Accuracy and Stability of Numerical Algorithms, 2002,
# ch. 10), so sigma_min^2 > 1e-6 - 1.5e-10 - 4e-12, ten orders of magnitude
# above the rejection's COMPLEMENT_TOL^2 = 1e-16.  Every other pair is
# decided by the stacked SVD.
SCREEN_MARGIN = 1e-6

# A complementary pair (k + m = n) with C = A^H B is projected through a
# Schur complement: x = A y + B z gives A^H x = y + C z and B^H x = C^H y + z,
# so (I - C C^H) y = A^H x - C B^H x, or, for a tall C (k > m), the smaller
# (I - C^H C) z = B^H x - C^H A^H x and y = A^H x - C z.  One Cholesky of
# (1 - 1/SCHUR_COND_MAX) I minus the Gram of C's smaller side certifies that
# the complement's condition number is at most SCHUR_COND_MAX.  The complement
# is formed with an absolute error of about eps, so each such projection
# carries a relative error of about SCHUR_COND_MAX * eps (2e-14); closer pairs,
# whose error would grow like eps / (1 - ||C||_2^2), take check_complementary
# and the n x n stacked solve.
SCHUR_COND_MAX = 1e2


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of an n-dimensional inner-product space.

    ``basis`` is an n x k matrix with orthonormal columns.  Use
    :func:`subspace_from_basis` to build one from arbitrary spanning columns.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = numerics.as_matrix(self.basis, "basis")
        n, k = b.shape
        if not (1 <= k <= n):
            raise ValueError(f"need 1 <= dim <= ambient_dim, got basis shape {b.shape}")
        gram = b.conj().T @ b
        if numerics.fro(gram - np.eye(k)) > 1e-10:
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    def projector(self):
        """The orthogonal projector onto the subspace."""
        return self.basis @ self.basis.conj().T

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "basis" not in obj:
            raise ValueError("subspace JSON must be an object with a 'basis' field")
        basis = numerics.matrix_from_json(obj["basis"])
        for field, size in (("ambient", basis.shape[0]), ("dim", basis.shape[1])):
            if field in obj and numerics.number_from_json(obj[field], field, int) != size:
                raise ValueError(f"subspace {field!r} disagrees with basis shape")
        return subspace_from_basis(basis)


def subspace_from_basis(cols):
    """Orthonormalize full-column-rank columns into a Subspace: the Q of their
    Householder QR, so orthonormal columns are kept up to their signs.

    Raises RankDeficient when the columns do not have full rank (see _orthonormal).
    """
    return Subspace(_orthonormal(numerics.as_matrix(cols, "cols")))


def _orthonormal(cols):
    """The Q factors of finite full-column-rank columns, or of a stack of such blocks by
    one stacked QR and one certified stacked inverse of R.  The QR is of the columns times
    numerics.binary_scale, which leaves Q and the scale-free rank rule as they are and
    keeps LAPACK's column norms in range for columns near the float limit.  R has their
    singular values, so numerics.inverse(R) gives the singularity rule's verdict: the first
    block without full rank raises RankDeficient."""
    message = f"columns have numerical rank < {cols.shape[-1]}"
    if cols.shape[-1] > cols.shape[-2]:
        raise RankDeficient(message)
    q, r = np.linalg.qr(cols * numerics.binary_scale(cols))
    numerics.inverse(r, RankDeficient, message)
    return numerics.finite(q, "the orthonormal basis")


def random_subspace(n, k, seed):
    """Deterministic random k-dim subspace of R^n from a seeded Gaussian."""
    if not (1 <= k < n):
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    return subspace_from_basis(rng.standard_normal((n, k)))


def degenerate_sigma_min(a, b):
    """sigma_min of the stacked basis [a | b] when it is at most COMPLEMENT_TOL
    (a and b are not in direct sum with a definite angle), else None.  A
    Cholesky test on the cosine matrix a^H b settles every pair that is not
    near degenerate; the others take the SVD of the stacked basis (see
    SCREEN_MARGIN)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    c = a.basis.conj().T @ b.basis
    gram = c @ c.conj().T if c.shape[0] <= c.shape[1] else c.conj().T @ c
    try:
        np.linalg.cholesky((1.0 - SCREEN_MARGIN) ** 2 * np.eye(len(gram)) - gram)
        return None
    except np.linalg.LinAlgError:  # ||a^H b||_2 is near 1 - SCREEN_MARGIN or above it
        s_min = numerics.singular_values(np.hstack([a.basis, b.basis]))[-1]
    return s_min if s_min <= COMPLEMENT_TOL else None


def check_complementary(onto, along):
    """Verify onto + along = ambient as a direct sum with a definite angle;
    raises NotPolarization, returns the stacked basis [onto | along]."""
    if onto.dim + along.dim != onto.ambient_dim:
        raise NotPolarization(f"dims {onto.dim}+{along.dim} != ambient {onto.ambient_dim}")
    s_min = degenerate_sigma_min(onto, along)
    if s_min is not None:
        raise NotPolarization(f"stacked basis nearly singular (sigma_min = {s_min:.3e})")
    return np.hstack([onto.basis, along.basis])


@dataclass(frozen=True)
class Polarization:
    """An ordered direct-sum decomposition ambient = horizontal + vertical."""

    horizontal: Subspace
    vertical: Subspace

    def __post_init__(self):
        check_complementary(self.horizontal, self.vertical)

    @property
    def ambient_dim(self):
        return self.horizontal.ambient_dim

    def frame(self):
        """The (invertible) n x n matrix [horizontal basis | vertical basis]."""
        return np.hstack([self.horizontal.basis, self.vertical.basis])


def standard_polarization(n, k):
    """First-k-coordinates vs the rest."""
    eye = np.eye(n)
    return Polarization(Subspace(eye[:, :k]), Subspace(eye[:, k:]))


def _schur_coords(c, ax, bx):
    """Coordinates y, in A, of the projection of x = A y + B z onto A parallel
    to B, from c = A^H B, ax = A^H x and bx = B^H x (or from stacks of them,
    one pair per matrix), or None unless every pair passes the SCHUR_COND_MAX
    gate."""
    ch = c.conj().swapaxes(-1, -2)
    wide = c.shape[-2] <= c.shape[-1]
    gram = c @ ch if wide else ch @ c
    eye = np.eye(gram.shape[-1])
    try:
        np.linalg.cholesky((1.0 - 1.0 / SCHUR_COND_MAX) * eye - gram)
    except np.linalg.LinAlgError:  # ||C||_2^2 is near 1 - 1/SCHUR_COND_MAX or above it
        return None
    if wide:
        return np.linalg.solve(eye - gram, ax - c @ bx)
    return ax - c @ np.linalg.solve(eye - gram, bx - ch @ ax)


def _chain(x, arrows):
    """Coordinates, in the basis of the last arrow's target, of the oblique
    projections onto a parallel to b, (a, b) in arrows, applied in order to the
    columns x.  Each step maps its source (x, then the previous target's basis)
    to coordinates in its target, read off cosine matrices u^H v, each formed
    once.  Up to 32 x 32 cosine matrices, where numpy's per-call cost outweighs
    the flops, one stacked Schur solve serves the chain when every pair passes
    the gate (the callers' dimension rules give the steps one shape); larger
    stacks would hold every pair's matrices at once.  Otherwise the pairs go one
    by one: a pair of complementary dimensions in x's ambient space takes the
    Schur gate, and one that fails it goes through check_complementary
    (NotPolarization unless a + b is a direct sum) and the n x n stacked solve,
    so the first pair that is no polarization raises.
    """
    grams = {}

    def cos(u, v):  # u^H v, or the conjugate transpose of v^H u once that is formed
        key = (id(u), id(v))
        if key not in grams:
            back = grams.get(key[::-1])
            grams[key] = u.conj().T @ v if back is None else back.conj().T
        return grams[key]

    def cosines(a, b, s):
        return cos(a.basis, b.basis), cos(a.basis, s), cos(b.basis, s)

    n = len(x)
    sources = [x] + [a.basis for a, _ in arrows[:-1]]
    fits = [a.dim + b.dim == n == a.ambient_dim == b.ambient_dim for a, b in arrows]
    steps = None
    if arrows[0][0].dim * arrows[0][1].dim <= 32 * 32 and all(fits):
        stacks = zip(*(cosines(a, b, s) for (a, b), s in zip(arrows, sources)))
        steps = _schur_coords(*map(np.array, stacks))
    if steps is None:
        steps = []
        for (a, b), s, fit in zip(arrows, sources, fits):
            y = _schur_coords(*cosines(a, b, s)) if fit else None
            steps.append(np.linalg.solve(check_complementary(a, b), s)[: a.dim] if y is None else y)
    m = steps[0]
    for step in steps[1:]:
        m = step @ m
    return m


def project_parallel(x, onto, along):
    """Project x onto `onto` parallel to `along` (oblique projection): the
    one-arrow chain.

    x may be a vector or a matrix of column vectors; the unique y in `onto`
    with x - y in `along` is returned.  Raises NotPolarization unless
    onto + along is a direct sum.
    """
    x = np.asarray(x)
    cols = x[:, None] if x.ndim == 1 else x
    return (onto.basis @ _chain(cols, ((onto, along),))).reshape(x.shape)


def graph_coordinate(w, pol):
    """Chart coordinate T of w in the big cell of pol: w = {(f, T f)}.

    T maps horizontal coordinates to vertical coordinates and has shape
    vertical.dim x horizontal.dim.  Raises OutsideChart when w does not
    project isomorphically onto the horizontal subspace.
    """
    if w.ambient_dim != pol.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if w.dim != pol.horizontal.dim:
        raise OutsideChart(f"dim {w.dim} != horizontal dim {pol.horizontal.dim}")
    coords = np.linalg.solve(pol.frame(), w.basis)
    h = pol.horizontal.dim
    x, y = coords[:h], coords[h:]
    return y @ numerics.inverse(x, OutsideChart, "projection onto the horizontal subspace "
                                "is singular", chart=True)


def subspace_from_graph(t, pol):
    """Inverse of graph_coordinate: the span of {h + vertical(T h)}."""
    t = numerics.as_matrix(t, "T")
    h, v = pol.horizontal.dim, pol.vertical.dim
    if t.shape != (v, h):
        raise ValueError(f"T must be {v}x{h}, got {t.shape}")
    return subspace_from_basis(pol.horizontal.basis + pol.vertical.basis @ t)


@dataclass(frozen=True)
class BlockMobius:
    """Blocks (a, b; c, d) of an invertible matrix relative to the polarization pol:
    they act in its frame (horizontal basis | vertical basis), so those of the
    standard polarization act directly in ambient coordinates."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    pol: Polarization

    def __post_init__(self):
        a = numerics.as_matrix(self.a, "a")
        b = numerics.as_matrix(self.b, "b")
        c = numerics.as_matrix(self.c, "c")
        d = numerics.as_matrix(self.d, "d")
        h, v = self.pol.horizontal.dim, self.pol.vertical.dim
        if a.shape != (h, h) or d.shape != (v, v):
            raise ValueError(f"blocks a {a.shape[0]}x{a.shape[1]} and d {d.shape[0]}x{d.shape[1]} "
                             f"must be {h}x{h} and {v}x{v}, the polarization's split")
        if a.shape[0] != b.shape[0] or c.shape[0] != d.shape[0] \
                or a.shape[1] != c.shape[1] or b.shape[1] != d.shape[1]:
            raise ValueError("block shapes are inconsistent")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        numerics.inverse(self.assembled(), ValueError, "assembled block matrix is singular")

    def assembled(self):
        """The full matrix in the polarization's coordinate frame."""
        return np.block([[self.a, self.b], [self.c, self.d]])

    def ambient_matrix(self):
        """The action realized on ambient vectors."""
        f = self.pol.frame()
        return f @ self.assembled() @ np.linalg.inv(f)


def mobius_apply_coordinate(g, t):
    """Chart-level Moebius action T -> (c + d T)(a + b T)^-1."""
    t = numerics.as_matrix(t, "T")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing factor or image: Overflow
        return numerics.finite((g.c + g.d @ t) @ numerics.inverse(
            g.a + g.b @ t, OutsideChart, "(a + bT) is singular: image leaves the big cell",
            chart=True), "the Moebius image")


def mobius_apply_subspace(g, w):
    """Image of the subspace under the assembled invertible matrix."""
    return subspace_from_basis(g.ambient_matrix() @ w.basis)


def principal_angles(w1, w2):
    """Ascending principal angles in [0, pi/2] between two subspaces."""
    if w1.ambient_dim != w2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return _angles(w1.basis.conj().T @ w2.basis)


def _angles(cosines):
    """Ascending principal angles from the cosine matrix W1^H W2 of two orthonormal bases,
    or from each of a stack of them (arccos reverses the SVD's order)."""
    return np.arccos(np.clip(numerics.singular_values(cosines), 0.0, 1.0))
