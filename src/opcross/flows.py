"""Finite-truncation Moebius (Riccati) flows and their conserved invariants.

A fixed generator matrix produces the one-parameter group exp(tM), which acts
on subspaces; cross-ratio spectra and traces of powers are conserved along
such flows, and flows of commuting generators commute.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import numerics
from .crossratio import CrossRatioResult, dv_composition
from .errors import DefectiveSpectrum, NotPolarization, Overflow
from .grassmann import Subspace, subspace_from_basis

# Sorted eigenvalues within DEFAULT_CLUSTER_TOL times the spectral radius (floored at 1)
# of a neighbour share a cluster: rounding split the 2 x 2 Jordan block of S J S^-1,
# cond S = 1.6e3, into two eigenvalues 2e-6 times that radius apart.
DEFAULT_CLUSTER_TOL = 1e-5
MAX_STATIONARY = 8


@dataclass(frozen=True)
class FlowScenario:
    """A generator, a list of initial subspaces and an ascending time grid."""

    generator: np.ndarray
    initials: list
    times: np.ndarray

    def __post_init__(self):
        gen = numerics.as_square(self.generator, "generator")
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or len(times) == 0:
            raise ValueError("times must be a non-empty 1-d grid")
        if np.any(np.diff(times) <= 0) and len(times) > 1:
            raise ValueError("times must be strictly ascending")
        initials = list(self.initials)
        for w in initials:
            if not isinstance(w, Subspace):
                raise ValueError("initials must be Subspace values")
            if w.ambient_dim != gen.shape[0]:
                raise ValueError("initial subspace ambient dim differs from generator")
        object.__setattr__(self, "generator", gen)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "initials", initials)

    def to_json(self):
        return {"generator": numerics.matrix_to_json(self.generator),
                "initials": [w.to_json() for w in self.initials],
                "times": [float(t) for t in self.times]}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("scenario JSON must be an object")
        return cls(numerics.matrix_from_json(obj["generator"]),
                   [Subspace.from_json(s) for s in obj["initials"]],
                   [numerics.number_from_json(t, "times entry") for t in obj["times"]])


@dataclass(frozen=True)
class AlmostNilpotent:
    """A matrix that is strictly upper triangular outside a leading dense block.

    All traces of powers equal those of the leading block alone, which is
    what makes the zeta-style invariants well defined at any truncation.
    """

    matrix: np.ndarray
    block_size: int

    def __post_init__(self):
        m = numerics.as_square(self.matrix, "matrix")
        k = int(self.block_size)
        if not (0 <= k <= m.shape[0]):
            raise ValueError("block size out of range")
        outside = np.tril(m != 0.0)  # nonzero on or below the diagonal ...
        outside[:k, :k] = False  # ... and not in the leading block
        if outside.any():
            i, j = np.argwhere(outside)[0]
            raise ValueError(f"entry ({i},{j}) must be zero outside the leading block")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "block_size", k)

    @property
    def block(self):
        return self.matrix[: self.block_size, : self.block_size]


def shift_generator(n, power):
    """Ones on the power-th subdiagonal: the truncation of multiplication
    by z^-power on the n-dimensional tail space."""
    if not (1 <= power < n):
        raise ValueError("need 1 <= power < n")
    return np.eye(n, k=-power)


def flow_subspace(m, t, w0):
    """The flowed subspace exp(tM) . W0."""
    m = numerics.as_square(m, "M")
    return subspace_from_basis(numerics.expm(t * m) @ w0.basis)


def spectrum_along_flow(scenario, flowed=(True, True, True, True), kmax=None):
    """Sorted cross-ratio spectrum of the four (optionally) flowed initials
    at each grid time.

    flowed masks which of the four subspaces move; holding a subspace fixed
    is only spectrum-preserving when it is stationary under the generator.
    Returns a list of (t, spectrum, trace_powers, det) tuples.
    """
    if len(scenario.initials) != 4:
        raise ValueError("scenario must provide exactly four initial subspaces")
    if len(flowed) != 4:
        raise ValueError("flowed mask must have four entries")
    rows = []
    for t in scenario.times:
        try:
            g = numerics.expm(t * scenario.generator)
        except Overflow as exc:
            raise Overflow(f"{exc} at t = {t:.6g}") from exc
        subs = [subspace_from_basis(g @ w.basis) if move else w
                for w, move in zip(scenario.initials, flowed)]
        try:
            result = dv_composition(*subs, kmax=kmax)
        except NotPolarization as exc:
            raise NotPolarization(f"polarization fails at t = {t:.6g}: {exc}") from exc
        rows.append((float(t), result.spectrum, result.trace_powers, result.det))
    return rows


def stationary_subspaces(m, k):
    """Invariant k-dimensional subspaces of M (fixed points of the flow), at most MAX_STATIONARY.

    A cluster of m eigenvalues around c spans the generalized eigenspace ker (M - cI)^m, the
    right singular vectors of its m smallest singular values (Golub & Van Loan, Matrix
    Computations, 4th ed., 7.6-7.7).  Each union of whole clusters of total dimension k
    stacks their kernels V, as [Re V | Im V] for a real M (rank k exactly when span V is
    closed under conjugation); a stack of rank k gives its first k left singular vectors.
    A nilpotent M is handled through its kernel chain.
    Raises DefectiveSpectrum when no whole-cluster union has dimension k.
    """
    m = numerics.as_square(m, "M")
    n = m.shape[0]
    if not (1 <= k < n):
        raise ValueError("need 1 <= k < n")
    eigs = numerics.eigenvalues(m)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    if np.max(np.abs(eigs)) <= 1e-10:
        # Nilpotent: the kernel chain ker M, ker M^2, ... is the only flag.
        power = np.eye(n)
        for _ in range(1, n + 1):
            power = power @ m
            ns = numerics.null_space(power, 1e-10)
            if ns.shape[1] == k:
                return [subspace_from_basis(ns)]
            if ns.shape[1] > k:
                break
        raise DefectiveSpectrum(f"no kernel-chain member of dimension {k}")
    gaps = np.abs(np.diff(eigs)) > DEFAULT_CLUSTER_TOL * scale  # eigs sorted by (real, imag)
    clusters = np.split(eigs, np.flatnonzero(gaps) + 1)
    kernels = []
    for c in clusters:
        _, _, vh = numerics.svd(np.linalg.matrix_power(m - c.mean() * np.eye(n), len(c)))
        kernels.append(vh[-len(c):].conj().T)
    results = []
    for r in range(1, len(clusters) + 1):
        for combo in itertools.combinations(range(len(clusters)), r):
            if sum(len(clusters[i]) for i in combo) != k:
                continue
            v = np.hstack([kernels[i] for i in combo])
            if not np.iscomplexobj(m):
                v = np.hstack([v.real, v.imag])
            u, s, _ = numerics.svd(v, full_matrices=False)
            if np.count_nonzero(s > DEFAULT_CLUSTER_TOL * s[0]) != k:
                continue
            w = Subspace(u[:, :k])
            # Invariant planes measure below 1e-12 ||M||_F up to cond S = 1e3 (M = S D S^-1).
            if numerics.fro(w.basis @ (w.basis.conj().T @ (m @ w.basis)) - m @ w.basis) \
                    > 1e-10 * max(1.0, numerics.fro(m)):
                continue
            if not any(np.allclose(w.projector(), r0.projector(), atol=1e-8)
                       for r0 in results):
                results.append(w)
            if len(results) >= MAX_STATIONARY:
                return results
    if not results:
        raise DefectiveSpectrum(f"no cluster union of dimension {k} is resolvable")
    return results


def commuting_flow_residual(m1, m2, w0, t, s):
    """Projector distance between flowing (M1, t) then (M2, s) and the
    reverse order; near zero exactly when the generators commute."""
    ab = flow_subspace(m2, s, flow_subspace(m1, t, w0))
    ba = flow_subspace(m1, t, flow_subspace(m2, s, w0))
    return numerics.fro(ab.projector() - ba.projector())


def trace_invariants(d, kmax=None):
    """(tr D, tr D^2, ..., tr D^kmax) plus det D; kmax defaults to the size.

    Both come from the spectrum (power sums and product), so Newton's
    identities make higher traces redundant at finite dimension; Overflow
    when a trace or the determinant is not finite.
    """
    if isinstance(d, AlmostNilpotent):
        d = d.matrix
    r = CrossRatioResult.from_matrix(numerics.as_square(d, "D"), "D", kmax)
    det = complex(r.det)
    return r.trace_powers, det if np.iscomplexobj(r.matrix) else det.real
