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

DEFAULT_CLUSTER_TOL = 1e-6


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
        n = m.shape[0]
        for i in range(n):
            for j in range(i + 1):
                if (i >= k or j >= k) and m[i, j] != 0.0:
                    raise ValueError(
                        f"entry ({i},{j}) must be zero outside the leading block")
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


def _eig_clusters(eigs, tol):
    """Group sorted eigenvalues into clusters of pairwise distance <= tol."""
    order = np.lexsort((eigs.imag, eigs.real))
    clusters = []
    for idx in order:
        if clusters and abs(eigs[idx] - eigs[clusters[-1][-1]]) <= tol:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return clusters


def stationary_subspaces(m, k, cluster_tol=DEFAULT_CLUSTER_TOL, max_results=8):
    """Invariant k-dimensional subspaces of M (fixed points of the flow).

    Eigenvalues are grouped into clusters; every union of whole clusters with
    total dimension k yields one invariant subspace via an ordered Schur
    decomposition.  A nilpotent M is handled through its kernel chain.
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
    import scipy.linalg  # for the ordered Schur form, which numpy lacks
    clusters = _eig_clusters(eigs, cluster_tol * scale)
    sizes = [len(c) for c in clusters]
    results = []
    for r in range(1, len(clusters) + 1):
        for combo in itertools.combinations(range(len(clusters)), r):
            if sum(sizes[i] for i in combo) != k:
                continue
            targets = [eigs[j] for i in combo for j in clusters[i]]

            def selector(re, im=None):
                # scipy may call with scalars or arrays; (real, imag) for output='real'.
                re = np.asarray(re, dtype=float)
                im = np.zeros_like(re) if im is None else np.asarray(im, dtype=float)
                lam = re + 1j * im
                hit = np.zeros(lam.shape, dtype=bool)
                for tgt in targets:
                    hit |= np.abs(lam - tgt) <= 10 * cluster_tol * scale
                return hit if hit.shape else bool(hit)

            try:
                _, z, sdim = scipy.linalg.schur(m, output="real", sort=selector)
            except scipy.linalg.LinAlgError as exc:
                raise DefectiveSpectrum(str(exc)) from exc
            if sdim != k:
                continue
            w = subspace_from_basis(z[:, :k])
            if numerics.fro(w.basis @ (w.basis.T @ (m @ w.basis)) - m @ w.basis) \
                    > 1e-6 * max(1.0, numerics.fro(m)):
                continue
            if not any(np.allclose(w.projector(), r0.projector(), atol=1e-8)
                       for r0 in results):
                results.append(w)
            if len(results) >= max_results:
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
