"""Finite-truncation Moebius (Riccati) flows and their conserved invariants.

A fixed generator matrix produces the one-parameter group exp(tM), which acts
on subspaces; cross-ratio spectra and traces of powers are conserved along
such flows, and flows of commuting generators commute.
"""

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import numerics
from .crossratio import CrossRatioResult, dv_composition
from .errors import NotPolarization, Overflow
from .grassmann import Subspace, _orthonormal, subspace_from_basis


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
        if not np.isfinite(times).all():
            raise ValueError("times must be finite")
        if np.any(np.diff(times) <= 0):
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

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("scenario JSON must be an object")
        initials, times = (numerics.list_from_json(obj[k], k) for k in ("initials", "times"))
        return cls(numerics.matrix_from_json(obj["generator"]),
                   [Subspace.from_json(s) for s in initials],
                   [numerics.number_from_json(t, "times entry") for t in times])


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


def shift_generator(n, power):
    """Ones on the power-th subdiagonal: the truncation of multiplication
    by z^-power on the n-dimensional tail space."""
    if not (1 <= power < n):
        raise ValueError("need 1 <= power < n")
    return np.eye(n, k=-power)


def flow_subspace(m, t, w0):
    """The flowed subspace exp(tM) . W0; Overflow when tM, exp(tM) or the flowed
    basis is not finite."""
    m = numerics.as_square(m, "M")
    with np.errstate(over="ignore", invalid="ignore"):
        g = numerics.expm(numerics.finite(t * m, "the exponent tM"))
        return subspace_from_basis(numerics.finite(g @ w0.basis, "the flowed basis"))


def spectrum_along_flow(scenario, flowed=(True, True, True, True)):
    """Sorted cross-ratio spectrum of the four (optionally) flowed initials
    at each grid time.

    flowed masks which of the four subspaces move; holding a subspace fixed
    is only spectrum-preserving when it is stationary under the generator.
    Returns a list of (t, spectrum, trace_powers, det) tuples.

    Consecutive moving subspaces of one shape (all four, for half-dimensional
    ones) flow by one stacked product, QR and check of R per time,
    bit for bit the per-subspace results; the first failing time, and in it the
    first failing subspace, raises.
    """
    if len(scenario.initials) != 4:
        raise ValueError("scenario must provide exactly four initial subspaces")
    if len(flowed) != 4:
        raise ValueError("flowed mask must have four entries")
    moving = (i for i, move in enumerate(flowed) if move)
    runs = [list(run) for _, run in groupby(moving, lambda i: scenario.initials[i].basis.shape)]
    stacks = [np.array([scenario.initials[i].basis for i in run]) for run in runs]
    rows = []
    for t in scenario.times:
        subs = list(scenario.initials)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                g = numerics.expm(numerics.finite(t * scenario.generator, "the exponent tM"))
                for run, stack in zip(runs, stacks):
                    cols = g @ stack
                    in_range = np.append(np.isfinite(cols).all(axis=(1, 2)), False)
                    # The planes before the first non-finite one are judged before it.
                    qs = _orthonormal(cols[:in_range.argmin()])
                    numerics.finite(cols, "the flowed basis")
                    for i, q in zip(run, qs):
                        subs[i] = Subspace(q)
        except Overflow as exc:
            raise Overflow(f"{exc} at t = {t:.6g}") from exc
        try:
            result = dv_composition(*subs)
        except NotPolarization as exc:
            raise NotPolarization(f"polarization fails at t = {t:.6g}: {exc}") from exc
        rows.append((float(t), result.spectrum, result.trace_powers, result.det))
    return rows


def commuting_flow_residual(m1, m2, w0, t, s):
    """Projector distance between flowing (M1, t) then (M2, s) and the
    reverse order; near zero exactly when the generators commute."""
    ab = flow_subspace(m2, s, flow_subspace(m1, t, w0))
    ba = flow_subspace(m1, t, flow_subspace(m2, s, w0))
    return numerics.fro(ab.projector() - ba.projector())


def trace_invariants(d):
    """(tr D, tr D^2, ..., tr D^n) plus det D, for D of size n.

    Both come from the spectrum (power sums and product); Newton's identities
    fix every higher trace from these.  Overflow when a trace is not finite,
    which also bounds the determinant.
    """
    if isinstance(d, AlmostNilpotent):
        d = d.matrix
    r = CrossRatioResult.from_matrix(numerics.as_square(d, "D"), "D")
    det = complex(r.det)
    return r.trace_powers, det if np.iscomplexobj(r.matrix) else det.real
