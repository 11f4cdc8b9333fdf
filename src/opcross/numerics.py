"""Dense linear-algebra kernel used by every other module.

Thin, contract-enforcing wrappers around numpy plus the JSON matrix
encoding.  All functions are pure; inputs are never mutated.  Only
``expm`` needs scipy, and it imports ``scipy.linalg`` when first called, so
importing this module loads numpy alone.
"""

import sys

import numpy as np

from .errors import NonConvergence, Overflow, Singular

# The singularity rule: a factor is numerically singular when its smallest
# singular value is at most SINGULAR_RTOL times its largest.  Chart-level
# factors (differences and Moebius denominators of big-cell coordinates)
# floor that scale at 1, so a factor that is tiny in absolute terms is
# singular too.
SINGULAR_RTOL = 1e-10


def as_matrix(a, name="matrix", stack=False):
    """Coerce to a 2-d (stack: 3-d) float/complex ndarray and reject non-finite entries."""
    m = np.asarray(a)
    if m.dtype.kind not in "fc":
        m = m.astype(float)
    if m.ndim != 2 + stack:
        raise ValueError(f"{name} must be {2 + stack}-dimensional, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_square(a, name="matrix", stack=False):
    m = as_matrix(a, name, stack)
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def fro(m):
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def require_nonsingular(s, error, message, chart=False):
    """Raise error(message) when the descending singular values s fail the
    singularity rule (see SINGULAR_RTOL); chart=True floors the scale at 1.
    A stack's rows are judged each; a callable message gets the first failing row."""
    top, low = s.T[0], s.T[-1]  # scalars, or one per matrix of a stack
    failing = (top == 0.0) | (low <= SINGULAR_RTOL * (np.maximum(top, 1.0) if chart else top))
    if failing.any() if s.ndim > 1 else failing:
        raise error(message(int(failing.argmax())) if callable(message) else message)


def check_invertible(a, what="matrix"):
    """Raise Singular when a fails the singularity rule."""
    s = singular_values(a)
    require_nonsingular(s, Singular, f"{what} is numerically singular (smallest/largest "
                                     f"singular value = {s[-1]:.3e}/{s[0]:.3e})")


def eigenvalues(m):
    """Eigenvalues with multiplicity, sorted by (real, imag)."""
    m = as_square(m)
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc
    return sort_spectrum(w)


def sort_spectrum(w):
    """Lexicographic (real, imag) sort of a complex eigenvalue multiset."""
    w = np.asarray(w, dtype=complex)
    order = np.lexsort((w.imag, w.real))
    return w[order]


def power_sums(w, kmax):
    """(sum w, ..., sum w^kmax) of an eigenvalue multiset w, as complex: the
    traces of powers of any matrix with spectrum w.  Overflow names the
    first power whose sum is not finite."""
    sums = w[None].repeat(kmax, axis=0).cumprod(axis=0).sum(axis=1)
    if not np.isfinite(sums).all():
        raise Overflow(f"tr M^{np.argmin(np.isfinite(sums)) + 1} is not finite")
    return sums


def spectra_close(w1, w2, tol):
    """Pointwise comparison of two sorted spectra."""
    w1 = sort_spectrum(w1)
    w2 = sort_spectrum(w2)
    if w1.shape != w2.shape:
        return False
    return bool(np.max(np.abs(w1 - w2), initial=0.0) <= tol)


def svd(m, **kwargs):
    """np.linalg.svd(m, **kwargs), raising NonConvergence where it fails to converge."""
    try:
        return np.linalg.svd(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc


def singular_values(m, stack=False):
    """Singular values, descending (one row per matrix of a stack)."""
    return svd(as_matrix(m, stack=stack), compute_uv=False)


def null_space(a, rcond):
    """Orthonormal basis (columns) of the null space of a: the right singular
    vectors past the rank, which counts the singular values above rcond
    times the largest (scipy.linalg.null_space's rule)."""
    _, s, vh = svd(a, full_matrices=True)
    rank = np.count_nonzero(s > rcond * s.max(initial=0.0))
    # Row-major, like scipy.linalg.null_space's result: a BLAS product with
    # a column-major basis takes another kernel and rounds differently.
    return np.ascontiguousarray(vh[rank:].conj().T)


def expm(m):
    """Matrix exponential (scaling and squaring)."""
    m = as_square(m)
    import scipy.linalg  # the one numerics call without a numpy equivalent
    return scipy.linalg.expm(m)


# --- JSON encoding -------------------------------------------------------
#
# {"rows": n, "cols": m, "data": [[row], [row], ...]}; a complex entry is
# a two-element [re, im] list.

def matrix_to_json(m):
    m = as_matrix(m)
    rows, cols = m.shape
    if np.iscomplexobj(m):
        data = [[[float(v.real), float(v.imag)] for v in row] for row in m]
    else:
        data = [[float(v) for v in row] for row in m]
    return {"rows": rows, "cols": cols, "data": data}


def number_from_json(v, name, kind=float):
    """A finite JSON number as kind (float, or int for a count); else ValueError."""
    # bool is an int subclass, but JSON true/false are not numbers; the
    # magnitude test also rejects nan and integers too large for a float.
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not abs(v) <= sys.float_info.max or (kind is int and v != int(v)):
        raise ValueError(f"{name} must be a finite {kind.__name__}, got {v!r}")
    return kind(v)


def _entry_from_json(v):
    parts = v if isinstance(v, list) and len(v) == 2 else [v]
    parts = [number_from_json(x, "matrix entry") for x in parts]
    return complex(*parts) if len(parts) == 2 else parts[0]


def matrix_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows, cols = (number_from_json(obj[k], k, int) for k in ("rows", "cols"))
        data = obj["data"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"matrix JSON missing/bad field: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise ValueError("matrix dimensions must be positive")
    if not isinstance(data, list) or len(data) != rows:
        raise ValueError(f"expected {rows} rows of data")
    entries = []
    for row in data:
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(f"expected rows of length {cols}")
        entries.append([_entry_from_json(v) for v in row])
    return np.array(entries)
