"""Dense linear-algebra kernel used by every other module.

Thin, contract-enforcing wrappers around numpy plus the JSON matrix
encoding.  All functions are pure; inputs are never mutated.  Every
invertibility verdict is ``inverse``'s, which returns the inverse it
certified.  Everything here needs numpy alone, the matrix exponential
included: ``expm`` is the scaling-and-squaring Pade algorithm of N. J.
Higham, "The scaling and squaring method for the matrix exponential
revisited", SIAM J. Matrix Anal. Appl. 26 (2005) 1179-1193, which takes
matrix products and one solve.
"""

import math
import sys

import numpy as np

from .errors import NonConvergence, Overflow

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


def sq_fro(x):
    """Squared Frobenius norms of a matrix or a stack of them (inf where they overflow)."""
    return np.einsum("...ij,...ij->...", x.conj(), x).real


def require_nonsingular(s, error, message, chart=False):
    """Raise error(message) when the descending singular values s fail the
    singularity rule (see SINGULAR_RTOL); chart=True floors the scale at 1.
    A stack's rows are judged each; a callable message gets the first failing row."""
    top, low = s.T[0], s.T[-1]  # scalars, or one per matrix of a stack
    failing = (top == 0.0) | (low <= SINGULAR_RTOL * (np.maximum(top, 1.0) if chart else top))
    if failing.any() if s.ndim > 1 else failing:
        raise error(message(int(failing.argmax())) if callable(message) else message)


def inverse(a, error, message, chart=False):
    """inv(a) of a matrix or a stack once a (each matrix) passes the singularity rule,
    else require_nonsingular's error(message).  X = inv(a), in a's precision, decides
    first: ||I - X a||_F <= 1/2 gives ||a^-1||_2 <= 2 ||X||_2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002), so 2 ||X||_F ||a||_F <= eps^-1/2, with ||a||_F
    floored at 1 where chart=True, bounds sigma_min below by eps^1/2 times the rule's
    scale.  Only an uncertified X, or an exact zero pivot, leaves it to the SVD.
    A non-finite a (a factor formed from finite inputs that overflowed) is an Overflow."""
    with np.errstate(all="ignore"):
        try:
            x = np.linalg.inv(a)
        except np.linalg.LinAlgError:  # an exact zero pivot
            x = None
        else:
            r = x @ a
            r -= np.eye(a.shape[-1], dtype=r.dtype)  # X a - I, in place
            sq_a = np.maximum(sq_fro(a), 1.0) if chart else sq_fro(a)
            scale = 4.0 * sq_fro(x) * sq_a * np.finfo(a.dtype).eps  # (2 ||X|| ||a||)^2 eps
            if ((sq_fro(r) <= 0.25) & (0.0 < scale) & (scale <= 1.0)).all():
                return x
    if not np.isfinite(a).all():  # never certified: its residual or scale is not finite
        raise Overflow("a factor to invert is not finite")
    require_nonsingular(singular_values(a, a.ndim == 3), error, message, chart)
    return np.linalg.inv(a) if x is None else x  # inv raises again if the SVD accepts


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
    with np.errstate(over="ignore", invalid="ignore"):
        sums = w[None].repeat(kmax, axis=0).cumprod(axis=0).sum(axis=1)
    if not np.isfinite(sums).all():
        raise Overflow(f"tr M^{np.argmin(np.isfinite(sums)) + 1} is not finite")
    return sums


def svd(m, **kwargs):
    """np.linalg.svd(m, **kwargs), raising NonConvergence where it fails to converge."""
    try:
        return np.linalg.svd(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc


def singular_values(m, stack=False):
    """Singular values, descending (one row per matrix of a stack)."""
    return svd(as_matrix(m, stack=stack), compute_uv=False)


# Higham (2005), Table 2.3: theta_m is the largest 1-norm of A at which the
# degree-m diagonal Pade approximant r_m(A) of exp(A) has backward error at
# most the unit roundoff of IEEE double.
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 5.371920351148152e0}
# Numerator coefficients b_0..b_m of r_m = p_m(A) / p_m(-A), scaled to b_m = 1.
_PADE_COEFFS = {m: [math.factorial(2 * m - j) / (math.factorial(j) * math.factorial(m - j))
                    for j in range(m + 1)] for m in _PADE_THETA}


def expm(m):
    """Matrix exponential by scaling and squaring (Higham 2005, Algorithm 2.3).

    The 1-norm of A picks the lowest degree m in {3, 5, 7, 9, 13} with
    ||A||_1 <= theta_m; above theta_13, A is scaled by 2^-s into range.
    With U (odd terms) and V (even terms) of p_m(A), r_m(A) solves
    (V - U) R = V + U, and R is squared s times.  A real matrix gives a
    real result.  Overflow when the result (or ||A||_1) is not finite.
    """
    a = as_square(m)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(a).sum(axis=0).max(initial=0.0)
        if not np.isfinite(norm):
            raise Overflow("the exponent's 1-norm is not finite")
        degree = next((d for d, theta in _PADE_THETA.items() if norm <= theta), 13)
        squarings = max(0, math.ceil(math.log2(norm / _PADE_THETA[13]))) if degree == 13 else 0
        a = a * 2.0 ** -squarings
        b = _PADE_COEFFS[degree]
        ident = np.eye(len(a), dtype=a.dtype)
        a2 = a @ a
        if degree < 13:
            powers = [ident, a2]  # A^0, A^2, ..., A^(degree - 1)
            while len(powers) <= degree // 2:
                powers.append(powers[-1] @ a2)
            u = a @ sum(c * p for c, p in zip(b[1::2], powers))
            v = sum(c * p for c, p in zip(b[0::2], powers))
        else:
            a4 = a2 @ a2
            a6 = a4 @ a2
            u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                     + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
            v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
                 + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
        r = np.linalg.solve(v - u, v + u)
        for _ in range(squarings):
            r = r @ r
    if not np.isfinite(r).all():
        raise Overflow("the matrix exponential is not finite")
    return r


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
