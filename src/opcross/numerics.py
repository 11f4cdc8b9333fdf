"""Dense linear-algebra kernel used by every other module.

Thin, contract-enforcing wrappers around numpy plus the JSON matrix
encoding.  All functions are pure; inputs are never mutated.  Every
invertibility verdict is ``inverse``'s, which returns the inverse it
certified.  Every range verdict on a value computed from finite input is
``finite``'s, an Overflow; input read from outside is ``as_matrix``'s, a
ValueError.  Everything here needs numpy alone, the matrix exponential
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
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def finite(x, what):
    """x when every entry of it (an array, a scalar or a list of equal-shape arrays)
    is finite; else Overflow("<what> is not finite")."""
    if not np.isfinite(x).all():
        raise Overflow(f"{what} is not finite")
    return x


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


def is_symmetric(c):
    """C = C^T to 1e-12 relative, tested as C / s, s = max(1, its largest |re| or |im|),
    so nothing overflows."""
    s = np.abs([c.real, c.imag]).max(initial=1.0)
    return fro(c / s - c.T / s) <= 1e-12 * max(1.0 / s, fro(c / s))


def require_nonsingular(s, error, message, floor=0.0):
    """Raise error(message) when the descending singular values s fail the
    singularity rule (see SINGULAR_RTOL): sigma_min <= SINGULAR_RTOL * max(sigma_max,
    floor), or sigma_max = 0.  Chart-level factors take floor 1 (True reads as 1).
    A stack's rows are judged each; a callable message gets the first failing row."""
    top, low = s.T[0], s.T[-1]  # scalars, or one per matrix of a stack
    failing = (top == 0.0) | (low <= SINGULAR_RTOL * np.maximum(top, floor))
    if failing.any() if s.ndim > 1 else failing:
        raise error(message(int(failing.argmax())) if callable(message) else message)


def binary_scale(m):
    """2^-e, e the exponent of the largest |re| or |im| of m (of each matrix of a stack,
    shape (..., 1, 1)), at most 2^1023.  Multiplying by a power of two is exact: it
    leaves QR, singular-value ratios and the rank rule as they are, and keeps LAPACK's
    norms in range for entries near the float limit."""
    e = np.frexp(np.maximum(np.abs(m.real), np.abs(m.imag))
                 .max(axis=(-2, -1), keepdims=True, initial=0.0))[1]
    return np.ldexp(1.0, np.minimum(-e, 1023))


def inverse(a, error, message, chart=False):
    """inv(a) of a matrix or a stack once a (each matrix) passes the singularity rule,
    else require_nonsingular's error(message).  X = inv(a), in a's precision, decides
    first: ||I - X a||_F <= 1/2 gives ||a^-1||_2 <= 2 ||X||_2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002), so 2 ||X||_F ||a||_F <= eps^-1/2, with ||a||_F
    floored at 1 where chart=True, bounds sigma_min below by eps^1/2 times the rule's
    scale.  Each uncertified matrix (each one, after an exact zero pivot) is then judged
    in order: Overflow if it is not finite (a factor formed from finite inputs that
    overflowed), else the SVD of it times binary_scale, with the chart floor scaled alike,
    so a finite factor with sigma_max beyond the float range is judged by its conditioning.
    The first failing matrix raises (a callable message gets its index): a stack raises
    what one call per matrix, in order, would."""
    with np.errstate(all="ignore"):
        try:
            x = np.linalg.inv(a)
        except np.linalg.LinAlgError:  # an exact zero pivot
            x, certified = None, np.zeros(a.shape[:-2], bool)
        else:
            r = x @ a
            r -= np.eye(a.shape[-1], dtype=r.dtype)  # X a - I, in place
            sq_a = np.maximum(sq_fro(a), 1.0) if chart else sq_fro(a)
            scale = 4.0 * sq_fro(x) * sq_a * np.finfo(a.dtype).eps  # (2 ||X|| ||a||)^2 eps
            certified = (sq_fro(r) <= 0.25) & (0.0 < scale) & (scale <= 1.0)
            if certified.all():
                return x
    mats = a.reshape(-1, *a.shape[-2:])
    for i in np.flatnonzero(~certified):
        m = finite(mats[i], "a factor to invert")
        pow2 = binary_scale(m)
        require_nonsingular(singular_values(m * pow2), error,
                            message(i) if callable(message) else message,
                            pow2[0, 0] if chart else 0.0)
    return np.linalg.inv(a) if x is None else x  # inv raises again if the SVD accepts


def eigenvalues(m):
    """Eigenvalues with multiplicity, sorted by (real, imag)."""
    return _spectrum(as_square(m))


def _spectrum(m):
    """eigenvalues' core, for a matrix its caller has checked finite and square."""
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


def power_sums(w):
    """(sum w, ..., sum w^n) of an eigenvalue multiset w of n entries, as complex:
    the traces tr M, ..., tr M^n of any matrix M with spectrum w.  Overflow names
    the first power whose sum is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = w[None].repeat(len(w), axis=0).cumprod(axis=0).sum(axis=1)
    if not np.isfinite(sums).all():
        raise Overflow(f"tr M^{np.argmin(np.isfinite(sums)) + 1} is not finite")
    return sums


def svd(m, **kwargs):
    """np.linalg.svd(m, **kwargs), raising NonConvergence where it fails to converge."""
    try:
        return np.linalg.svd(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc


def singular_values(m):
    """Singular values, descending (one row per matrix of a 3-d stack)."""
    return svd(as_matrix(m, stack=np.ndim(m) == 3), compute_uv=False)


# Higham (2005), Table 2.3: theta_m is the largest 1-norm of A at which the
# degree-m diagonal Pade approximant r_m(A) of exp(A) has backward error at
# most the unit roundoff of IEEE double.
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 5.371920351148152e0}
# Numerator coefficients b_0..b_m of r_m = p_m(A) / p_m(-A), scaled to b_m = 1.
_PADE_COEFFS = {m: [math.factorial(2 * m - j) / (math.factorial(j) * math.factorial(m - j))
                    for j in range(m + 1)] for m in _PADE_THETA}


def _pade_plan(norm):
    """(m, s) for an exponent of 1-norm norm: the lowest degree m with norm <= theta_m,
    else m = 13 and the fewest squarings s that bring norm 2^-s to theta_13."""
    degree = next((d for d, theta in _PADE_THETA.items() if norm <= theta), 13)
    return degree, max(0, math.ceil(math.log2(norm / _PADE_THETA[13]))) if degree == 13 else 0


def _pade_exp(a, degree, squarings):
    """r_m(A 2^-s) squared s times, for a matrix or a stack that shares m and s."""
    a = a * 2.0 ** -squarings
    b = _PADE_COEFFS[degree]
    a2 = a @ a
    powers = [np.eye(a.shape[-1], dtype=a.dtype), a2]  # A^0, A^2, ..., A^(degree - 1)
    while len(powers) <= degree // 2:
        powers.append(powers[-1] @ a2)
    u = a @ sum(c * p for c, p in zip(b[1::2], powers))
    v = sum(c * p for c, p in zip(b[0::2], powers))
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def expm(m):
    """Matrix exponential by scaling and squaring (Higham 2005, Algorithm 2.3),
    of a matrix or of each matrix of a 3-d stack.

    The 1-norm of A picks the lowest degree m in {3, 5, 7, 9, 13} with
    ||A||_1 <= theta_m; above theta_13, A is scaled by 2^-s into range.
    One loop over A^0, A^2, ..., A^(m-1) forms U (odd terms) and V (even
    terms) of p_m(A) at every m: 7 products at m = 13, one more than
    Algorithm 2.3's schedule, paid only above theta_9, which no benchmark
    workload reaches.  r_m(A) solves (V - U) R = V + U, and R is squared
    s times.  Each matrix of a stack takes its own m and s, and those that
    share both are evaluated together; stacked products and solves are the
    per-matrix ones, so each result is its own call's, bit for bit.  A real
    matrix gives a real result.  Overflow when a result (or a ||A||_1) is
    not finite.
    """
    a = as_square(m, stack=np.ndim(m) == 3)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = finite(np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0), "the exponent's 1-norm")
        plans = [_pade_plan(norm) for norm in np.ravel(norms)]
        if len(set(plans)) == 1:
            r = _pade_exp(a, *plans[0])
        else:
            r = np.empty_like(a)
            for plan in set(plans):
                i = [k for k, p in enumerate(plans) if p == plan]
                r[i] = _pade_exp(a[i], *plan)
    return finite(r, "the matrix exponential")


# --- JSON encoding -------------------------------------------------------
#
# {"rows": n, "cols": m, "data": [[row], [row], ...]}; a complex entry is
# a two-element [re, im] list.

def matrix_to_json(m):
    m = as_matrix(m)
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "data": split_complex(m).tolist()}


def split_complex(a):
    """a itself if it is real; else its entries as (re, im) pairs along a new last axis."""
    return np.stack([a.real, a.imag], -1) if np.iscomplexobj(a) else a


def number_from_json(v, name, kind=float):
    """A finite JSON number as kind (float, or int for a count); else ValueError."""
    # bool is an int subclass, but JSON true/false are not numbers; the
    # magnitude test also rejects nan and integers too large for a float.
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not abs(v) <= sys.float_info.max or (kind is int and v != int(v)):
        raise ValueError(f"{name} must be a finite {kind.__name__}, got {v!r}")
    return kind(v)


def list_from_json(v, name, length=None):
    """v if it is a JSON list (of length entries, when given); else ValueError naming it."""
    if not isinstance(v, list) or length not in (None, len(v)):
        raise ValueError(f"{name} must be a list" + (f" of {length} entries" if length else ""))
    return v


def _entry_from_json(v, name):
    parts = v if isinstance(v, list) and len(v) == 2 else [v]
    parts = [number_from_json(x, f"{name} entry") for x in parts]
    return complex(*parts) if len(parts) == 2 else parts[0]


def rows_from_json(data, name, rows=None, cols=None):
    """The array of a JSON list of rows (rows x cols, when given; else as long as the
    first) whose entries are numbers or complex [re, im] pairs; else ValueError."""
    data = list_from_json(data, name, rows)
    cols = len(list_from_json(data[0], f"{name}[0]")) if cols is None and data else cols
    return np.array([[_entry_from_json(v, name) for v in list_from_json(row, f"{name}[{i}]", cols)]
                     for i, row in enumerate(data)])


def matrix_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    rows, cols = (number_from_json(obj.get(k), k, int) for k in ("rows", "cols"))
    if rows <= 0 or cols <= 0:
        raise ValueError("matrix dimensions must be positive")
    return rows_from_json(obj.get("data"), "data", rows, cols)
