import os
import subprocess
import sys

import numpy as np
import pytest

import opcross as oc
from opcross import grassmann, numerics
from opcross import schwarzian as sz
from opcross.errors import OutsideChart
from opcross.selftest import random_half_dim_config


def spectra_close(w1, w2, tol):
    """Pointwise comparison of two spectra, each sorted by (real, imag)."""
    w1, w2 = numerics.sort_spectrum(w1), numerics.sort_spectrum(w2)
    return w1.shape == w2.shape and bool(np.max(np.abs(w1 - w2), initial=0.0) <= tol)


def same_subspace(w1, w2, tol=1e-8):
    """Projector-distance equality test of two subspaces."""
    if w1.ambient_dim != w2.ambient_dim:
        return False
    return numerics.fro(w1.projector() - w2.projector()) <= tol


def contains(w, x, tol=1e-8):
    """Whether the columns of x lie in the subspace w, to tol relative to max(1, ||x||_F)."""
    x = np.asarray(x)
    return numerics.fro(x - w.projector() @ x) <= tol * max(1.0, numerics.fro(x))


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_half_dim_charts(rng, n, need_invertible_verticals=False):
    """Four big-cell coordinates (k x k, k = n/2) giving an admissible
    cross-ratio configuration; optionally T2, T4 invertible so the swapped
    chart exists too."""
    while True:
        ts, subs, pol = random_half_dim_config(rng, n)
        if not need_invertible_verticals:
            return ts, subs, pol
        try:
            swapped = grassmann.Polarization(pol.vertical, pol.horizontal)
            grassmann.graph_coordinate(subs[1], swapped)
            grassmann.graph_coordinate(subs[3], swapped)
        except OutsideChart:
            continue
        return ts, subs, pol


def overflowing_dv_config():
    """Four n = 256 subspaces (k = 128, standard polarization, seed 0,
    T3 = T4 + 1e-3 I) whose cross-ratio has traces of powers beyond the
    floating-point range."""
    rng = np.random.default_rng(0)
    pol = grassmann.standard_polarization(256, 128)
    ts = [rng.standard_normal((128, 128)) for _ in range(4)]
    ts[2] = ts[3] + 1e-3 * np.eye(128)
    return [grassmann.subspace_from_graph(t, pol) for t in ts]


def overflowing_flow_scenario():
    """A 4 x 4 generator 800 I + E_01 with four random planes over t = 0, 0.5, 1:
    exp(tM) is finite at t = 0.5 (e^400) and overflows at t = 1 (e^800)."""
    gen = 800.0 * np.eye(4)
    gen[0, 1] = 1.0
    return oc.FlowScenario(gen, [grassmann.random_subspace(4, 2, i) for i in range(4)],
                           [0.0, 0.5, 1.0])


def unequal_sharing_config():
    """Planes P1, P3 and 3-spaces P2, P4 of R^5 with P1 + P2 and P3 + P4
    direct sums, but P1 and P3 share the vector e0."""
    e = np.eye(5)
    return [grassmann.Subspace(e[:, cols]) for cols in ([0, 1], [2, 3, 4], [0, 2], [1, 3, 4])]


def sampled_symmetric_b():
    """Coefficients of B(t) = I + p(t) K, K = [[0, 1], [-1, 0]],
    p(t) = (t+1) t (t-0.37) (t-1) (t-2): B is symmetric at those five times
    only (at t = 0.5 its off-diagonal entries are +-0.0731)."""
    p = np.poly([-1.0, 0.0, 0.37, 1.0, 2.0])[::-1]
    k = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return [np.eye(2) + p[0] * k] + [c * k for c in p[1:]]


def subspace_json(w):
    """The JSON object of a subspace, as Subspace.from_json reads it."""
    return {"ambient": w.ambient_dim, "dim": w.dim, "basis": numerics.matrix_to_json(w.basis)}


def flow_json(scenario):
    """The JSON object of a flow scenario, as FlowScenario.from_json reads it."""
    return {"generator": numerics.matrix_to_json(scenario.generator),
            "initials": [subspace_json(w) for w in scenario.initials],
            "times": [float(t) for t in scenario.times]}


def block_mobius(m, pol):
    """The BlockMobius of the n x n matrix m in pol's frame, split at pol's horizontal dim."""
    k = pol.horizontal.dim
    return grassmann.BlockMobius(m[:k, :k], m[:k, k:], m[k:, :k], m[k:, k:], pol)


def random_conditioned(rng, n, cond_max=1e3):
    """Random invertible matrix with condition number below cond_max."""
    while True:
        m = rng.standard_normal((n, n))
        s = np.linalg.svd(m, compute_uv=False)
        if s[0] / s[-1] <= cond_max:
            return m


def polynomial_curve(rng, k, degree=4, scale=0.3):
    """Coefficients of a matrix-polynomial curve with z'(0) well conditioned,
    plus an exact jet evaluator."""
    from math import factorial

    coeffs = [scale * rng.standard_normal((k, k)) for _ in range(degree + 1)]
    coeffs[1] = np.eye(k) + scale * rng.standard_normal((k, k))

    def jet_at(t):
        def deriv(order):
            return sum(factorial(i) // factorial(i - order) * c * t ** (i - order)
                       for i, c in enumerate(coeffs) if i >= order)
        return sz.CurveJet(t, deriv(0), deriv(1), deriv(2), deriv(3))

    return coeffs, jet_at


def pair_with_angles(thetas, n, rng=None):
    """A subspace pair in R^n with the prescribed principal angles,
    optionally moved by a random orthogonal map."""
    k = len(thetas)
    assert 2 * k <= n
    pb = np.zeros((n, k))
    qb = np.zeros((n, k))
    for j, th in enumerate(thetas):
        pb[j, j] = 1.0
        qb[j, j] = np.cos(th)
        qb[k + j, j] = np.sin(th)
    p, q = oc.Subspace(pb), oc.subspace_from_basis(qb)
    if rng is not None:
        g = random_orthogonal(rng, n)
        p = oc.subspace_from_basis(g @ p.basis)
        q = oc.subspace_from_basis(g @ q.basis)
    return p, q


def complementary_pair(rng, n, k, gap, dtype=float):
    """A k-dim A and an (n - k)-dim B in R^n or C^n, k <= n - k, in a random
    unitary frame, with 1 - ||A^H B||_2^2 = gap: the principal cosines are
    sqrt(1 - gap) and k - 1 more drawn below it."""
    cosines = np.sqrt(1.0 - gap) * np.append(1.0, rng.uniform(0.0, 1.0, k - 1))
    a, b = np.zeros((n, k)), np.zeros((n, n - k))
    a[:k] = np.eye(k)
    b[:k, :k] = np.diag(cosines)
    b[k:2 * k, :k] = np.diag(np.sqrt(1.0 - cosines ** 2))
    b[2 * k:, k:] = np.eye(n - 2 * k)
    g = rng.standard_normal((n, n))
    q = np.linalg.qr(g + 1j * rng.standard_normal((n, n)) if dtype is complex else g)[0]
    return oc.Subspace(q @ a), oc.Subspace(q @ b)


def chart_subspaces(rng, k, levels):
    """Graphs of the k x k charts level * I + 0.3 G / sqrt(k) of the standard
    polarization of R^2k: graphs of distant levels are well separated."""
    pol = grassmann.standard_polarization(2 * k, k)
    return [grassmann.subspace_from_graph(lv * np.eye(k) + 0.3 * rng.standard_normal((k, k))
                                          / np.sqrt(k), pol) for lv in levels]


def fresh_python(code):
    """stdout of code run by a new interpreter that imports opcross from this
    checkout, so sys.modules shows what the code alone loaded."""
    src = os.path.dirname(os.path.dirname(oc.__file__))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src}).stdout


LOADED_SCIPY = 'sorted(m for m in sys.modules if m.split(".")[0] == "scipy")'


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def svd_calls(monkeypatch):
    """The shapes np.linalg.svd is called on from here on, in call order."""
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: calls.append(np.shape(a)) or svd(a, *args, **kw))
    return calls


@pytest.fixture
def solve_calls(monkeypatch):
    """The shapes np.linalg.solve is called on from here on, in call order."""
    calls, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: calls.append(np.shape(a)) or solve(a, b))
    return calls
