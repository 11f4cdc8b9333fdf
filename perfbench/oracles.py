"""Reference values computed by the benchmark itself, with numpy/scipy only,
and the tolerances of the acceptance battery (tests/test_acceptance.py)."""

import numpy as np

from gen import graph_basis

SPECTRUM_TOL = 1e-8      # criterion 1: the three presentations agree
COCYCLE_TOL = 1e-8       # criterion 4: ||product - I||_F
ANGLE_TOL = 1e-8         # criterion 5: eigenvalues vs cos^2 of principal angles
TRAJECTORY_TOL = 1e-6    # criterion 10: p q^-1 gap, Schwarz-equation residual
TAN_TOL = 1e-7           # Riccati against -tan where the closed form applies
FLOW_TOL = 1e-6          # criterion 11: invariants conserved along the flow


def spectral_gap(w1, w2):
    """Largest eigenvalue distance under the best matching of two multisets.

    Matching (instead of comparing two sorted lists) keeps clusters of nearly
    equal real parts from being paired in different orders.
    """
    from scipy.optimize import linear_sum_assignment
    w1 = np.asarray(w1, dtype=complex)
    w2 = np.asarray(w2, dtype=complex)
    if w1.shape != w2.shape:
        return np.inf
    cost = np.abs(w1[:, None] - w2[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max(initial=0.0))


def chart_spectrum(ts):
    """Eigenvalues of (T1-T2)^-1 (T2-T3) (T3-T4)^-1 (T4-T1)."""
    t1, t2, t3, t4 = ts
    d = np.linalg.solve(t1 - t2, t2 - t3) @ np.linalg.solve(t3 - t4, t4 - t1)
    return np.linalg.eigvals(d)


def cos2_principal(a, b):
    """Ascending cos^2 of the principal angles between the graphs of a and b."""
    s = np.linalg.svd(graph_basis(a).T @ graph_basis(b), compute_uv=False)
    return np.sort(np.clip(s, 0.0, 1.0) ** 2)


def conserved(spectra, traces, dets):
    """Spectra (absolute) and traces/determinants (relative above magnitude 1)
    stay within FLOW_TOL of their values at the first time."""
    def rel(x, x0):
        return np.abs(np.asarray(x) - np.asarray(x0)) / np.maximum(1.0, np.abs(x0))

    return all(spectral_gap(s, spectra[0]) <= FLOW_TOL
               and np.max(rel(t, traces[0]), initial=0.0) <= FLOW_TOL
               and rel(d, dets[0]) <= FLOW_TOL
               for s, t, d in zip(spectra, traces, dets))


def riccati_reference(a, b, w0, ts):
    """W(t) of W' = -B - A^T W - W A - W^2 at the times ts, from a tight
    DOP853 solve; a, b are coefficient lists of the polynomials in t."""
    from scipy.integrate import solve_ivp
    k = w0.shape[0]

    def poly(cs, t):
        return sum(c * t ** i for i, c in enumerate(cs))

    def rhs(t, y):
        w = y.reshape(k, k)
        at = poly(a, t)
        return (-poly(b, t) - at.T @ w - w @ at - w @ w).reshape(-1)

    sol = solve_ivp(rhs, (ts[0], ts[-1]), w0.reshape(-1), method="DOP853",
                    t_eval=ts, rtol=1e-12, atol=1e-12)
    return sol.y.T.reshape(len(ts), k, k)


def schwarz_residual(jets, a, b):
    """max_t ||S(z) - 2 (B - A' - A^2)||_F over a list of CurveJets."""
    worst = 0.0
    for jet in jets:
        q2 = np.linalg.solve(jet.z1, jet.z2)
        s = np.linalg.solve(jet.z1, jet.z3) - 1.5 * (q2 @ q2)
        t = jet.t
        at = a[0] + a[1] * t
        target = 2.0 * (b[0] + b[1] * t - a[1] - at @ at)
        worst = max(worst, float(np.linalg.norm(s - target)))
    return worst


def tan_solution(b, w0, ts):
    """Closed form of W' = -b I - W^2 at the times ts (see Generator.tan_system)."""
    mu, v = np.linalg.eigh(w0)
    rb = np.sqrt(b)
    vals = -rb * np.tan(rb * np.asarray(ts)[:, None] - np.arctan(mu / rb)[None, :])
    return np.einsum("ij,tj,kj->tik", v, vals, v)
