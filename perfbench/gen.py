"""Seeded input generator owned by the benchmark.

Everything here is plain numpy: the generator imports nothing from opcross
or from the test suite, so the program only ever sees the arrays (or JSON
files) made here.  A draw that fails an admissibility test is thrown away
and counted in ``Generator.rejected`` under the test's name, so the share of
filtered draws is reported with every run instead of shaping the data
silently.
"""

from collections import Counter

import numpy as np

# Smallest singular value required of every chart difference (and of a chart
# that has to be inverted).  Below it the contractual absolute tolerances
# (1e-8 on spectra) would measure conditioning, not the program.
MIN_SIGMA = 0.1
# Off-identity part of a chart: T = level * I + CHART_NOISE * G / sqrt(k).
CHART_NOISE = 0.3


def sigma_min(m):
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def graph_basis(t):
    """Orthonormal basis (n x k) of the graph {(f, T f)} of a k x k chart."""
    k = t.shape[1]
    q, _ = np.linalg.qr(np.vstack([np.eye(k), t]))
    return q


def matrix_json(m):
    """The program's JSON matrix encoding (real entries)."""
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "data": [[float(v) for v in row] for row in m]}


class Generator:
    """All random inputs of one benchmark run, drawn from one seed."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.rejected = Counter()

    def sym(self, k, scale):
        m = self.rng.standard_normal((k, k))
        return scale * (m + m.T) / (2.0 * np.sqrt(k))

    def charts(self, k, count, invertible=False):
        """`count` k x k big-cell charts at distinct levels spaced by 2.

        Every pairwise difference (and, with `invertible`, every chart) has
        smallest singular value >= MIN_SIGMA, so each pair of graphs is a
        polarization with a definite angle.
        """
        levels = 2.0 * np.arange(count) - (count - 1)
        while True:
            lam = self.rng.permutation(levels)
            ts = [lv * np.eye(k) + CHART_NOISE * self.rng.standard_normal((k, k)) / np.sqrt(k)
                  for lv in lam]
            mats = [a - b for i, a in enumerate(ts) for b in ts[i + 1:]]
            if invertible:
                mats += ts
            if min(sigma_min(m) for m in mats) >= MIN_SIGMA:
                return ts
            self.rejected["charts"] += 1

    def pair_with_angles(self, n, thetas):
        """Orthonormal bases of a pair in R^n with the given principal angles,
        moved by a random orthogonal map."""
        k = len(thetas)
        pb = np.zeros((n, k))
        qb = np.zeros((n, k))
        for j, th in enumerate(thetas):
            pb[j, j] = 1.0
            qb[j, j] = np.cos(th)
            qb[k + j, j] = np.sin(th)
        g, r = np.linalg.qr(self.rng.standard_normal((n, n)))
        g = g * np.sign(np.diag(r))
        return g @ pb, g @ qb

    def angle_pairs(self, n, equivalent):
        """Two pairs with equal principal angles, or with one angle bumped
        by 1e-3..1e-2 (far outside the 1e-6 decision tolerance)."""
        k = n // 2
        thetas = np.sort(self.rng.uniform(0.05, np.pi / 2 - 0.05, size=k))
        other = thetas.copy()
        if not equivalent:
            j = int(self.rng.integers(k))
            other[j] += self.rng.uniform(1e-3, 1e-2) * self.rng.choice([-1.0, 1.0])
        return self.pair_with_angles(n, thetas) + self.pair_with_angles(n, other)

    def poly_system(self, dim):
        """Symmetric linear-in-t coefficients A(t), B(t) and a symmetric W0.

        ||B|| stays near 1 and the window is 0.7 long, well inside the first
        escape time (about pi/2 for ||B|| = 1), so no draw is inadmissible.
        """
        a = [self.sym(dim, 0.2), self.sym(dim, 0.1)]
        b = [self.sym(dim, 1.0), self.sym(dim, 0.2)]
        return a, b, self.sym(dim, 0.1), 0.7

    def tan_system(self, dim):
        """W' = -b I - W^2 from a symmetric W0 with eigenvalues mu in
        [-0.5, 0.5]: W(t) = V diag(-sqrt(b) tan(sqrt(b) t - atan(mu/sqrt(b)))) V^T.
        The window ends where the largest tangent argument reaches 1.2."""
        b = float(self.rng.uniform(0.5, 2.0))
        mu = self.rng.uniform(-0.5, 0.5, size=dim)
        v, _ = np.linalg.qr(self.rng.standard_normal((dim, dim)))
        w0 = (v * mu) @ v.T
        w0 = 0.5 * (w0 + w0.T)
        rb = np.sqrt(b)
        t1 = (1.2 + np.arctan(mu.min() / rb)) / rb
        return b, w0, float(t1)
