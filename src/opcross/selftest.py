"""Quick seeded invariant checks across all modules, used by the CLI selftest
verb.  Each check returns (name, passed, detail); the whole battery is meant
to finish in a few seconds."""

import numpy as np

from . import crossratio, grassmann, numerics
from . import schwarzian as schwarz
from .errors import NumericalError
from .flows import commuting_flow_residual, shift_generator, spectrum_along_flow, FlowScenario

ROUNDS = 20  # random configurations each sampled check draws


def random_half_dim_config(rng, n):
    """Four random big-cell coordinates (k x k, k = n // 2) of the standard
    polarization, redrawn until both the composition and the chart formula
    accept them.  Returns (coordinates, subspaces, polarization)."""
    k = n // 2
    pol = grassmann.standard_polarization(n, k)
    while True:
        ts = [rng.standard_normal((k, k)) for _ in range(4)]
        try:
            subs = [grassmann.subspace_from_graph(t, pol) for t in ts]
            crossratio.dv_composition(*subs)
            crossratio.dv_matrix(*ts)
        except NumericalError:
            continue
        return ts, subs, pol


def run_all(seed=0):
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, err, bound):
        checks.append((name, err <= bound, f"max residual {err:.3e} (bound {bound:.1e})"))

    # Cross-ratio: chart formula vs composition oracle.
    worst = 0.0
    for _ in range(ROUNDS):
        ts, subs, _ = random_half_dim_config(rng, 4)
        s1 = crossratio.dv_matrix(*ts).spectrum
        s2 = crossratio.dv_composition(*subs).spectrum
        worst = max(worst, float(np.max(np.abs(s1 - s2))))
    record("crossratio.formula_vs_composition", worst, 1e-8)

    # Cocycle identity; the check fails when no configuration is accepted.
    worst, accepted = 0.0, 0
    for _ in range(ROUNDS):
        p1 = grassmann.random_subspace(6, 3, rng.integers(2**31))
        p2 = grassmann.random_subspace(6, 3, rng.integers(2**31))
        qs = [grassmann.random_subspace(6, 3, rng.integers(2**31)) for _ in range(3)]
        try:
            prod = crossratio.cocycle_product(p1, p2, *qs)
        except NumericalError:
            continue
        accepted += 1
        worst = max(worst, numerics.fro(prod - np.eye(3)))
    if accepted:
        record("crossratio.cocycle_identity", worst, 1e-8)
    else:
        checks.append(("crossratio.cocycle_identity", False, "no configuration was accepted"))

    # Operator angle eigenvalues = cos^2 principal angles.
    worst = 0.0
    pol = grassmann.standard_polarization(4, 2)
    for _ in range(ROUNDS):
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        spec = np.sort(crossratio.operator_angle(a, b).spectrum.real)
        wa = grassmann.subspace_from_graph(a, pol)
        wb = grassmann.subspace_from_graph(b, pol)
        cos2 = np.sort(np.cos(grassmann.principal_angles(wa, wb)) ** 2)
        worst = max(worst, float(np.max(np.abs(spec - cos2))))
    record("crossratio.operator_angle_vs_principal_angles", worst, 1e-8)

    # Schwarzian: exact jet of scalar tan and affine invariance.
    jet = schwarz.CurveJet(0.0, [[0.0]], [[1.0]], [[0.0]], [[2.0]])
    err = abs(schwarz.schwarz(jet)[0, 0] - 2.0)
    record("schwarz.tan_fixture", err, 1e-12)

    # Hamiltonian vs Riccati on the scalar oscillator.
    sys_ = schwarz.HamiltonianSystem(schwarz.MatrixPolynomial([np.zeros((1, 1))]),
                                     schwarz.MatrixPolynomial([np.eye(1)]),
                                     symmetric_a=True)
    ts, ws = schwarz.integrate_riccati(sys_, np.zeros((1, 1)), 0.0, 1.2, 600)
    err = max(abs(w[0, 0] + np.tan(t)) for t, w in zip(ts, ws))
    record("schwarz.riccati_tan_solution", err, 1e-7)

    # Flow conservation along a shift generator.
    n = 8
    gen = shift_generator(n, 1)
    initials = [grassmann.random_subspace(n, n // 2, int(rng.integers(2**31)))
                for _ in range(4)]
    scenario = FlowScenario(gen, initials, np.linspace(0.0, 1.0, 6))
    rows = spectrum_along_flow(scenario)
    base = rows[0][1]
    err = max(float(np.max(np.abs(spec - base))) for _, spec, _, _ in rows)
    record("flows.spectrum_conservation", err, 1e-6)

    # Commuting shift flows commute.
    res = commuting_flow_residual(shift_generator(n, 1), shift_generator(n, 2),
                                  initials[0], 0.7, 0.4)
    record("flows.commuting_generators", res, 1e-8)

    return checks
