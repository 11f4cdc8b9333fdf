"""Acceptance battery: one test per release criterion, each printing a single
PASS/FAIL line with its measured worst case.  Tolerances here are contractual;
do not loosen them to make a red criterion green.
"""

import json
from pathlib import Path

import numpy as np

from opcross import cli, flows, numerics
from opcross import crossratio as cr
from opcross import grassmann as gr
from opcross import schwarzian as sz
from opcross.errors import BlowUp, NotPolarization
from conftest import (block_mobius, pair_with_angles, polynomial_curve, random_conditioned,
                      random_half_dim_charts, random_orthogonal, subspace_json)


def report(num, label, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {marker} {label}: {detail}")
    assert passed, f"criterion {num} ({label}): {detail}"


def test_criterion_01_formula_oracle_agreement():
    rng = np.random.default_rng(101)
    worst = 0.0
    count = 0
    while count < 500:
        n = (2, 4, 6)[count % 3]
        ts, subs, pol = random_half_dim_charts(rng, n,
                                               need_invertible_verticals=True)
        specs = [cr.dv_matrix(*ts).spectrum, cr.dv_composition(*subs).spectrum]
        swapped = gr.Polarization(pol.vertical, pol.horizontal)
        specs.append(cr.dv_mixed(ts[0], gr.graph_coordinate(subs[1], swapped),
                                 ts[2], gr.graph_coordinate(subs[3], swapped)).spectrum)
        for i in range(3):
            for j in range(i + 1, 3):
                worst = max(worst, float(np.max(np.abs(specs[i] - specs[j]))))
        count += 1
    report(1, "three presentations agree on 500 configurations",
           worst <= 1e-8, f"worst pairwise spectral gap {worst:.3e} (tol 1e-8)")


def _pair_separation(subs):
    """Smallest singular value of the two stacked polarization bases."""
    out = 1.0
    for a, b in ((subs[0], subs[1]), (subs[2], subs[3])):
        s = np.linalg.svd(np.hstack([a.basis, b.basis]), compute_uv=False)
        out = min(out, float(s[-1]))
    return out


def test_criterion_02_mobius_invariance():
    rng = np.random.default_rng(102)
    pol = gr.standard_polarization(6, 3)
    worst = 0.0
    count = 0
    while count < 200:
        _, subs, _ = random_half_dim_charts(rng, 6)
        # The drift bound presumes definitely-admissible positions: a pair
        # separation of 4e-5 puts ||D|| near 1e5 and the eigenvalues past
        # the bound for reasons unrelated to the transform.
        if _pair_separation(subs) < 1e-2:
            continue
        g = block_mobius(random_conditioned(rng, 6, 1e3), pol)
        moved = [gr.mobius_apply_subspace(g, w) for w in subs]
        try:
            base = cr.dv_composition(*subs).spectrum
            spec = cr.dv_composition(*moved).spectrum
        except NotPolarization:
            continue
        worst = max(worst, float(np.max(np.abs(base - spec))))
        count += 1
    report(2, "cross-ratio spectrum invariant under well-conditioned transforms",
           worst <= 1e-7, f"worst spectral drift {worst:.3e} (tol 1e-7)")


def test_criterion_03_permutation_table():
    rng = np.random.default_rng(103)
    perm_order = {"12,34": (0, 1, 2, 3), "34,12": (2, 3, 0, 1),
                  "12,43": (0, 1, 3, 2), "14,32": (0, 3, 2, 1),
                  "13,24": (0, 2, 1, 3), "14,23": (0, 3, 1, 2)}
    worst_spec = 0.0
    worst_matrix = 0.0
    for _ in range(25):
        _, subs, _ = random_half_dim_charts(rng, 6)
        d = cr.dv_composition(*subs)
        for label, order in perm_order.items():
            direct = cr.dv_composition(*(subs[i] for i in order))
            table = cr.dv_permuted(d, label)
            gap = float(np.max(np.abs(direct.spectrum - table.spectrum)))
            worst_spec = max(worst_spec, gap)
        # Matrix-level complement identity in the P1 basis: the reversed-pair
        # value and the original sum to the identity on P1.
        swapped = cr.dv_composition(subs[0], subs[1], subs[3], subs[2])
        worst_matrix = max(worst_matrix,
                           numerics.fro(d.matrix + swapped.matrix - np.eye(3)))
    passed = worst_spec <= 1e-8 and worst_matrix <= 1e-9
    report(3, "all six permutation cosets match direct evaluation", passed,
           f"spectral gap {worst_spec:.3e} (tol 1e-8), "
           f"matrix identity residual {worst_matrix:.3e} (tol 1e-9)")


def test_criterion_04_cocycle_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    count = 0
    while count < 200:
        p1 = gr.random_subspace(6, 3, int(rng.integers(2**31)))
        p2 = gr.random_subspace(6, 3, int(rng.integers(2**31)))
        qs = [gr.random_subspace(6, 3, int(rng.integers(2**31))) for _ in range(3)]
        try:
            prod = cr.cocycle_product(p1, p2, *qs)
        except NotPolarization:
            continue
        worst = max(worst, numerics.fro(prod - np.eye(3)))
        count += 1
    report(4, "cocycle product is the identity on 200 configurations",
           worst <= 1e-8, f"worst ||product - I||_F {worst:.3e} (tol 1e-8)")


def test_criterion_05_operator_angle():
    rng = np.random.default_rng(105)
    pol = gr.standard_polarization(6, 3)
    worst = 0.0
    for _ in range(200):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        spec = np.sort(cr.operator_angle(a, b).spectrum.real)
        cos2 = np.sort(np.cos(gr.principal_angles(
            gr.subspace_from_graph(a, pol), gr.subspace_from_graph(b, pol))) ** 2)
        worst = max(worst, float(np.max(np.abs(spec - cos2))))
    scalar_err = abs(cr.operator_angle([[1.0]], [[2.0]]).matrix[0, 0] - 0.9)
    passed = worst <= 1e-8 and scalar_err <= 1e-12
    report(5, "operator-angle eigenvalues are squared cosines", passed,
           f"worst eigenvalue gap {worst:.3e} (tol 1e-8), "
           f"scalar fixture error {scalar_err:.3e} (tol 1e-12)")


def test_criterion_06_pair_equivalence_classifier():
    rng = np.random.default_rng(106)
    accepted = 0
    rejected = 0
    for _ in range(100):
        thetas = np.sort(rng.uniform(0.05, np.pi / 2 - 0.05, size=3))
        p, q = pair_with_angles(thetas, 8, rng)
        s, t = pair_with_angles(thetas, 8, rng)
        if cr.pair_equivalent(p, q, s, t, tol=1e-6):
            accepted += 1
        bumped = thetas.copy()
        j = int(rng.integers(3))
        bumped[j] += rng.uniform(1e-3, 1e-2) * rng.choice([-1.0, 1.0])
        bumped = np.clip(bumped, 1e-3, np.pi / 2 - 1e-3)
        s2, t2 = pair_with_angles(bumped, 8, rng)
        if not cr.pair_equivalent(p, q, s2, t2, tol=1e-6):
            rejected += 1
    passed = accepted == 100 and rejected == 100
    report(6, "orthogonal-transport classifier accepts/rejects correctly",
           passed, f"{accepted}/100 equivalent pairs accepted, "
                   f"{rejected}/100 perturbed pairs rejected (tol 1e-6)")


def test_criterion_07_comparability():
    rng = np.random.default_rng(107)
    worst = 0.0
    ok = True
    for _ in range(50):
        v = rng.standard_normal((4, 4))
        w = random_orthogonal(rng, 4) @ v @ random_orthogonal(rng, 4)
        ok = ok and cr.comparable(v, w) and not cr.comparable(v, 2.0 * v)
        alpha, beta = cr.comparability_witness(v, w)
        worst = max(worst, numerics.fro(alpha @ v @ beta - w))
    passed = ok and worst <= 1e-8
    report(7, "equal-singular-value test with unitary witness", passed,
           f"decisions correct: {ok}, worst ||W - alpha V beta||_F {worst:.3e} "
           f"(tol 1e-8)")


def test_criterion_08_schwarzian_fixtures_and_isospectrality():
    rng = np.random.default_rng(108)
    exact = abs(sz.schwarz(sz.CurveJet(0.0, [[0.0]], [[1.0]], [[0.0]],
                                       [[2.0]]))[0, 0] - 2.0)
    h = 1e-2
    samples = [np.array([[np.tan(k * h)]]) for k in range(-3, 4)]
    stencil = abs(sz.schwarz_from_samples(samples, h)[0, 0] - 2.0)
    affine = numerics.fro(sz.schwarz(sz.CurveJet(
        0.0, rng.standard_normal((3, 3)), rng.standard_normal((3, 3)) + 3 * np.eye(3),
        np.zeros((3, 3)), np.zeros((3, 3)))))
    drift = 0.0
    for k in (2, 3, 4):
        _, jet_at = polynomial_curve(rng, k)
        jet = jet_at(0.3)
        base = numerics.eigenvalues(sz.schwarz(jet))
        for _ in range(10):
            c1 = rng.standard_normal((k, k)) + 2 * np.eye(k)
            c2 = rng.standard_normal((k, k))
            c3 = 0.2 * rng.standard_normal((k, k))
            c4 = rng.standard_normal((k, k)) + 2 * np.eye(k)
            spec = numerics.eigenvalues(sz.schwarz(
                sz.mobius_curve_jet(c1, c2, c3, c4, jet)))
            drift = max(drift, float(np.max(np.abs(base - spec))))
    passed = exact <= 1e-10 and stencil <= 1e-5 and affine <= 1e-12 \
        and drift <= 1e-7
    report(8, "Schwarzian fixtures and isospectrality under curve transforms",
           passed, f"tan exact {exact:.3e} (1e-10), tan stencil {stencil:.3e} "
                   f"(1e-5), affine {affine:.3e} (1e-12), "
                   f"isospectral drift {drift:.3e} (1e-7)")


def test_criterion_09_second_order_limit():
    rng = np.random.default_rng(109)
    coeffs, jet_at = polynomial_curve(rng, 2)
    jet = jet_at(0.0)
    q2 = np.linalg.solve(jet.z1, jet.z2)
    q3 = np.linalg.solve(jet.z1, jet.z3)

    def z(t):
        return sum(c * t ** i for i, c in enumerate(coeffs))

    def f(s2, s1, s3):
        return np.linalg.inv(z(s2) - z(s1)) @ (z(s1) - jet.z) \
            @ np.linalg.inv(jet.z - z(s3)) @ (z(s3) - z(s2))

    d = 1e-4
    s1_grid = np.array([0.4, 0.2, 0.1, 0.05])
    errs = []
    for s1 in s1_grid:
        mixed = (f(d, s1, s1 + d) - f(d, s1, s1 - d)
                 - f(-d, s1, s1 + d) + f(-d, s1, s1 - d)) / (4.0 * d * d)
        limit = np.eye(2) + (s1 ** 2 / 6.0) * q3 - (s1 ** 2 / 4.0) * (q2 @ q2)
        errs.append(numerics.fro(s1 ** 2 * mixed - limit))
    slope = np.polyfit(np.log(s1_grid), np.log(errs), 1)[0]
    passed = slope >= 1.8 and errs[-1] < errs[0]
    report(9, "second-order limit of the four-point ratio recovers the jet",
           passed, f"errors {['%.3e' % e for e in errs]} at s1 = "
                   f"{list(s1_grid)}, observed order {slope:.2f} (need >= 1.8)")


def test_criterion_10_correspondences_round_trip():
    rng = np.random.default_rng(110)

    def sym(n):
        m = rng.standard_normal((n, n))
        return 0.5 * (m + m.T)

    a = sz.MatrixPolynomial([0.2 * sym(2), 0.1 * sym(2)])
    b = sz.MatrixPolynomial([sym(2), 0.2 * sym(2)])
    sys_ = sz.HamiltonianSystem(a, b, symmetric_a=True)
    w0 = 0.1 * sym(2)

    ts, ws = sz.integrate_riccati(sys_, w0, 0.0, 0.7, 700)
    _, points = sz.integrate_hamiltonian(sys_, sz.PhasePoint(np.eye(2), w0),
                                         0.0, 0.7, 700)
    pq_gap = max(numerics.fro(pt.w() - w) for pt, w in zip(points, ws))

    jets = sz.curve_from_riccati(ts, ws, a, np.zeros((2, 2)), np.eye(2), b_poly=b)
    schwarz_res = max(numerics.fro(sz.schwarz_equation_residual(jet, sys_))
                      for jet in jets)
    w_back = max(numerics.fro(sz.w_from_jet(jet, a(jet.t)) - w)
                 for jet, w in zip(jets, ws))

    oscillator = sz.HamiltonianSystem(sz.MatrixPolynomial([np.zeros((1, 1))]),
                                      sz.MatrixPolynomial([np.eye(1)]),
                                      symmetric_a=True)
    try:
        sz.integrate_riccati(oscillator, np.zeros((1, 1)), 0.0, 2.5, 500)
        blow_up_detected = False
        blow_t = float("nan")
    except BlowUp as exc:
        blow_up_detected = True
        blow_t = exc.t

    passed = pq_gap <= 1e-6 and schwarz_res <= 1e-6 and w_back <= 1e-6 \
        and blow_up_detected
    report(10, "Hamiltonian/Riccati/Schwarz correspondences round trip",
           passed, f"p q^-1 gap {pq_gap:.3e} (1e-6), Schwarz-equation residual "
                   f"{schwarz_res:.3e} (1e-6), W recovered {w_back:.3e} (1e-6), "
                   f"pole detected near t = {blow_t:.3f}")


def test_criterion_11_flow_conservation():
    rng = np.random.default_rng(111)
    worst_drift = 0.0
    for n, power in ((4, 1), (8, 2), (12, 3)):
        initials = [gr.random_subspace(n, n // 2, int(rng.integers(2**31)))
                    for _ in range(4)]
        scenario = flows.FlowScenario(flows.shift_generator(n, power), initials,
                                      np.linspace(0.0, 1.0, 11))
        rows = flows.spectrum_along_flow(scenario)
        base_spec, base_traces, base_det = rows[0][1], rows[0][2], rows[0][3]
        for _, spec, traces, det in rows:
            worst_drift = max(worst_drift,
                              float(np.max(np.abs(spec - base_spec))),
                              float(np.max(np.abs(traces - base_traces))),
                              abs(det - base_det))
    w0 = gr.random_subspace(10, 5, 7)
    commute = flows.commuting_flow_residual(flows.shift_generator(10, 1),
                                            flows.shift_generator(10, 4),
                                            w0, 0.7, 0.4)
    passed = worst_drift <= 1e-6 and commute <= 1e-8
    report(11, "cross-ratio invariants conserved along truncation flows",
           passed, f"worst invariant drift {worst_drift:.3e} (tol 1e-6), "
                   f"commuting-flow residual {commute:.3e} (tol 1e-8)")


def test_criterion_12_cli_determinism_and_robustness(tmp_path):
    rng = np.random.default_rng(112)
    pol = gr.standard_polarization(4, 2)
    subs = [gr.subspace_from_graph(rng.standard_normal((2, 2)), pol)
            for _ in range(4)]
    inp = tmp_path / "dv.json"
    inp.write_text(json.dumps({"subspaces": [subspace_json(w) for w in subs]}))
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    identical = (cli.run("dv", str(inp), out1) == 0
                 and cli.run("dv", str(inp), out2) == 0
                 and Path(out1).read_bytes() == Path(out2).read_bytes())

    corpus = [
        "", "{", "[]", "null", '"string"', '{"subspaces": 7}',
        '{"subspaces": []}', '{"subspaces": [null, null, null, null]}',
        '{"subspaces": [{"basis": {"rows": -1, "cols": 0, "data": []}}]}',
        '{"a": {"rows": 1, "cols": 1, "data": [["oops"]]}}',
        '{"system": {}, "w0": {"rows": 1, "cols": 1, "data": [[0]]}}',
        json.dumps({"subspaces": [subspace_json(subs[0])] * 4}),
    ]
    survived = 0
    for i, raw in enumerate(corpus):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(raw)
        for verb in ("dv", "angle", "riccati", "flow"):
            try:
                status = cli.run(verb, str(bad), str(tmp_path / "bad_out.json"))
            except Exception:  # any escape is a robustness failure
                break
            if status not in (0, 2, 3):
                break
        else:
            survived += 1
    passed = identical and survived == len(corpus)
    report(12, "CLI reports are deterministic and malformed input never crashes",
           passed, f"byte-identical reports: {identical}, "
                   f"{survived}/{len(corpus)} malformed inputs handled")
