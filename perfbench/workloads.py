"""The four workloads: how each builds its problems from a Generator, how a
problem calls the program, and what its outcome must be.

Library calls go through attributes of the ``opcross`` package looked up at
call time, so the tracer's wrappers (patched onto those attributes) see them.
"""

import functools
import json
import os
import subprocess
import sys

import numpy as np

import oracles as orc
from gen import graph_basis, matrix_json

STEPS = 1000
POLE_T1 = 1.5707963
CLI_PATTERN = ("dv", "angle", "cocycle", "riccati", "flow", "malformed", "singular")


class Problem:
    """One call into the program and the outcome it must have.

    ``check(output)`` decides a returned value; ``expect`` names the
    exception class the call must raise instead.
    """

    __slots__ = ("kind", "call", "check", "expect")

    def __init__(self, kind, call, check=None, expect=None):
        self.kind, self.call, self.check, self.expect = kind, call, check, expect

    def passes(self, out, err):
        if self.expect is not None:
            return isinstance(err, self.expect)
        return err is None and bool(self.check(out))


# --- in-process dense problems --------------------------------------------

def _subspaces(oc, ts):
    return [oc.Subspace(graph_basis(t)) for t in ts]


def _dv(gen, oc, k, form):
    ts = gen.charts(k, 4, invertible=form == "dv_mixed")
    ref = functools.cache(lambda: orc.chart_spectrum(ts))
    if form == "dv_composition":
        subs = _subspaces(oc, ts)
        call = lambda: oc.dv_composition(*subs)
    elif form == "dv_matrix":
        call = lambda: oc.dv_matrix(*ts)
    else:
        args = (ts[0], np.linalg.inv(ts[1]), ts[2], np.linalg.inv(ts[3]))
        call = lambda: oc.dv_mixed(*args)
    return Problem(form, call,
                   lambda out: orc.spectral_gap(out.spectrum, ref()) <= orc.SPECTRUM_TOL)


def _angle(gen, oc, k):
    a, b = gen.charts(k, 2)
    ref = functools.cache(lambda: orc.cos2_principal(a, b))
    return Problem("operator_angle", lambda: oc.operator_angle(a, b),
                   lambda out: np.max(np.abs(np.sort(out.spectrum.real) - ref()))
                   <= orc.ANGLE_TOL)


def _cocycle(gen, oc, k):
    subs = _subspaces(oc, gen.charts(k, 5))
    return Problem("cocycle_product", lambda: oc.cocycle_product(*subs),
                   lambda out: np.linalg.norm(out - np.eye(k)) <= orc.COCYCLE_TOL)


def _equiv(gen, oc, n, equivalent):
    p, q, s, t = (oc.Subspace(b) for b in gen.angle_pairs(n, equivalent))
    return Problem("pair_equivalent", lambda: oc.pair_equivalent(p, q, s, t, tol=1e-6),
                   lambda out: out is equivalent)


def _inadmissible(gen, oc, k, which):
    """P1 = P2 (no polarization), T1 = T2 (singular chart difference), or
    Q1 = P1 in the cocycle chain."""
    from opcross.errors import NotPolarization, Singular
    if which == 0:
        subs = _subspaces(oc, gen.charts(k, 4))
        return Problem("error.dv_composition", lambda: oc.dv_composition(
            subs[0], subs[0], subs[2], subs[3]), expect=NotPolarization)
    if which == 1:
        ts = gen.charts(k, 4)
        return Problem("error.dv_matrix", lambda: oc.dv_matrix(ts[0], ts[0], ts[2], ts[3]),
                       expect=Singular)
    subs = _subspaces(oc, gen.charts(k, 5))
    return Problem("error.cocycle_product", lambda: oc.cocycle_product(
        subs[0], subs[1], subs[0], subs[3], subs[4]), expect=NotPolarization)


def _flow(gen, oc, n, power):
    k = n // 2
    ts = gen.charts(k, 4)
    times = np.linspace(0.0, 1.0, 11)
    scenario = oc.FlowScenario(np.eye(n, k=-power), _subspaces(oc, ts), times)
    ref = functools.cache(lambda: orc.chart_spectrum(ts))

    def check(rows):
        spectra = [r[1] for r in rows]
        return (len(rows) == len(times)
                and orc.spectral_gap(spectra[0], ref()) <= orc.SPECTRUM_TOL
                and orc.conserved(spectra, [r[2] for r in rows], [r[3] for r in rows]))

    return Problem("spectrum_along_flow", lambda: oc.spectrum_along_flow(scenario), check)


def dense_round(gen, oc, index, sizes, with_errors, flow_n=None):
    probs = []
    for i, n in enumerate(sizes):
        k = n // 2
        probs += [_dv(gen, oc, k, form) for form in ("dv_composition", "dv_matrix", "dv_mixed")]
        probs += [_angle(gen, oc, k), _cocycle(gen, oc, k),
                  _equiv(gen, oc, n, (index + i) % 2 == 0)]
    if flow_n:
        probs.append(_flow(gen, oc, flow_n, 1 + index % 3))
    if with_errors:
        probs.append(_inadmissible(gen, oc, sizes[index % len(sizes)] // 2, index % 3))
    return probs


# --- trajectories ----------------------------------------------------------

def _system(oc, a, b):
    return oc.HamiltonianSystem(oc.MatrixPolynomial(a), oc.MatrixPolynomial(b),
                                symmetric_a=True)


def _grid_ok(ts, t1):
    return len(ts) == STEPS + 1 and np.max(np.abs(ts - np.linspace(0.0, t1, STEPS + 1))) <= 1e-12


def _riccati(gen, oc, dim):
    a, b, w0, t1 = gen.poly_system(dim)
    sys_ = _system(oc, a, b)
    ref = functools.cache(lambda: orc.riccati_reference(a, b, w0, np.linspace(0.0, t1, STEPS + 1)))

    def call():
        ts, ws = oc.integrate_riccati(sys_, w0, 0.0, t1, STEPS)
        jets = oc.curve_from_riccati(ts, ws, sys_.a, np.zeros((dim, dim)), np.eye(dim),
                                     b_poly=sys_.b)
        return ts, ws, jets

    def check(out):
        ts, ws, jets = out
        return (_grid_ok(ts, t1)
                and max(np.linalg.norm(w - r) for w, r in zip(ws, ref())) <= orc.TRAJECTORY_TOL
                and orc.schwarz_residual(jets, a, b) <= orc.TRAJECTORY_TOL)

    return Problem(f"riccati+curve.{dim}", call, check)


def _hamiltonian(gen, oc, dim):
    a, b, w0, t1 = gen.poly_system(dim)
    sys_ = _system(oc, a, b)
    x0 = oc.PhasePoint(np.eye(dim), w0)
    ref = functools.cache(lambda: orc.riccati_reference(a, b, w0, np.linspace(0.0, t1, STEPS + 1)))

    def check(out):
        ts, points = out
        return _grid_ok(ts, t1) and max(
            np.linalg.norm(np.linalg.solve(pt.q.T, pt.p.T).T - r)
            for pt, r in zip(points, ref())) <= orc.TRAJECTORY_TOL

    return Problem(f"hamiltonian.{dim}", lambda: oc.integrate_hamiltonian(sys_, x0, 0.0, t1, STEPS),
                   check)


def _tan(gen, oc, dim):
    b, w0, t1 = gen.tan_system(dim)
    sys_ = _system(oc, [np.zeros((dim, dim))], [b * np.eye(dim)])

    def check(out):
        ts, ws = out
        return _grid_ok(ts, t1) and np.max(np.abs(np.array(ws) - orc.tan_solution(b, w0, ts))) \
            <= orc.TAN_TOL

    return Problem(f"riccati_tan.{dim}", lambda: oc.integrate_riccati(sys_, w0, 0.0, t1, STEPS),
                   check)


def pole_system(oc):
    """W' = -1 - W^2, W(0) = 0: W = -tan t, with a pole at pi/2."""
    return _system(oc, [np.zeros((1, 1))], [np.eye(1)])


def pole_rel_err(oc):
    """Relative error of integrate_riccati at t = 1.5707963 (1000 steps)
    against -tan t; deterministic."""
    _, ws = oc.integrate_riccati(pole_system(oc), np.zeros((1, 1)), 0.0, POLE_T1, STEPS)
    exact = -np.tan(POLE_T1)
    return float(abs(ws[-1][0, 0] - exact) / abs(exact))


def _pole(oc):
    sys_ = pole_system(oc)
    # The result's accuracy is reported as riccati_pole_rel_err; the outcome
    # expected here is that the call returns a finite trajectory.
    return Problem("riccati_pole", lambda: oc.integrate_riccati(sys_, np.zeros((1, 1)), 0.0,
                                                                POLE_T1, STEPS),
                   lambda out: bool(np.all(np.isfinite(np.array(out[1])))))


def trajectory_round(gen, oc):
    # Seven kinds, an odd count, so the median latency falls inside one
    # kind's cluster instead of on the gap between two.
    return [_riccati(gen, oc, 2), _riccati(gen, oc, 6), _hamiltonian(gen, oc, 2),
            _hamiltonian(gen, oc, 6), _tan(gen, oc, 2), _tan(gen, oc, 6), _pole(oc)]


# --- one CLI process per problem -------------------------------------------

class CliRunner:
    """Runs one opcross command per process through cli_run.py (traced when
    ``tracer`` is set) and records what the processes used."""

    def __init__(self, root, tmp, env):
        self.root, self.tmp, self.env = root, tmp, env
        self.tracer = None           # set: run traced and merge into it
        self.peak_rss_kb = 0
        self.report_bytes = 0
        self.csv_bytes = 0
        self.outputs = 0

    def invoke(self, verb, inp, out):
        _take(out)  # files an unchecked warm-up left, so a check sees only this call's
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_run.py"),
               out + ".stats", "plain" if self.tracer is None else "trace",
               verb, "--in", inp, "--out", out]
        return subprocess.run(cmd, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode

    def collect(self, out):
        """Read and delete the files one invocation wrote."""
        files = _take(out)
        stats = json.loads(files.pop(".stats"))
        self.peak_rss_kb = max(self.peak_rss_kb, stats["peak_rss_kb"])
        if stats["trace"] is not None:
            self.tracer.merge(stats["trace"])
        self.outputs += 1
        self.report_bytes += len(files.get("", b""))
        self.csv_bytes += len(files.get(".csv", b""))
        return files


def _take(out):
    """Read and delete a report, its CSV sibling and cli_run.py's stats file,
    keyed by "", ".csv" and ".stats"."""
    files = {}
    paths = {"": out, ".csv": os.path.splitext(out)[0] + ".csv", ".stats": out + ".stats"}
    for suffix, path in paths.items():
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[suffix] = fh.read()
            os.remove(path)
    return files


def _write(path, payload):
    with open(path, "w") as fh:
        fh.write(payload if isinstance(payload, str) else json.dumps(payload))


def _spectrum(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def _cli_problem(gen, runner, index, slot):
    """Write one CLI input file; returns the verb, the input and report
    paths, the expected exit status and a check of the report's values."""
    verb = {"malformed": "dv", "singular": "dv"}.get(slot, slot)
    inp = os.path.join(runner.tmp, f"in_{index}_{slot}.json")
    out = os.path.join(runner.tmp, f"out_{index}_{slot}.json")
    status, value_ok = 0, None
    if slot in ("dv", "singular"):
        ts = gen.charts(3, 4)
        bases = [graph_basis(t) for t in ts]
        if slot == "singular":
            bases[1], status = bases[0], 3
        else:
            value_ok = lambda rep, csv: orc.spectral_gap(
                _spectrum(rep["results"]["spectrum"]), orc.chart_spectrum(ts)) <= orc.SPECTRUM_TOL
        _write(inp, {"subspaces": [{"basis": matrix_json(b)} for b in bases]})
    elif slot == "malformed":
        _write(inp, '{"subspaces": [{"basis": {"rows": 2, "cols": 1, "data": [[1.0], [')
        status = 2
    elif slot == "angle":
        a, b = gen.charts(3, 2)
        _write(inp, {"a": matrix_json(a), "b": matrix_json(b)})
        value_ok = lambda rep, csv: np.max(np.abs(np.sort(
            _spectrum(rep["results"]["spectrum"]).real) - orc.cos2_principal(a, b))) <= orc.ANGLE_TOL
    elif slot == "cocycle":
        bases = [graph_basis(t) for t in gen.charts(3, 5)]
        _write(inp, {"p": [{"basis": matrix_json(b)} for b in bases[:2]],
                     "q": [{"basis": matrix_json(b)} for b in bases[2:]]})
        value_ok = lambda rep, csv: np.linalg.norm(np.array(
            rep["results"]["product"]["data"]) - np.eye(3)) <= orc.COCYCLE_TOL
    elif slot == "riccati":
        b, w0, t1 = gen.tan_system(2)
        _write(inp, {"system": {"dim": 2, "A": [matrix_json(np.zeros((2, 2)))],
                                "B": [matrix_json(b * np.eye(2))], "symmetric_A": True},
                     "w0": matrix_json(w0), "t0": 0.0, "t1": t1, "steps": STEPS})
        value_ok = lambda rep, csv: (
            csv.count(b"\n") == STEPS + 1
            and np.max(np.abs(np.array(rep["results"]["w_final"]["data"])
                              - orc.tan_solution(b, w0, [t1])[0])) <= orc.TAN_TOL)
    elif slot == "flow":
        n = 12
        ts = gen.charts(n // 2, 4)
        _write(inp, {"generator": matrix_json(np.eye(n, k=-(1 + index % 3))),
                     "initials": [{"basis": matrix_json(graph_basis(t))} for t in ts],
                     "times": [float(t) for t in np.linspace(0.0, 1.0, 11)]})

        def value_ok(rep, csv):
            rows = rep["results"]["rows"]
            spectra = [_spectrum(r["spectrum"]) for r in rows]
            traces = [[complex(*v) for v in r["traces"]] for r in rows]
            dets = [complex(*r["det"]) if isinstance(r["det"], list) else r["det"] for r in rows]
            return (len(rows) == 11 and csv.count(b"\n") == 11
                    and orc.spectral_gap(spectra[0], orc.chart_spectrum(ts)) <= orc.SPECTRUM_TOL
                    and orc.conserved(spectra, traces, dets))
    return verb, inp, out, status, value_ok


def cli_problem(gen, runner, index, slot):
    verb, inp, out, status, value_ok = _cli_problem(gen, runner, index, slot)

    @functools.cache
    def reference():
        """Report (and CSV) of an in-process cli.run on the same input."""
        import contextlib
        import io
        from opcross import cli
        ref_out = out + ".ref.json"
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(verb, inp, ref_out)
        return code, _take(ref_out)

    def check(code):
        files = runner.collect(out)
        ref_code, ref_files = reference()
        if code != status or ref_code != status or files != ref_files:
            return False
        return value_ok is None or value_ok(json.loads(files[""]), files.get(".csv", b""))

    return Problem(f"cli.{slot}", lambda: runner.invoke(verb, inp, out), check)


def cli_round(gen, runner, index):
    return [cli_problem(gen, runner, index, slot) for slot in CLI_PATTERN]
