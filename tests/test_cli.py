import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opcross import __version__, cli, crossratio, flows, grassmann, numerics
from opcross.errors import Overflow
from conftest import (LOADED_SCIPY, flow_json, fresh_python, overflowing_dv_config,
                      overflowing_flow_scenario, sampled_symmetric_b, subspace_json,
                      unequal_sharing_config)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def dv_input(seed=0):
    rng = np.random.default_rng(seed)
    pol = grassmann.standard_polarization(4, 2)
    subs = [grassmann.subspace_from_graph(rng.standard_normal((2, 2)), pol)
            for _ in range(4)]
    return {"subspaces": [subspace_json(w) for w in subs]}


def oscillator_json():
    return {"dim": 1, "A": [[[0.0]]], "B": [[[1.0]]], "symmetric_A": True}


def trajectory_input(system, t1, steps, **state):
    """A riccati or hamiltonian input over [0, t1]: the system's JSON and the initial matrices."""
    return {"system": system, "t0": 0.0, "t1": t1, "steps": steps,
            **{k: numerics.matrix_to_json(v) for k, v in state.items()}}


def oscillator_input(verb, t1=1.0, steps=10, **system):
    """A riccati input from W0 = 0, or a hamiltonian one from (q0, p0) = (1, 0), of
    W' = -1 - W^2 (q'' = -q) over [0, t1], the system's fields updated by system."""
    state = {"w0": [[0.0]]} if verb == "riccati" else {"q0": [[1.0]], "p0": [[0.0]]}
    return trajectory_input({**oscillator_json(), **system}, t1, steps, **state)


def subspaces(*specs):
    """The JSON of grassmann.random_subspace(ambient, dim, seed) for each (ambient, dim, seed)."""
    return [subspace_json(grassmann.random_subspace(*spec)) for spec in specs]


def stderr_line(status, error):
    """The one line a failed run prints on stderr, for its report's error."""
    return ("numerical error: " if status == 3 else "error: ") + error + "\n"


def run_to_files(tmp_path, verb, payload, name="in.json", seed=0, tol=None):
    inp = write_json(tmp_path / name, payload)
    out = str(tmp_path / "out.json")
    status = cli.run(verb, inp, out, seed=seed, tol=tol)
    text = Path(out).read_text() if os.path.exists(out) else ""
    return status, text


def test_dv_verb_end_to_end(tmp_path):
    # Planes of R^4, and seeded subspaces of R^5 of dimensions 3, 2, 3, 2, which dv
    # takes as (P2, P1; P4, P3): a 2 x 2 operator, as many traces as eigenvalues.
    unequal = [grassmann.random_subspace(5, k, seed) for seed, k in enumerate((3, 2, 3, 2))]
    for payload in ({"subspaces": [subspace_json(w) for w in unequal]}, dv_input()):
        status, text = run_to_files(tmp_path, "dv", payload)
        assert status == 0
        report = json.loads(text)
        assert report["verb"] == "dv"
        assert len(report["input_digest"]) == 64
        spec = report["results"]["spectrum"]
        assert len(spec) == len(report["results"]["traces"]) == 2 and all(len(z) == 2 for z in spec)


def test_reports_are_byte_identical(tmp_path):
    inp = write_json(tmp_path / "in.json", dv_input())
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli.run("dv", inp, out1) == 0
    assert cli.run("dv", inp, out2) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def _angle(a, b):
    return {"a": numerics.matrix_to_json(a), "b": numerics.matrix_to_json(b)}


_DV = dv_input()["subspaces"]
_EYE2 = numerics.matrix_to_json(np.eye(2))
_BOOLEANS = trajectory_input({"A": [[[0.0]]], "B": [[[0.0]]]}, 1.0, 10, q0=[[1.0]], p0=[[0.0]])
_SKEW = {"dim": 2, "A": [[[0.0, 1.0], [-1.0, 0.0]]], "B": [np.eye(2).tolist()]}
_TAN_SAMPLES = [numerics.matrix_to_json([[float(np.tan(k * 0.01))]]) for k in range(-3, 4)]
_HADAMARD = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
_EQUIV = {"first": _DV[:2], "second": dv_input(1)["subspaces"][:2]}

# One input, one verdict: (id, verb, input, status, the report's exact error or None
# for exit 0[, tol]).  The input is a JSON object, raw text, or a function that
# builds it when its row runs.
_VERDICTS = [
    # No JSON object, or fields the readers reject: exit 2.
    ("dv-not-json", "dv", "not json at all {", 2,
     "ValidationError: Expecting value: line 1 column 1 (char 0)"),
    ("dv-json-list", "dv", "[1, 2, 3]", 2, "ValidationError: input must be a JSON object"),
    ("angle-nested-too-deeply", "angle", '{"a": ' + "[" * 100000 + "]" * 100000 + "}", 2,
     "ValidationError: the input JSON is nested too deeply"),
    ("dv-missing-field", "dv", {}, 2, "ValidationError: missing field 'subspaces'"),
    ("dv-no-subspaces", "dv", {"subspaces": []}, 2,
     "ValidationError: subspaces must be a list of 4 entries"),
    ("dv-three-subspaces", "dv", {"subspaces": _DV[:3]}, 2,
     "ValidationError: subspaces must be a list of 4 entries"),
    ("dv-string-entry", "dv",
     {"subspaces": [{"basis": {"rows": 2, "cols": 1, "data": [[1.0], ["x"]]}}] * 4}, 2,
     "ValidationError: data entry must be a finite float, got 'x'"),
    ("equiv-null-pair", "equiv", {"first": _DV[:2], "second": None}, 2,
     "ValidationError: second must be a list of 2 entries"),
    ("cocycle-two-qs", "cocycle", {"p": _DV[:2], "q": _DV[:2]}, 2,
     "ValidationError: q must be a list of 3 entries"),
    ("schwarz-samples-not-a-list", "schwarz", {"samples": 1, "h": 0.1}, 2,
     "ValidationError: samples must be a list"),
    ("flow-initials-not-a-list", "flow", {"generator": _DV[0]["basis"], "initials": {}, "times": [0.0]},
     2, "ValidationError: initials must be a list"),
    ("angle-short-data-row", "angle", {"a": {"rows": 1, "cols": 1, "data": [None]}, "b": None}, 2,
     "ValidationError: data[0] must be a list of 1 entries"),
    ("riccati-null-coefficient", "riccati", {"system": {"A": [[None]], "B": [[[1.0]]]}, "w0": None},
     2, "ValidationError: coefficient[0] must be a list"),
    # dim P1 = dim P2 with a P3 of another dim.
    ("dv-dims-P1-P3", "dv", {"subspaces": subspaces((4, 2, 1), (4, 2, 2), (4, 1, 3), (4, 2, 2))},
     2, "ValidationError: need dim P1 = dim P3 and dim P2 = dim P4"),
    # A JSON boolean is no number, and a string no time.
    ("hamiltonian-booleans-base", "hamiltonian", _BOOLEANS, 0, None),
    ("hamiltonian-boolean-entry", "hamiltonian",
     {**_BOOLEANS, "system": {"A": [[[True]]], "B": [[[0.0]]]}}, 2,
     "ValidationError: coefficient entry must be a finite float, got True"),
    ("hamiltonian-boolean-rows", "hamiltonian",
     {**_BOOLEANS, "system": {"A": [[[0.0]]], "B": [{"rows": True, "cols": 1, "data": [[0.0]]}]}},
     2, "ValidationError: rows must be a finite int, got True"),
    ("hamiltonian-boolean-dim", "hamiltonian",
     {**_BOOLEANS, "system": {"dim": True, "A": [[[0.0]]], "B": [[[0.0]]]}}, 2,
     "ValidationError: dim must be a finite int, got True"),
    ("hamiltonian-boolean-t1", "hamiltonian", {**_BOOLEANS, "t1": True}, 2,
     "ValidationError: t1 must be a finite float, got True"),
    ("hamiltonian-boolean-steps", "hamiltonian", {**_BOOLEANS, "steps": True}, 2,
     "ValidationError: steps must be a finite int, got True"),
    ("hamiltonian-string-t0", "hamiltonian", {**_BOOLEANS, "t0": "0"}, 2,
     "ValidationError: t0 must be a finite float, got '0'"),
    ("dv-boolean-dim", "dv", {"subspaces": [{**_DV[0], "dim": True}, *_DV[1:]]}, 2,
     "ValidationError: dim must be a finite int, got True"),
    # symmetric_A is true, false or absent (true); a skew A is no symmetric one.
    *[(f"riccati-symmetric-A-{name}", "riccati", oscillator_input("riccati", symmetric_A=value), 2,
       f"ValidationError: symmetric_A must be true or false, got {value!r}")
      for name, value in (("x", "x"), ("list", [1]), ("1", 1), ("0", 0), ("empty", ""), ("null", None))],
    ("riccati-symmetric-A-true", "riccati", oscillator_input("riccati"), 0, None),
    ("riccati-symmetric-A-false", "riccati", oscillator_input("riccati", symmetric_A=False), 0, None),
    ("riccati-symmetric-A-absent", "riccati",
     trajectory_input({"dim": 1, "A": [[[0.0]]], "B": [[[1.0]]]}, 1.0, 10, w0=[[0.0]]), 0, None),
    ("riccati-skew-A-as-symmetric", "riccati",
     trajectory_input({**_SKEW, "symmetric_A": True}, 1.0, 10, w0=np.zeros((2, 2))), 2,
     "ValidationError: symmetric_a is set but A(t) is not symmetric"),
    ("riccati-skew-A", "riccati",
     trajectory_input({**_SKEW, "symmetric_A": False}, 1.0, 10, w0=np.zeros((2, 2))), 0, None),
    ("riccati-non-symmetric-B", "riccati",
     trajectory_input({"dim": 2, "A": [np.zeros((2, 2)).tolist()],
                       "B": [c.tolist() for c in sampled_symmetric_b()]}, 1.0, 10, w0=np.zeros((2, 2))),
     2, "ValidationError: B(t) must be symmetric"),
    # Time grids: no steps, more than MAX_STEPS (rejected before a step list of that
    # length is allocated), and finite bounds whose step (t1 - t0) / steps overflows.
    ("riccati-zero-steps", "riccati", oscillator_input("riccati", steps=0), 2,
     "ValidationError: steps must be >= 1"),
    *[(f"{verb}-too-many-steps", verb, oscillator_input(verb, steps=10**15), 2,
       "ValidationError: steps must be at most MAX_STEPS = 1000000, got 1000000000000000")
      for verb in ("riccati", "hamiltonian")],
    *[(f"{verb}-time-grid-not-finite", verb, {**oscillator_input(verb, 1e308), "t0": -1e308}, 2,
       "ValidationError: the time grid must be finite: t0 = -1e+308, t1 = 1e+308, step = inf")
      for verb in ("riccati", "hamiltonian")],
    # Sizes that disagree: a start of another size than its system, a dim below 1
    # (no coefficients given, so none fixes the size), and samples of two shapes.
    ("riccati-w0-size", "riccati", trajectory_input(_SKEW, 1.0, 10, w0=np.zeros((3, 3))), 2,
     "ValidationError: the initial state is 3x3 but the system is 2x2"),
    ("hamiltonian-start-size", "hamiltonian",
     trajectory_input(_SKEW, 1.0, 10, q0=[[1.0]], p0=[[0.0]]), 2,
     "ValidationError: the initial state is 1x1 but the system is 2x2"),
    *[(f"riccati-dim-{name}", "riccati", trajectory_input({"dim": dim}, 1.0, 10, w0=[[0.0]]), 2,
       f"ValidationError: dim must be >= 1, got {dim}")
      for name, dim in (("zero", 0), ("negative", -1))],
    ("schwarz-mixed-samples", "schwarz", {"samples": _TAN_SAMPLES[:6] + [_EYE2], "h": 0.01}, 2,
     "ValidationError: samples must share one shape, got (1, 1) and (2, 2)"),
    # No polarization (one plane four times, or dims that do not sum to the ambient
    # dimension), or unequal dimensions whose smaller pair shares a vector: exit 3.
    ("dv-one-plane-four-times", "dv", {"subspaces": subspaces(*[(4, 2, 5)] * 4)}, 3,
     "NotPolarization: stacked basis nearly singular (sigma_min = 2.635e-17)"),
    ("dv-dims-not-summing", "dv", {"subspaces": subspaces(*[(5, 2, seed) for seed in (1, 2, 3, 4)])},
     3, "NotPolarization: dim P1 + dim P2 != ambient dimension"),
    ("dv-unequal-sharing", "dv", {"subspaces": [subspace_json(w) for w in unequal_sharing_config()]},
     3, "DegeneratePosition: the two small subspaces are not in direct sum"),
    ("dv-unequal-sharing-swapped", "dv",
     {"subspaces": [subspace_json(unequal_sharing_config()[i]) for i in (1, 0, 3, 2)]}, 3,
     "DegeneratePosition: the two small subspaces are not in direct sum"),
    # W = -tan t past its pole at pi/2, and W' = -W^2 from W0 = -1, whose pole is the last node.
    ("riccati-past-the-pole", "riccati", oscillator_input("riccati", 2.5, 400), 3,
     "BlowUp: solution blew up near t = 1.575"),
    ("riccati-pole-at-a-node", "riccati",
     trajectory_input({"dim": 1, "A": [[[0.0]]], "B": [[[0.0]]]}, 1.0, 4, w0=[[-1.0]]), 3,
     "BlowUp: solution blew up near t = 1"),
    # Finite, well-formed inputs whose results leave the float range.
    ("riccati-overflowing-B", "riccati",
     trajectory_input({"dim": 2, "A": [np.zeros((2, 2)).tolist()], "B": [(1e300 * np.eye(2)).tolist()]},
                      1.0, 10, w0=np.zeros((2, 2))), 3, "BlowUp: solution blew up near t = 0.1"),
    ("hamiltonian-overflow", "hamiltonian",
     trajectory_input({"dim": 1, "A": [[[300.0]]], "B": [[[0.0]]]}, 10.0, 1000, q0=[[1.0]], p0=[[0.0]]),
     3, "Overflow: the Hamiltonian state overflowed at t = 2.37"),
    ("dv-overflowing-traces", "dv",
     lambda: {"subspaces": [subspace_json(w) for w in overflowing_dv_config()]},
     3, "Overflow: tr M^63 is not finite"),
    ("schwarz-overflowing-jet", "schwarz",
     {"jet": {"z": _EYE2, "z1": _EYE2, "z2": numerics.matrix_to_json(1e200 * np.eye(2)), "z3": _EYE2}},
     3, "Overflow: the Schwarzian is not finite"),
    # A sample step is nonzero; h ** 3 may overflow (h = 1e300) or underflow (h = 1e-300),
    # and neither is a program fault.
    ("schwarz-zero-step", "schwarz",
     {"samples": [numerics.matrix_to_json([[float(k)]]) for k in range(7)], "h": 0}, 2,
     "ValidationError: h must be a finite nonzero step, got 0.0"),
    ("schwarz-huge-step", "schwarz", {"samples": _TAN_SAMPLES, "h": 1e300}, 0, None),
    ("schwarz-tiny-step", "schwarz", {"samples": _TAN_SAMPLES, "h": 1e-300}, 3,
     "Overflow: the finite-difference jet is not finite"),
    # A = 1e200 I: I + A*A is not finite, where the chart form would give the spectrum
    # [0, 0] for the answer [0.5, 0.5].  I + A^T A of A = 1e8 J rounds to an exactly
    # singular matrix: numpy's LinAlgError, a ValueError subclass, is no malformed input.
    ("angle-overflowing-entries", "angle", _angle(np.full((2, 2), 1e200), np.eye(2)), 3,
     "Overflow: the factor I + A*A or I + B*B is not finite"),
    ("angle-overflowing-A", "angle", _angle(1e200 * np.eye(2), np.eye(2)), 3,
     "Overflow: the factor I + A*A or I + B*B is not finite"),
    ("angle-overflowing-B", "angle", _angle(np.eye(2), 1e155 * np.eye(2)), 3,
     "Overflow: the factor I + A*A or I + B*B is not finite"),
    ("angle-A-near-the-limit", "angle", _angle(1e154 * np.eye(2), np.eye(2)), 0, None),
    ("angle-singular-gram", "angle", _angle(np.full((2, 2), 1e8), np.eye(2)), 3,
     "LinAlgError: Singular matrix"),
    # exp(tM) is finite at t = 1, and the product exp(tM) W overflows; t M = 1e308 * 10
    # leaves the float range before exp(tM) is formed.
    ("flow-overflowing-basis", "flow",
     {"generator": numerics.matrix_to_json(706.8 * np.eye(4) + np.ones((4, 4))), "times": [0.0, 1.0],
      "initials": [{"basis": numerics.matrix_to_json(_HADAMARD[:, c])}
                   for c in ([0, 1], [2, 3], [0, 2], [1, 3])]},
     3, "Overflow: the flowed basis is not finite at t = 1"),
    ("flow-overflowing-exponent", "flow",
     flow_json(flows.FlowScenario(10.0 * np.eye(4, k=-1),
                                  [grassmann.Subspace(np.eye(4)[:, c])
                                   for c in ([0, 1], [2, 3], [0, 2], [1, 3])], [0.0, 1e308])),
     3, "Overflow: the exponent tM is not finite at t = 1e+308"),
    # equiv's decision tolerance is a number >= 0.
    ("equiv-tol-nan", "equiv", _EQUIV, 2,
     "ValidationError: the decision tolerance must be a finite number >= 0, got nan", float("nan")),
    ("equiv-tol-negative", "equiv", _EQUIV, 2,
     "ValidationError: the decision tolerance must be a finite number >= 0, got -1.0", -1.0),
    ("equiv-tol-zero", "equiv", _EQUIV, 0, None, 0.0),
]


@pytest.mark.parametrize("verb, given, status, error, tol",
                         [pytest.param(*row, *[None] * (5 - len(row)), id=name)
                          for name, *row in _VERDICTS])
def test_one_input_one_verdict(tmp_path, capsys, verb, given, status, error, tol):
    # Every warning an error: a numpy warning would end the call.
    given = given() if callable(given) else given
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    inp.write_text(given if isinstance(given, str) else json.dumps(given))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(verb, str(inp), str(out), tol=tol) == status
    report = json.loads(out.read_text())
    assert report.get("error") == error
    if error is not None:
        assert report["results"] == {}
    assert capsys.readouterr().err == ("" if error is None else stderr_line(status, error))
    assert set(os.listdir(tmp_path)) <= {"in.json", "out.json", "out.csv"}


def test_missing_input_file(tmp_path):
    assert cli.run("dv", str(tmp_path / "nope.json"), None) == 2
    assert cli.run("dv", None, None) == 2


def test_riccati_verb_writes_csv(tmp_path):
    status, text = run_to_files(tmp_path, "riccati", oscillator_input("riccati", 1.0, 200))
    assert status == 0
    report = json.loads(text)
    assert abs(report["results"]["w_final"]["data"][0][0] + np.tan(1.0)) < 1e-6
    rows = (tmp_path / "out.csv").read_text().strip().split("\n")
    assert len(rows) == report["results"]["steps"] + 1
    t, w = rows[-1].split(",")
    assert abs(float(t) - 1.0) < 1e-12


_SYSTEM_2 = {"dim": 2, "A": [[[0.1, 0.2], [0.2, -0.1]]], "B": [[[-1.0, 0.3], [0.3, -2.0]]]}
_SYSTEM_2T = {"dim": 2, "A": [[[0.1, 0.2], [0.2, -0.1]], [[0.3, -0.1], [-0.1, 0.2]]],
              "B": [[[-1.0, 0.3], [0.3, -2.0]], [[0.4, 0.1], [0.1, -0.5]]], "symmetric_A": True}


@pytest.mark.parametrize("system", [_SYSTEM_2, _SYSTEM_2T], ids=["constant", "time-dependent"])
def test_riccati_w_is_the_hamiltonian_p_q_inverse(tmp_path, system):
    # 1000 RK4 steps of a 2 x 2 system, constant or with A(t) = A0 + A1 t (symmetric)
    # and B(t) = B0 + B1 t (B negative definite at t = 0, so W has no pole): one CSV
    # row per node, and the riccati W at t1 is the hamiltonian run's p q^-1 there.
    w0, results = np.diag([0.1, 0.2]), {}
    for verb, state in (("riccati", {"w0": w0}), ("hamiltonian", {"q0": np.eye(2), "p0": w0})):
        status, text = run_to_files(tmp_path, verb, trajectory_input(system, 1.0, 1000, **state))
        assert status == 0, verb
        assert (tmp_path / "out.csv").read_text().count("\n") == 1001, verb
        results.update(json.loads(text)["results"])
    w, q, p = (np.array(results[k]["data"]) for k in ("w_final", "q_final", "p_final"))
    pq = np.linalg.solve(q.T, p.T).T
    assert np.linalg.norm(w - pq) <= 1e-12 * np.linalg.norm(pq)


def test_riccati_verb_near_the_pole(tmp_path):
    # W' = -1 - W^2, W0 = 0 up to t = 1.5707963, 2.7e-8 short of the pole of W = -tan t:
    # w_final within 3.2e-6 relative of -tan t1 (the benchmark's riccati_pole_rel_err).
    status, text = run_to_files(tmp_path, "riccati", oscillator_input("riccati", 1.5707963, 1000))
    assert status == 0
    w, exact = json.loads(text)["results"]["w_final"]["data"][0][0], -np.tan(1.5707963)
    assert abs(w - exact) <= 3.2e-6 * abs(exact), abs(w - exact) / abs(exact)


def test_complex_trajectory_csv_keeps_imaginary_parts(tmp_path):
    # A complex W0 makes a complex trajectory: each entry takes two CSV
    # columns, re then im, as the report's [re, im] pairs list it.
    n = 2
    payload = {"system": {"dim": n, "A": [[[0.1, 0.2], [0.2, -0.1]]],
                          "B": [[[-1.0, 0.3], [0.3, -2.0]]]},
               "w0": {"rows": n, "cols": n, "data": [[[0.1, 0.05], 0.0], [0.0, [0.2, -0.1]]]},
               "t0": 0.0, "t1": 1.0, "steps": 50}
    status, text = run_to_files(tmp_path, "riccati", payload)
    assert status == 0
    rows = [row.split(",") for row in (tmp_path / "out.csv").read_text().splitlines()]
    assert len(rows) == 51 and {len(row) for row in rows} == {1 + 2 * n * n}
    w_final = json.loads(text)["results"]["w_final"]["data"]
    assert [float(v) for v in rows[-1][1:]] == [x for row in w_final for entry in row for x in entry]
    assert any(float(v) != 0.0 for v in rows[-1][2::2])


def test_non_finite_result_exit_3_and_atomic_report(tmp_path, monkeypatch):
    monkeypatch.setitem(cli._HANDLERS, "angle",
                        lambda data, seed, tol: ({"x": float("inf")}, None))
    out = tmp_path / "out.json"
    out.write_text('{"stale": "report of an earlier run"}\n')
    assert cli.run("angle", write_json(tmp_path / "in.json", {}), str(out)) == 3
    report = json.loads(out.read_text())
    assert report["error"].startswith("Overflow") and "stale" not in report
    assert sorted(os.listdir(tmp_path)) == ["in.json", "out.json"]


def test_non_finite_matrix_in_a_report_exit_3(tmp_path, monkeypatch):
    monkeypatch.setitem(cli._HANDLERS, "angle",
                        lambda data, seed, tol: ({"m": np.inf * np.ones((2, 2))}, None))
    status, text = run_to_files(tmp_path, "angle", {})
    assert status == 3 and json.loads(text)["error"].startswith("Overflow")


def test_failed_write_keeps_the_old_report(tmp_path, monkeypatch):
    out = tmp_path / "out.json"
    out.write_text("old report\n")

    def no_space(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(cli.os, "replace", no_space)
    assert cli.run("dv", write_json(tmp_path / "in.json", dv_input()), str(out)) == 2
    assert out.read_text() == "old report\n"
    assert sorted(os.listdir(tmp_path)) == ["in.json", "out.json"]


def test_unwritable_output_exit_2(tmp_path, capsys):
    inp = write_json(tmp_path / "in.json", dv_input())
    assert cli.run("dv", inp, str(tmp_path / "no" / "such" / "r.json")) == 2
    assert "error: cannot write output:" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["in.json"]


def test_an_unwritable_error_report_keeps_its_status(tmp_path, capsys):
    # The numerical error's status, not the failed write's.
    w = grassmann.random_subspace(4, 2, 5)
    inp = write_json(tmp_path / "in.json", {"subspaces": [subspace_json(w)] * 4})
    assert cli.run("dv", inp, str(tmp_path / "no" / "such" / "r.json")) == 3
    assert capsys.readouterr().err.startswith("numerical error: NotPolarization: ")
    assert sorted(os.listdir(tmp_path)) == ["in.json"]


def test_without_out_the_report_goes_to_stdout(tmp_path, capsys):
    status, text = run_to_files(tmp_path, "dv", dv_input())
    capsys.readouterr()
    assert status == 0
    assert cli.run("dv", str(tmp_path / "in.json"), None) == 0
    assert capsys.readouterr().out == text


def cli_process(*args, **env):
    """`python -m opcross.cli args` as its own process, with numpy warnings, if any, on
    its stderr, and the environment variables env set."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, "-m", "opcross.cli", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src, **env})


# A = 0, B = diag(100, -1e6), W0 = 0: W_11 = -10 tan 10t has its pole at pi/20, and
# q_22 = cosh 1000t overflows near t = 0.70.  W' = -I - W^2 at dim 6, W0 = 0: the pole
# of W = -tan t at node 524 of 1000 steps on [0, 3] lies in the constant run's doubled
# chunk of steps 448-959, whose later states are computed too.  A coefficient row of
# null is malformed input.
_POLE = {"dim": 2, "A": [np.zeros((2, 2)).tolist()], "B": [np.diag([100.0, -1e6]).tolist()]}
_TAN6 = {"dim": 6, "A": [np.zeros((6, 6)).tolist()], "B": [np.eye(6).tolist()]}
_NULL_ROW = {"dim": 2, "A": [[[0.0, 0.0], None]], "B": [np.eye(2).tolist()]}


@pytest.mark.parametrize("verb, payload, status, error", [
    ("riccati", trajectory_input(_POLE, 1.0, 10000, w0=np.zeros((2, 2))), 3,
     "BlowUp: solution blew up near t = 0.1571"),
    ("hamiltonian", trajectory_input(_POLE, 1.0, 10000, q0=np.eye(2), p0=np.zeros((2, 2))), 3,
     "Overflow: the Hamiltonian state overflowed at t = 0.7036"),
    ("riccati", trajectory_input(_TAN6, 3.0, 1000, w0=np.zeros((6, 6))), 3,
     "BlowUp: solution blew up near t = 1.572"),
    ("riccati", trajectory_input(_NULL_ROW, 1.0, 10, w0=np.zeros((2, 2))), 2,
     "ValidationError: coefficient[1] must be a list of 2 entries"),
    ("flow", flow_json(overflowing_flow_scenario()), 3,
     "Overflow: the matrix exponential is not finite at t = 1")],
    ids=["riccati-pole", "hamiltonian-overflow", "riccati-tan6", "riccati-null-row", "flow-overflow"])
def test_a_failed_run_prints_its_line_alone_on_stderr(tmp_path, verb, payload, status, error):
    out = tmp_path / "out.json"
    proc = cli_process(verb, "--in", write_json(tmp_path / "in.json", payload), "--out", str(out))
    assert (proc.returncode, proc.stderr) == (status, stderr_line(status, error))
    assert json.loads(out.read_text())["error"] == error


def test_a_line_near_the_float_limit_exit_0_without_warnings(tmp_path):
    # A basis column of norm 2.1e308 (its unscaled R factor leaves the float range)
    # spans the line of its multiple by 2^-1000, and dv reports the same results for
    # both.  Numpy warnings are errors in this process, so one would end in a traceback.
    def line(*col):
        return {"basis": {"rows": 2, "cols": 1, "data": [[c] for c in col]}}

    out, src, results = tmp_path / "out.json", os.path.dirname(os.path.dirname(cli.__file__)), []
    for scale in (1.0, 2.0 ** -1000):
        payload = {"subspaces": [line(1.5e308 * scale, 1.5e308 * scale), line(1.0, 0.0),
                                 line(0.0, 1.0), line(1.0, 2.0)]}
        inp = write_json(tmp_path / "in.json", payload)
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "opcross.cli",
                               "dv", "--in", inp, "--out", str(out)], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stderr) == (0, "")
        results.append(json.loads(out.read_text())["results"])
    assert results[0] == results[1]


def test_planes_near_the_float_limit_exit_0(tmp_path):
    # Finite independent columns whose unscaled QR gives a NaN Q: equiv reports the
    # angles of the plane times 2^-1000, and the pair is equivalent to itself.
    def results(verb, payload):  # exit 0, every warning an error
        inp, out = write_json(tmp_path / "in.json", payload), tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(verb, inp, str(out)) == 0
        return json.loads(out.read_text())["results"]

    line = {"basis": {"rows": 3, "cols": 1, "data": [[0.0], [0.0], [1.0]]}}
    reports = []
    for scale in (1.0, 2.0 ** -1000):
        cols = scale * np.array([[1e308, 1e307], [0.0, -1e308], [0.0, 5e307]])
        plane = {"basis": numerics.matrix_to_json(cols)}
        reports.append(results("equiv", {"first": [plane, line], "second": [plane, line]}))
    assert reports[0] == reports[1] and reports[0]["equivalent"] is True
    # exp(tM) of 709 I + E_01 + E_10 is finite at t = 1, and so is exp(tM) W, whose
    # unscaled QR gave a NaN Q: the flowed spectrum is the initial one.
    e, s = np.eye(4), np.sqrt(0.5)
    gen = 709.0 * np.eye(4)
    gen[0, 1] = gen[1, 0] = 1.0
    bases = [e[:, [0, 2]], e[:, [1, 3]],
             np.column_stack([(e[:, 0] + e[:, 1]) * s, (e[:, 2] + e[:, 3]) * s]),
             np.column_stack([(e[:, 0] - e[:, 1]) * s, (e[:, 3] - e[:, 2]) * s])]
    payload = {"generator": numerics.matrix_to_json(gen), "times": [0.0, 1.0],
               "initials": [{"basis": numerics.matrix_to_json(b)} for b in bases]}
    start, end = (np.array(row["spectrum"]) for row in results("flow", payload)["rows"])
    assert np.abs(end - start).max() <= 1e-12


def test_cli_loads_no_scipy(tmp_path):
    # Importing the package and running any verb, to success or to an error
    # exit, loads no scipy: the package needs numpy only.
    unequal = [grassmann.random_subspace(3, d, 10 + i) for i, d in enumerate((1, 2, 1, 2))]
    rng = np.random.default_rng(3)
    cocycle = {key: [subspace_json(grassmann.random_subspace(4, 2, int(rng.integers(2**31))))
                     for _ in range(count)] for key, count in (("p", 2), ("q", 3))}
    shift_flow = flows.FlowScenario(flows.shift_generator(12, 1),
                                    [grassmann.random_subspace(12, 6, i) for i in range(4)],
                                    np.linspace(0.0, 1.0, 11))
    cases = [
        ("dv", dv_input(), 0),
        ("dv", {"subspaces": [subspace_json(w) for w in unequal]}, 0),
        ("angle", _angle([[1.0]], [[2.0]]), 0),
        ("cocycle", cocycle, 0),
        ("riccati", oscillator_input("riccati", 1.0, 20), 0),
        ("hamiltonian", oscillator_input("hamiltonian", 1.0, 20), 0),
        ("dv", {"subspaces": []}, 2),
        ("dv", {"subspaces": subspaces(*[(4, 2, 5)] * 4)}, 3),
        ("flow", flow_json(shift_flow), 0),
        ("flow", flow_json(overflowing_flow_scenario()), 3),
        ("selftest", {}, 0),
    ]
    runs = [(verb, write_json(tmp_path / f"in{i}.json", payload), str(tmp_path / f"out{i}.json"))
            for i, (verb, payload, _) in enumerate(cases)]
    seen = json.loads(fresh_python(f"""
import json, sys
import opcross, opcross.cli
seen = [{LOADED_SCIPY}]
for verb, inp, out in {runs!r}:
    seen.append((opcross.cli.run(verb, inp, out), {LOADED_SCIPY}))
print(json.dumps(seen))
"""))
    assert seen[0] == []
    assert seen[1:] == [[status, []] for _, _, status in cases]


_MATHS = ("numpy", "opcross.numerics", "opcross.grassmann", "opcross.crossratio",
          "opcross.schwarzian", "opcross.flows")
_TRUNCATED = '{"subspaces": [{"basis": {"rows": 2, "cols": 1, "data": [[1.0], ['


def test_a_process_loads_only_what_its_verb_uses(tmp_path):
    # One interpreter per row: `import opcross.cli` loads no numpy and no module
    # of the maths; a cross-ratio verb then loads nothing of the Schwarzian half,
    # a Schwarzian verb nothing of the cross-ratio half, and --version, a usage
    # error and an input that does not parse load no numpy at all.
    shift_flow = flows.FlowScenario(flows.shift_generator(4, 1),
                                    [grassmann.random_subspace(4, 2, i) for i in range(4)], [0.0, 1.0])
    planes = subspaces(*[(4, 2, i) for i in range(5)])
    cross_ratio_half, schwarzian_half = ("opcross.schwarzian", "opcross.flows"), \
        ("opcross.crossratio", "opcross.grassmann", "opcross.flows")
    rows = [  # (verb and input, or None for the import alone; exit status; modules not loaded)
        (None, None, _MATHS),
        (["--version"], 0, ("numpy",)),
        (["nosuch"], 2, ("numpy",)),
        (("dv", _TRUNCATED), 2, ("numpy",)),
        (("dv", dv_input()), 0, cross_ratio_half),
        (("angle", _angle([[1.0]], [[2.0]])), 0, cross_ratio_half),
        (("equiv", _EQUIV), 0, cross_ratio_half),
        (("cocycle", {"p": planes[:2], "q": planes[2:]}), 0, cross_ratio_half),
        (("riccati", oscillator_input("riccati", 1.0, 20)), 0, schwarzian_half),
        (("hamiltonian", oscillator_input("hamiltonian", 1.0, 20)), 0, schwarzian_half),
        (("schwarz", {"samples": _TAN_SAMPLES, "h": 0.01}), 0, schwarzian_half),
        (("flow", flow_json(shift_flow)), 0, ("opcross.schwarzian",)),
    ]
    for i, (command, status, unloaded) in enumerate(rows):
        args = command
        if isinstance(command, tuple):
            verb, given = command
            inp = tmp_path / f"in{i}.json"
            inp.write_text(given if isinstance(given, str) else json.dumps(given))
            args = [verb, "--in", str(inp), "--out", str(tmp_path / f"out{i}.json")]
        seen = json.loads(fresh_python(f"""
import json, sys
import opcross.cli
status = None
if {args!r} is not None:
    try:
        opcross.cli.main({args!r})
    except SystemExit as exc:
        status = exc.code
print(json.dumps([status, [m for m in {unloaded!r} if m in sys.modules]]))
""").splitlines()[-1])
        assert seen == [status, []], command
    # The report of the truncated input is the one a process with numpy loaded writes.
    i = next(i for i, (command, _, _) in enumerate(rows) if command == ("dv", _TRUNCATED))
    in_process = tmp_path / "in_process.json"
    assert cli.run("dv", str(tmp_path / f"in{i}.json"), str(in_process)) == 2
    assert (tmp_path / f"out{i}.json").read_bytes() == in_process.read_bytes()
    assert json.loads(in_process.read_text())["error"] == \
        "ValidationError: Expecting value: line 1 column 66 (char 65)"


def test_equiv_help_shows_the_default_tolerance():
    # The help names equiv's default tolerance without loading the cross-ratio
    # module, and the number it names is crossratio.EQUIV_TOL.
    out = fresh_python("""
import sys
import opcross.cli
try:
    opcross.cli.main(["equiv", "--help"])
except SystemExit:
    pass
print("opcross.crossratio" in sys.modules, "numpy" in sys.modules)
""")
    default = re.search(r"\(default:\s+([^)]+)\)", out).group(1)
    assert float(default) == crossratio.EQUIV_TOL
    assert out.splitlines()[-1] == "False False"


def test_hamiltonian_verb(tmp_path):
    status, text = run_to_files(tmp_path, "hamiltonian", oscillator_input("hamiltonian", 1.0, 200))
    assert status == 0
    report = json.loads(text)
    assert abs(report["results"]["q_final"]["data"][0][0] - np.cos(1.0)) < 1e-6


@pytest.mark.parametrize("p0", [[[0.1, 0.0], [0.0, 0.2]], [[[0.1, 0.05], 0.0], [0.0, [0.2, -0.1]]]],
                         ids=["real", "complex"])
def test_hamiltonian_csv_row_is_q_then_p(tmp_path, p0):
    payload = {"system": {"dim": 2, "A": [[[0.1, 0.2], [0.2, -0.1]]],
                          "B": [[[-1.0, 0.3], [0.3, -2.0]]]},
               "q0": {"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 1.0]]},
               "p0": {"rows": 2, "cols": 2, "data": p0}, "t0": 0.0, "t1": 1.0, "steps": 50}
    status, text = run_to_files(tmp_path, "hamiltonian", payload)
    assert status == 0
    results = json.loads(text)["results"]
    rows = [[float(v) for v in row.split(",")] for row in (tmp_path / "out.csv").read_text().splitlines()]
    assert len(rows) == 51
    q, p = (np.ravel(results[k]["data"]) for k in ("q_final", "p_final"))
    assert rows[-1] == [results["t_final"], *q, *p]


def test_a_stiff_hamiltonian_run_reports_its_decay(tmp_path):
    # q' = -300 q from (q0, p0) = (1, 0) over [0, 10] in 1000 steps: q = e^(-300 t).
    # Stepped by RK4 it grew by 1.375 per step and exited 0 with q(10) = 2.0e138.
    payload = trajectory_input({"dim": 1, "A": [[[-300.0]]], "B": [[[0.0]]]}, 10.0, 1000,
                               q0=[[1.0]], p0=[[0.0]])
    status, text = run_to_files(tmp_path, "hamiltonian", payload)
    assert status == 0
    assert json.loads(text)["results"]["q_final"]["data"] == [[0.0]]
    rows = [[float(v) for v in row.split(",")] for row in (tmp_path / "out.csv").read_text().splitlines()]
    assert len(rows) == 1001 and all(row[2] == 0.0 for row in rows)
    assert abs(rows[5][1] - np.exp(-15.0)) <= 1e-13 * np.exp(-15.0)
    assert rows[-1][1] == 0.0


def test_schwarz_verb_jet_and_samples(tmp_path):
    jet = {"t": 0.0, "z": {"rows": 1, "cols": 1, "data": [[0.0]]},
           "z1": {"rows": 1, "cols": 1, "data": [[1.0]]},
           "z2": {"rows": 1, "cols": 1, "data": [[0.0]]},
           "z3": {"rows": 1, "cols": 1, "data": [[2.0]]}}
    status, text = run_to_files(tmp_path, "schwarz", {"jet": jet})
    assert status == 0
    assert abs(json.loads(text)["results"]["schwarzian"]["data"][0][0] - 2.0) < 1e-12

    h = 1e-2
    samples = [{"rows": 1, "cols": 1, "data": [[float(np.tan(k * h))]]}
               for k in range(-3, 4)]
    status, text = run_to_files(tmp_path, "schwarz", {"samples": samples, "h": h},
                                name="in2.json")
    assert status == 0
    assert abs(json.loads(text)["results"]["schwarzian"]["data"][0][0] - 2.0) < 1e-5


def test_angle_and_equiv_verbs(tmp_path):
    status, text = run_to_files(tmp_path, "angle", _angle([[1.0]], [[2.0]]))
    assert status == 0
    assert abs(json.loads(text)["results"]["matrix"]["data"][0][0] - 0.9) < 1e-12
    # A = 1e154 I, B = I: I + A*A is still finite, and the spectrum the answer [0.5, 0.5].
    status, text = run_to_files(tmp_path, "angle", _angle(1e154 * np.eye(2), np.eye(2)))
    assert status == 0
    assert json.loads(text)["results"]["spectrum"] == [[0.5, 0.0], [0.5, 0.0]]

    w1 = grassmann.random_subspace(4, 2, 1)
    w2 = grassmann.random_subspace(4, 2, 2)
    payload = {"first": [subspace_json(w1), subspace_json(w2)],
               "second": [subspace_json(w1), subspace_json(w2)]}
    status, text = run_to_files(tmp_path, "equiv", payload, name="eq.json")
    assert status == 0
    assert json.loads(text)["results"]["equivalent"] is True


def test_angle_verb_spectrum_is_the_squared_cosines(tmp_path):
    # A seeded 3 x 3 pair of charts: the reported eigenvalues are the squared cosines
    # of the principal angles between the graphs of A and B, real to 1e-10.
    a, b = np.random.default_rng(30).standard_normal((2, 3, 3))
    status, text = run_to_files(tmp_path, "angle", {"a": numerics.matrix_to_json(a),
                                                    "b": numerics.matrix_to_json(b)})
    assert status == 0
    graphs = [grassmann.subspace_from_basis(np.vstack([np.eye(3), m])) for m in (a, b)]
    cos2 = np.sort(np.cos(grassmann.principal_angles(*graphs)) ** 2)
    spectrum = np.array(json.loads(text)["results"]["spectrum"])
    assert np.max(np.abs(np.sort(spectrum[:, 0]) - cos2)) <= 1e-10
    assert np.max(np.abs(spectrum[:, 1])) <= 1e-10


def test_equiv_reports_the_angles_it_decides_by(tmp_path, svd_calls):
    # One stacked SVD call serves the verdict and both pairs' reported angles.
    g, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
    p, q = (grassmann.random_subspace(6, 3, seed) for seed in (1, 2))
    rotated = [grassmann.subspace_from_basis(g @ w.basis) for w in (p, q)]
    for second, equivalent in ((rotated, True), ([p, grassmann.random_subspace(6, 3, 3)], False)):
        payload = {"first": [subspace_json(p), subspace_json(q)],
                   "second": [subspace_json(w) for w in second]}
        svd_calls.clear()
        status, text = run_to_files(tmp_path, "equiv", payload)
        assert status == 0 and svd_calls == [(2, 3, 3)]
        results = json.loads(text)["results"]
        assert results["equivalent"] is equivalent
        for key, pair in (("angles_first", payload["first"]), ("angles_second", payload["second"])):
            assert results[key] == grassmann.principal_angles(
                *(grassmann.Subspace.from_json(w) for w in pair)).tolist()


def test_equiv_of_pairs_of_other_shapes(tmp_path):
    # Planes against lines of R^4: never equivalent, each pair's own angles.
    planes = [grassmann.random_subspace(4, 2, seed) for seed in (1, 2)]
    lines = [grassmann.random_subspace(4, 1, seed) for seed in (3, 4)]
    payload = {"first": [subspace_json(w) for w in planes],
               "second": [subspace_json(w) for w in lines]}
    status, text = run_to_files(tmp_path, "equiv", payload)
    assert status == 0
    results = json.loads(text)["results"]
    assert results["equivalent"] is False
    for key, size in (("first", 2), ("second", 1)):
        pair = [grassmann.Subspace.from_json(w) for w in payload[key]]
        assert results[f"angles_{key}"] == grassmann.principal_angles(*pair).tolist()
        assert len(results[f"angles_{key}"]) == size
    # A pair whose own ambient dimensions differ is malformed input.
    mixed = [subspace_json(grassmann.random_subspace(n, 2, seed)) for n, seed in ((4, 5), (5, 6))]
    status, text = run_to_files(tmp_path, "equiv", {"first": mixed, "second": mixed})
    assert status == 2
    assert json.loads(text)["error"] == "ValidationError: ambient dimensions differ"


def test_cocycle_verb(tmp_path):
    rng = np.random.default_rng(3)
    p = [grassmann.random_subspace(4, 2, int(rng.integers(2**31))) for _ in range(2)]
    q = [grassmann.random_subspace(4, 2, int(rng.integers(2**31))) for _ in range(3)]
    payload = {"p": [subspace_json(w) for w in p], "q": [subspace_json(w) for w in q]}
    status, text = run_to_files(tmp_path, "cocycle", payload)
    assert status == 0
    assert json.loads(text)["results"]["residual"] < 1e-8


def test_dv_and_cocycle_of_large_subspaces(tmp_path):
    # Seeded random 32-dim subspaces of R^64.  Then n = 256 graphs of the charts
    # level * I + 0.3 G / sqrt(128): every pair the dv and cocycle chains project
    # along is well separated, and the dv spectrum is the chart formula's.
    rng = np.random.default_rng(0)
    subs = [subspace_json(grassmann.subspace_from_basis(rng.standard_normal((64, 32))))
            for _ in range(5)]
    assert run_to_files(tmp_path, "cocycle", {"p": subs[:2], "q": subs[2:]})[0] == 0
    pol, k = grassmann.standard_polarization(256, 128), 128

    def charts(levels):
        ts = [lv * np.eye(k) + 0.3 * rng.standard_normal((k, k)) / np.sqrt(k) for lv in levels]
        return ts, [subspace_json(grassmann.subspace_from_graph(t, pol)) for t in ts]

    (t1, t2, t3, t4), subs = charts((-3, -1, 1, 3))
    status, text = run_to_files(tmp_path, "dv", {"subspaces": subs})
    assert status == 0
    got = np.array([complex(re, im) for re, im in json.loads(text)["results"]["spectrum"]])
    ref = np.linalg.eigvals(np.linalg.solve(t1 - t2, t2 - t3) @ np.linalg.solve(t3 - t4, t4 - t1))
    dist = np.abs(got[:, None] - ref[None, :])
    assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-8
    _, subs = charts((-3, -1, 1, 3, 5))
    status, text = run_to_files(tmp_path, "cocycle", {"p": subs[:2], "q": subs[2:]})
    assert status == 0 and json.loads(text)["results"]["residual"] <= 1e-8


def test_flow_verb_writes_spectrum_csv(tmp_path):
    # The shift generator on graphs of seeded charts at n = 12 and 64 over 11 times,
    # and at n = 6 over 3.
    eleven = np.linspace(0.0, 1.0, 11).tolist()
    for n, times in ((12, eleven), (64, eleven), (6, [0.0, 0.5, 1.0])):
        rng = np.random.default_rng(8)
        pol = grassmann.standard_polarization(n, n // 2)
        subs = [grassmann.subspace_from_graph(rng.standard_normal((n // 2, n // 2)), pol)
                for _ in range(4)]
        payload = {"generator": numerics.matrix_to_json(np.eye(n, k=-1)),
                   "initials": [subspace_json(w) for w in subs],
                   "times": times}
        status, text = run_to_files(tmp_path, "flow", payload)
        assert status == 0
        report = json.loads(text)
        rows = report["results"]["rows"]
        assert len(rows) == len(times)
        first = np.array(rows[0]["spectrum"])
        last = np.array(rows[-1]["spectrum"])
        assert np.max(np.abs(first - last)) < 1e-6
        # A real flow's row: t, the spectrum as (re, im) pairs, the real traces and det.
        csv_rows = [[float(v) for v in row.split(",")] for row in (tmp_path / "out.csv").read_text().splitlines()]
        assert len(csv_rows) == len(times)
        for row, r in zip(csv_rows, rows):
            assert row == [r["t"], *np.ravel(r["spectrum"]), *(re for re, _ in r["traces"]), r["det"]]


def complex_flow_input():
    # A seeded complex 4 x 4 generator and four complex planes of C^4.
    rng = np.random.default_rng(29)

    def gaussian(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return {"generator": numerics.matrix_to_json(0.5 * gaussian(4, 4)),
            "initials": [{"basis": numerics.matrix_to_json(gaussian(4, 2))} for _ in range(4)],
            "times": [0.0, 0.25, 0.5, 1.0]}


def test_complex_flow_csv_keeps_imaginary_parts(tmp_path):
    # A complex flow's row: t, then the spectrum, the traces and det, each number
    # as (re, im), as the report lists them (a float det as [det, 0.0]).
    status, text = run_to_files(tmp_path, "flow", complex_flow_input())
    assert status == 0
    rows = json.loads(text)["results"]["rows"]
    csv_rows = [[float(v) for v in row.split(",")] for row in (tmp_path / "out.csv").read_text().splitlines()]
    assert len(csv_rows) == 4 and {len(row) for row in csv_rows} == {1 + 4 * 2 + 2}
    for row, r in zip(csv_rows, rows):
        det = r["det"] if isinstance(r["det"], list) else [r["det"], 0.0]
        assert row == [r["t"], *np.ravel(r["spectrum"]), *np.ravel(r["traces"]), *det]
    assert any(row[6] != 0.0 for row in csv_rows)  # the imaginary part of tr D


def test_flow_verb_through_the_degree_13_pade(tmp_path):
    # 3 I + J (J all ones) on four seeded planes of R^4: at t = 0.5 and 1 the exponent's
    # 1-norm exceeds theta_9, so expm takes the degree-13 Pade approximant, and every
    # row keeps the t = 0 spectrum.
    initials = [grassmann.subspace_from_basis(
        np.random.default_rng(31 + i).standard_normal((4, 2))) for i in range(4)]
    payload = flow_json(flows.FlowScenario(3.0 * np.eye(4) + np.ones((4, 4)), initials,
                                           [0.0, 0.5, 1.0]))
    status, text = run_to_files(tmp_path, "flow", payload)
    assert status == 0
    rows = json.loads(text)["results"]["rows"]
    assert [r["t"] for r in rows] == [0.0, 0.5, 1.0]
    spectra = [np.array([complex(re, im) for re, im in r["spectrum"]]) for r in rows]
    assert all(np.max(np.abs(s - spectra[0])) <= 1e-9 for s in spectra), spectra


def test_selftest_verb(tmp_path, capsys):
    out = str(tmp_path / "self.json")
    assert cli.run("selftest", None, out, seed=1) == 0
    report = json.loads(Path(out).read_text())
    assert all(c["passed"] for c in report["results"]["checks"])
    # A negative seed is malformed input, and the error names the option.
    assert main_status(["selftest", "--seed", "-1", "--out", out]) == 2
    error = "ValidationError: --seed must be >= 0, got -1"
    assert json.loads(Path(out).read_text())["error"] == error
    assert capsys.readouterr().err == stderr_line(2, error)


def test_selftest_failures_show(tmp_path, monkeypatch, capsys):
    from opcross import crossratio, selftest
    from opcross.errors import Singular

    # A fault that is not numerical is no skipped configuration: it propagates.
    def broken(*subs):
        raise TypeError("broken")
    monkeypatch.setattr(crossratio, "cocycle_product", broken)
    with pytest.raises(TypeError, match="broken"):
        selftest.run_all(seed=1)

    # A sampled check that accepts no configuration fails.
    def rejecting(*subs):
        raise Singular("rejected")
    monkeypatch.setattr(crossratio, "cocycle_product", rejecting)
    checks = {name: (ok, detail) for name, ok, detail in selftest.run_all(seed=1)}
    assert checks["crossratio.cocycle_identity"] == (False, "no configuration was accepted")
    assert sum(not ok for ok, _ in checks.values()) == 1
    # The selftest verb names the failing check and exits 3.
    assert cli.run("selftest", None, str(tmp_path / "self.json"), seed=1) == 3
    assert capsys.readouterr().err == ("numerical error: NumericalError: "
                                       "selftest failed: crossratio.cocycle_identity\n")


def test_a_rejected_configuration_is_redrawn(monkeypatch):
    # The chart formula rejects the first draw once: the second draw is returned.
    from opcross import crossratio, selftest
    from opcross.errors import Singular

    dv_matrix, calls = crossratio.dv_matrix, []

    def reject_once(*ts):
        calls.append(ts)
        if len(calls) == 1:
            raise Singular("rejected")
        return dv_matrix(*ts)
    monkeypatch.setattr(crossratio, "dv_matrix", reject_once)
    ts, _, _ = selftest.random_half_dim_config(np.random.default_rng(7), 4)
    rng = np.random.default_rng(7)
    draws = [[rng.standard_normal((2, 2)) for _ in range(4)] for _ in range(2)]
    assert len(calls) == 2
    assert all(np.array_equal(t, d) for t, d in zip(ts, draws[1]))


def test_equiv_tol_decides_the_verdict(tmp_path):
    w1 = grassmann.random_subspace(4, 2, 1)
    w2 = grassmann.random_subspace(4, 2, 2)
    g, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    w3 = grassmann.subspace_from_basis(g @ w1.basis)
    w4 = grassmann.subspace_from_basis(g @ w2.basis)
    payload = {"first": [subspace_json(w1), subspace_json(w2)],
               "second": [subspace_json(w3), subspace_json(w4)]}
    inp = write_json(tmp_path / "in.json", payload)
    out = str(tmp_path / "out.json")
    assert cli.run("equiv", inp, out, tol=1e-300) == 0
    strict = json.loads(Path(out).read_text())["results"]["equivalent"]
    assert main_status(["equiv", "--in", inp, "--out", out, "--tol", "1e-6"]) == 0
    loose = Path(out).read_text()
    assert json.loads(loose)["results"]["equivalent"] is True and strict is False
    # The default tolerance is 1e-6.
    assert cli.run("equiv", inp, out) == 0
    assert Path(out).read_text() == loose


def test_invalid_tolerance_exit_2(tmp_path):
    # Through main: a --tol that is no number is a usage error, and nan or -1 gets
    # the report of the equiv-tol rows of _VERDICTS.
    inp = write_json(tmp_path / "in.json", _EQUIV)
    for text in ("abc", "nan", "-1"):
        assert main_status(["equiv", "--in", inp, "--out", str(tmp_path / "m.json"),
                            "--tol", text]) == 2, text


def test_no_environment_variable_sets_the_tolerance(tmp_path):
    # OPCROSS_TOL is no setting: a process that has it reports what cli.run does.
    lines = [{"basis": numerics.matrix_to_json([[x], [y]])} for x, y in ((1.0, 0.0), (0.0, 1.0),
                                                                          (1.0, 1.0), (1.0, 2.0))]
    inp = write_json(tmp_path / "in.json", {"subspaces": lines})
    out, ref = tmp_path / "out.json", tmp_path / "ref.json"
    proc = cli_process("dv", "--in", inp, "--out", str(out), OPCROSS_TOL="abc")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert cli.run("dv", inp, str(ref)) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_float_formatting_is_deterministic():
    # Each float is written as its shortest repr that reads back to it.
    assert cli.dumps_report([1.0, 0.1, 1e16]) == "[\n  1.0,\n  0.1,\n  1e+16\n]"
    assert cli._trajectory_csv([1.0], [[0.1 + 1e16j]]) == "1.0,0.1,1e+16\n"
    for value in (float("nan"), complex(0.0, float("inf")), np.array([[1.0, np.nan]])):
        with pytest.raises(Overflow, match="^a value in the output is not finite$"):
            cli.dumps_report({"x": value})
    with pytest.raises(Overflow, match="^a trajectory in the output is not finite$"):
        cli._trajectory_csv([0.0], [[float("inf")]])
    assert cli.dumps_report([]) == "[]"
    with pytest.raises(TypeError, match="^unserializable value of type object$"):
        cli.dumps_report(object())


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_FLOATS, _FLOATS)
@example(-0.0, 5e-324)
@example(1e16, sys.float_info.max)
@example(-sys.float_info.max, -sys.float_info.min / 3.0)
def test_every_float_reads_back_bit_for_bit(x, y):
    # A report's float, complex and array entries and a trajectory CSV row give
    # back x and y with their bits: -0.0, subnormals and the float limit included.
    report = json.loads(cli.dumps_report({"x": x, "z": complex(x, y), "v": np.array([x, y])}))
    row = next(csv.reader(io.StringIO(cli._trajectory_csv([x], [[[complex(x, y)]]]))))
    values = [report["x"], *report["z"], *report["v"]]
    assert [v.hex() for v in values] == [x.hex(), x.hex(), y.hex(), x.hex(), y.hex()]
    assert [float(v).hex() for v in row] == [x.hex(), x.hex(), y.hex()]


def test_unknown_verb_rejected():
    with pytest.raises(ValueError):
        cli.run("frobnicate", None, None)


def main_status(args, **kw):
    with pytest.raises(SystemExit) as exc:
        cli.main(args, **kw)
    return exc.value.code


def test_main_version_and_usage_errors(tmp_path, capsys):
    assert main_status(["--version"]) == 0
    assert capsys.readouterr().out == f"opcross, version {__version__}\n"
    # No verb, an unknown verb, a bad option value, an abbreviated option, and
    # --tol and --seed, equiv's and selftest's options alone, after another verb.
    good, out = write_json(tmp_path / "good.json", dv_input()), str(tmp_path / "r.json")
    for args in ([], ["nosuch"], ["selftest", "--seed", "x"], ["dv", "--o", "x"],
                 ["dv", "--tol", "1e-6"], ["dv", "--in", good, "--out", out, "--seed", "1"]):
        assert main_status(args) == 2, args
    assert os.listdir(tmp_path) == ["good.json"]


def test_main_runs_the_verb(tmp_path):
    good = write_json(tmp_path / "good.json", dv_input())
    out, ref = tmp_path / "main.json", tmp_path / "run.json"
    assert main_status(["dv", "--in", good, "--out", str(out)], prog_name="opcross") == 0
    assert cli.run("dv", good, str(ref)) == 0
    assert out.read_bytes() == ref.read_bytes()
    same = write_json(tmp_path / "same.json",
                      {"subspaces": [subspace_json(grassmann.random_subspace(4, 2, 5))] * 4})
    assert main_status(["dv", "--in", same, "--out", str(out)]) == 3


def test_cli_runs_without_click(tmp_path):
    # The command line is the standard library's argparse: with click made
    # unimportable, main still runs a verb, an inadmissible input and a usage error.
    same = write_json(tmp_path / "same.json",
                      {"subspaces": [subspace_json(grassmann.random_subspace(4, 2, 5))] * 4})
    runs = [["selftest", "--seed", "1", "--out", str(tmp_path / "st.json")],
            ["dv", "--in", same, "--out", str(tmp_path / "dv.json")],
            ["nosuch"]]
    statuses = json.loads(fresh_python(f"""
import json, sys
sys.modules["click"] = None
import opcross.cli
statuses = []
for args in {runs!r}:
    try:
        opcross.cli.main(args)
    except SystemExit as exc:
        statuses.append(exc.code)
print(json.dumps(statuses))
"""))
    assert statuses == [0, 3, 2]


def test_trajectory_report_named_like_its_csv_exit_2(tmp_path):
    for verb in ("riccati", "hamiltonian"):
        inp = write_json(tmp_path / f"{verb}.json", oscillator_input(verb, 1.0, 20))
        out = tmp_path / f"{verb}.csv"
        assert cli.run(verb, inp, str(out)) == 2
        report = json.loads(out.read_text())
        assert report["error"].startswith("ValidationError") and report["results"] == {}
        assert cli.run(verb, inp, str(tmp_path / f"{verb}.out")) == 0
        assert (tmp_path / f"{verb}.csv").read_text().count("\n") == 21


def _matrix(rows):
    return {"rows": len(rows), "cols": len(rows[0]), "data": rows}


def _valid_inputs():
    """One valid input per verb (schwarz twice: a jet and samples), every kind of
    JSON field the readers take among them: matrices with complex entries, bare and
    object polynomial coefficients, optional subspace sizes, lists of subspaces."""
    lines = [{"basis": _matrix([[float(np.cos(a))], [float(np.sin(a))]])}
             for a in (0.1, 0.9, 1.7, 2.5, 3.0)]
    lines[0].update(ambient=2, dim=1)
    system = {"dim": 2, "A": [[[0.1, 0.2], [0.2, -0.1]]],
              "B": [_matrix([[-1.0, 0.3], [0.3, -2.0]])], "symmetric_A": True}
    grid = {"t0": 0.0, "t1": 1.0, "steps": 10}
    w0 = _matrix([[0.1, 0.0], [0.0, 0.2]])
    return [
        ("dv", {"subspaces": lines[:4]}),
        ("angle", {"a": _matrix([[1.0, [0.5, 0.25]], [0.0, 2.0]]),
                   "b": _matrix([[0.5, 0.0], [0.1, -1.0]])}),
        ("equiv", {"first": lines[:2], "second": lines[2:4]}),
        ("cocycle", {"p": lines[:2], "q": lines[2:]}),
        ("schwarz", {"jet": {"t": 0.0, "z": _matrix([[0.0]]), "z1": _matrix([[1.0]]),
                             "z2": _matrix([[0.0]]), "z3": _matrix([[2.0]])}}),
        ("schwarz", {"samples": [_matrix([[float(np.tan(k * 0.01))]]) for k in range(-3, 4)],
                     "h": 0.01}),
        ("riccati", {"system": system, **grid, "w0": w0}),
        ("hamiltonian", {"system": system, **grid, "q0": _matrix([[1.0, 0.0], [0.0, 1.0]]),
                         "p0": w0}),
        ("flow", {"generator": _matrix([[0.0, 0.0], [1.0, 0.0]]), "initials": lines[:4],
                  "times": [0.0, 0.5]}),
    ]


def _field_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _field_paths(child, path + (key,))


def test_every_single_field_mutation_exits_0_2_or_3(tmp_path):
    # Each field of each valid input set to null, 1, "x" or [1], or deleted: the
    # readers take or reject it, and nothing reaches cli.run as a raw Python error.
    inp, out = tmp_path / "in.json", str(tmp_path / "out.json")
    cases = statuses = 0
    for verb, valid in _valid_inputs():
        inp.write_text(json.dumps(valid))
        assert cli.run(verb, str(inp), out) == 0, verb
        for path in _field_paths(valid):
            for value in (None, 1, "x", [1], "delete"):
                if not path:
                    if value == "delete":
                        continue
                    mutated = value
                else:
                    mutated = json.loads(json.dumps(valid))
                    *parents, key = path
                    node = mutated
                    for k in parents:
                        node = node[k]
                    if value == "delete":
                        del node[key]
                    else:
                        node[key] = value
                inp.write_text(json.dumps(mutated))
                status = cli.run(verb, str(inp), out)
                assert status in (0, 2, 3), (verb, path, value)
                cases += 1
                statuses += status == 2
    assert cases > 1500 and statuses > 1200


def test_a_program_fault_propagates(tmp_path, monkeypatch):
    from opcross import crossratio

    def raising(exc):
        def handler(*args):
            raise exc
        return handler

    inp = write_json(tmp_path / "in.json", {})
    for exc in (TypeError("broken"), KeyError("broken"), IndexError("broken")):
        monkeypatch.setitem(cli._HANDLERS, "angle", raising(exc))
        with pytest.raises(type(exc), match="broken"):
            cli.run("angle", inp, str(tmp_path / "out.json"))
    # A fault in a library function is no malformed input either.
    monkeypatch.setattr(crossratio, "cocycle_product", raising(TypeError("broken")))
    with pytest.raises(TypeError, match="broken"):
        cli.run("selftest", None, str(tmp_path / "self.json"), seed=1)
    assert sorted(os.listdir(tmp_path)) == ["in.json"]

