import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from opcross import __version__, cli, flows, grassmann, numerics, schwarzian
from opcross.errors import Overflow
from conftest import (LOADED_SCIPY, fresh_python, overflowing_dv_config,
                      overflowing_flow_scenario, sampled_symmetric_b, unequal_sharing_config)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def dv_input(seed=0):
    rng = np.random.default_rng(seed)
    pol = grassmann.standard_polarization(4, 2)
    subs = [grassmann.subspace_from_graph(rng.standard_normal((2, 2)), pol)
            for _ in range(4)]
    return {"subspaces": [w.to_json() for w in subs]}


def oscillator_json():
    return {"dim": 1, "A": [[[0.0]]], "B": [[[1.0]]], "symmetric_A": True}


def run_to_files(tmp_path, verb, payload, name="in.json", seed=0, tol=None):
    inp = write_json(tmp_path / name, payload)
    out = str(tmp_path / "out.json")
    status = cli.run(verb, inp, out, seed=seed, tol=tol)
    text = open(out).read() if os.path.exists(out) else ""
    return status, text


def test_dv_verb_end_to_end(tmp_path):
    status, text = run_to_files(tmp_path, "dv", dv_input())
    assert status == 0
    report = json.loads(text)
    assert report["verb"] == "dv"
    assert len(report["input_digest"]) == 64
    spec = report["results"]["spectrum"]
    assert len(spec) == 2 and all(len(z) == 2 for z in spec)


def test_reports_are_byte_identical(tmp_path):
    inp = write_json(tmp_path / "in.json", dv_input())
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli.run("dv", inp, out1) == 0
    assert cli.run("dv", inp, out2) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_malformed_inputs_exit_2(tmp_path):
    cases = [
        ("not json at all {", None),
        ("[1, 2, 3]", None),
        (None, {"subspaces": []}),
        (None, {"subspaces": [{"basis": {"rows": 2, "cols": 1,
                                         "data": [[1.0], ["x"]]}}] * 4}),
        (None, {}),
    ]
    for i, (raw, obj) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        if raw is not None:
            path.write_text(raw)
        else:
            write_json(path, obj)
        out = str(tmp_path / f"bad{i}_out.json")
        status = cli.run("dv", str(path), out)
        assert status == 2, f"case {i}"
        report = json.loads(open(out).read())
        assert report["error"].startswith("ValidationError")


def test_json_nested_too_deeply_exit_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"a": ' + "[" * 100000 + "]" * 100000 + "}")
    assert cli.run("angle", str(path), str(tmp_path / "out.json")) == 2
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["error"] == "ValidationError: the input JSON is nested too deeply"


def test_missing_input_file(tmp_path):
    assert cli.run("dv", str(tmp_path / "nope.json"), None) == 2
    assert cli.run("dv", None, None) == 2


def test_numerical_error_exit_3(tmp_path):
    # Degenerate four-tuple: P1 == P2 cannot be a polarization.
    w = grassmann.random_subspace(4, 2, 5)
    payload = {"subspaces": [w.to_json()] * 4}
    status, text = run_to_files(tmp_path, "dv", payload)
    assert status == 3
    assert "NotPolarization" in json.loads(text)["error"]
    # Unequal dimensions whose smaller pair shares a vector, in both orders.
    p1, p2, p3, p4 = unequal_sharing_config()
    for order in ((p1, p2, p3, p4), (p2, p1, p4, p3)):
        status, text = run_to_files(tmp_path, "dv", {"subspaces": [w.to_json() for w in order]})
        assert status == 3
        assert json.loads(text)["error"].startswith("DegeneratePosition")


def test_riccati_verb_writes_csv(tmp_path):
    payload = {"system": oscillator_json(), "w0": {"rows": 1, "cols": 1,
               "data": [[0.0]]}, "t0": 0.0, "t1": 1.0, "steps": 200}
    status, text = run_to_files(tmp_path, "riccati", payload)
    assert status == 0
    report = json.loads(text)
    assert abs(report["results"]["w_final"]["data"][0][0] + np.tan(1.0)) < 1e-6
    rows = open(tmp_path / "out.csv").read().strip().split("\n")
    assert len(rows) == report["results"]["steps"] + 1
    t, w = rows[-1].split(",")
    assert abs(float(t) - 1.0) < 1e-12


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
    rows = [row.split(",") for row in open(tmp_path / "out.csv").read().splitlines()]
    assert len(rows) == 51 and {len(row) for row in rows} == {1 + 2 * n * n}
    w_final = json.loads(text)["results"]["w_final"]["data"]
    assert [float(v) for v in rows[-1][1:]] == [x for row in w_final for entry in row for x in entry]
    assert any(float(v) != 0.0 for v in rows[-1][2::2])


def test_riccati_blow_up_reported_not_crashed(tmp_path):
    payload = {"system": oscillator_json(), "w0": {"rows": 1, "cols": 1,
               "data": [[0.0]]}, "t0": 0.0, "t1": 2.5, "steps": 400}
    status, text = run_to_files(tmp_path, "riccati", payload)
    assert status == 3
    assert "BlowUp" in json.loads(text)["error"]


def test_riccati_pole_at_a_node_exit_3(tmp_path):
    # W' = -W^2 from W0 = -1 escapes exactly at the last node, t = 1.
    payload = {"system": {"dim": 1, "A": [[[0.0]]], "B": [[[0.0]]]},
               "w0": {"rows": 1, "cols": 1, "data": [[-1.0]]}, "t0": 0.0, "t1": 1.0, "steps": 4}
    status, text = run_to_files(tmp_path, "riccati", payload)
    assert status == 3
    assert json.loads(text)["error"].startswith("BlowUp")


def test_zero_steps_exit_2(tmp_path):
    payload = {"system": oscillator_json(), "w0": {"rows": 1, "cols": 1,
               "data": [[0.0]]}, "t0": 0.0, "t1": 1.0, "steps": 0}
    status, text = run_to_files(tmp_path, "riccati", payload)
    assert status == 2
    assert json.loads(text)["error"].startswith("ValidationError")


def test_too_many_steps_exit_2(tmp_path):
    # Rejected before the run allocates a step list of that length.
    steps = 10**15
    payloads = {"riccati": {"w0": {"rows": 1, "cols": 1, "data": [[0.0]]}},
                "hamiltonian": {"q0": {"rows": 1, "cols": 1, "data": [[1.0]]},
                                "p0": {"rows": 1, "cols": 1, "data": [[0.0]]}}}
    for verb, payload in payloads.items():
        status, text = run_to_files(tmp_path, verb, {"system": oscillator_json(), "t0": 0.0,
                                                     "t1": 1.0, "steps": steps, **payload})
        assert status == 2, verb
        assert json.loads(text)["error"] == (
            f"ValidationError: steps must be at most MAX_STEPS = {schwarzian.MAX_STEPS}, got {steps}")


def test_time_grid_that_is_not_finite_exit_2(tmp_path):
    # Each bound is a finite number, but the step (t1 - t0) / steps overflows.
    payloads = {"riccati": {"w0": {"rows": 1, "cols": 1, "data": [[0.0]]}},
                "hamiltonian": {"q0": {"rows": 1, "cols": 1, "data": [[1.0]]},
                                "p0": {"rows": 1, "cols": 1, "data": [[0.0]]}}}
    for verb, payload in payloads.items():
        status, text = run_to_files(tmp_path, verb, {"system": oscillator_json(), "t0": -1e308,
                                                     "t1": 1e308, "steps": 10, **payload})
        assert status == 2, verb
        assert json.loads(text)["error"] == (
            "ValidationError: the time grid must be finite: t0 = -1e+308, t1 = 1e+308, step = inf")


def test_non_symmetric_b_exit_2(tmp_path):
    b = [c.tolist() for c in sampled_symmetric_b()]
    payload = {"system": {"dim": 2, "A": [np.zeros((2, 2)).tolist()], "B": b},
               "w0": {"rows": 2, "cols": 2, "data": [[0.0, 0.0], [0.0, 0.0]]},
               "t0": 0.0, "t1": 1.0, "steps": 10}
    status, text = run_to_files(tmp_path, "riccati", payload)
    assert status == 2
    assert "B(t) must be symmetric" in json.loads(text)["error"]


def test_overflow_exit_3(tmp_path):
    payload = {"system": {"dim": 1, "A": [[[300.0]]], "B": [[[0.0]]]},
               "q0": {"rows": 1, "cols": 1, "data": [[1.0]]},
               "p0": {"rows": 1, "cols": 1, "data": [[0.0]]},
               "t0": 0.0, "t1": 10.0, "steps": 1000}
    with np.errstate(over="ignore", invalid="ignore"):
        status, text = run_to_files(tmp_path, "hamiltonian", payload)
        assert status == 3
        assert json.loads(text)["error"].startswith("Overflow")
        payload = {"subspaces": [w.to_json() for w in overflowing_dv_config()]}
        status, text = run_to_files(tmp_path, "dv", payload, name="dv.json")
        assert status == 3
        assert json.loads(text)["error"].startswith("Overflow")
        # Finite, well-formed inputs whose operator leaves the float range.
        eye = numerics.matrix_to_json(np.eye(2))
        jet = {"z": eye, "z1": eye, "z2": numerics.matrix_to_json(1e200 * np.eye(2)), "z3": eye}
        for verb, payload in (("angle", {"a": numerics.matrix_to_json(np.full((2, 2), 1e200)),
                                         "b": eye}),
                              ("schwarz", {"jet": jet})):
            status, text = run_to_files(tmp_path, verb, payload, name=f"{verb}.json")
            assert status == 3, verb
            assert json.loads(text)["error"].startswith("Overflow"), verb


def test_overflowing_schwarz_and_riccati_exit_3_without_warnings(tmp_path):
    # Numpy warnings are errors under this suite's filter, so one would fail the call.
    eye = numerics.matrix_to_json(np.eye(2))
    jet = {"z": eye, "z1": eye, "z2": numerics.matrix_to_json(1e200 * np.eye(2)), "z3": eye}
    status, text = run_to_files(tmp_path, "schwarz", {"jet": jet})
    assert status == 3
    assert json.loads(text)["error"] == "Overflow: the Schwarzian is not finite"
    payload = {"system": {"dim": 2, "A": [np.zeros((2, 2)).tolist()],
                          "B": [(1e300 * np.eye(2)).tolist()]},
               "w0": numerics.matrix_to_json(np.zeros((2, 2))),
               "t0": 0.0, "t1": 1.0, "steps": 10}
    status, text = run_to_files(tmp_path, "riccati", payload, name="riccati.json")
    assert status == 3
    assert json.loads(text)["error"] == "BlowUp: solution blew up near t = 0.1"


def test_json_booleans_exit_2(tmp_path):
    base = {"system": {"A": [[[0.0]]], "B": [[[0.0]]]},
            "q0": {"rows": 1, "cols": 1, "data": [[1.0]]},
            "p0": {"rows": 1, "cols": 1, "data": [[0.0]]},
            "t0": 0.0, "t1": 1.0, "steps": 10}
    assert run_to_files(tmp_path, "hamiltonian", base)[0] == 0
    bad = [{"system": {"A": [[[True]]], "B": [[[0.0]]]}},
           {"system": {"A": [[[0.0]]], "B": [{"rows": True, "cols": 1, "data": [[0.0]]}]}},
           {"system": {"dim": True, "A": [[[0.0]]], "B": [[[0.0]]]}},
           {"t1": True}, {"steps": True}, {"t0": "0"}]
    for i, change in enumerate(bad):
        status, text = run_to_files(tmp_path, "hamiltonian", {**base, **change},
                                    name=f"bad{i}.json")
        assert status == 2, change
        assert json.loads(text)["error"].startswith("ValidationError"), change
    subs = dv_input()["subspaces"]
    subs[0] = {**subs[0], "dim": True}
    assert run_to_files(tmp_path, "dv", {"subspaces": subs}, name="dv.json")[0] == 2


def test_symmetric_a_must_be_a_json_boolean(tmp_path):
    base = {"w0": {"rows": 1, "cols": 1, "data": [[0.0]]}, "t0": 0.0, "t1": 1.0, "steps": 10}
    for value in ("x", [1], 1, 0, "", None):
        payload = {**base, "system": {**oscillator_json(), "symmetric_A": value}}
        status, text = run_to_files(tmp_path, "riccati", payload)
        assert status == 2, value
        assert json.loads(text)["error"] == \
            f"ValidationError: symmetric_A must be true or false, got {value!r}"
    system = oscillator_json()
    del system["symmetric_A"]
    for sys_ in ({**system, "symmetric_A": True}, {**system, "symmetric_A": False}, system):
        assert run_to_files(tmp_path, "riccati", {**base, "system": sys_})[0] == 0
    skew = {"dim": 2, "A": [[[0.0, 1.0], [-1.0, 0.0]]], "B": [[[1.0, 0.0], [0.0, 1.0]]]}
    w0 = {"rows": 2, "cols": 2, "data": [[0.0, 0.0], [0.0, 0.0]]}
    for flag, status in ((True, 2), (False, 0)):
        assert run_to_files(tmp_path, "riccati", {**base, "w0": w0,
                                                  "system": {**skew, "symmetric_A": flag}})[0] == status


def test_angle_with_an_overflowing_gram_factor_exit_3(tmp_path):
    # A = 1e200 I: I + A*A is not finite, and the chart form would give the
    # spectrum [0, 0] for the answer [0.5, 0.5].  Numpy warnings are errors here.
    payload = {"a": numerics.matrix_to_json(1e200 * np.eye(2)), "b": numerics.matrix_to_json(np.eye(2))}
    status, text = run_to_files(tmp_path, "angle", payload)
    assert status == 3
    assert json.loads(text)["error"] == "Overflow: the factor I + A*A or I + B*B is not finite"
    payload = {"a": numerics.matrix_to_json(np.eye(2)), "b": numerics.matrix_to_json(1e155 * np.eye(2))}
    assert run_to_files(tmp_path, "angle", payload, name="b.json")[0] == 3
    payload = {"a": numerics.matrix_to_json(1e154 * np.eye(2)), "b": numerics.matrix_to_json(np.eye(2))}
    status, text = run_to_files(tmp_path, "angle", payload, name="c.json")
    assert status == 0
    assert json.loads(text)["results"]["spectrum"] == [[0.5, 0.0], [0.5, 0.0]]


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


def test_dv_verb_statuses_for_mismatched_dims(tmp_path):
    # Equal dim P1 = dim P2 with a P3 of another dim is malformed input; dims
    # that do not sum to the ambient dimension are no polarization.
    pair = [grassmann.random_subspace(4, 2, seed) for seed in (1, 2)]
    cases = ((pair + [grassmann.random_subspace(4, 1, 3), pair[1]], 2,
              "ValidationError: need dim P1 = dim P3"),
             ([grassmann.random_subspace(5, 2, seed) for seed in (1, 2, 3, 4)], 3,
              "NotPolarization: dim P1 + dim P2"))
    for subs, expected, error in cases:
        status, text = run_to_files(tmp_path, "dv", {"subspaces": [w.to_json() for w in subs]})
        assert status == expected and json.loads(text)["error"].startswith(error)


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
    inp = write_json(tmp_path / "in.json", {"subspaces": [w.to_json()] * 4})
    assert cli.run("dv", inp, str(tmp_path / "no" / "such" / "r.json")) == 3
    assert capsys.readouterr().err.startswith("numerical error: NotPolarization: ")
    assert sorted(os.listdir(tmp_path)) == ["in.json"]


def test_without_out_the_report_goes_to_stdout(tmp_path, capsys):
    status, text = run_to_files(tmp_path, "dv", dv_input())
    capsys.readouterr()
    assert status == 0
    assert cli.run("dv", str(tmp_path / "in.json"), None) == 0
    assert capsys.readouterr().out == text


def test_flow_overflow_exit_3(tmp_path):
    # Run as its own process so numpy warnings, if any, would reach stderr.
    inp = write_json(tmp_path / "in.json", overflowing_flow_scenario().to_json())
    out = tmp_path / "out.json"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "opcross.cli", "flow", "--in", inp,
                           "--out", str(out)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    error = "Overflow: the matrix exponential is not finite at t = 1"
    assert proc.returncode == 3
    assert json.loads(out.read_text())["error"] == error
    assert proc.stderr == f"numerical error: {error}\n"


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


def run_with_warnings_as_errors(tmp_path, verb, payload):
    """cli.run's status and report error, every warning an error: a numpy warning ends the call."""
    inp, out = write_json(tmp_path / "in.json", payload), tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = cli.run(verb, inp, str(out))
    return status, json.loads(out.read_text())["error"]


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


def test_a_flowed_basis_that_overflows_exit_3(tmp_path):
    # exp(tM) is finite at t = 1, and the product exp(tM) W overflows.
    h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
    payload = {"generator": numerics.matrix_to_json(706.8 * np.eye(4) + np.ones((4, 4))),
               "times": [0.0, 1.0],
               "initials": [{"basis": numerics.matrix_to_json(h[:, c])}
                            for c in ([0, 1], [2, 3], [0, 2], [1, 3])]}
    assert run_with_warnings_as_errors(tmp_path, "flow", payload) \
        == (3, "Overflow: the flowed basis is not finite at t = 1")


def test_a_flow_time_whose_exponent_overflows_exit_3(tmp_path):
    # t M = 1e308 * 10 leaves the float range before exp(tM) is formed.
    payload = flows.FlowScenario(10.0 * np.eye(4, k=-1), [grassmann.Subspace(np.eye(4)[:, c]) for c in
                                                          ([0, 1], [2, 3], [0, 2], [1, 3])],
                                 [0.0, 1e308]).to_json()
    assert run_with_warnings_as_errors(tmp_path, "flow", payload) \
        == (3, "Overflow: the exponent tM is not finite at t = 1e+308")


def test_cli_loads_no_scipy(tmp_path):
    # Importing the package and running any verb, to success or to an error
    # exit, loads no scipy: the package needs numpy only.
    unequal = [grassmann.random_subspace(3, d, 10 + i) for i, d in enumerate((1, 2, 1, 2))]
    rng = np.random.default_rng(3)
    cocycle = {key: [grassmann.random_subspace(4, 2, int(rng.integers(2**31))).to_json()
                     for _ in range(count)] for key, count in (("p", 2), ("q", 3))}
    shift_flow = flows.FlowScenario(flows.shift_generator(12, 1),
                                    [grassmann.random_subspace(12, 6, i) for i in range(4)],
                                    np.linspace(0.0, 1.0, 11))

    def one(v):
        return numerics.matrix_to_json([[v]])

    cases = [
        ("dv", dv_input(), 0),
        ("dv", {"subspaces": [w.to_json() for w in unequal]}, 0),
        ("angle", {"a": one(1.0), "b": one(2.0)}, 0),
        ("cocycle", cocycle, 0),
        ("riccati", {"system": oscillator_json(), "w0": one(0.0),
                     "t0": 0.0, "t1": 1.0, "steps": 20}, 0),
        ("hamiltonian", {"system": oscillator_json(), "q0": one(1.0), "p0": one(0.0),
                         "t0": 0.0, "t1": 1.0, "steps": 20}, 0),
        ("dv", {"subspaces": []}, 2),
        ("dv", {"subspaces": [grassmann.random_subspace(4, 2, 5).to_json()] * 4}, 3),
        ("flow", shift_flow.to_json(), 0),
        ("flow", overflowing_flow_scenario().to_json(), 3),
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


def test_hamiltonian_verb(tmp_path):
    payload = {"system": oscillator_json(),
               "q0": {"rows": 1, "cols": 1, "data": [[1.0]]},
               "p0": {"rows": 1, "cols": 1, "data": [[0.0]]},
               "t0": 0.0, "t1": 1.0, "steps": 200}
    status, text = run_to_files(tmp_path, "hamiltonian", payload)
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
    rows = [[float(v) for v in row.split(",")] for row in open(tmp_path / "out.csv").read().splitlines()]
    assert len(rows) == 51
    q, p = (np.ravel(results[k]["data"]) for k in ("q_final", "p_final"))
    assert rows[-1] == [results["t_final"], *q, *p]


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
    payload = {"a": {"rows": 1, "cols": 1, "data": [[1.0]]},
               "b": {"rows": 1, "cols": 1, "data": [[2.0]]}}
    status, text = run_to_files(tmp_path, "angle", payload)
    assert status == 0
    assert abs(json.loads(text)["results"]["matrix"]["data"][0][0] - 0.9) < 1e-12

    w1 = grassmann.random_subspace(4, 2, 1)
    w2 = grassmann.random_subspace(4, 2, 2)
    payload = {"first": [w1.to_json(), w2.to_json()],
               "second": [w1.to_json(), w2.to_json()]}
    status, text = run_to_files(tmp_path, "equiv", payload, name="eq.json")
    assert status == 0
    assert json.loads(text)["results"]["equivalent"] is True


def test_equiv_reports_the_angles_it_decides_by(tmp_path, svd_calls):
    # One stacked SVD call serves the verdict and both pairs' reported angles.
    g, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
    p, q = (grassmann.random_subspace(6, 3, seed) for seed in (1, 2))
    rotated = [grassmann.subspace_from_basis(g @ w.basis) for w in (p, q)]
    for second, equivalent in ((rotated, True), ([p, grassmann.random_subspace(6, 3, 3)], False)):
        payload = {"first": [p.to_json(), q.to_json()], "second": [w.to_json() for w in second]}
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
    payload = {"first": [w.to_json() for w in planes], "second": [w.to_json() for w in lines]}
    status, text = run_to_files(tmp_path, "equiv", payload)
    assert status == 0
    results = json.loads(text)["results"]
    assert results["equivalent"] is False
    for key, size in (("first", 2), ("second", 1)):
        pair = [grassmann.Subspace.from_json(w) for w in payload[key]]
        assert results[f"angles_{key}"] == grassmann.principal_angles(*pair).tolist()
        assert len(results[f"angles_{key}"]) == size
    # A pair whose own ambient dimensions differ is malformed input.
    mixed = [grassmann.random_subspace(n, 2, seed).to_json() for n, seed in ((4, 5), (5, 6))]
    status, text = run_to_files(tmp_path, "equiv", {"first": mixed, "second": mixed})
    assert status == 2
    assert json.loads(text)["error"] == "ValidationError: ambient dimensions differ"


def test_cocycle_verb(tmp_path):
    rng = np.random.default_rng(3)
    p = [grassmann.random_subspace(4, 2, int(rng.integers(2**31))) for _ in range(2)]
    q = [grassmann.random_subspace(4, 2, int(rng.integers(2**31))) for _ in range(3)]
    payload = {"p": [w.to_json() for w in p], "q": [w.to_json() for w in q]}
    status, text = run_to_files(tmp_path, "cocycle", payload)
    assert status == 0
    assert json.loads(text)["results"]["residual"] < 1e-8


def test_flow_verb_writes_spectrum_csv(tmp_path):
    rng = np.random.default_rng(8)
    pol = grassmann.standard_polarization(6, 3)
    subs = [grassmann.subspace_from_graph(rng.standard_normal((3, 3)), pol)
            for _ in range(4)]
    payload = {"generator": numerics.matrix_to_json(np.eye(6, k=-1)),
               "initials": [w.to_json() for w in subs],
               "times": [0.0, 0.5, 1.0]}
    status, text = run_to_files(tmp_path, "flow", payload)
    assert status == 0
    report = json.loads(text)
    rows = report["results"]["rows"]
    assert len(rows) == 3
    first = np.array(rows[0]["spectrum"])
    last = np.array(rows[-1]["spectrum"])
    assert np.max(np.abs(first - last)) < 1e-6
    # A real flow's row: t, the spectrum as (re, im) pairs, the real traces and det.
    csv_rows = [[float(v) for v in row.split(",")] for row in open(tmp_path / "out.csv").read().splitlines()]
    assert len(csv_rows) == 3
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
    csv_rows = [[float(v) for v in row.split(",")] for row in open(tmp_path / "out.csv").read().splitlines()]
    assert len(csv_rows) == 4 and {len(row) for row in csv_rows} == {1 + 4 * 2 + 2}
    for row, r in zip(csv_rows, rows):
        det = r["det"] if isinstance(r["det"], list) else [r["det"], 0.0]
        assert row == [r["t"], *np.ravel(r["spectrum"]), *np.ravel(r["traces"]), *det]
    assert any(row[6] != 0.0 for row in csv_rows)  # the imaginary part of tr D


def test_selftest_verb(tmp_path):
    out = str(tmp_path / "self.json")
    assert cli.run("selftest", None, out, seed=1) == 0
    report = json.loads(open(out).read())
    assert all(c["passed"] for c in report["results"]["checks"])


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


def test_equiv_tol_decides_the_verdict(tmp_path):
    w1 = grassmann.random_subspace(4, 2, 1)
    w2 = grassmann.random_subspace(4, 2, 2)
    g, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    w3 = grassmann.subspace_from_basis(g @ w1.basis)
    w4 = grassmann.subspace_from_basis(g @ w2.basis)
    payload = {"first": [w1.to_json(), w2.to_json()],
               "second": [w3.to_json(), w4.to_json()]}
    inp = write_json(tmp_path / "in.json", payload)
    out = str(tmp_path / "out.json")
    assert cli.run("equiv", inp, out, tol=1e-300) == 0
    strict = json.loads(open(out).read())["results"]["equivalent"]
    assert main_status(["equiv", "--in", inp, "--out", out, "--tol", "1e-6"]) == 0
    loose = open(out).read()
    assert json.loads(loose)["results"]["equivalent"] is True and strict is False
    # The default tolerance is 1e-6.
    assert cli.run("equiv", inp, out) == 0
    assert open(out).read() == loose


def test_invalid_tolerance_exit_2(tmp_path):
    payload = {"first": dv_input()["subspaces"][:2], "second": dv_input(1)["subspaces"][:2]}
    inp = write_json(tmp_path / "in.json", payload)
    for text in ("abc", "nan", "-1"):
        assert main_status(["equiv", "--in", inp, "--out", str(tmp_path / "m.json"),
                            "--tol", text]) == 2, text
    for tol in (float("nan"), -1.0):
        status, report = run_to_files(tmp_path, "equiv", payload, tol=tol)
        assert status == 2, tol
        assert json.loads(report)["error"].startswith("ValidationError"), tol
    assert run_to_files(tmp_path, "equiv", payload, tol=0.0)[0] == 0


def test_float_formatting_is_deterministic():
    assert cli._format_float(1.0) == "1.0"
    assert cli._format_float(0.1) == "0.10000000000000001"
    with pytest.raises(Overflow):
        cli._format_float(float("nan"))


def test_unknown_verb_rejected():
    with pytest.raises(ValueError):
        cli.run("frobnicate", None, None)


def main_status(args, **kw):
    with pytest.raises(SystemExit) as exc:
        cli.main(args, **kw)
    return exc.value.code


def test_main_version_and_usage_errors(capsys):
    assert main_status(["--version"]) == 0
    assert capsys.readouterr().out == f"opcross, version {__version__}\n"
    # No verb, an unknown verb, a bad option value, an abbreviated option, and
    # --tol, which is equiv's option alone, after another verb.
    for args in ([], ["nosuch"], ["dv", "--seed", "x"], ["dv", "--o", "x"], ["dv", "--tol", "1e-6"]):
        assert main_status(args) == 2, args


def test_main_runs_the_verb(tmp_path):
    good = write_json(tmp_path / "good.json", dv_input())
    out, ref = tmp_path / "main.json", tmp_path / "run.json"
    assert main_status(["dv", "--in", good, "--out", str(out)], prog_name="opcross") == 0
    assert cli.run("dv", good, str(ref)) == 0
    assert out.read_bytes() == ref.read_bytes()
    same = write_json(tmp_path / "same.json",
                      {"subspaces": [grassmann.random_subspace(4, 2, 5).to_json()] * 4})
    assert main_status(["dv", "--in", same, "--out", str(out)]) == 3


def test_cli_runs_without_click(tmp_path):
    # The command line is the standard library's argparse: with click made
    # unimportable, main still runs a verb, an inadmissible input and a usage error.
    same = write_json(tmp_path / "same.json",
                      {"subspaces": [grassmann.random_subspace(4, 2, 5).to_json()] * 4})
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
    payloads = {"riccati": {"w0": {"rows": 1, "cols": 1, "data": [[0.0]]}},
                "hamiltonian": {"q0": {"rows": 1, "cols": 1, "data": [[1.0]]},
                                "p0": {"rows": 1, "cols": 1, "data": [[0.0]]}}}
    for verb, payload in payloads.items():
        inp = write_json(tmp_path / f"{verb}.json",
                         {"system": oscillator_json(), "t0": 0.0, "t1": 1.0, "steps": 20, **payload})
        out = tmp_path / f"{verb}.csv"
        assert cli.run(verb, inp, str(out)) == 2
        report = json.loads(out.read_text())
        assert report["error"].startswith("ValidationError") and report["results"] == {}
        assert cli.run(verb, inp, str(tmp_path / f"{verb}.out")) == 0
        assert (tmp_path / f"{verb}.csv").read_text().count("\n") == 21


def test_schwarz_verb_zero_step_exit_2(tmp_path):
    samples = [{"rows": 1, "cols": 1, "data": [[float(k)]]} for k in range(7)]
    status, text = run_to_files(tmp_path, "schwarz", {"samples": samples, "h": 0})
    assert status == 2
    assert json.loads(text)["error"] == "ValidationError: h must be a finite nonzero step, got 0.0"


def test_a_sample_step_whose_powers_leave_the_range(tmp_path):
    # h ** 3 overflows (h = 1e300) or underflows (h = 1e-300); neither is a program fault.
    samples = [{"rows": 1, "cols": 1, "data": [[float(np.tan(k * 0.01))]]} for k in range(-3, 4)]
    assert run_to_files(tmp_path, "schwarz", {"samples": samples, "h": 1e300})[0] == 0
    status, text = run_to_files(tmp_path, "schwarz", {"samples": samples, "h": 1e-300})
    assert status == 3
    assert json.loads(text)["error"] == "Overflow: the finite-difference jet is not finite"


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


def test_missing_fields_and_wrong_lists_name_their_field(tmp_path):
    subs = dv_input()["subspaces"]
    cases = [("dv", {}, "missing field 'subspaces'"),
             ("dv", {"subspaces": subs[:3]}, "subspaces must be a list of 4 entries"),
             ("equiv", {"first": subs[:2], "second": None}, "second must be a list of 2 entries"),
             ("cocycle", {"p": subs[:2], "q": subs[:2]}, "q must be a list of 3 entries"),
             ("schwarz", {"samples": 1, "h": 0.1}, "samples must be a list"),
             ("flow", {"generator": subs[0]["basis"], "initials": {}, "times": [0.0]},
              "initials must be a list"),
             ("angle", {"a": {"rows": 1, "cols": 1, "data": [None]}, "b": None},
              "data[0] must be a list of 1 entries"),
             ("riccati", {"system": {"A": [[None]], "B": [[[1.0]]]}, "w0": None},
              "coefficient[0] must be a list")]
    for verb, payload, error in cases:
        status, text = run_to_files(tmp_path, verb, payload)
        assert (status, json.loads(text)["error"]) == (2, "ValidationError: " + error), verb


def test_numpy_linalg_error_is_numerical_exit_3(tmp_path):
    # I + A^T A of A = 1e8 J rounds to an exactly singular matrix: numpy raises its
    # LinAlgError, a ValueError subclass, which is no malformed input.
    payload = {"a": {"rows": 2, "cols": 2, "data": [[1e8, 1e8], [1e8, 1e8]]},
               "b": {"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 1.0]]}}
    status, text = run_to_files(tmp_path, "angle", payload)
    assert (status, json.loads(text)["error"]) == (3, "LinAlgError: Singular matrix")
