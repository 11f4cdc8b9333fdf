import json
import os
import subprocess
import sys

import numpy as np
import pytest

from opcross import cli, grassmann, numerics
from conftest import overflowing_dv_config, sampled_symmetric_b


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


def test_non_finite_result_exit_3_and_atomic_report(tmp_path, monkeypatch):
    monkeypatch.setitem(cli._HANDLERS, "angle",
                        lambda data, seed, tol: ({"x": float("inf")}, None))
    out = tmp_path / "out.json"
    out.write_text('{"stale": "report of an earlier run"}\n')
    assert cli.run("angle", write_json(tmp_path / "in.json", {}), str(out)) == 3
    report = json.loads(out.read_text())
    assert report["error"].startswith("Overflow") and "stale" not in report
    assert sorted(os.listdir(tmp_path)) == ["in.json", "out.json"]


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


def test_cli_import_skips_scipy_interpolate():
    code = "import sys, opcross.cli; print('scipy.interpolate' in sys.modules)"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_hamiltonian_verb(tmp_path):
    payload = {"system": oscillator_json(),
               "q0": {"rows": 1, "cols": 1, "data": [[1.0]]},
               "p0": {"rows": 1, "cols": 1, "data": [[0.0]]},
               "t0": 0.0, "t1": 1.0, "steps": 200}
    status, text = run_to_files(tmp_path, "hamiltonian", payload)
    assert status == 0
    report = json.loads(text)
    assert abs(report["results"]["q_final"]["data"][0][0] - np.cos(1.0)) < 1e-6


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
    csv_rows = open(tmp_path / "out.csv").read().strip().split("\n")
    assert len(csv_rows) == 3


def test_selftest_verb(tmp_path):
    out = str(tmp_path / "self.json")
    assert cli.run("selftest", None, out, seed=1) == 0
    report = json.loads(open(out).read())
    assert all(c["passed"] for c in report["results"]["checks"])


def test_tol_env_var(tmp_path, monkeypatch):
    w1 = grassmann.random_subspace(4, 2, 1)
    w2 = grassmann.random_subspace(4, 2, 2)
    g, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    w3 = grassmann.subspace_from_basis(g @ w1.basis)
    w4 = grassmann.subspace_from_basis(g @ w2.basis)
    payload = {"first": [w1.to_json(), w2.to_json()],
               "second": [w3.to_json(), w4.to_json()]}
    inp = write_json(tmp_path / "in.json", payload)
    out = str(tmp_path / "out.json")
    monkeypatch.setenv(cli.TOL_ENV_VAR, "1e-300")
    assert cli.run("equiv", inp, out) == 0
    strict = json.loads(open(out).read())["results"]["equivalent"]
    monkeypatch.setenv(cli.TOL_ENV_VAR, "1e-6")
    assert cli.run("equiv", inp, out) == 0
    loose = json.loads(open(out).read())["results"]["equivalent"]
    assert loose is True and strict is False


def test_invalid_tolerance_exit_2(tmp_path, monkeypatch):
    payload = {"first": dv_input()["subspaces"][:2], "second": dv_input(1)["subspaces"][:2]}
    for text in ("abc", "nan"):
        monkeypatch.setenv(cli.TOL_ENV_VAR, text)
        status, report = run_to_files(tmp_path, "equiv", payload)
        assert status == 2, text
        assert json.loads(report)["error"].startswith("ValidationError"), text
    monkeypatch.delenv(cli.TOL_ENV_VAR)
    for tol in (float("nan"), -1.0):
        status, report = run_to_files(tmp_path, "equiv", payload, tol=tol)
        assert status == 2, tol
        assert json.loads(report)["error"].startswith("ValidationError"), tol
    assert run_to_files(tmp_path, "equiv", payload, tol=0.0)[0] == 0


def test_float_formatting_is_deterministic():
    assert cli._format_float(1.0) == "1.0"
    assert cli._format_float(0.1) == "0.10000000000000001"
    with pytest.raises(ValueError):
        cli._format_float(float("nan"))


def test_unknown_verb_rejected():
    with pytest.raises(ValueError):
        cli.run("frobnicate", None, None)
