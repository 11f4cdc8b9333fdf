"""Batch front door: read a JSON problem file, dispatch, write a report.

Exit status: 0 success, 2 malformed input (a ValueError, and nothing else:
bad file / schema / tolerance) or unwritable output, 3 numerical error
(Singular, BlowUp, NotPolarization, ..., or numpy's LinAlgError), 1 a fault of
the program (Python's traceback, no report).  Reports are byte-identical for identical (input, seed, version).
"""

import argparse
import csv
import hashlib
import io
import json
import os
import sys

import numpy as np

from . import __version__, crossratio, flows, grassmann, numerics
from . import schwarzian as schwarz
from .errors import NumericalError, Overflow


# --- deterministic JSON with 17-significant-digit floats ------------------

def _format_float(x):
    if x != x or x in (float("inf"), float("-inf")):
        raise Overflow(f"non-finite float in output: {x!r}")
    text = format(float(x), ".17g")
    # Keep floats recognizably floats.
    if "e" not in text and "." not in text:
        text += ".0"
    return text


def dumps_report(obj, indent=0):
    """obj as deterministic JSON; numpy scalars and arrays and complex numbers ([re, im])
    are converted as they are written, a 2-d array as a matrix object."""
    pad = "  " * indent
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        obj = [obj.real, obj.imag]
    elif isinstance(obj, np.ndarray):
        obj = numerics.matrix_to_json(numerics.finite(obj, "a matrix in the output")) \
            if obj.ndim == 2 else list(obj)
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f'{pad}  {json.dumps(str(k))}: {dumps_report(v, indent + 1)}'
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {dumps_report(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"unserializable value of type {type(obj).__name__}")


def emit_report(verb, seed, input_digest, results, error=None):
    report = {
        "version": __version__,
        "verb": verb,
        "seed": seed,
        "input_digest": input_digest,
    }
    if error is not None:
        report["error"] = error
    report["results"] = results
    return dumps_report(report) + "\n"


# --- verb handlers --------------------------------------------------------

class _Object(dict):
    """A JSON object of the input: a key it lacks is malformed input."""

    def __missing__(self, key):
        raise ValueError(f"missing field {key!r}")


def _result_fields(result):
    return {"matrix": result.matrix, "spectrum": result.spectrum,
            "traces": result.trace_powers.astype(complex), "det": result.det}


def _subspaces(data, key, count):
    subs = numerics.list_from_json(data[key], key, count)
    return [grassmann.Subspace.from_json(s) for s in subs]


def _handle_dv(data, seed, tol):
    result = crossratio.dv_unequal(*_subspaces(data, "subspaces", 4))
    return _result_fields(result), None


def _handle_angle(data, seed, tol):
    a = numerics.matrix_from_json(data["a"])
    b = numerics.matrix_from_json(data["b"])
    result = crossratio.operator_angle(a, b)
    return _result_fields(result), None


def _handle_equiv(data, seed, tol):
    tol = crossratio.EQUIV_TOL if tol is None else tol
    if not 0.0 <= tol < float("inf"):
        raise ValueError(f"the decision tolerance must be a finite number >= 0, got {tol!r}")
    first, second = _subspaces(data, "first", 2), _subspaces(data, "second", 2)
    equivalent, angles_first, angles_second = crossratio.compare_pairs(*first, *second, tol)
    return {"equivalent": equivalent, "angles_first": angles_first,
            "angles_second": angles_second}, None


def _handle_cocycle(data, seed, tol):
    product = crossratio.cocycle_product(*_subspaces(data, "p", 2), *_subspaces(data, "q", 3))
    residual = numerics.fro(product - np.eye(product.shape[0]))
    return {"product": product, "residual": residual}, None


def _handle_schwarz(data, seed, tol):
    if "jet" in data:
        jet = schwarz.CurveJet.from_json(data["jet"])
        s = schwarz.schwarz(jet)
    elif "samples" in data:
        samples = [numerics.matrix_from_json(m)
                   for m in numerics.list_from_json(data["samples"], "samples")]
        shapes = list(dict.fromkeys(m.shape for m in samples))
        if len(shapes) > 1:
            raise ValueError(f"samples must share one shape, got {shapes[0]} and {shapes[1]}")
        s = schwarz.schwarz_from_samples(samples, numerics.number_from_json(data["h"], "h"))
    else:
        raise ValueError("schwarz input needs 'jet' or 'samples' + 'h'")
    return {"schwarzian": s, "spectrum": numerics.eigenvalues(s)}, None


def _trajectory_csv(ts, *stacks):
    """One CSV row per time t_i: t_i, then the entries of each stack's i-th array
    in turn; a complex array's entries take two columns each, re then im, as the
    report lists them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for t, *arrays in zip(ts, *stacks):
        parts = [np.stack([a.real, a.imag], -1) if np.iscomplexobj(a) else a for a in arrays]
        writer.writerow([_format_float(v) for v in np.concatenate([[t], *map(np.ravel, parts)])])
    return buf.getvalue()


def _time_grid(data):
    """(t0, t1, steps) of a trajectory input; steps defaults to 1000."""
    num = numerics.number_from_json
    return num(data["t0"], "t0"), num(data["t1"], "t1"), num(data.get("steps", 1000), "steps", int)


def _handle_riccati(data, seed, tol):
    sys_ = schwarz.HamiltonianSystem.from_json(data["system"])
    w0 = numerics.matrix_from_json(data["w0"])
    ts, ws = schwarz.integrate_riccati(sys_, w0, *_time_grid(data))
    results = {"t_final": ts[-1], "w_final": ws[-1], "steps": len(ts) - 1}
    return results, _trajectory_csv(ts, ws)


def _handle_hamiltonian(data, seed, tol):
    sys_ = schwarz.HamiltonianSystem.from_json(data["system"])
    x0 = schwarz.PhasePoint(numerics.matrix_from_json(data["q0"]),
                            numerics.matrix_from_json(data["p0"]))
    ts, points = schwarz.integrate_hamiltonian(sys_, x0, *_time_grid(data))
    results = {"t_final": ts[-1], "q_final": points.q[-1], "p_final": points.p[-1],
               "steps": len(ts) - 1}
    return results, _trajectory_csv(ts, points.q, points.p)


def _handle_flow(data, seed, tol):
    scenario = flows.FlowScenario.from_json(data)
    table = flows.spectrum_along_flow(scenario)
    results = {"rows": [{"t": t, "spectrum": spec, "traces": traces.astype(complex), "det": det}
                        for t, spec, traces, det in table]}
    ts, spectra, traces, dets = zip(*table)
    return results, _trajectory_csv(ts, spectra, map(np.append, traces, dets))


def _handle_selftest(data, seed, tol):
    from . import selftest
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    checks = selftest.run_all(seed=seed)
    results = {"checks": [{"name": name, "passed": bool(ok), "detail": detail}
                          for name, ok, detail in checks]}
    if not all(ok for _, ok, _ in checks):
        raise NumericalError("selftest failed: " + ", ".join(
            name for name, ok, _ in checks if not ok))
    return results, None


_HANDLERS = {
    "dv": _handle_dv,
    "angle": _handle_angle,
    "equiv": _handle_equiv,
    "cocycle": _handle_cocycle,
    "schwarz": _handle_schwarz,
    "riccati": _handle_riccati,
    "hamiltonian": _handle_hamiltonian,
    "flow": _handle_flow,
    "selftest": _handle_selftest,
}


def run(verb, input_path, output_path, seed=0, tol=None):
    """Execute one command; returns the process exit status (0, 2 or 3), or
    raises what a fault of the program raised."""
    if verb not in _HANDLERS:
        raise ValueError(f"unknown verb {verb!r}")

    def fail(status, error):
        try:
            _write(output_path, emit_report(verb, seed, digest, {}, error))
        except OSError:
            pass
        print(("numerical error: " if status == 3 else "error: ") + error, file=sys.stderr)
        return status

    raw = b""
    if verb != "selftest":
        if input_path is None:
            print("error: this verb requires --in FILE", file=sys.stderr)
            return 2
        try:
            with open(input_path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            print(f"error: cannot read input: {exc}", file=sys.stderr)
            return 2
    digest = hashlib.sha256(raw).hexdigest()

    # Everything is serialized before any file is opened.
    try:
        try:
            data = json.loads(raw or b"{}", object_hook=_Object)
        except RecursionError:
            raise ValueError("the input JSON is nested too deeply") from None
        if not isinstance(data, dict):
            raise ValueError("input must be a JSON object")
        results, csv_text = _HANDLERS[verb](data, seed, tol)
        if csv_text is not None and output_path and _csv_path(output_path) == output_path:
            raise ValueError(f"--out {output_path} is where the {verb} CSV goes; "
                             "give the report another extension")
        text = emit_report(verb, seed, digest, results)
    except (NumericalError, np.linalg.LinAlgError) as exc:  # numpy's is a ValueError too
        return fail(3, f"{type(exc).__name__}: {exc}")
    except ValueError as exc:
        return fail(2, f"ValidationError: {exc}")

    try:
        _write(output_path, text)
        if csv_text is not None and output_path:
            _write(_csv_path(output_path), csv_text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def _write(path, text):
    """Write text to path via a temporary sibling and os.replace (never a
    partial file); no path means stdout."""
    if not path:
        sys.stdout.write(text)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _csv_path(output_path):
    root, _ = os.path.splitext(output_path)
    return root + ".csv"


def main(args=None, prog_name="opcross"):
    """Run ``VERB [--in FILE] [--out FILE]`` (``equiv`` also takes ``--tol X``,
    ``selftest`` ``--seed N``) from args (default sys.argv) and exit with run()'s
    status; a usage error exits 2."""
    parser = argparse.ArgumentParser(prog=prog_name, description="Operator cross-ratio toolkit.",
                                     allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    for verb in _HANDLERS:
        command = verbs.add_parser(verb, allow_abbrev=False,
                                   help=f"Run the {verb} operation on a JSON input file.")
        command.add_argument("--in", dest="input_path", metavar="FILE", help="Input JSON file.")
        command.add_argument("--out", dest="output_path", metavar="FILE", help="Report JSON "
                             "file; a trajectory verb also writes a .csv sibling.")
        if verb == "selftest":
            command.add_argument("--seed", type=int, default=0, help="(default: %(default)s)")
        if verb == "equiv":
            command.add_argument("--tol", type=float, help="Decision tolerance of the "
                                 f"equivalence verdict (default: {crossratio.EQUIV_TOL}).")
    ns = parser.parse_args(args)
    sys.exit(run(ns.verb, ns.input_path, ns.output_path, getattr(ns, "seed", 0),
                 getattr(ns, "tol", None)))


if __name__ == "__main__":
    main()
