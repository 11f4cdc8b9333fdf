"""Self-test of the benchmark's tracer.

    python3 perfbench/check_harness.py        (from the root of a checkout)

It checks that
  1. a call is recorded whichever binding it goes through: the module
     attribute, a ``from ... import`` alias in another module, the
     ``opcross`` package namespace or the CLI's handler table;
  2. spans nest: each span lies inside its parent's interval, its self time
     is its duration minus its children's, 0 <= self <= duration, and the
     per-layer self totals are the sums over the layer's spans;
  3. tracing leaves results bitwise unchanged;
  4. after removal every binding is the original object again, no wrapper is
     left anywhere, and calls are no longer recorded (the untraced run).
No count the program produces is asserted, because changes to the program
are meant to move those counts; the counts of one n=6 dv_composition are
printed for reference.  Exits 0 when every check passes.
"""

import contextlib
import io
import json
import os
import sys
from collections import Counter

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (pins BLAS threads before numpy does any work)
from gen import Generator, graph_basis, matrix_json  # noqa: E402
from tracer import Tracer, namespaces, targets, wrappers_left  # noqa: E402


def snapshot():
    """Every opcross binding and traced class attribute, by location."""
    names = {(id(ns), name): value for ns in namespaces() for name, value in ns.items()}
    _, methods = targets()
    attrs = {(cls, attr): vars(cls)[attr] for _, cls, attr, _, _ in methods}
    return names, attrs


def main():
    oc = run.import_program()
    from opcross import cli, crossratio, flows, grassmann
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    gen = Generator(0)
    subs = [oc.Subspace(graph_basis(t)) for t in gen.charts(3, 4)]
    n = 8
    scenario = oc.FlowScenario(np.eye(n, k=-1), [oc.Subspace(graph_basis(t))
                                                  for t in gen.charts(n // 2, 4)],
                               np.linspace(0.0, 1.0, 3))
    os.makedirs(run.TMP, exist_ok=True)
    inp = os.path.join(run.TMP, "check_in.json")
    out = os.path.join(run.TMP, "check_out.json")
    with open(inp, "w") as fh:
        json.dump({"subspaces": [{"basis": matrix_json(w.basis)} for w in subs]}, fh)

    def workload():
        with contextlib.redirect_stderr(io.StringIO()):
            cli.run("dv", inp, out)
        ts, ws = oc.integrate_riccati(oc.HamiltonianSystem(
            oc.MatrixPolynomial([np.zeros((2, 2))]), oc.MatrixPolynomial([np.eye(2)])),
            0.1 * np.eye(2), 0.0, 0.5, 20)
        return [oc.dv_composition(*subs).matrix, np.array(ws),
                np.array([row[1] for row in oc.spectrum_along_flow(scenario)])]

    before_names, before_attrs = snapshot()
    plain = workload()
    traced_fns = {id(fn) for _, fn in targets()[0]}

    tracer = Tracer()
    tracer.install()
    try:
        names, _ = snapshot()
        missed = [key for key, value in before_names.items()
                  if id(value) in traced_fns and not hasattr(names[key], "traced_key")]
        check(not missed, f"every binding of a traced function holds a wrapper ({len(missed)} missed)")

        def calls(key):
            return tracer.total("calls", lambda caller, k: k == key)

        for key, aliases in (
                ("grassmann.project_parallel",
                 ((grassmann, "grassmann"), (crossratio, "crossratio"), (oc, "opcross"))),
                ("crossratio.dv_composition",
                 ((crossratio, "crossratio"), (flows, "flows"), (oc, "opcross")))):
            name = key.split(".")[1]
            for module, label in aliases:
                fn = getattr(module, name)
                start = calls(key)
                if name == "project_parallel":
                    fn(subs[0].basis, subs[2], subs[3])
                else:
                    fn(*subs)
                check(calls(key) == start + 1, f"call through {label}.{name} is recorded")
        start = calls("cli._handle_dv")
        with contextlib.redirect_stderr(io.StringIO()):
            cli.run("dv", inp, out)
        check(calls("cli._handle_dv") == start + 1, "dispatch through cli._HANDLERS is recorded")

        tracer.spans = []
        self_before = Counter(tracer.self_ns)
        traced = workload()
        spans, tracer.spans = tracer.spans, None
    finally:
        tracer.remove()

    by_id = {s[0]: s for s in spans}
    children = Counter()
    nested = True
    for sid, parent, key, start, end, self_ns in spans:
        if parent:
            p = by_id.get(parent)
            nested = nested and p is not None and p[3] <= start and end <= p[4]
            children[parent] += end - start
    check(nested and len(spans) > 0, f"{len(spans)} spans each lie inside their parent")
    check(all(0 <= s[5] == (s[4] - s[3]) - children[s[0]] <= s[4] - s[3] for s in spans),
          "self time = duration - children, 0 <= self <= duration")
    layer_self = Counter()
    for s in spans:
        layer_self[s[2].split(".")[0]] += s[5]
    check(all(tracer.self_ns[layer] - self_before[layer] == ns for layer, ns in layer_self.items()),
          "per-layer self totals are the sums over the layer's spans")
    check(all(np.array_equal(a, b) for a, b in zip(plain, traced)),
          "traced results are bitwise equal to untraced ones")

    after_names, after_attrs = snapshot()
    check(all(after_names.get(k) is v for k, v in before_names.items())
          and all(after_attrs[k] is v for k, v in before_attrs.items()),
          "removal restores every binding to the original object")
    check(not wrappers_left(), "no wrapper is left after removal")
    recorded = dict(tracer.calls)
    workload()
    check(dict(tracer.calls) == recorded, "calls after removal are not recorded")

    lone = Tracer()
    lone.install()
    try:
        oc.dv_composition(*subs)
    finally:
        lone.remove()
    print("info lone n=6 dv_composition:", json.dumps(
        {key: lone.total("calls", lambda caller, k, key=key: k == key) for key in (
            "numerics.singular_values", "numerics.eigenvalues", "numerics.as_matrix",
            "numerics.as_square", "grassmann.check_complementary",
            "grassmann.project_parallel")}))
    for path in (inp, out):
        os.remove(path)
    os.rmdir(run.TMP)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
