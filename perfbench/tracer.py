"""Spans around the functions of the opcross modules, recorded by wrappers
that this file patches in and takes out again.

A function may be bound under several names: ``flows.dv_composition`` and
``opcross.dv_composition`` are the same object as
``crossratio.dv_composition``, and the CLI dispatches through the
``cli._HANDLERS`` table.  ``Tracer.install`` patches the wrapper onto every
attribute of every opcross module (and every value of a module-level dict)
that binds the function, so a call is recorded whichever name it goes
through.  ``Tracer.remove`` restores each binding to the original object.

Spans are aggregated as they close (counts, inclusive time per caller and
callee, self time per layer); a span's self time is its duration minus the
durations of the spans it directly encloses.  Set ``Tracer.spans`` to a list
to also keep every span (used by the harness self-test).
"""

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("numerics", "grassmann", "crossratio", "schwarzian", "flows", "cli")

# Private names that carry a layer boundary the metrics need: the CLI verb
# handlers (the compute step of a command) and the trajectory CSV writer.
PRIVATE = {"cli": lambda name: name.startswith("_handle_") or name == "_trajectory_csv"}

# Methods of the modules' classes that get spans besides public ones:
# dataclass validation runs in __post_init__.
CLASS_DUNDERS = ("__post_init__",)

# Integrators whose return value (times, states) gives the accepted steps.
STEP_KEYS = ("schwarzian.integrate_riccati", "schwarzian.integrate_hamiltonian")


def _traced_name(layer, name):
    return not name.startswith("_") or PRIVATE.get(layer, lambda _: False)(name)


def targets():
    """(key, function) of every module-level function to trace, and
    (key, class, attr, function, kind) of every method."""
    funcs, methods = [], []
    for layer in LAYERS:
        mod = importlib.import_module(f"opcross.{layer}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and _traced_name(layer, name):
                funcs.append((f"{layer}.{name}", obj))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, raw in vars(obj).items():
                    if attr.startswith("_") and attr not in CLASS_DUNDERS:
                        continue
                    if isinstance(raw, classmethod):
                        methods.append((f"{layer}.{name}.{attr}", obj, attr, raw.__func__, classmethod))
                    elif inspect.isfunction(raw):
                        methods.append((f"{layer}.{name}.{attr}", obj, attr, raw, None))
    return funcs, methods


def namespaces():
    """Every opcross module namespace and every dict held at module level."""
    spaces = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "opcross" or modname.startswith("opcross.")):
            continue
        ns = vars(mod)
        spaces.append(ns)
        spaces.extend(v for v in ns.values() if type(v) is dict)
    return spaces


class Tracer:
    def __init__(self):
        from opcross.errors import NumericalError
        self._numerical_error = NumericalError
        self.stack = []              # open spans: [key, child_ns, span_id]
        self.calls = Counter()       # "caller|key" -> calls (caller "" at top)
        self.incl_ns = Counter()     # "caller|key" -> inclusive ns
        self.errors = Counter()      # "caller|key" -> calls that raised a NumericalError
        self.self_ns = Counter()     # layer -> self ns
        self.accepted_steps = 0      # steps returned by the STEP_KEYS integrators
        self.spans = None            # list -> keep (id, parent, key, start, end, self)
        self._next_id = 0
        self._patches = []           # (namespace, name, original, wrapper)
        self._methods = []           # (class, attr, original raw attribute)

    # --- recording ---------------------------------------------------------

    def _wrap(self, key, fn):
        layer = key.split(".", 1)[0]
        stack = self.stack
        counts_steps = key in STEP_KEYS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            caller = stack[-1][0] if stack else ""
            edge = f"{caller}|{key}"
            self._next_id += 1
            frame = [key, 0, self._next_id]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except self._numerical_error:
                self.errors[edge] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[edge] += 1
                self.incl_ns[edge] += dur
                self.self_ns[layer] += dur - frame[1]
                if self.spans is not None:
                    parent = stack[-1][2] if stack else 0
                    self.spans.append((frame[2], parent, key, start, end, dur - frame[1]))
            if counts_steps:
                self.accepted_steps += len(result[0]) - 1
            return result

        span.traced_key = key
        return span

    # --- patching ----------------------------------------------------------

    def install(self):
        if self._patches or self._methods:
            raise RuntimeError("tracer already installed")
        funcs, methods = targets()
        spaces = namespaces()
        for key, fn in funcs:
            wrapper = self._wrap(key, fn)
            for ns in spaces:
                for name, value in list(ns.items()):
                    if value is fn:
                        ns[name] = wrapper
                        self._patches.append((ns, name, fn, wrapper))
        for key, cls, attr, fn, kind in methods:
            raw = vars(cls)[attr]
            wrapper = self._wrap(key, fn)
            setattr(cls, attr, kind(wrapper) if kind else wrapper)
            self._methods.append((cls, attr, raw))

    def remove(self):
        for ns, name, original, wrapper in reversed(self._patches):
            if ns[name] is not wrapper:
                raise RuntimeError(f"binding {name} changed while traced")
            ns[name] = original
        for cls, attr, raw in reversed(self._methods):
            setattr(cls, attr, raw)
        self._patches, self._methods = [], []

    # --- totals ------------------------------------------------------------

    def totals(self):
        return {"calls": dict(self.calls), "incl_ns": dict(self.incl_ns),
                "errors": dict(self.errors), "self_ns": dict(self.self_ns),
                "accepted_steps": self.accepted_steps}

    def total(self, table, pred):
        """Sum of a per-edge table ("calls", "incl_ns" or "errors") over the
        (caller, key) pairs that satisfy pred."""
        return sum(v for edge, v in getattr(self, table).items() if pred(*edge.split("|")))

    def merge(self, totals):
        """Add the totals of a tracer that ran in another process."""
        for name in ("calls", "incl_ns", "errors", "self_ns"):
            getattr(self, name).update(totals[name])
        self.accepted_steps += totals["accepted_steps"]


def wrappers_left():
    """Names of opcross bindings that still hold a tracer wrapper."""
    left = [name for ns in namespaces() for name, v in ns.items()
            if hasattr(v, "traced_key")]
    _, methods = targets()
    left += [key for key, cls, attr, _, _ in methods
             if hasattr(getattr(vars(cls)[attr], "__func__", vars(cls)[attr]), "traced_key")]
    return left
