"""opcross benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the root of a source checkout: the program is imported from
./src.  One process drives the program as a closed loop with a single caller
and no think time.  With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run (see README.md).  The line before it
records the environment, the generator's rejected draws and the outcome of
every problem kind.
"""

import os
import sys

# One BLAS thread, here and in every child process; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import time
from collections import Counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")
HERE = os.path.dirname(os.path.abspath(__file__))
# Workload and metric names, with their units, come from BENCHMARK.json.
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Rounds per pool; a run measures whole passes over its pool, so every run
# has the same mix of problem kinds.
POOL_ROUNDS = {"small_dense": 100, "large_dense": 2, "trajectory": 1, "cli_cold": 1}
# Program time of one pass over the pool at the seed commit, rounded.  A run
# times round(seconds / PASS_SECONDS) passes: the number of repetitions
# depends on --seconds only, never on how fast the program under test is.
PASS_SECONDS = {"small_dense": 0.3, "large_dense": 0.55, "trajectory": 1.2, "cli_cold": 3.6}
# Fresh processes timed per set-up or start-up figure; the median is reported.
PROBE_REPEATS = 5
# Seconds between two picks of the quickest CPU (see CpuPicker).
PICK_INTERVAL_S = 0.25


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def import_program():
    """Import opcross from ./src, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "opcross", "__init__.py")):
        raise SystemExit(f"error: no opcross sources under {SRC}; run from a checkout root")
    sys.path.insert(0, SRC)
    import opcross
    if os.path.dirname(os.path.dirname(os.path.abspath(opcross.__file__))) != SRC:
        raise SystemExit(f"error: imported opcross from {opcross.__file__}, not {SRC}")
    return opcross


def build(name, seed):
    """Import the program and generate the workload's pool of problems."""
    oc = import_program()
    import workloads as wl
    from gen import Generator
    gen = Generator(seed)
    runner = None
    rounds = range(POOL_ROUNDS[name])
    if name == "small_dense":
        pool = [wl.dense_round(gen, oc, i, (2, 4, 6), with_errors=True) for i in rounds]
    elif name == "large_dense":
        pool = [wl.dense_round(gen, oc, i, (64, 256), with_errors=False, flow_n=64)
                for i in rounds]
    elif name == "trajectory":
        pool = [wl.trajectory_round(gen, oc) for _ in rounds]
    else:
        import opcross.cli  # noqa: F401  (the in-process reference reports)
        os.makedirs(TMP, exist_ok=True)
        runner = wl.CliRunner(ROOT, TMP, child_env())
        pool = [wl.cli_round(gen, runner, i) for i in rounds]
    return oc, [p for r in pool for p in r], gen, runner


def wall(cmd):
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class CpuPicker:
    """Pins this process, and the children it starts, to whichever allowed
    CPU runs a short fixed kernel fastest at the moment.

    On a shared VM a vCPU turns slow for seconds at a time, usually one vCPU
    at a time (see README.md); picking again every PICK_INTERVAL_S seconds
    keeps the timed calls on the quicker one.  The pick itself is not timed.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.picked_at = None

    @staticmethod
    def _kernel():
        import numpy as np
        w, b = np.zeros((2, 2)), np.eye(2)
        start = time.perf_counter()
        for _ in range(200):
            w = w - 1e-3 * (b + w @ w)
        return time.perf_counter() - start

    def pick(self, force=False):
        now = time.perf_counter()
        if len(self.cpus) < 2 or not force and self.picked_at is not None \
                and now - self.picked_at < PICK_INTERVAL_S:
            return
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(self._kernel() for _ in range(2))
        os.sched_setaffinity(0, {min(speed, key=speed.get)})
        self.picked_at = time.perf_counter()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.sched_setaffinity(0, self.cpus)


def median_wall(cmd, repeats):
    """Median wall time of `repeats` runs of cmd."""
    times = []
    with CpuPicker() as cpu:
        for _ in range(repeats):
            cpu.pick(force=True)
            times.append(wall(cmd))
    return statistics.median(times)


def timed_passes(name, seconds):
    return max(1, round(seconds / PASS_SECONDS[name]))


def measure(pool, passes, warmup):
    """`passes` timed passes over the pool, after one untimed and unchecked
    pass when `warmup`.

    Only the call is timed; the check of its outcome runs after the clock
    stops.  A problem's time is the fastest of its timed repetitions, each
    made on the CPU that CpuPicker finds quickest at the time: on a shared
    machine other tenants slow some repetitions down (see README.md).
    `peak_kb` is the worker's peak resident memory before the first check,
    so the checks' own imports and reference values are not in it.
    """
    perf_counter = time.perf_counter
    best = [float("inf")] * len(pool)
    fails, kinds = Counter(), Counter()

    def one_pass(cpu=None):
        for i, p in enumerate(pool):
            if cpu is not None:
                cpu.pick()
            start = perf_counter()
            try:
                out, err = p.call(), None
            except Exception as exc:  # the check decides whether it was expected
                out, err = None, exc
            dt = perf_counter() - start
            if cpu is None:
                continue
            try:
                ok = p.passes(out, err)
            except Exception:
                ok = False
            kinds[p.kind] += 1
            if not ok:
                fails[p.kind] += 1
            best[i] = min(best[i], dt)

    if warmup:
        one_pass()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with CpuPicker() as cpu:
        for _ in range(passes):
            one_pass(cpu)
    return {"best": best, "pool": len(pool), "passes": passes, "fails": fails, "kinds": kinds,
            "peak_kb": peak_kb}


def environment():
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": blas_threads(), "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]}


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes
    import glob
    import numpy
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def end_to_end(name, seed, seconds):
    setup_s = median_wall([sys.executable, __file__, "--setup-probe", "--workload", name,
                           "--seed", str(seed)], PROBE_REPEATS)
    oc, pool, gen, runner = build(name, seed)
    import workloads as wl
    run = measure(pool, timed_passes(name, seconds), warmup=True)
    best = run["best"]
    peak_kb = run["peak_kb"] if runner is None else runner.peak_rss_kb
    metrics = {
        "throughput": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "correct_frac": 1.0 - sum(run["fails"].values()) / sum(run["kinds"].values()),
        "riccati_pole_rel_err": wl.pole_rel_err(oc),
    }
    return run, gen, metrics


def per_layer(name, seed, seconds):
    from tracer import Tracer, wrappers_left
    oc, pool, gen, runner = build(name, seed)
    half = timed_passes(name, seconds / 2)
    plain = measure(pool, half, warmup=True)
    tracer = Tracer()
    tracer.install()
    if runner is not None:
        runner.tracer = tracer
        runner.outputs = runner.report_bytes = runner.csv_bytes = 0
    try:
        traced = measure(pool, half, warmup=False)
    finally:
        tracer.remove()
    if runner is not None:
        runner.tracer = None
    left = wrappers_left()
    if left:
        raise SystemExit(f"error: tracer wrappers left after removal: {left}")
    interpreter = median_wall([sys.executable, "-c", "pass"], PROBE_REPEATS)
    with_import = median_wall([sys.executable, "-c", "import opcross.cli"], PROBE_REPEATS)
    metrics = layer_metrics(tracer, traced["passes"] * len(pool), runner)
    metrics["cli.interpreter_ms"] = interpreter * 1e3
    metrics["cli.import_ms"] = (with_import - interpreter) * 1e3
    metrics["trace_overhead_frac"] = 1.0 - sum(plain["best"]) / sum(traced["best"])
    runs = {"kinds": plain["kinds"] + traced["kinds"], "fails": plain["fails"] + traced["fails"],
            "pool": len(pool), "passes": traced["passes"]}
    return runs, gen, metrics


def layer_metrics(tr, problems, runner):
    """Per-problem (per accepted step for schwarzian) figures of a traced run."""
    def layer(key):
        return key.split(".", 1)[0]

    def calls(key):
        return tr.total("calls", lambda caller, k: k == key)

    def incl_ms(pred):
        return tr.total("incl_ns", pred) * 1e-6 / problems

    def self_ms(name):
        return tr.self_ns[name] * 1e-6 / problems

    def top_crossratio(caller, key):
        return layer(key) == "crossratio" and layer(caller) != "crossratio"

    def parse(caller, key):
        return layer(caller) == "cli" and (key == "numerics.matrix_from_json"
                                           or key.endswith(".from_json"))

    def csv(caller, key):
        return key == "cli._trajectory_csv"

    steps = tr.accepted_steps
    rhs = calls("schwarzian.riccati_rhs") + calls("schwarzian.hamiltonian_rhs")
    cr_calls = tr.total("calls", top_crossratio)
    return {
        "numerics.svd_calls": calls("numerics.singular_values") / problems,
        "numerics.eig_calls": calls("numerics.eigenvalues") / problems,
        "numerics.validate_calls":
            (calls("numerics.as_matrix") + calls("numerics.as_square")) / problems,
        "numerics.self_ms": self_ms("numerics"),
        "grassmann.complement_checks": calls("grassmann.check_complementary") / problems,
        "grassmann.subspace_builds": calls("grassmann.Subspace.__post_init__") / problems,
        "grassmann.project_calls": calls("grassmann.project_parallel") / problems,
        "grassmann.self_ms": self_ms("grassmann"),
        "crossratio.invariants_ms":
            incl_ms(lambda caller, key: key == "crossratio.CrossRatioResult.from_matrix"),
        "crossratio.self_ms": self_ms("crossratio"),
        "crossratio.typed_error_frac":
            tr.total("errors", top_crossratio) / cr_calls if cr_calls else 0.0,
        # Classical RK4 evaluates the right-hand side four times per step.
        "schwarzian.rhs_calls_per_step": rhs / steps if steps else 0.0,
        "schwarzian.useful_step_frac": steps / (rhs / 4.0) if rhs else 0.0,
        "schwarzian.phasepoint_builds_per_step":
            calls("schwarzian.PhasePoint.__post_init__") / steps if steps else 0.0,
        "schwarzian.self_us_per_step": tr.self_ns["schwarzian"] * 1e-3 / steps if steps else 0.0,
        "flows.expm_ms":
            incl_ms(lambda caller, key: key == "numerics.expm" and layer(caller) == "flows"),
        "flows.dv_ms": incl_ms(lambda caller, key: key == "crossratio.dv_composition"
                               and layer(caller) == "flows"),
        "flows.self_ms": self_ms("flows"),
        "cli.parse_ms": incl_ms(parse),
        "cli.handler_ms": incl_ms(lambda caller, key: key.startswith("cli._handle_"))
            - incl_ms(parse) - incl_ms(csv),
        "cli.serialize_ms": incl_ms(lambda caller, key: key == "cli.emit_report") + incl_ms(csv),
        "cli.report_bytes": runner.report_bytes / runner.outputs if runner else 0.0,
        "cli.csv_bytes": runner.csv_bytes / runner.outputs if runner else 0.0,
    }


def run_one(name, seed, seconds, trace):
    """Run one workload; returns (result line, info line)."""
    job = per_layer if trace else end_to_end
    try:
        run, gen, metrics = job(name, seed, seconds)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    units = LAYER_UNITS if trace else END_TO_END
    info = {"workload": name, "seed": seed, "trace": trace, "environment": environment(),
            "pool": run["pool"], "timed_passes": run["passes"],
            "rejected_draws": dict(gen.rejected), "problems": dict(run["kinds"]),
            "failures": dict(run["fails"]),
            "worker_peak_rss_mb_after_checks":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    result = {"correct": not run["fails"], "attempted": sum(run["kinds"].values()),
              "failed": sum(run["fails"].values()),
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    return result, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, HERE)
    import_program()
    if args.setup_probe:
        build(args.workload, args.seed)
        return 0
    if args.workload != "all":
        result, info = run_one(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(info))
        print(json.dumps(result))
        return 0
    for name in WORKLOADS:
        # Each workload in a fresh process, as when run alone: peak memory is
        # a per-process figure.
        out = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             check=True, stdout=subprocess.PIPE, text=True).stdout
        info, result = (json.loads(line) for line in out.splitlines()[-2:])
        print(json.dumps(info))
        for metric, m in result["metrics"].items():
            print(f"{name:12s} {metric:36s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:12s} {'correct / attempted / failed':36s} "
              f"{result['correct']} / {result['attempted']} / {result['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
