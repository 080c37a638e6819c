"""Workloads, timing, verification and metric output of the solver benchmark.

``run.py`` pins BLAS to one thread, puts the checkout's ``src`` first on the
import path and calls ``main``.  Every solve goes through the public
``soarqep.solve``; the start vector is the only input derived from the
seed.  See README.md for the metrics and why each workload is there.
"""

import argparse
import ctypes
import dataclasses
import gc
import glob
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc

import numpy as np
import scipy
import scipy.linalg

import reference
from layertrace import LayerTracer


@dataclasses.dataclass
class Workload:
    name: str
    why: str
    problem: str          # "mass-spring" | "string-damping"
    n: int
    config: dict          # SolverConfig fields other than the start vector


MS_KAPPA, MS_TAU = 5.0, 10.0
STRING_EPSILON = 0.6
ARPACK_EXTRA = 6          # reference eigenvalues beyond the m wanted
MIN_SAMPLES = 2           # timed solves per run, however long they take
SETUP_MIN_REPS, SETUP_MAX_REPS = 5, 200
SETUP_BUDGET_S = 1.0      # generator calls go on this long (within the reps)
SETUP_BLOCK_S = 0.2       # generator time between two calibrations
CAL_LOOP = 100_000        # interpreter-loop iterations per calibration
CAL_QZ_N = 80             # order of the calibration QZ
CAL_REPS = 3
CAL_REF_S = 0.01          # nominal calibration time; see Calibrator

WORKLOADS = (
    Workload("ms5k-si-irsoar",
             "n-by-k memory-bound work dominates: Ritz residuals through W, "
             "reorthogonalization, Gram blocks and contraction over about 50 "
             "restarts",
             "mass-spring", 5000,
             dict(m=6, k=40, p=15, mode="shift-invert", sigma=-13 + 0.4j,
                  variant="irsoar", ctol=1e-10, tol=1e-8)),
    Workload("string300-direct-k140",
             "n-length work is negligible: the 280x280 QZ, Givens sweeps and "
             "refined cross-product eigh (k-order work) dominate",
             "string-damping", 300,
             dict(m=20, k=140, p=70, mode="direct", variant="irsoar",
                  ctol=1e-10)),
    Workload("string1000-si-imsoar",
             "dense C stored sparse makes the operator layer dominate; the only "
             "imsoar exact-shift path, with no refined extraction",
             "string-damping", 1000,
             dict(m=6, k=20, p=8, mode="shift-invert", sigma=0.6 + 0.8j,
                  variant="imsoar", ctol=1e-10)),
)

# Reduced sizes through the same code path, for the tiny warm-up solve and
# the smoke tests.
SMALL = {
    "ms5k-si-irsoar": dict(n=800),
    "string300-direct-k140": dict(n=150, config=dict(
        m=10, k=120, p=60, mode="direct", variant="irsoar", ctol=1e-10)),
    "string1000-si-imsoar": dict(n=150),
}

END_TO_END = (
    ("solve_s", "s"),
    ("cycle_ms", "ms"),
    ("cycles", "count"),
    ("setup_s", "s"),
    ("peak_alloc_mb", "MiB"),
)

LAYERS = ("problems", "operator", "msoar", "extraction", "kernels",
          "restart", "driver")

# per-layer metric -> (module, function) whose self time it reports
SELF_TIMES = {
    "extraction.ritz_self_s": ("extraction", "extract_ritz"),
    "extraction.extract_refined_s": ("extraction", "extract_refined"),
    "extraction.project_s": ("extraction", "project"),
    "kernels.gram_blocks_s": ("kernels", "gram_blocks"),
    "kernels.refined_vector_s": ("kernels", "refined_vector"),
    "kernels.solve_projected_qep_s": ("kernels", "solve_projected_qep"),
    "kernels.hessenberg_shifted_qr_s": ("kernels", "hessenberg_shifted_qr"),
    "msoar.extraction_basis_s": ("msoar", "extraction_basis"),
    "restart.contract_self_s": ("restart", "contract"),
    "restart.select_shifts_s": ("restart", "select_shifts"),
    "operator.build_operator_s": ("operator", "build_operator"),
    "operator.apply_ab_s": ("operator", "apply_ab"),
}
# per-layer metric -> (module, function) whose call count it reports
CALLS = {
    "kernels.refined_vector_calls": ("kernels", "refined_vector"),
    "kernels.solve_projected_qep_calls": ("kernels", "solve_projected_qep"),
    "msoar.steps": ("msoar", "msoar_step"),
    "operator.apply_ab_calls": ("operator", "apply_ab"),
}
# per-layer metric -> module whose total self time it reports
MODULE_TIMES = {
    "problems.module_s": "problems",
    "operator.module_s": "operator",
    "extraction.module_s": "extraction",
    "kernels.module_s": "kernels",
    "restart.module_s": "restart",
    "driver.self_s": "driver",
}
# The modules' self times during a traced solve add up to its duration.
SOLVE_PARTS = ("operator.module_s", "extraction.module_s", "kernels.module_s",
               "restart.module_s", "driver.self_s", "msoar.self_s",
               "msoar.extraction_basis_s")


def _count_deflation_step(outcome, counters):
    if outcome.kind == "deflation":
        counters["msoar.deflations"] = counters.get("msoar.deflations", 0) + 1


def _count_repaired(result, counters):
    _, rep = result
    counters["restart.deflations_repaired"] = (
        counters.get("restart.deflations_repaired", 0) + rep.deflations_repaired)


OBSERVERS = {
    ("msoar", "msoar_step"): _count_deflation_step,
    ("restart", "contract"): _count_repaired,
}
COUNTERS = ("msoar.deflations", "restart.deflations_repaired")

PER_LAYER = (
    [(name, "s") for name in SELF_TIMES]
    + [(name, "count") for name in CALLS]
    + [(name, "s") for name in MODULE_TIMES]
    + [("msoar.self_s", "s")]
    + [(name, "count") for name in COUNTERS]
    + [("driver.cycles", "count"), ("trace.solve_s", "s"),
       ("trace.overhead_s", "s")]
)


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


# -- environment ----------------------------------------------------------

def _openblas_info(pkg):
    """Config string and thread count of each OpenBLAS bundled with pkg."""
    site = os.path.dirname(os.path.dirname(pkg.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(site, pkg.__name__ + ".libs",
                                              "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"lib": os.path.basename(path)}
        for suffix in ("64_", ""):
            get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix,
                                  None)
            get_config = getattr(lib, "scipy_openblas_get_config" + suffix, None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info["threads"] = get_threads()
                info["config"] = get_config().decode(errors="replace").strip()
                break
        found.append(info)
    return found


def environment():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": {pkg.__name__: _openblas_info(pkg) for pkg in (np, scipy)},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
    }


def blas_threads(env):
    return sorted({lib.get("threads") for libs in env["openblas"].values()
                   for lib in libs if "threads" in lib})


# -- problem, reference and start vector ----------------------------------

def generate(soarqep, wl):
    if wl.problem == "mass-spring":
        return soarqep.gen_mass_spring(wl.n, kappa=MS_KAPPA, tau=MS_TAU)
    if wl.problem == "string-damping":
        return soarqep.gen_string_damping(wl.n, epsilon=STRING_EPSILON)
    raise ValueError("unknown problem %r" % wl.problem)


def build_reference(wl, problem):
    sigma = wl.config.get("sigma") if wl.config["mode"] == "shift-invert" else None
    M, C, K = problem.M, problem.C, problem.K
    if wl.problem == "mass-spring":
        lams = reference.mass_spring_spectrum(wl.n, MS_KAPPA, MS_TAU)
    elif sigma is None:
        lams = reference.dense_companion_spectrum(M, C, K)
    else:
        lams = reference.arpack_companion_spectrum(
            M, C, K, sigma, wl.config["m"] + ARPACK_EXTRA)
    return reference.build_reference(lams, M, C, K, sigma)


def start_vector(seed, n):
    return np.random.default_rng(seed).random(n)


def small_workload(wl):
    return dataclasses.replace(wl, **SMALL[wl.name])


# -- solving and checking -------------------------------------------------

class Tally:
    """Attempted and failed solves, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.append("; ".join(problems))


class Runner:
    """Solves one workload at one seed and checks every result."""

    def __init__(self, soarqep, wl, problem, ref, seed):
        self.soarqep = soarqep
        self.wl = wl
        self.problem = problem
        self.ref = ref
        self.u1 = start_vector(seed, problem.n)
        self.seed = seed
        self.tally = Tally()
        self.baseline = None     # residual_history of the first solve

    def config(self):
        return self.soarqep.SolverConfig(u1=self.u1, seed=self.seed,
                                         **self.wl.config)

    def solve(self):
        """One checked solve; returns (wall seconds, report or None)."""
        config = self.config()
        t0 = time.perf_counter()
        try:
            report = self.soarqep.solve(self.problem, config)
        except Exception as exc:   # a failed solve is counted, not fatal
            dt = time.perf_counter() - t0
            self.tally.record(["raised %s: %s" % (type(exc).__name__, exc)])
            return dt, None
        dt = time.perf_counter() - t0
        self.tally.record(self.check(report))
        return dt, report

    def check(self, report):
        pairs = [(p.lam, p.x, p.rel_residual) for p in report.converged]
        problems = reference.verify_pairs(self.ref, pairs, self.wl.config["m"],
                                          self.wl.config["ctol"])
        history = [float.hex(float(v)) for v in report.residual_history]
        if self.baseline is None:
            self.baseline = history
        elif history != self.baseline:
            problems.append("residual_history differs bitwise from the first "
                            "solve with this seed")
        return problems


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Calibrator:
    """Times a fixed computation that does not touch soarqep: an interpreter
    loop and a small dense complex QZ, combined as a geometric mean, median
    of CAL_REPS repetitions.

    The speed of a shared host drifts by up to 2x over seconds to minutes.
    A time divided by the calibration times measured just before and after
    it, and multiplied by CAL_REF_S, cancels most of that drift.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        n = CAL_QZ_N
        self.A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        self.B = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        self.samples = []

    def _once(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i
        t1 = time.perf_counter()
        scipy.linalg.eigvals(self.A, self.B)
        t2 = time.perf_counter()
        return math.sqrt((t1 - t0) * (t2 - t1))

    def __call__(self):
        c = statistics.median(self._once() for _ in range(CAL_REPS))
        self.samples.append(c)
        return c


def calibrated_loop(step, cal, min_reps, seconds, max_reps=math.inf,
                    block_s=0.0):
    """Call ``step`` (which returns (wall seconds, result)) at least
    ``min_reps`` times and until ``seconds`` have passed, calibrating after
    each block of calls that lasts at least ``block_s``.

    Returns (wall times, calibrated times, last non-None result).
    """
    raw, scaled, block = [], [], []
    last = None
    t_end = time.perf_counter() + seconds
    c_prev = cal()
    while True:
        dt, result = step()
        raw.append(dt)
        block.append(dt)
        last = result if result is not None else last
        more = len(raw) < min_reps or (len(raw) < max_reps
                                       and time.perf_counter() < t_end)
        if sum(block) >= block_s or not more:
            c_next = cal()
            factor = CAL_REF_S / math.sqrt(c_prev * c_next)
            scaled.extend(b * factor for b in block)
            block = []
            c_prev = c_next
        if not more:
            return raw, scaled, last


def peak_alloc_solve(runner):
    """One untimed solve under tracemalloc; returns (peak bytes, report)."""
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _, report = runner.solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, report


def warm_up(soarqep, wl, seed):
    """A reduced-size solve of the workload: pays lazy imports and LAPACK
    initialization outside the measured solves."""
    small = small_workload(wl)
    problem = generate(soarqep, small)
    config = soarqep.SolverConfig(u1=start_vector(seed, problem.n), seed=seed,
                                  **small.config)
    soarqep.solve(problem, config)


def layer_metrics(tracer, report):
    """Per-layer values of one traced solve, and the metrics found absent."""
    values = {}
    absent = []
    for name, (mod, fn) in SELF_TIMES.items():
        values[name] = tracer.self_s(mod, fn)
        if not tracer.present(mod, fn):
            absent.append(name)
    for name, (mod, fn) in CALLS.items():
        values[name] = tracer.calls(mod, fn)
        if not tracer.present(mod, fn):
            absent.append(name)
    for name, mod in MODULE_TIMES.items():
        if mod != "problems":
            values[name] = tracer.module_self_s(mod)
    values["msoar.self_s"] = tracer.module_self_s(
        "msoar", exclude=("extraction_basis",))
    for name in COUNTERS:
        values[name] = tracer.counters.get(name, 0)
    for mod, fn in tracer.observer_errors:
        absent.extend(c for c in COUNTERS if c.startswith(mod + "."))
    values["driver.cycles"] = (report.restarts_used + 1) if report else 0
    return values, absent


def run_workload(soarqep, wl, seed, seconds, trace):
    """Run one workload; returns (metrics, tally, human-readable lines)."""
    cal = Calibrator()
    cal()

    def timed_generate():
        t0 = time.perf_counter()
        problem = generate(soarqep, wl)
        return time.perf_counter() - t0, problem

    setup_raw, setup_scaled, problem = calibrated_loop(
        timed_generate, cal, SETUP_MIN_REPS, SETUP_BUDGET_S,
        max_reps=SETUP_MAX_REPS, block_s=SETUP_BLOCK_S)
    ref = build_reference(wl, problem)
    runner = Runner(soarqep, wl, problem, ref, seed)
    lines = []
    try:
        warm_up(soarqep, wl, seed)
    except Exception as exc:   # counted like any failed solve
        runner.tally.record(["warm-up raised %s: %s" % (type(exc).__name__, exc)])
    if trace:
        metrics = _traced_run(soarqep, wl, runner, seconds, lines)
    else:
        metrics = _timed_run(runner, cal, seconds, setup_raw, setup_scaled,
                             lines)
    t = runner.tally
    lines.append("%-32s %.4g  (%d of %d solves failed)"
                 % ("fail_frac", t.failed / max(t.attempted, 1), t.failed,
                    t.attempted))
    lines.extend("  FAILED: " + r for r in t.reasons)
    return metrics, t, lines


def _timed_run(runner, cal, seconds, setup_raw, setup_scaled, lines):
    peak, first = peak_alloc_solve(runner)
    raw, scaled, last = calibrated_loop(runner.solve, cal, MIN_SAMPLES, seconds)
    report = first or last
    restarts = report.restarts_used if report else 0
    cycles = restarts + 1
    solve_s = statistics.median(scaled)
    setup_s = statistics.median(setup_scaled)
    metrics = {
        "solve_s": solve_s,
        "cycle_ms": 1e3 * solve_s / cycles,
        "cycles": cycles,
        "setup_s": setup_s,
        "peak_alloc_mb": peak / 2.0 ** 20,
    }
    lines += [
        _timing_line("solve_s", solve_s, scaled),
        "%-32s %.6g s  (wall; median of %d: %s)"
        % ("solve_s raw", statistics.median(raw), len(raw),
           " ".join("%.4f" % v for v in raw)),
        "%-32s %.6g ms  (solve_s / cycles; wall %.6g ms)"
        % ("cycle_ms", metrics["cycle_ms"], 1e3 * statistics.median(raw) / cycles),
        "%-32s %d count" % ("restarts", restarts),
        "%-32s %d count  (restarts + 1)" % ("cycles", cycles),
        _timing_line("setup_s", setup_s, setup_scaled),
        "%-32s %.6g s  (wall; median of %d generator calls)"
        % ("setup_s raw", statistics.median(setup_raw), len(setup_raw)),
        "%-32s %.6g MiB  (tracemalloc peak of one untimed solve)"
        % ("peak_alloc_mb", metrics["peak_alloc_mb"]),
        "%-32s %.6g s  (median of %d; reference %.6g s)"
        % ("calibration", statistics.median(cal.samples), len(cal.samples),
           CAL_REF_S),
    ]
    return metrics


def _timing_line(name, value, samples):
    q1, q3 = _quartiles(samples)
    return ("%-32s %.6g s  (calibrated; median of %d, q1 %.6g, q3 %.6g, max %.6g)"
            % (name, value, len(samples), q1, q3, max(samples)))


def _traced_run(soarqep, wl, runner, seconds, lines):
    tracer = LayerTracer("soarqep", LAYERS, OBSERVERS)
    plain, traced, per_solve = [], [], []
    absent = []
    with tracer:
        generate(soarqep, wl)
    problems_s = tracer.module_self_s("problems")
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        dt, _ = runner.solve()
        plain.append(dt)
        tracer.reset()
        with tracer:
            dt, report = runner.solve()
        traced.append(dt)
        values, absent = layer_metrics(tracer, report)
        values["attributed_frac"] = sum(values[k] for k in SOLVE_PARTS) / dt
        per_solve.append(values)
    metrics = {}
    for name, _ in PER_LAYER:
        if name == "problems.module_s":
            metrics[name] = problems_s
        elif name == "trace.solve_s":
            metrics[name] = statistics.median(traced)
        elif name == "trace.overhead_s":
            # adjacent pairs share the host's state
            metrics[name] = statistics.median(
                t - p for t, p in zip(traced, plain))
        else:
            metrics[name] = statistics.median(v[name] for v in per_solve)
    width = max(len(name) for name, _ in PER_LAYER) + 2
    for name, unit in PER_LAYER:
        note = "  (absent in this version)" if name in absent else ""
        lines.append("%-*s %.6g %s%s" % (width, name, metrics[name], unit, note))
    lines += [
        "traced solve_s %.6g s vs untraced %.6g s over %d traced and %d "
        "untraced solves" % (metrics["trace.solve_s"], statistics.median(plain),
                             len(traced), len(plain)),
        "module self times cover %.3f%% of each traced solve (median)"
        % (100.0 * statistics.median(v["attributed_frac"] for v in per_solve)),
        "self time per wrapped function (last traced solve):",
    ]
    for (mod, fn), (self_s, calls) in sorted(tracer.stats.items(),
                                             key=lambda kv: -kv[1][0]):
        if calls:
            lines.append("  %-40s %10.4f s %8d calls" % (mod + "." + fn, self_s,
                                                         calls))
    return metrics


# -- command line ---------------------------------------------------------

def load_soarqep(src):
    """Import soarqep from ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(src, "soarqep", "__init__.py")):
        raise SetupError("no soarqep sources under %s" % src)
    sys.path.insert(0, src)
    import soarqep
    where = os.path.realpath(os.path.dirname(soarqep.__file__))
    if os.path.dirname(where) != os.path.realpath(src):
        raise SetupError("soarqep imported from %s, not from %s" % (where, src))
    return soarqep


def _result(correct, tally, metrics, units):
    return {"correct": correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units}}


def parse_args(argv):
    names = [wl.name for wl in WORKLOADS]
    ap = argparse.ArgumentParser(description="soarqep solver benchmark")
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv, src):
    args = parse_args(argv)
    soarqep = load_soarqep(src)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    threads = blas_threads(env)
    if threads != [1]:
        print("warning: BLAS thread counts %s, expected [1]" % threads)
    units = PER_LAYER if args.trace else END_TO_END
    chosen = [wl for wl in WORKLOADS if args.workload in ("all", wl.name)]
    total = Tally()
    combined = {}
    for wl in chosen:
        print("== %s  seed %d  trace %d  (%s, n=%d, %s)"
              % (wl.name, args.seed, args.trace, wl.problem, wl.n,
                 ", ".join("%s=%s" % kv for kv in wl.config.items())))
        metrics, tally, lines = run_workload(soarqep, wl, args.seed,
                                             args.seconds, args.trace)
        print("\n".join(lines))
        total.attempted += tally.attempted
        total.failed += tally.failed
        combined.update({"%s/%s" % (wl.name, k): v for k, v in metrics.items()})
        last = metrics
    if len(chosen) == 1:
        result = _result(total.failed == 0, total, last, units)
    else:
        result = _result(total.failed == 0, total, combined,
                         [("%s/%s" % (wl.name, n), u)
                          for wl in chosen for n, u in units])
    bad = [k for k, v in result["metrics"].items()
           if not math.isfinite(v["value"])]
    if bad:
        raise SetupError("non-finite metrics: %s" % ", ".join(bad))
    print(json.dumps(result))
    return 0
