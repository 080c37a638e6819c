"""Print a fingerprint of the solver's output on fixed problems.

    python3 tools/fingerprint.py [--src DIR] [--seeds 1 2]

Two checkouts print the same lines exactly when they compute bitwise the
same results; README.md ("Testing") says what each line holds and how to
diff two checkouts.
"""

import os
import sys

# one BLAS thread, pinned before numpy is first imported, as in
# perfbench/run.py: another thread count may round differently
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import harness  # noqa: E402  (after the pinning above)

TIGHT_CTOL = dict(m=6, k=40, p=15, mode="shift-invert", sigma=-13 + 0.4j,
                  ctol=1e-15, max_restarts=15)
CHAIN = dict(m=6, k=20, mode="shift-invert", max_restarts=40)
CHAIN_SIGMAS, CHAIN_SEEDS = (-1.0, -1.5), (0, 1, 2)
STREAMED_N, STREAMED_SIGMAS = 3000, (0.3 + 0.2j, 0.3)
CLI_ARGV = ["mass-spring", "-n", "500", "--sigma=-13+0.4i", "--num-eigs", "6",
            "--dim", "40", "--shifts", "15", "--variant", "irsoar",
            "--ctol", "1e-10", "--dtol", "1e-8", "--seed", "0"]


def _sha1(values, dtype):
    return hashlib.sha1(np.asarray(values, dtype=dtype).tobytes()).hexdigest()


def _counted(report, name):
    """``r/c``: the cycles whose record has ``name`` set, of all."""
    return "%d/%d" % (sum(getattr(c, name) for c in report.cycles),
                      len(report.cycles))


def fingerprint(name, report):
    pairs = report.converged
    x = np.concatenate([p.x for p in pairs]) if pairs else []
    return ("%s cycles=%d real_cycles=%s stored_real=%s relation_cycles=%s "
            "wanted_only_cycles=%s final=%.3e history=%s lam=%s "
            "rel_residual=%s x=%s"
            % (name, len(report.residual_history), _counted(report, "real"),
               _counted(report, "stored_real"), _counted(report, "relation"),
               _counted(report, "wanted_only"),
               report.residual_history[-1],
               _sha1(report.residual_history, float),
               _sha1([p.lam for p in pairs], complex),
               _sha1([p.rel_residual for p in pairs], float),
               _sha1(x, complex)))


def cases(soarqep, seeds):
    """(name, problem, config) of every fingerprinted solve."""
    for wl in harness.WORKLOADS:
        problem = harness.generate(soarqep, wl)
        for seed in seeds:
            config = soarqep.SolverConfig(
                u1=harness.start_vector(seed, problem.n), seed=seed,
                **wl.config)
            yield "%s seed=%d" % (wl.name, seed), problem, config
    problem = soarqep.gen_mass_spring(500)
    for variant in ("irsoar", "imsoar"):
        yield ("tight-ctol-%s" % variant, problem,
               soarqep.SolverConfig(variant=variant, **TIGHT_CTOL))


def chain_fingerprints(soarqep):
    """One line per solve of the underdamped chain."""
    problem = soarqep.gen_mass_spring(200, tau=1.0)
    for sigma in CHAIN_SIGMAS:
        for variant in ("irsoar", "imsoar"):
            for seed in CHAIN_SEEDS:
                config = soarqep.SolverConfig(sigma=sigma, variant=variant,
                                              seed=seed, **CHAIN)
                # every restart drops a numerically dependent wanted vector
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    report = soarqep.solve(problem, config)
                yield ("chain sigma=%s %s seed=%d cycles=%d stored_real=%s "
                       "relation_cycles=%s breakdown=%s final=%.3e "
                       "history=%s"
                       % (sigma, variant, seed, len(report.residual_history),
                          _counted(report, "stored_real"),
                          _counted(report, "relation"), report.breakdown,
                          report.residual_history[-1],
                          _sha1(report.residual_history, float)))


def operator_fingerprints(soarqep):
    """One line per shift-invert problem: a sha1 of each working matrix."""
    build = importlib.import_module("soarqep.operator").build_operator
    shifted = [(wl.name, harness.generate(soarqep, wl), wl.config["sigma"])
               for wl in harness.WORKLOADS
               if wl.config["mode"] == "shift-invert"]
    shifted.append(("tight-ctol", soarqep.gen_mass_spring(500),
                    TIGHT_CTOL["sigma"]))
    chain = soarqep.gen_mass_spring(200, tau=1.0)
    shifted += [("chain sigma=%s" % sigma, chain, sigma)
                for sigma in CHAIN_SIGMAS]
    for name, problem, sigma in shifted:
        op = build(problem, mode="shift-invert", sigma=sigma)
        yield "operator %s %s" % (name, " ".join(
            "%s=%s" % (label, hashlib.sha1(
                X.data.tobytes() + X.indices.tobytes()
                + X.indptr.tobytes()).hexdigest())
            for label, X in (("M_hat", op.work_M), ("C_hat", op.work_C))))


def _matrix_sha1(X):
    """sha1 of the dtypes and bytes of X's data, indices and indptr."""
    digest = hashlib.sha1()
    for a in (X.data, X.indices, X.indptr):
        digest.update(a.dtype.str.encode() + a.tobytes())
    return digest.hexdigest()


def _generated(soarqep):
    """(name, problem) of every fingerprinted problem, one at a time."""
    for wl in harness.WORKLOADS:
        yield wl.name, harness.generate(soarqep, wl)
    yield "string2000", soarqep.gen_string_damping(2000)
    yield "string7 epsilon=0", soarqep.gen_string_damping(7, epsilon=0.0)


def problem_fingerprints(soarqep):
    """One line per generated problem: a sha1 of each of M, C and K."""
    for name, problem in _generated(soarqep):
        yield "problem %s %s" % (name, " ".join(
            "%s=%s" % (label, _matrix_sha1(X))
            for label, X in zip("MCK", (problem.M, problem.C, problem.K))))


def _projection_line(name, op, u1):
    """A sha1 of the projected M_k, C_k, K_k and the Gram R of the basis of
    40 steps from (u1, u1)."""
    msoar = importlib.import_module("soarqep.msoar")
    project = importlib.import_module("soarqep.extraction").project
    state = msoar.run_msoar(msoar.init_state(op, u1, u1), op, 40, 1e-12)
    proj = project(state, op)
    return "%s real=%s %s" % (name, proj.real, " ".join(
        "%s=%s" % (label, _sha1(X, X.dtype)) for label, X in (
            ("M_k", proj.M_k), ("C_k", proj.C_k), ("K_k", proj.K_k),
            ("R", np.hstack(proj.blocks)))))


def streamed_fingerprints(soarqep):
    """One line per streamed projection: of a triple that is not symmetric,
    at each of STREAMED_SIGMAS, then of ms5k's."""
    base = soarqep.gen_mass_spring(STREAMED_N)
    C = base.C.tolil()
    C[:, 0] = 1.0
    problem = soarqep.QepProblem(base.M, C, base.K)
    u1 = harness.start_vector(1, STREAMED_N)
    for sigma in STREAMED_SIGMAS:
        op = soarqep.build_operator(problem, mode="shift-invert", sigma=sigma)
        yield _projection_line("streamed arrow n=%d sigma=%s"
                               % (STREAMED_N, sigma), op, u1)
    wl, = (wl for wl in harness.WORKLOADS if wl.name == "ms5k-si-irsoar")
    problem = harness.generate(soarqep, wl)
    sigma = wl.config["sigma"]
    op = soarqep.build_operator(problem, mode="shift-invert", sigma=sigma)
    yield _projection_line("streamed ms5k n=%d sigma=%s" % (problem.n, sigma),
                           op, harness.start_vector(1, problem.n))


def cli_fingerprint(run_cli):
    """Exit code and sha1 of the standard output of the command line of
    acceptance criterion 11, in CSV and in JSON."""
    parts = []
    for fmt in ("csv", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(CLI_ARGV + ["--format", fmt])
        parts.append("%s=%d:%s" % (fmt, code, hashlib.sha1(
            out.getvalue().encode()).hexdigest()))
    return "cli " + " ".join(parts)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the soarqep package")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    soarqep = harness.load_soarqep(os.path.abspath(args.src))
    for name, problem, config in cases(soarqep, args.seeds):
        print(fingerprint(name, soarqep.solve(problem, config)), flush=True)
    print(cli_fingerprint(importlib.import_module("soarqep.cli").run_cli))
    for line in chain_fingerprints(soarqep):
        print(line, flush=True)
    for line in operator_fingerprints(soarqep):
        print(line, flush=True)
    for line in problem_fingerprints(soarqep):
        print(line, flush=True)
    for line in streamed_fingerprints(soarqep):
        print(line, flush=True)


if __name__ == "__main__":
    main()
