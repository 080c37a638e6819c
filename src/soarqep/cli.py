"""Command-line front end: configure, solve, report.

Writes the per-restart convergence history of the SolverReport as CSV
(fixed three-column schema) or the report and its configuration as JSON,
prints a one-paragraph summary and exits 0 on full convergence, 2 on partial
results, 1 on any error.
"""

import argparse
import json
import sys

from .driver import SolverConfig, solve
from .problems import gen_mass_spring, gen_string_damping, load_matrix_market


class UsageError(ValueError):
    """A bad command line or configuration; ``run_cli`` prints it and
    returns 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_sigma(text):
    """Parse 're+imi' shift targets such as -13+0.4i or 0.6-0.8i."""
    s = text.strip().replace("i", "j")
    try:
        return complex(s)
    except ValueError:
        raise UsageError("cannot parse sigma %r (expected re+imi)" % text)


def build_parser():
    """The argument parser of the ``soarqep`` command; a parse error raises
    UsageError instead of exiting."""
    p = _Parser(prog="soarqep",
                description="Restarted second-order Arnoldi QEP solver")
    p.add_argument("problem", choices=["mass-spring", "string-damping",
                                       "matrix-market"])
    p.add_argument("-n", "--size", type=int, default=None,
                   help="problem dimension for the generators")
    p.add_argument("--epsilon", type=float, default=0.6)
    p.add_argument("--kappa", type=float, default=5.0)
    p.add_argument("--tau", type=float, default=10.0)
    p.add_argument("--matrices", nargs=3, metavar=("M", "C", "K"),
                   help="Matrix Market files for the triple")
    p.add_argument("--sigma", type=str, default=None,
                   help="shift target re+imi; enables shift-invert mode")
    p.add_argument("--num-eigs", type=int, default=6, dest="m")
    p.add_argument("--dim", type=int, default=20, dest="k")
    p.add_argument("--shifts", type=int, default=None, dest="p")
    p.add_argument("--variant", choices=["imsoar", "irsoar"], default="imsoar")
    p.add_argument("--ctol", type=float, default=1e-10)
    p.add_argument("--dtol", type=float, default=None,
                   help="deflation/breakdown tolerance (default: ctol)")
    p.add_argument("--max-restarts", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    return p


def _problem_from_args(args):
    if args.problem == "matrix-market":
        if not args.matrices:
            raise UsageError("matrix-market needs --matrices M C K")
        return load_matrix_market(args.matrices)
    if args.size is None:
        raise UsageError("%s needs -n/--size" % args.problem)
    if args.problem == "mass-spring":
        return gen_mass_spring(args.size, args.kappa, args.tau)
    return gen_string_damping(args.size, args.epsilon)


def _history(report):
    """(restart, max_rel_residual, deflations) for every cycle."""
    return zip(range(len(report.residual_history)),
               report.residual_history, report.deflation_history)


def format_csv(report):
    """The report's convergence history as CSV text: the header
    ``restart,max_rel_residual,deflations`` and one row per cycle, the
    residual in 17 significant digits."""
    lines = ["restart,max_rel_residual,deflations"]
    for r, res, d in _history(report):
        lines.append("%d,%.17g,%d" % (r, res, d))
    return "\n".join(lines) + "\n"


def _jsonable_complex(z):
    if z is None:
        return None
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def format_json(args, config, report, n):
    """The run as indented JSON text with sorted keys: the configuration,
    the per-cycle history, the delivered pairs (lam as {"re", "im"},
    rel_residual, residual, backward_error, floor), restarts_used,
    converged_count, all_converged and breakdown."""
    cfg = {"problem": args.problem, "n": n, "m": config.m,
           "k": config.k, "p": config.num_shifts, "variant": config.variant,
           "mode": config.mode,
           "sigma": _jsonable_complex(config.sigma), "ctol": config.ctol,
           "dtol": config.drop_tol,
           "max_restarts": config.max_restarts, "seed": config.seed}
    doc = {
        "config": cfg,
        "history": [{"restart": r, "max_rel_residual": res, "deflations": d}
                    for r, res, d in _history(report)],
        "pairs": [{"lam": _jsonable_complex(c.lam), "rel_residual": c.rel_residual,
                   "residual": c.residual, "backward_error": c.backward_error,
                   "floor": c.floor}
                  for c in report.converged],
        "restarts_used": report.restarts_used,
        "converged_count": len(report.converged),
        "all_converged": report.all_converged,
        "breakdown": list(report.breakdown) if report.breakdown else None,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_cli(argv=None):
    """Run the command line on ``argv`` (default ``sys.argv[1:]``): solve,
    write the CSV or JSON output to ``--out`` or stdout and a summary to
    stderr, with one line more where ctol is below the largest
    ``ConvergedPair.floor`` of the delivered pairs.  Returns the exit code: 0 when every wanted pair converged, 2
    on partial results, 1 on a usage or solver error."""
    try:
        args = build_parser().parse_args(argv)
        sigma = parse_sigma(args.sigma) if args.sigma is not None else None
        try:
            config = SolverConfig(
                m=args.m, k=args.k, p=args.p,
                mode="shift-invert" if sigma is not None else "direct",
                sigma=sigma, variant=args.variant, ctol=args.ctol,
                tol=args.dtol, max_restarts=args.max_restarts, seed=args.seed)
        except ValueError as exc:
            raise UsageError(str(exc))

        problem = _problem_from_args(args)
        report = solve(problem, config)

        if args.format == "csv":
            text = format_csv(report)
        else:
            text = format_json(args, config, report, problem.n)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)

        out_of = "" if report.breakdown else " of %d" % config.m
        print("converged %d%s pairs in %d restart(s); final max residual %.3e"
              % (len(report.converged), out_of, report.restarts_used,
                 report.residual_history[-1]), file=sys.stderr)
        if report.breakdown:
            print("breakdown at restart %d, step %d: no new direction above "
                  "the drop tolerance" % report.breakdown, file=sys.stderr)
        floor = max((c.floor for c in report.converged), default=0.0)
        if config.ctol < floor:
            print("ctol %.3e is below the rounding floor %.3e of a delivered "
                  "pair: residuals that small are not resolved"
                  % (config.ctol, floor), file=sys.stderr)
        return 0 if report.all_converged else 2
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    """Console entry point: exit with ``run_cli``'s code."""
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
