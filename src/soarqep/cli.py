"""Command-line front end: configure, solve, report.

Writes the per-restart convergence history as CSV (fixed three-column
schema) or the full run record as JSON, prints a one-paragraph summary and
exits 0 on full convergence, 2 on partial results, 1 on any error.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field

from .driver import SolverConfig, solve
from .problems import ProblemSource


class UsageError(ValueError):
    pass


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


@dataclass
class RunRecord:
    config: dict
    rows: list                       # (restart, max_rel_residual, deflations)
    pairs: list                      # (lam, rel_residual)
    restarts_used: int
    converged_count: int
    all_converged: bool
    breakdown: tuple = None


def build_parser():
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


def _source_from_args(args):
    if args.problem == "matrix-market":
        if not args.matrices:
            raise UsageError("matrix-market needs --matrices M C K")
        return ProblemSource(kind="matrix-market", paths=list(args.matrices))
    if args.size is None:
        raise UsageError("%s needs -n/--size" % args.problem)
    if args.problem == "mass-spring":
        return ProblemSource(kind="mass-spring", n=args.size,
                             kappa=args.kappa, tau=args.tau)
    return ProblemSource(kind="string-damping", n=args.size,
                         epsilon=args.epsilon)


def _record(args, config, report):
    rows = [(i, report.residual_history[i], report.deflation_history[i])
            for i in range(len(report.residual_history))]
    pairs = [(c.lam, c.rel_residual) for c in report.converged]
    cfg = {"problem": args.problem, "n": args.size, "m": config.m,
           "k": config.k, "p": config.num_shifts, "variant": config.variant,
           "mode": config.mode,
           "sigma": config.sigma, "ctol": config.ctol,
           "dtol": config.tol if config.tol is not None else config.ctol,
           "max_restarts": config.max_restarts, "seed": config.seed}
    return RunRecord(config=cfg, rows=rows, pairs=pairs,
                     restarts_used=report.restarts_used,
                     converged_count=len(report.converged),
                     all_converged=report.all_converged,
                     breakdown=report.breakdown)


def format_csv(record):
    lines = ["restart,max_rel_residual,deflations"]
    for r, res, d in record.rows:
        lines.append("%d,%.17g,%d" % (r, res, d))
    return "\n".join(lines) + "\n"


def _jsonable_complex(z):
    if z is None:
        return None
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def format_json(record):
    cfg = dict(record.config)
    cfg["sigma"] = _jsonable_complex(cfg["sigma"])
    doc = {
        "config": cfg,
        "history": [{"restart": r, "max_rel_residual": res, "deflations": d}
                    for r, res, d in record.rows],
        "pairs": [{"lam": _jsonable_complex(lam), "rel_residual": res}
                  for lam, res in record.pairs],
        "restarts_used": record.restarts_used,
        "converged_count": record.converged_count,
        "all_converged": record.all_converged,
        "breakdown": list(record.breakdown) if record.breakdown else None,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_cli(argv=None):
    try:
        args = build_parser().parse_args(argv)
        sigma = parse_sigma(args.sigma) if args.sigma is not None else None
        config = SolverConfig(m=args.m, k=args.k, p=args.p,
                              mode="shift-invert" if sigma is not None else "direct",
                              sigma=sigma, variant=args.variant,
                              ctol=args.ctol, tol=args.dtol,
                              max_restarts=args.max_restarts, seed=args.seed)
        try:
            config.validate()
        except ValueError as exc:
            raise UsageError(str(exc))

        problem = _source_from_args(args).build()
        report = solve(problem, config)
        record = _record(args, config, report)

        text = format_csv(record) if args.format == "csv" else format_json(record)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)

        final = record.rows[-1][1] if record.rows else float("nan")
        print("converged %d of %d pairs in %d restart(s); final max residual %.3e"
              % (record.converged_count, config.m, record.restarts_used, final),
              file=sys.stderr)
        if record.breakdown:
            print("breakdown at restart %d, step %d" % record.breakdown,
                  file=sys.stderr)
        return 0 if record.all_converged else 2
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
