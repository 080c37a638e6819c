"""Top-level restarted solver loop.

One cycle: run the recurrence out to k steps (or breakdown), project, and
extract the Ritz pairs, plus (irsoar) the refined pairs of the m wanted Ritz
values.  ``RitzSet.wanted`` hands back the refined entry where there is one
and the Ritz pair otherwise, so a single list feeds the convergence test,
the delivered pairs and the shift selection: imsoar converges on Ritz data
with exact shifts, irsoar on refined data with refined shifts.  If not done,
pick up to p shifts from the complement QEP and contract by as many steps
as there are shifts; a short shift set keeps a larger subspace, as in ARPACK.
"""

from dataclasses import dataclass, field

import numpy as np

from .extraction import extract_refined, extract_ritz, project, residual_bound
from .kernels import matmul_complex
from .msoar import init_state, run_msoar
from .operator import build_operator
from .restart import contract, select_shifts


@dataclass(frozen=True)
class SolverConfig:
    """Checked when built, fixed afterwards; ``build_operator`` checks mode
    and sigma, ``init_state`` the start vectors."""

    m: int                     # number of wanted eigenpairs
    k: int                     # subspace dimension per cycle
    p: int = None              # shifts per restart (default k - m)
    mode: str = "direct"
    sigma: complex = None
    variant: str = "imsoar"
    ctol: float = 1e-10
    tol: float = None          # deflation/breakdown drop tolerance
    max_restarts: int = 100
    u1: np.ndarray = None
    u2: np.ndarray = None
    seed: int = 0

    @property
    def num_shifts(self):
        return self.p if self.p is not None else self.k - self.m

    @property
    def drop_tol(self):
        return self.tol if self.tol is not None else self.ctol

    @property
    def retained(self):
        # dimension kept after a contraction
        return self.k - self.num_shifts

    def __post_init__(self):
        self.validate()

    def validate(self):
        if not (0 < self.m < self.k):
            raise ValueError("need 0 < m < k (m=%d, k=%d)" % (self.m, self.k))
        if not (1 <= self.num_shifts and self.m <= self.retained):
            raise ValueError("need 1 <= m <= k - p (m=%d, k=%d, p=%d)"
                             % (self.m, self.k, self.num_shifts))
        if self.variant not in ("imsoar", "irsoar"):
            raise ValueError("unknown variant %r" % self.variant)
        if self.max_restarts < 1:
            raise ValueError("max_restarts must be at least 1")
        if not (np.isfinite(self.ctol) and self.ctol > 0):
            raise ValueError("ctol must be finite and positive")
        if not (np.isfinite(self.drop_tol) and self.drop_tol >= self.ctol):
            raise ValueError("tol must be finite and at least ctol")


@dataclass
class ConvergedPair:
    lam: complex
    x: np.ndarray
    rel_residual: float
    from_breakdown: bool = False


@dataclass
class SolverReport:
    converged: list
    residual_history: list         # per-cycle max wanted relative residual
    deflation_history: list        # per-cycle deflation count
    breakdown: tuple = None        # (restart index, step) or None
    bound_diagnostics: list = field(default_factory=list)
    all_converged: bool = False

    @property
    def restarts_used(self):
        return len(self.residual_history) - 1


_OUT_OF_SCALE = ("start vectors u1 and u2 out of scale with each other or "
                 "the problem: the decomposition overflowed or lost the "
                 "orthonormality of its basis")


def _deliver(proj, entries, ctol, from_breakdown=False):
    """ConvergedPair objects for the entries whose residuals pass ctol
    (infinite Ritz values carry an infinite residual and never do).

    A residual is that of Q_tilde g for a unit g, so it is the eigenvector's
    only while Q_tilde g has unit norm.  A basis that has lost its
    orthonormality can hold a near-null g, whose residual is as small
    as Q_tilde g; that pair is refused, with the error an overflow gives
    (``_scale_checked``), as a start far out of scale is what does it."""
    out = []
    for e in entries:
        if e.rel_residual <= ctol:
            x = matmul_complex(proj.Q_tilde, e.g)
            x_norm = np.linalg.norm(x)
            if abs(x_norm - 1.0) > 1e-8:
                raise ValueError(_OUT_OF_SCALE)
            x = x / x_norm
            out.append(ConvergedPair(lam=e.lam, x=x, rel_residual=e.rel_residual,
                                     from_breakdown=from_breakdown))
    return out


def _breakdown_diagnostics(state, op):
    """Residual-bound values for the Petrov pairs of T_k at breakdown."""
    nus, S = np.linalg.eig(state.T)      # unit eigenvector columns
    bounds = residual_bound(state, nus, S, op.work_norms1[0])
    return [{"theta": complex(nu), "bound": float(b),
             "rel_bound": float(b / op.work_norm_sum)}
            for nu, b in zip(nus, bounds)]


def _scale_checked(step, *args, **kwargs):
    """Run ``step`` and refuse an overflow, which P t makes of a large p_1."""
    try:
        with np.errstate(over="raise"):
            return step(*args, **kwargs)
    except FloatingPointError as exc:
        raise ValueError(_OUT_OF_SCALE) from exc


def solve(problem, config):
    """Run the restarted solver on a QepProblem; never raises on stagnation."""
    rng = np.random.default_rng(config.seed)
    u1 = config.u1 if config.u1 is not None else rng.random(problem.n)
    u2 = config.u2 if config.u2 is not None else u1
    op = build_operator(problem, mode=config.mode, sigma=config.sigma)
    state = init_state(op, u1, u2)

    report = SolverReport(converged=[], residual_history=[], deflation_history=[])

    for cycle in range(config.max_restarts + 1):
        _scale_checked(run_msoar, state, op, config.k, config.drop_tol)
        proj = project(state, op)
        ritz = extract_ritz(proj, op, config.m)
        if config.variant == "irsoar":
            extract_refined(proj, op, ritz)

        wanted = ritz.wanted()
        max_res = max((float(e.rel_residual) for e in wanted), default=float("inf"))
        done = max_res <= config.ctol
        report.residual_history.append(max_res)
        report.deflation_history.append(len(state.deflation_steps))

        if state.breakdown:
            # no new direction above the drop tolerance: every pair that
            # passes ctol is delivered, wanted or not
            report.breakdown = (cycle, state.k)
            report.converged = _deliver(proj, ritz.pairs, config.ctol,
                                        from_breakdown=True)
            report.bound_diagnostics = _breakdown_diagnostics(state, op)
            report.all_converged = done
            return report

        if done or cycle == config.max_restarts:
            report.converged = _deliver(proj, wanted, config.ctol)
            report.all_converged = done
            return report

        shift_set = select_shifts(proj, wanted, config.num_shifts)
        # the projection's basis is a view of Q, which the contraction
        # overwrites in place; nothing n-length of the cycle outlives it
        del proj, ritz, wanted
        state, _ = _scale_checked(contract, state, shift_set,
                                  config.k - len(shift_set.shifts), overwrite=True)
