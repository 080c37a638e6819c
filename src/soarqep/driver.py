"""Top-level restarted solver loop.

One cycle: run the recurrence out to k steps (or breakdown), project, and
extract the Ritz pairs, plus (irsoar) the refined pairs of the m wanted Ritz
values.  ``RitzSet.wanted`` hands back the refined entry where there is one
and the Ritz pair otherwise, so a single list feeds the convergence test,
the delivered pairs and the shift selection: imsoar converges on Ritz data
with exact shifts, irsoar on refined data with refined shifts.  If not done,
pick up to p shifts from the complement QEP and contract by as many steps
as there are shifts; a short shift set keeps a larger subspace, as in ARPACK.
Each cycle leaves a ``CycleRecord`` in ``SolverReport.cycles``.
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
    """A delivered eigenpair.  ``rel_residual`` is the one the verdict read
    off the projection; ``residual`` is ||(lam^2 M + lam C + K) x|| /
    ``norm_sum`` for the unit x, recomputed from the problem, and
    ``backward_error`` Tisseur's normwise backward error
    ||(lam^2 M + lam C + K) x|| / (|lam|^2 ||M|| + |lam| ||C|| + ||K||)
    (Linear Algebra Appl. 309 (2000)), with the 1-norms as the weights."""
    lam: complex
    x: np.ndarray
    rel_residual: float
    from_breakdown: bool = False
    residual: float = None
    backward_error: float = None


@dataclass
class CycleRecord:
    """What one cycle of ``solve`` computed, in Python scalars only, so a
    report holds nothing n-length.  The residuals are of the m wanted
    entries, in selection order: ``residuals`` those the verdict reads
    (refined where ``extract_refined`` made one), ``ritz_residuals`` the
    Ritz pairs'.  The last three fields are of the contraction that ends
    the cycle, and keep their defaults on the last cycle, which has none.
    ``stored_real`` always equals ``real``, as ``project`` takes its
    arithmetic from the dtype of the state's basis."""
    stored_real: bool              # the decomposition was float64
    real: bool                     # ProjectedQep.real
    relation: bool                 # ProjectedQep.relation
    residuals: list
    ritz_residuals: list
    shifts: list = field(default_factory=list)   # as applied, complex
    retained: int = None           # steps kept by the contraction
    deflations_repaired: int = 0   # RestartReport.deflations_repaired


@dataclass
class SolverReport:
    """What ``solve`` returns.

    ``converged`` holds the delivered ConvergedPair objects.  Each history
    has one entry per cycle: ``residual_history[i] ==
    max(cycles[i].residuals, default=inf)``, the largest relative residual
    of cycle i's wanted entries, and ``deflation_history[i]`` is the
    number of deflation steps in its decomposition; ``restarts_used`` is
    the number of cycles less one.  ``breakdown`` is None, or the (cycle,
    step) at which the recurrence broke down, which ends the run and
    delivers every pair of that cycle that passes ctol, wanted or not.
    ``bound_diagnostics`` is then one dict per Petrov pair of T_k, with
    keys "theta", "bound" (the a-posteriori residual bound of
    ``extraction.residual_bound``) and "rel_bound" (that bound over the
    working matrices' 1-norm sum), and is empty otherwise.
    ``all_converged`` is whether every wanted residual of the last cycle
    passed ctol.  ``cycles`` holds one CycleRecord per cycle.
    """
    converged: list
    residual_history: list
    deflation_history: list
    breakdown: tuple = None
    bound_diagnostics: list = field(default_factory=list)
    all_converged: bool = False
    cycles: list = field(default_factory=list)

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


def _check_against_problem(pairs, problem):
    """Fill each pair's ``residual`` and ``backward_error`` from M, C and
    K, one product per matrix for all the pairs' vectors at once."""
    if not pairs:
        return
    X = np.stack([p.x for p in pairs], axis=1)
    lam = np.array([p.lam for p in pairs])
    R = problem.M @ X
    R *= lam * lam
    T = problem.C @ X
    T *= lam
    R += T
    del T
    R += problem.K @ X
    norms = np.linalg.norm(R, axis=0)
    mag = np.abs(lam)
    nM, nC, nK = problem.norms1
    for p, norm, scale in zip(pairs, norms.tolist(),
                              (mag * mag * nM + mag * nC + nK).tolist()):
        p.residual = norm / problem.norm_sum
        p.backward_error = norm / scale


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
        proj = project(state, op, config.ctol)
        ritz = extract_ritz(proj, op, config.m)
        if config.variant == "irsoar":
            extract_refined(proj, op, ritz)

        wanted = ritz.wanted()
        record = CycleRecord(
            stored_real=state.dtype == float, real=proj.real,
            relation=proj.relation,
            residuals=[float(e.rel_residual) for e in wanted],
            ritz_residuals=[float(ritz.pairs[i].rel_residual)
                            for i in ritz.selection])
        report.cycles.append(record)
        max_res = max(record.residuals, default=float("inf"))
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
            break

        if done or cycle == config.max_restarts:
            report.converged = _deliver(proj, wanted, config.ctol)
            report.all_converged = done
            break

        shift_set = select_shifts(proj, wanted, config.num_shifts)
        # the projection's basis is a view of Q, which the contraction
        # overwrites in place; nothing n-length of the cycle outlives it
        del proj, ritz, wanted
        record.shifts = [complex(mu) for mu in shift_set.shifts]
        record.retained = config.k - len(shift_set.shifts)
        state, restart = _scale_checked(contract, state, shift_set,
                                        record.retained, overwrite=True)
        record.deflations_repaired = restart.deflations_repaired
    # with the decomposition freed, so the check adds nothing to the peak
    del state, proj, ritz, wanted
    _check_against_problem(report.converged, problem)
    return report
