"""The modified second-order Arnoldi (MSOAR) recurrence.

Builds the decomposition

    [A B; I 0] [Q_k; P_k] = [Q_{k+1}; P_{k+1}] T_hat_k

with an orthonormal Q (zero columns at deflation steps), an auxiliary chain
P and a (k+1)-by-k Hessenberg T_hat.  A step whose new direction falls below
the drop tolerance is classified as numerical deflation (the auxiliary chain
still grows) or numerical breakdown (the auxiliary chain has no new
direction above the drop tolerance either, and the run stops).

The decomposition lives in preallocated arrays filled in place: for buffers
sized for c steps, columns 0..k of the n-by-(c+1) Q and P buffers and rows
0..k, columns 0..k-1 of the (c+1)-by-c T_hat buffer are live.  The
deflation directions are the P columns at ``deflation_steps``.

The buffers hold float64 while every quantity of the decomposition is
real, as in ARPACK's real driver: ``init_state`` starts a real state from
start vectors with no nonzero imaginary part on an operator with real
working matrices (``OperatorPair.real_work``), the recurrence keeps it
real, and
``restart.contract`` turns it complex, once and for good, at the first
restart whose shifted-QR sweeps are complex.  Any other start is complex
from the first step.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import orthogonalize_with_refinement
from .operator import apply_ab


class ZeroStartError(ValueError):
    """The primary starting vector is zero."""


CONTINUE = "continue"
DEFLATION = "deflation"
BREAKDOWN = "breakdown"


@dataclass
class StepOutcome:
    kind: str


def _grown(buf, shape):
    # column-major, so each basis column handed to the operator is contiguous
    out = np.zeros(shape, dtype=buf.dtype, order="F")
    out[: buf.shape[0], : buf.shape[1]] = buf
    return out


class SoarState:
    """A k-step MSOAR decomposition stored in ``dtype``, float64 or
    complex128; ``Q``, ``P``, ``T_hat`` and ``T`` are views of its live
    part."""

    def __init__(self, n, dtype):
        self._Q = np.zeros((n, 1), dtype=dtype, order="F")
        self._P = np.zeros((n, 1), dtype=dtype, order="F")
        self._T = np.zeros((1, 0), dtype=dtype, order="F")
        self.k = 0
        self.deflation_steps = []    # steps j with q_{j+1} = 0
        self.breakdown_t = None      # measured t_{k+1,k} at breakdown, before reset

    @property
    def breakdown(self):
        return self.breakdown_t is not None

    @property
    def n(self):
        return self._Q.shape[0]

    @property
    def dtype(self):
        return self._Q.dtype

    def make_complex(self):
        """Store the decomposition in complex128 from now on."""
        self._Q, self._P, self._T = (X.astype(complex, order="F")
                                     for X in (self._Q, self._P, self._T))

    def reserve(self, k):
        """Grow the buffers to hold a k-step decomposition."""
        if k > self._T.shape[1]:
            self._Q = _grown(self._Q, (self.n, k + 1))
            self._P = _grown(self._P, (self.n, k + 1))
            self._T = _grown(self._T, (k + 1, k))

    @property
    def Q(self):
        """n x (k+1) matrix of basis columns (zero at deflation steps)."""
        return self._Q[:, : self.k + 1]

    @property
    def P(self):
        return self._P[:, : self.k + 1]

    @property
    def T_hat(self):
        """(k+1) x k Hessenberg matrix of recurrence coefficients."""
        return self._T[: self.k + 1, : self.k]

    @property
    def T(self):
        """Square k x k leading part of T_hat."""
        return self._T[: self.k, : self.k]

    @property
    def q_cols(self):
        """Read-only list of the columns of Q."""
        return list(self.Q.T)

    @property
    def p_cols(self):
        """Read-only list of the columns of P."""
        return list(self.P.T)

    def nonzero_q(self):
        """Matrix of the nonzero columns of Q_{k+1}: a copy where Q has a
        zero column, the view ``Q`` itself otherwise."""
        Q = self.Q
        # any() reduces in place; a column norm would square all of Q first
        live = Q.any(axis=0)
        return Q if live.all() else Q[:, live]


# below this 2-norm the squares of u1's largest entries are subnormal
_NORM_SAFE_MIN = np.sqrt(np.finfo(float).tiny)


def init_state(op, u1, u2):
    """Start with q_1 = u1/||u1||, p_1 = u2/||u1||, from finite n-vectors.

    The state is float64 when the operator's working matrices are real
    (``op.real_work``) and neither u1 nor u2 has a nonzero imaginary part,
    complex otherwise."""
    u1, u2 = np.asarray(u1), np.asarray(u2)
    real = op.real_work is not None and not (u1.imag.any() or u2.imag.any())
    dtype = float if real else complex
    u1 = np.asarray(u1.real if real else u1, dtype=dtype)
    u2 = np.asarray(u2.real if real else u2, dtype=dtype)
    for name, u in (("u1", u1), ("u2", u2)):
        if u.shape != (op.n,):
            raise ValueError("start vector %s has shape %s, need length n=%d"
                             % (name, u.shape, op.n))
        if not np.isfinite(u).all():
            raise ValueError("start vector %s has an inf or NaN entry" % name)
    # an overflow is caught below, on p_1 itself
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = np.linalg.norm(u1)
        if not _NORM_SAFE_MIN < nrm < np.inf and u1.any():
            # the sum of squares overflowed or underflowed: scale the largest
            # real or imaginary part of u1 to 1 first, part by part, as
            # numpy's complex division overflows for a subnormal divisor
            parts1, parts2 = (np.ascontiguousarray(u).view(float)
                              for u in (u1, u2))
            scale = np.abs(parts1).max()
            u1, u2 = (parts1 / scale).view(dtype), (parts2 / scale).view(dtype)
            nrm = np.linalg.norm(u1)
        if nrm == 0.0:
            raise ZeroStartError("u1 must be nonzero")
        p1 = u2 / nrm
        # the recurrence takes ||p_1|| unscaled
        p1_norm = np.linalg.norm(p1)
    if not np.isfinite(p1_norm):
        raise ValueError("start vector u2 is too large for u1: p_1 = "
                         "u2/||u1|| or its norm overflows")
    state = SoarState(op.n, dtype)
    state.Q[:, 0] = u1 / nrm
    state.P[:, 0] = p1
    return state


def _membership_residual(vec, state):
    """Residual norm of the numerical-deflation test of the step classifier.

    A premature stop is breakdown exactly when the stacked vector [r; s]
    (with r numerically zero) depends on the previous stacked columns, which
    reduces to s lying in the span of the p's stored at earlier zero-q steps,
    i.e. the deflation directions.  At the first stop that span is empty and
    the test degenerates to ||s||, so a first stop with nonzero s is always
    deflation; a genuinely invariant subspace drives s itself to zero and
    classifies as breakdown.
    """
    if not state.deflation_steps:
        return float(np.linalg.norm(vec))
    F = state.P[:, state.deflation_steps]
    norms = np.linalg.norm(F, axis=0)
    # the directions are not mutually orthogonal; orthonormalize first
    basis, _ = np.linalg.qr(F / np.where(norms > 0.0, norms, 1.0))
    return orthogonalize_with_refinement(vec, basis)[2]


def msoar_step(state, op, tol):
    """One MSOAR step; classifies the outcome and mutates the state."""
    if state.breakdown:
        raise RuntimeError("cannot step past breakdown")
    j = state.k + 1
    state.reserve(j)
    Q, P = state.Q, state.P
    t_col, r, t_next = orthogonalize_with_refinement(
        apply_ab(op, Q[:, j - 1], P[:, j - 1]), Q)
    s = Q[:, j - 1] - P @ t_col

    state.k = j
    state.T_hat[:j, j - 1] = t_col

    if t_next / op.work_norm_sum > tol:
        state.T_hat[j, j - 1] = t_next
        state.Q[:, j] = r / t_next
        state.P[:, j] = s / t_next
        return StepOutcome(kind=CONTINUE)

    # premature stop: numerical deflation or breakdown, decided by whether s
    # depends on the earlier deflation directions
    pn = _membership_residual(s, state)
    state.T_hat[j, j - 1] = 1.0
    state.Q[:, j] = 0.0
    state.P[:, j] = s

    if pn > tol:
        state.deflation_steps.append(j)
        return StepOutcome(kind=DEFLATION)

    # breakdown: the final column keeps the deflation shape but is not a
    # deflation event of the run
    state.breakdown_t = t_next
    return StepOutcome(kind=BREAKDOWN)


def run_msoar(state, op, k_target, tol):
    """Iterate msoar_step to k_target steps or breakdown."""
    state.reserve(k_target)
    while state.k < k_target and not state.breakdown:
        msoar_step(state, op, tol)
    return state


def extraction_basis(state):
    """Orthonormal basis handed to the projection: the nonzero columns of
    Q_{k+1} plus the orthogonalized p_1 direction when more than 1e-8 of it
    sticks out of their span (the finalization column of the recurrence).

    When Q has no zero column and p_1 adds no direction, this is the
    column-major view ``state.Q`` itself, not a copy; otherwise a new
    column-major array."""
    Q = state.nonzero_q()
    p1 = state.P[:, 0]
    p1n = np.linalg.norm(p1)
    if p1n > 0.0:
        _, r, rn = orthogonalize_with_refinement(p1, Q)
        if rn > 1e-8 * p1n:
            return np.column_stack((Q, r / rn))
    return Q
