"""Implicit restarting of an MSOAR decomposition.

Contracts a k-step decomposition to m = k - p steps with p shifted-QR sweeps
on T_k, repairs any deflation-induced zero columns through a rank-revealing
QR of the row-pruned rotation matrix, and selects exact or refined shifts
from the QEP projected onto the orthogonal complement of the wanted vectors.
"""

import copy
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .extraction import HUGE_RITZ
from .kernels import (conjugate_groups, hessenberg_shifted_qr,
                      qr_unit_diagonal, row_blocks, solve_projected_qep)
from .operator import apply_ab


class RepairError(RuntimeError):
    """Deflation repair produced a structurally invalid decomposition."""


@dataclass
class ShiftSet:
    """The shifts ``select_shifts`` chose, as complex numbers in order of
    increasing magnitude; ``provenance``, "refined" or "exact", the data
    they come from; ``candidates``, every eigenvalue of the complement QEP
    of magnitude at most ``HUGE_RITZ``, in the eigensolver's order."""
    shifts: list
    provenance: str
    candidates: list = field(default_factory=list)


@dataclass
class RestartReport:
    """What ``contract`` reports: ``deflations_repaired``, the zero columns
    of Q (deflation steps) the contraction cured, not counting those it
    carries forward."""
    deflations_repaired: int


def _real_span(wanted, k):
    """Real k-row columns spanning the wanted vectors of a real projection:
    g for each real theta, [Re g, Im g] for each conjugate pair of
    ``conjugate_groups``.  None if a complex theta has no partner."""
    groups, closed = conjugate_groups([e.theta for e in wanted])
    if not closed:
        return None
    cols = []
    for group in groups:
        g = wanted[group[0]].g
        cols += [g.real, g.imag] if len(group) == 2 else [g.real]
    return np.column_stack(cols) if cols else np.zeros((k, 0))


def select_shifts(proj, wanted, p):
    """Shifts from the complement of the wanted directions inside the subspace.

    ``wanted`` is ``RitzSet.wanted()``.  The complement of its vectors ``g``
    comes from a complete QR: of ``_real_span`` on a real projection
    (``proj.real``) whose wanted set is closed under conjugation, so the
    complement, the QEP projected onto it and its candidates are real;
    otherwise of the g themselves, in complex arithmetic.  U_perp is the
    first p columns of this (ktilde - m)-dimensional complement.  The QEP
    projected onto U_perp yields 2p candidates for unwanted eigenvalues;
    only its eigenvalues are computed, no eigenvectors.  Direct mode (``proj.op.sigma`` None) keeps
    the p farthest (max-min distance) from the wanted Ritz values, or of
    largest magnitude if none is wanted; shift-invert mode the p of
    smallest magnitude, farthest from the target.

    From a real complement the shifts stay conjugate-closed, so
    ``kernels.hessenberg_shifted_qr`` applies each pair as one real
    double-shift sweep.  Where the p-th (p > 1) splits a pair, its partner
    is taken as well if the retained part still holds the wanted entries
    with room to spare, m + p + 1 <= ktilde - 2; otherwise the p-th is left
    out, as in ARPACK.  The shifts are "refined" if wanted entries exist and
    all carry ``sigma_min``, and "exact" otherwise.
    """
    M, C, K = proj.M_k, proj.C_k, proj.K_k
    Z = _real_span(wanted, M.shape[0]) if proj.real else None
    real = Z is not None
    if not real:
        Z = (np.asarray(np.column_stack([e.g for e in wanted]), dtype=complex)
             if wanted else np.zeros((M.shape[0], 0), dtype=complex))
    if Z.shape[1]:
        # drop numerically dependent columns before the complement QR
        _, Rp, piv = scipy.linalg.qr(Z, mode="economic", pivoting=True)
        diag = np.abs(np.diag(Rp))
        keep = int(np.sum(diag > 1e-12 * max(diag.max(), np.finfo(float).tiny)))
        if keep < Z.shape[1]:
            warnings.warn("wanted primitive vectors numerically dependent; "
                          "dropping %d column(s)" % (Z.shape[1] - keep),
                          RuntimeWarning)
            Z = Z[:, sorted(piv[:keep])]
    m_eff = Z.shape[1]
    Qc, _ = np.linalg.qr(Z, mode="complete")
    U_perp = Qc[:, m_eff: m_eff + p]

    theta, _ = solve_projected_qep(*(U_perp.conj().T @ X @ U_perp
                                     for X in (M, C, K)), vectors=False)
    cands = [t for t in theta.tolist() if abs(t) <= HUGE_RITZ]

    if proj.op.sigma is not None:
        ranked = sorted(cands, key=lambda t: (abs(t), t.real, t.imag))
    else:
        def score(t):
            return min((abs(t - e.theta) for e in wanted), default=abs(t))
        ranked = sorted(cands, key=lambda t: (-score(t), t.real, t.imag))
    chosen = ranked[:p]
    if real and len(chosen) > 1 and not conjugate_groups(chosen)[1]:
        # the p-th splits a conjugate pair, whose partner ranks p+1-th
        fits = len(wanted) + p + 1 <= proj.ktilde - 2
        chosen = ranked[:p + 1] if fits else chosen[:-1]
    # applied in order of increasing magnitude for reproducibility
    shifts = sorted(chosen, key=lambda t: (abs(t), t.real, t.imag))
    refined = wanted and all(e.sigma_min is not None for e in wanted)
    return ShiftSet(shifts, "refined" if refined else "exact", cands)


def _right_tri_solve(X, R):
    """X @ inv(R) for upper-triangular R."""
    return scipy.linalg.solve_triangular(R.T, X.T, lower=True).T


def contract(state, shifts, m, overwrite=False):
    """Shrink a k-step decomposition to m steps with the given shifts.

    The row-pruned rotation of the shifted-QR sweeps is refactored (QR with
    forced unit diagonal at dependent columns) so the retained basis is
    orthonormal again even with zero columns in Q; without them R is the
    identity up to rounding and this is the plain shifted-QR update.
    Returns (new_state, RestartReport).

    Works in place: on the input with ``overwrite``, else on a deep copy of
    it.  The retained columns are formed ``kernels.row_blocks`` at a time
    through a column-major temporary (an ``@`` without ``out`` returns
    row-major and rounds differently), over the rows they are read from.

    A float64 state stays float64, and the retained columns are float64
    products, while the sweeps' V and T_plus have no nonzero imaginary part
    (``kernels.hessenberg_shifted_qr`` chases conjugate pairs and real
    shifts in real arithmetic); otherwise the state turns complex here
    (``SoarState.make_complex``), the one place it does.
    """
    if state.breakdown:
        raise RuntimeError("cannot restart past breakdown")
    mu = list(shifts.shifts)
    p = len(mu)
    k = state.k
    if k != m + p:
        raise ValueError("need k = m + p (k=%d, m=%d, p=%d)" % (k, m, p))
    state = state if overwrite else copy.deepcopy(state)
    if p == 0:
        return state, RestartReport(deflations_repaired=0)

    V, T_plus = hessenberg_shifted_qr(state.T, mu)
    if state.dtype == float:
        if V.imag.any() or T_plus.imag.any():
            state.make_complex()
        else:
            V, T_plus = V.real, T_plus.real
    Q, P, T_hat = state.Q, state.P, state.T_hat
    zero_cols = [j for j in state.deflation_steps if j <= k - 1]
    keep = [i for i in range(k) if i not in zero_cols]
    U, R = qr_unit_diagonal(V[keep, :])
    S = _right_tri_solve(R @ T_plus, R)
    beta_t = T_hat[k, k - 1] * V[k - 1, m - 1] / R[m - 1, m - 1]
    U_q, U_p = U[:, : m + 1], _right_tri_solve(V, R)[:, : m + 1]
    # the old residual direction, before its column is zeroed or reused
    q_k, p_k = Q[:, k].copy(), P[:, k].copy()

    state.k = m
    blocks = row_blocks(state.n)
    tmp = np.empty((blocks[0].stop - blocks[0].start) * (m + 1),
                   dtype=state.dtype)
    for rows in blocks:
        out = tmp[:(rows.stop - rows.start) * (m + 1)].reshape(
            (-1, m + 1), order="F")
        Q_rows = Q[rows, keep] if zero_cols else Q[rows, :k]
        state.Q[rows] = np.matmul(Q_rows, U_q, out=out)
        state.P[rows] = np.matmul(P[rows, :k], U_p, out=out)
    f_q = S[m, m - 1] * state.Q[:, m] + beta_t * q_k
    f_p = S[m, m - 1] * state.P[:, m] + beta_t * p_k
    carried = [i for i in range(m) if np.linalg.norm(U[:, i]) == 0.0]

    beta = float(np.sqrt(np.linalg.norm(f_q) ** 2 + np.linalg.norm(f_p) ** 2))
    t_new = float(np.linalg.norm(f_q))
    state.deflation_steps = [i for i in carried if i >= 1]
    state.T_hat[:m, :m] = np.triu(S[:m, :m], -1)
    if t_new > 1e-14 * max(beta, 1.0):
        state.Q[:, m] = f_q / t_new
        state.P[:, m] = f_p / t_new
        state.T_hat[m, m - 1] = t_new
        check = np.linalg.norm(state.Q[:, m].conj() @ state.Q[:, :m])
        if check > 1e-8:
            raise RepairError("retained basis not orthogonal to the residual "
                              "direction (%.2e)" % check)
    else:
        # the retained residual has no new basis direction: boundary deflation
        state.Q[:, m] = 0.0
        state.P[:, m] = f_p
        state.T_hat[m, m - 1] = 1.0
        state.deflation_steps.append(m)

    return state, RestartReport(deflations_repaired=len(zero_cols) - len(carried))


def verify_filter(state_before, state_after, shifts, op):
    """Cosine distance between the restarted start vector and the filtered one.

    Applies psi(H) = prod(H - mu_j I), H = [A B; I 0], to the stacked old
    start through the operator, one ``apply_ab`` per shift."""
    q, p = state_before.Q[:, 0], state_before.P[:, 0]
    for mu in shifts:
        q, p = apply_ab(op, q, p) - mu * q, q - mu * p
    w = np.concatenate([q, p])
    v_new = np.concatenate([state_after.Q[:, 0], state_after.P[:, 0]])
    denom = np.linalg.norm(w) * np.linalg.norm(v_new)
    if denom == 0.0:
        return 1.0
    return float(1.0 - abs(np.vdot(w, v_new)) / denom)
