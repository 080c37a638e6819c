"""Rayleigh-Ritz and refined extraction from an MSOAR subspace.

Projection works on the QEP the recurrence iterated on (the shift-inverted
triple in shift-invert mode); relative residuals are always reported for the
original problem, recovered through the operator when needed.  Every
residual norm and refined vector of a cycle goes through the R factor of one
thin QR of [W1 W2 W3], so none of them costs n-length work.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .msoar import extraction_basis
from .operator import recover_eigen

HUGE_RITZ = 1e12   # |theta| above this is treated as infinite


@dataclass
class ProjectedQep:
    Q_tilde: np.ndarray   # n x ktilde orthonormal basis
    W1: np.ndarray        # M Q_tilde (working matrices)
    W2: np.ndarray        # C Q_tilde
    W3: np.ndarray        # K Q_tilde
    M_k: np.ndarray
    C_k: np.ndarray
    K_k: np.ndarray
    _blocks: tuple = field(default=None, repr=False)

    @property
    def ktilde(self):
        return self.Q_tilde.shape[1]

    @property
    def blocks(self):
        """(R1, R2, R3) of the thin QR [W1 W2 W3] = Z R, computed once and cached."""
        if self._blocks is None:
            self._blocks = kernels.gram_blocks(self.W1, self.W2, self.W3)
        return self._blocks


@dataclass
class RitzEntry:
    theta: complex        # eigenvalue of the projected (working) QEP
    g: np.ndarray         # unit primitive vector, length ktilde
    lam: complex          # eigenvalue of the original problem
    rel_residual: float
    finite: bool


@dataclass
class RefinedEntry:
    theta: complex
    g: np.ndarray         # unit refined vector, length ktilde
    lam: complex
    sigma_min: float
    rel_residual: float


@dataclass
class RitzSet:
    pairs: list                    # RitzEntry, all 2*ktilde of them
    selection: list                # indices of the m wanted pairs
    refined: dict = field(default_factory=dict)  # index -> RefinedEntry

    def wanted(self):
        """The m wanted entries: refined where extract_refined made one,
        the Ritz pair otherwise."""
        return [self.refined.get(i, self.pairs[i]) for i in self.selection]


def project(state, op):
    """Form the tall products and the projected triple over the finalized basis."""
    Qt = extraction_basis(state)
    W1 = op.work_M @ Qt
    W2 = op.work_C @ Qt
    W3 = op.work_K @ Qt
    Qh = Qt.conj().T
    return ProjectedQep(Q_tilde=Qt, W1=W1, W2=W2, W3=W3,
                        M_k=Qh @ W1, C_k=Qh @ W2, K_k=Qh @ W3)


def _relative(op, theta, abs_residual):
    """(lam, rel_residual) of the original problem for a working-QEP pair."""
    lam, res = recover_eigen(op, theta, abs_residual)
    return lam, res / op.problem.norm_sum


def extract_ritz(proj, op, m):
    """All Ritz pairs of the projected QEP plus the m wanted ones.

    Wanted means largest |theta| in working coordinates: largest magnitude in
    direct mode, nearest the target in shift-invert mode.  Huge or infinite
    Ritz values, and in shift-invert mode zero ones (lam = infinity), are
    excluded from selection and carry an infinite residual.
    """
    theta, G = kernels.solve_projected_qep(proj.M_k, proj.C_k, proj.K_k)
    mag = np.abs(theta)
    ok = mag <= HUGE_RITZ
    if op.mode == "shift-invert":
        ok &= mag >= 1e-300
    live = np.flatnonzero(ok)
    # ||(theta^2 W1 + theta W2 + W3) g|| of every live pair at once, through
    # the R blocks; Horner's rule in place keeps one temporary of S's size
    t, G_live = theta[live], G[:, live]
    R1, R2, R3 = proj.blocks
    S = R1 @ G_live
    S *= t
    S += R2 @ G_live
    S *= t
    S += R3 @ G_live
    norms = dict(zip(live.tolist(), np.linalg.norm(S, axis=0).tolist()))
    pairs = []
    for i, th in enumerate(theta.tolist()):
        lam, rel = (_relative(op, th, norms[i]) if i in norms
                    else (complex(np.inf), float(np.inf)))
        pairs.append(RitzEntry(theta=th, g=G[:, i], lam=lam, rel_residual=rel,
                               finite=i in norms))
    order = sorted(norms, key=lambda i: (-abs(pairs[i].theta),
                                         pairs[i].theta.real, pairs[i].theta.imag))
    return RitzSet(pairs=pairs, selection=order[:m])


def extract_refined(proj, op, ritz):
    """Fill refined vectors for the selected Ritz values; sigma_min is the
    residual norm of each."""
    for i in ritz.selection:
        entry = ritz.pairs[i]
        g, smin = kernels.refined_vector(entry.theta, *proj.blocks)
        lam, rel = _relative(op, entry.theta, smin)
        ritz.refined[i] = RefinedEntry(theta=entry.theta, g=g, lam=lam,
                                       sigma_min=smin, rel_residual=rel)
    return ritz


def residual_bound(state, theta, s, norm_M):
    """A-posteriori residual bound c_k t_{k+1,k} |e_k^* s| for a Petrov
    eigenvector s of T_k, with the exact ||P_k s|| in the coefficient."""
    k = state.k
    s = np.asarray(s, dtype=complex)
    t_sub = abs(state.T_hat[k, k - 1])
    if state.breakdown and state.breakdown_t is not None:
        t_sub = state.breakdown_t
    P_k = state.P[:, :k]
    ps = float(np.linalg.norm(P_k @ s))
    p_last = float(np.linalg.norm(state.P[:, k]))
    c_k = (np.sqrt(abs(theta) ** 2 + 1.0)
           * np.sqrt(norm_M ** 2 + p_last ** 2)
           / np.sqrt(1.0 + ps ** 2))
    return float(c_k * t_sub * abs(s[k - 1]))
