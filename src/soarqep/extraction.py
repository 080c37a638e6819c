"""Rayleigh-Ritz and refined extraction from an MSOAR subspace.

Projection works on the QEP the recurrence iterated on (the shift-inverted
triple in shift-invert mode); relative residuals are always reported for the
original problem, recovered through the operator when needed.
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
    _blocks: list = field(default=None, repr=False)

    @property
    def ktilde(self):
        return self.Q_tilde.shape[1]

    @property
    def blocks(self):
        """The nine Gram blocks W_i^* W_j, computed once and cached."""
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
    z: np.ndarray
    lam: complex
    sigma_min: float
    rel_residual: float


@dataclass
class RitzSet:
    pairs: list                    # RitzEntry, all 2*ktilde of them
    selection: list                # indices of the m wanted pairs
    refined: dict = field(default_factory=dict)  # index -> RefinedEntry

    def wanted_residuals(self, variant="imsoar"):
        if variant == "irsoar" and self.refined:
            return [self.refined[i].rel_residual for i in self.selection]
        return [self.pairs[i].rel_residual for i in self.selection]


def project(state, op):
    """Form the tall products and the projected triple over the finalized basis."""
    Qt = extraction_basis(state)
    W1 = op.work_M @ Qt
    W2 = op.work_C @ Qt
    W3 = op.work_K @ Qt
    return ProjectedQep(Q_tilde=Qt, W1=W1, W2=W2, W3=W3,
                        M_k=Qt.conj().T @ W1,
                        C_k=Qt.conj().T @ W2,
                        K_k=Qt.conj().T @ W3)


def _residual_through_w(proj, theta, vec):
    r = theta ** 2 * (proj.W1 @ vec) + theta * (proj.W2 @ vec) + proj.W3 @ vec
    return float(np.linalg.norm(r))


def _relative(op, theta, abs_residual):
    """(lam, rel_residual) of the original problem for a working-QEP pair."""
    lam, res = recover_eigen(op, theta, abs_residual)
    return lam, res / op.problem.norm_sum


def extract_ritz(proj, op, m):
    """All Ritz pairs of the projected QEP plus the m wanted ones.

    Wanted means largest |theta| in working coordinates: largest magnitude in
    direct mode, nearest the target in shift-invert mode.  Huge or infinite
    Ritz values are excluded from selection and carry an infinite residual.
    """
    raw = kernels.solve_projected_qep(proj.M_k, proj.C_k, proj.K_k)
    pairs = []
    for rp in raw:
        if not rp.finite or abs(rp.theta) > HUGE_RITZ:
            pairs.append(RitzEntry(theta=rp.theta, g=rp.g, lam=complex(np.inf),
                                   rel_residual=float(np.inf), finite=False))
            continue
        nr = _residual_through_w(proj, rp.theta, rp.g)
        lam, rel = _relative(op, rp.theta, nr)
        pairs.append(RitzEntry(theta=rp.theta, g=rp.g, lam=lam,
                               rel_residual=rel, finite=True))
    order = sorted((i for i, p in enumerate(pairs) if p.finite),
                   key=lambda i: (-abs(pairs[i].theta), pairs[i].theta.real,
                                  pairs[i].theta.imag))
    return RitzSet(pairs=pairs, selection=order[:m])


def extract_refined(proj, op, ritz):
    """Fill refined vectors for the selected Ritz values (shared Gram blocks)."""
    for i in ritz.selection:
        entry = ritz.pairs[i]
        z, smin = kernels.refined_vector(entry.theta, proj.W1, proj.W2, proj.W3,
                                         blocks=proj.blocks)
        nr = _residual_through_w(proj, entry.theta, z)
        lam, rel = _relative(op, entry.theta, nr)
        ritz.refined[i] = RefinedEntry(theta=entry.theta, z=z, lam=lam,
                                       sigma_min=smin, rel_residual=rel)
    return ritz


def residual_bound(state, theta, s, norm_M, t_sub=None):
    """A-posteriori residual bound c_k t_{k+1,k} |e_k^* s| for a Petrov
    eigenvector s of T_k, with the exact ||P_k s|| in the coefficient."""
    k = state.k
    s = np.asarray(s, dtype=complex)
    if t_sub is None:
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
