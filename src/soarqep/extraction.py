"""Rayleigh-Ritz and refined extraction from an MSOAR subspace.

Projection works on the QEP the recurrence iterated on (the shift-inverted
triple in shift-invert mode); relative residuals are always reported for the
original problem, recovered through the operator when needed.  Every
residual norm and refined vector of a cycle goes through the R factor of one
thin QR of [W1 W2 W3], so none of them costs n-length work.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .msoar import extraction_basis
from .operator import recover_eigen

HUGE_RITZ = 1e12   # |theta| above this is treated as infinite


@dataclass
class ProjectedQep:
    """The QEP projected onto the n x ktilde basis Q_tilde.

    With the working matrices W1 = M Q_tilde, W2 = C Q_tilde and
    W3 = K Q_tilde, it keeps the triple M_k = Q_tilde^* W1, C_k, K_k and the
    blocks (R1, R2, R3) of the thin QR [W1 W2 W3] = Z R.  The W_i themselves
    are not kept; ``W1``..``W3`` recompute them from the operator's working
    matrices on demand, and the solver never asks for them.
    """
    Q_tilde: np.ndarray   # n x ktilde orthonormal basis, often a view of Q
    M_k: np.ndarray
    C_k: np.ndarray
    K_k: np.ndarray
    blocks: tuple         # (R1, R2, R3), R_i^* R_j = W_i^* W_j
    op: object = field(default=None, repr=False)

    @property
    def ktilde(self):
        return self.Q_tilde.shape[1]

    @property
    def W1(self):
        return self.op.work_M @ self.Q_tilde

    @property
    def W2(self):
        return self.op.work_C @ self.Q_tilde

    @property
    def W3(self):
        return self.op.work_K @ self.Q_tilde


@dataclass
class RitzEntry:
    theta: complex        # eigenvalue of the projected (working) QEP
    g: np.ndarray         # unit primitive vector, length ktilde
    lam: complex          # eigenvalue of the original problem
    rel_residual: float
    finite: bool = True
    sigma_min: float = None   # residual norm of g, set on refined entries


@dataclass
class RitzSet:
    pairs: list                    # RitzEntry, all 2*ktilde of them
    selection: list                # indices of the m wanted pairs
    refined: dict = field(default_factory=dict)  # index -> refined RitzEntry

    def wanted(self):
        """The m wanted entries: refined where extract_refined made one,
        the Ritz pair otherwise."""
        return [self.refined.get(i, self.pairs[i]) for i in self.selection]


# basis entries per sparse product in ``project``: a 512 KiB chunk, which
# is 6 columns at n=5000 and the whole basis at n=1000 (wider chunks mean
# fewer passes over the matrix)
PROJECT_CHUNK_ENTRIES = 2 ** 15


def project(state, op):
    """Project the working QEP onto the finalized basis.

    The tall products W_i = X_i Q_tilde are formed PROJECT_CHUNK_ENTRIES
    basis entries at a time, each from a row-major copy of those columns,
    and written straight into their block of one column-major n x 3ktilde
    array, which ``kernels.gram_blocks`` then factors in place; no copy of
    the basis and no full-width product is held besides it.  CSC-by-dense
    products run 2-5x faster on row-major operands, and on ms5k the chunks
    take a third of the full-width time.  A chunked sparse product equals
    the full one bit for bit, as each output column is summed on its own.
    Each projected block is conj(Q_tilde^T conj(W_i)), with the block
    conjugated in place and back; it matched Q_tilde^* W_i bit for bit at
    one and two OpenBLAS threads.
    """
    Qt = extraction_basis(state)
    n, kt = Qt.shape
    A = np.empty((n, 3 * kt), dtype=complex, order="F")
    width = max(1, PROJECT_CHUNK_ENTRIES // n)
    triple = []
    for i, X in enumerate((op.work_M, op.work_C, op.work_K)):
        blk = A[:, i * kt:(i + 1) * kt]
        for j in range(0, kt, width):
            cols = slice(j, j + width)
            blk[:, cols] = X @ np.ascontiguousarray(Qt[:, cols])
        np.conjugate(blk, out=blk)
        Xk = Qt.T @ blk
        triple.append(np.conjugate(Xk, out=Xk))
        np.conjugate(blk, out=blk)
    return ProjectedQep(Qt, *triple, blocks=kernels.gram_blocks(A), op=op)


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
    """Fill refined vectors for the selected Ritz values, each by inverse
    iteration started at its Ritz vector, so its residual is no larger than
    the Ritz vector's up to rounding; a refined entry is the Ritz entry with
    g, sigma_min (the exact residual norm of g) and rel_residual replaced."""
    for i in ritz.selection:
        entry = ritz.pairs[i]
        g, smin = kernels.refined_vector(entry.theta, *proj.blocks, entry.g)
        ritz.refined[i] = replace(entry, g=g, sigma_min=smin,
                                  rel_residual=_relative(op, entry.theta, smin)[1])
    return ritz


def residual_bound(state, theta, s, norm_M):
    """A-posteriori residual bound c_k t_{k+1,k} |e_k^* s| for each Petrov
    pair (theta, s) of T_k, with the exact ||P_k s|| in the coefficient: one
    bound per column of ``s``, or a float for a 1-D ``s``."""
    k = state.k
    s = np.asarray(s, dtype=complex)
    t_sub = state.breakdown_t if state.breakdown else abs(state.T_hat[k, k - 1])
    ps = np.linalg.norm(state.P[:, :k] @ s, axis=0)
    p_last = np.linalg.norm(state.P[:, k])
    c_k = (np.sqrt(np.abs(theta) ** 2 + 1.0)
           * np.sqrt(norm_M ** 2 + p_last ** 2)
           / np.sqrt(1.0 + ps ** 2))
    bound = c_k * t_sub * np.abs(s[k - 1])
    return float(bound) if s.ndim == 1 else bound
