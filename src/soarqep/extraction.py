"""Rayleigh-Ritz and refined extraction from an MSOAR subspace.

Projection works on the QEP the recurrence iterated on (the shift-inverted
triple in shift-invert mode); relative residuals are always reported for the
original problem, recovered through the operator when needed.  Every
residual norm and refined vector of a cycle goes through the R factor of one
thin QR of [W1 W2 W3], so none of them costs n-length work.  The float64
basis of a real decomposition (a real problem in direct mode or at a real
shift from a real start, for as long as its restarts keep it real) projects
in float64: [W1 W2 W3], the projected triple and R, with one residual per
conjugate pair of Ritz values.  The Ritz values, primitive vectors and
delivered eigenvectors are complex.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse._sparsetools import csr_matvec

from . import kernels
from .msoar import extraction_basis
from .operator import recover_eigen

HUGE_RITZ = 1e12   # |theta| above this is treated as infinite


@dataclass
class ProjectedQep:
    """The QEP projected onto the n x ktilde basis Q_tilde.

    With the working matrices W1 = M Q_tilde, W2 = C Q_tilde and
    W3 = K Q_tilde, it keeps the triple M_k = Q_tilde^* W1, C_k, K_k and the
    blocks (R1, R2, R3) of the thin QR [W1 W2 W3] = Z R, both accumulated
    over row blocks by ``project``, float64 for a real projection and
    complex otherwise.  The W_i are not kept, so a later cycle
    cannot reuse them; ``W1``..``W3`` recompute them from the operator's
    working matrices on demand, and the solver never asks for them.
    """
    Q_tilde: np.ndarray   # n x ktilde orthonormal basis, often a view of Q
    M_k: np.ndarray
    C_k: np.ndarray
    K_k: np.ndarray
    blocks: tuple         # (R1, R2, R3), R_i^* R_j = W_i^* W_j
    op: object = field(repr=False)

    @property
    def ktilde(self):
        return self.Q_tilde.shape[1]

    @property
    def real(self):
        """Whether ``project`` worked in real arithmetic, as it does for a
        float64 basis: the triple and the R blocks are then float64."""
        return self.M_k.dtype == float

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


# basis entries per row-major copy in a one-block ``project``: a 512 KiB
# chunk, 32 columns at n=1000 and 109 at n=300 (wider chunks mean fewer
# passes over the matrix)
PROJECT_CHUNK_ENTRIES = 2 ** 15

# entries of S per group of columns whose Ritz residuals ``_residual_norms``
# takes at once (256 KiB complex): ms5k's S (123 x 82) and string1000's
# (63 x 42) are one group, string300's (300 x 141) three of 54 columns.
# One group is the one-array product bit for bit; OpenBLAS can round a
# group's product differently from the same columns of the whole one, by
# an ulp, so S is split only where its size matters
RITZ_GROUP_ENTRIES = 2 ** 14


def _project_blocks(op, kt, real):
    """The row blocks ``project`` streams: ``kernels.row_blocks(n)`` if, for
    every block, the three working matrices' entries in the block's own
    rows (``OperatorPair.work_row_entries``) take fewer bytes, a value and
    an int32 index each, than the rows of the n x 3ktilde array that
    streaming does not hold; else one block of all n rows.  Values are
    counted in the projection's dtype, float64 for a ``real`` one.  Each
    column pass over a block reads those entries: a banded matrix has a few
    per row and streams, one with rows about half full, such as the damping
    matrix of ``gen_string_damping``, has about b x n/2 in a block of b
    rows and does not.
    """
    n = op.n
    blocks = kernels.row_blocks(n)
    if len(blocks) == 1:
        return blocks
    itemsize = 8 if real else 16
    ptr = op.work_row_entries
    held = max(int(ptr[rows.stop] - ptr[rows.start]) for rows in blocks)
    spared = (n - blocks[0].stop) * 3 * kt * itemsize
    return blocks if held * (itemsize + 4) < spared else [slice(0, n)]


def project(state, op):
    """Project the working QEP onto the finalized basis.

    The rows of [W1 W2 W3] = [X1 Q_tilde, X2 Q_tilde, X3 Q_tilde] are
    formed a block of rows at a time in one reused column-major buffer;
    each block adds its share to the triple and is folded into the Gram
    triangle by ``kernels.gram_blocks`` before the next one is formed.  The
    blocks are ``kernels.row_blocks`` where that holds less memory
    (``_project_blocks``), and then the n x 3ktilde array is never held:
    the working set is the basis, one block of rows (at most 1/16 of n
    from n = 4096 on) and the zeroed column-major 3ktilde x 3ktilde
    triangle allocated here, into which every block, the first included,
    is folded in place; R1, R2 and R3 are views of it.  With n at most
    4 ROW_BLOCK_MIN = 1024, or working matrices whose rows are too full to
    stream, there is one block of all n rows and the arithmetic of the
    unblocked formula: R is its row-major min(n, 3ktilde)-row triangle.

    A streamed block's column i ktilde + c is X_i Q_tilde[:, c] over the
    block's rows, written into the zeroed buffer by scipy's own CSR
    matrix-vector kernel, reading the block's range of the CSR arrays of
    ``OperatorPair.work_csr`` in place (for a matrix equal to its
    transpose, its own CSC arrays): no slice of the matrices, copy of the
    basis rows or product temporary.  Each entry is summed over the same
    columns in the same order as in the one-block product.  The one block
    of all n rows takes the whole matrices times row-major copies of at
    most PROJECT_CHUNK_ENTRIES basis entries, each shared by the three
    products: CSC-by-dense products run 2-5x faster on row-major operands.
    A block's share of X_k is conj(Q_tilde[rows]^T conj(W_i[rows])), with
    the block conjugated in place and back: no conjugated copy of the
    basis rows, and in one block it matched Q_tilde^* W_i bit for bit at
    one and two OpenBLAS threads.

    A float64 Q_tilde, the basis of a float64 decomposition (which
    ``msoar.init_state`` starts only on an operator with ``real_work``),
    makes the buffer float64, and the products take the real working
    matrices and the basis itself; the triple and R are then float64
    (``ProjectedQep.real``).  A complex Q_tilde projects in complex
    arithmetic, whatever its imaginary part.
    """
    Qt = extraction_basis(state)
    n, kt = Qt.shape
    real = Qt.dtype == float
    blocks = _project_blocks(op, kt, real)
    streamed = len(blocks) > 1
    if streamed:
        # an operator's first streamed projection builds these, before the
        # buffer is allocated
        csr = op.real_work_csr if real else op.work_csr
    else:
        work = op.real_work if real else (op.work_M, op.work_C, op.work_K)
        width = max(1, PROJECT_CHUNK_ENTRIES // n)
    dtype = float if real else complex
    buf = np.empty(blocks[0].stop * 3 * kt, dtype=dtype)
    triangle = (np.zeros((3 * kt, 3 * kt), dtype=dtype, order="F")
                if streamed else None)
    triple = [None, None, None]
    for rows in blocks:
        b = rows.stop - rows.start
        W = buf[:b * 3 * kt].reshape((b, 3 * kt), order="F")
        if streamed:
            W[:] = 0
            mats = [(indptr[rows.start:rows.stop + 1], indices, data)
                    for indptr, indices, data in csr]
            for c in range(kt):
                q = np.ascontiguousarray(Qt[:, c])
                for i, (indptr, indices, data) in enumerate(mats):
                    csr_matvec(b, n, indptr, indices, data, q,
                               W[:, i * kt + c])
            q = None
        else:
            for j in range(0, kt, width):
                Q_chunk = np.ascontiguousarray(Qt[:, j:j + width])
                for i, X in enumerate(work):
                    W[:, i * kt + j:i * kt + min(j + width, kt)] = X @ Q_chunk
            # the last chunk is freed before the block's triple and fold
            Q_chunk = None
        Q_rows = Qt[rows]
        for i in range(3):
            blk = W[:, i * kt:(i + 1) * kt]
            np.conjugate(blk, out=blk)
            Xk = Q_rows.T @ blk
            np.conjugate(Xk, out=Xk)
            np.conjugate(blk, out=blk)
            if triple[i] is None:
                triple[i] = Xk
            else:
                triple[i] += Xk
        R = kernels.gram_blocks(W, triangle)
    return ProjectedQep(Qt, *triple, blocks=R, op=op)


def _relative(op, theta, abs_residual):
    """(lam, rel_residual) of the original problem for a working-QEP pair."""
    lam, res = recover_eigen(op, theta, abs_residual)
    return lam, res / op.problem.norm_sum


def _residual_norms(blocks, theta, G, cols):
    """||(theta_j^2 W1 + theta_j W2 + W3) g_j|| for j in ``cols``, through
    the R blocks, by Horner's rule in place on groups of columns of about
    RITZ_GROUP_ENTRIES entries of S."""
    R1, R2, R3 = blocks
    width = max(1, RITZ_GROUP_ENTRIES // R1.shape[0])
    norms = []
    for start in range(0, len(cols), width):
        part = cols[start:start + width]
        t, G_part = theta[part], G[:, part]
        S = kernels.matmul_complex(R1, G_part)
        S *= t
        S += kernels.matmul_complex(R2, G_part)
        S *= t
        S += kernels.matmul_complex(R3, G_part)
        norms += np.linalg.norm(S, axis=0).tolist()
    return norms


def extract_ritz(proj, op, m):
    """All Ritz pairs of the projected QEP plus the m wanted ones.

    Wanted means largest |theta| in working coordinates: largest magnitude in
    direct mode, nearest the target in shift-invert mode.  Huge or infinite
    Ritz values, and in shift-invert mode zero ones (lam = infinity), are
    excluded from selection and carry an infinite residual.

    The residual ||(theta^2 W1 + theta W2 + W3) g|| of each live pair is
    taken through the R blocks (``_residual_norms``), a bounded group of
    columns at a time, so besides theta and G the call holds one group's
    temporaries, not arrays of the size of R times G.  On a real
    projection one column serves each conjugate pair: the partner's S is
    the conjugate bit for bit, with the same norm.
    """
    theta, G = kernels.solve_projected_qep(proj.M_k, proj.C_k, proj.K_k)
    mag = np.abs(theta)
    ok = mag <= HUGE_RITZ
    if op.sigma is not None:
        ok &= mag >= 1e-300
    live = np.flatnonzero(ok)
    groups = (kernels.conjugate_groups(theta[live])[0] if proj.real
              else [(j,) for j in range(live.size)])
    first = live[[group[0] for group in groups]]
    norms = {}
    for group, norm in zip(groups, _residual_norms(proj.blocks, theta, G,
                                                   first)):
        norms.update((int(live[j]), norm) for j in group)
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
    g, sigma_min (the exact residual norm of g) and rel_residual replaced.

    On a real projection one call serves each conjugate pair of
    ``kernels.conjugate_groups``: the partner takes the conjugate vector and
    the same sigma_min, which is what ``kernels.refined_vector`` would
    return for it bit for bit, as complex arithmetic is symmetric under
    conjugation.
    """
    sel = ritz.selection
    groups = (kernels.conjugate_groups([ritz.pairs[i].theta for i in sel])[0]
              if proj.real else [(j,) for j in range(len(sel))])
    for group in groups:
        first = ritz.pairs[sel[group[0]]]
        z, smin = kernels.refined_vector(first.theta, *proj.blocks, first.g)
        for j, g in zip(group, (z, z.conj())):
            entry = ritz.pairs[sel[j]]
            ritz.refined[sel[j]] = replace(
                entry, g=g, sigma_min=smin,
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
           * np.hypot(norm_M, p_last)
           / np.sqrt(1.0 + ps ** 2))
    bound = c_k * t_sub * np.abs(s[k - 1])
    return float(bound) if s.ndim == 1 else bound
