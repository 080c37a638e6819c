"""Rayleigh-Ritz and refined extraction from an MSOAR subspace.

Projection works on the QEP the recurrence iterated on (the shift-inverted
triple in shift-invert mode); relative residuals are always reported for the
original problem, recovered through the operator when needed.  Every
residual norm and refined vector of a cycle goes through three blocks
(R1, R2, R3) with R_i^* R_j = W_i^* W_j, so none of them costs n-length
work: the column blocks of the R factor of one thin QR of [W1 W2 W3], or,
for a streamed projection of a decomposition that holds to rounding, blocks
derived through the MSOAR relation from the R factor of 2k + 4 formed
columns in place of 3ktilde (``project``).  The float64
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
    W3 = K Q_tilde, it keeps the triple M_k = Q_tilde^* W1, C_k, K_k and
    blocks (R1, R2, R3) with [W1 W2 W3] = Z [R1 R2 R3] for a Z with
    orthonormal columns, so R_i^* R_j = W_i^* W_j, all accumulated over
    row blocks by ``project``, float64 for a real projection and complex
    otherwise.  The R_i are the column blocks of the triangle of a thin QR
    of [W1 W2 W3], or, where ``relation`` is set, (2k + 4) x ktilde blocks
    derived from the triangle of the MSOAR relation's columns (``project``).
    The W_i are not kept, so a later cycle cannot reuse them;
    ``W1``..``W3`` recompute them from the operator's working matrices on
    demand, and the solver never asks for them.
    """
    Q_tilde: np.ndarray   # n x ktilde orthonormal basis, often a view of Q
    M_k: np.ndarray
    C_k: np.ndarray
    K_k: np.ndarray
    blocks: tuple         # (R1, R2, R3), R_i^* R_j = W_i^* W_j
    op: object = field(repr=False)
    relation: bool = False   # formed through the MSOAR relation

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

# a streamed projection goes through the MSOAR relation when both of its
# block rows hold to this many units of rounding (``_relation_holds``)
RELATION_TOL = 1e3


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


def _relation_holds(state, op):
    """Whether the MSOAR decomposition holds to rounding in both block rows,
    read off one fixed probe direction g = ones(k)/sqrt(k):

        upper  ||X1 Q_{k+1} T_hat g + X2 Q_k g + X3 P_k g||
                   <= RELATION_TOL eps ||X2 Q_k g||
        lower  ||Q_k g - P_{k+1} T_hat g|| <= RELATION_TOL eps ||Q_k g||

    (three sparse products and four products with an n x k matrix), so
    X2 Q_k and X3 Q_k derived from the two rows (``project``) are within
    RELATION_TOL units of rounding of the products formed directly,
    relative to their own scale.  A decomposition with a zero Q column
    (deflation or breakdown) is refused outright.

    The upper row is the recurrence's shift-invert solve, whose residual
    is of the order of its backward error, eps ||X1|| ||Q_{k+1} T_hat g||.
    That scale is not used: at a real shift next to an eigenvalue
    (``gen_mass_spring(3000)`` at sigma = -13) it reads 0.5 eps where this
    test reads 1150 eps, and the residuals derived through the relation
    were then 5e-18 to 6e-17 while those of the delivered vectors,
    recomputed from M, C and K, were 8e-16 to 1.3e-15; this test refuses
    that decomposition, and the direct products report 3.5e-16 to 1.0e-15.

    ms5k's 49 cycles at seed 1 read at most 183 eps (upper) and 23 eps
    (lower); refused are the underdamped chain (lower reads 0.02 to 6 at
    n = 200, sigma = -1, as P grows) and ``gen_mass_spring(3000)`` at
    sigma = 0.3 (lower 1.0 to 4.5; 1e-4 to 0.02 with a full first column
    of C).
    """
    k = state.k
    if state.breakdown or state.deflation_steps:
        return False
    real = state.dtype == float
    X1, X2, X3 = op.real_work if real else (op.work_M, op.work_C, op.work_K)
    Q, P, T = state.Q, state.P, state.T_hat
    g = np.full(k, 1.0 / np.sqrt(k), dtype=state.dtype)
    Tg = T @ g
    Qg = Q[:, :k] @ g
    upper = X2 @ Qg
    scales = np.linalg.norm(upper), np.linalg.norm(Qg)
    upper += X1 @ (Q @ Tg)
    upper += X3 @ (P[:, :k] @ g)
    lower = Qg
    lower -= P @ Tg
    tol = RELATION_TOL * np.finfo(float).eps
    return bool(np.linalg.norm(upper) <= tol * scales[0]
                and np.linalg.norm(lower) <= tol * scales[1])


def project(state, op):
    """Project the working QEP onto the finalized basis.

    The rows of [W1 W2 W3] = [X1 Q_tilde, X2 Q_tilde, X3 Q_tilde] are
    formed a block of rows at a time in one reused column-major buffer;
    each block adds its share to the triple and is folded into the Gram
    triangle by ``kernels.gram_blocks`` before the next one is formed.  The
    blocks are ``kernels.row_blocks`` where that holds less memory
    (``_project_blocks``), and then the n x 3ktilde array is never held:
    the working set is the basis, one block of rows (at most 1/16 of n
    from n = 4096 on) and the zeroed column-major triangle allocated here,
    into which every block, the first included, is folded in place.  With
    n at most 4 ROW_BLOCK_MIN = 1024, or working matrices whose rows are
    too full to stream, there is one block of all n rows and the arithmetic
    of the unblocked formula: R is its row-major min(n, 3ktilde)-row
    triangle, R1, R2 and R3 its column blocks.

    Through the relation.  A streamed projection of a decomposition that
    holds to rounding (``_relation_holds``), whose Q_tilde therefore starts
    with Q_{k+1}, forms the 2k + 4 (ktilde = k + 1) or 2k + 7 (ktilde =
    k + 2) columns

        Y = [X1 Q_tilde, X3 P_{k+1}, X2 Q_tilde[:, k:], X3 Q_tilde[:, k:]]

    instead of 3ktilde, and folds them into one triangle R_Y; its two block
    rows give the rest, X2 Q_k = -X1 Q_{k+1} T_hat - X3 P_k and X3 Q_k =
    X3 P_{k+1} T_hat, so with R_P = R_Y[:, X3 P_{k+1}]

        R1 = R_Y[:, X1 Q_tilde]
        R2 = [-R1[:, :k+1] T_hat - R_P[:, :k], R_Y[:, X2 Q_tilde[:, k:]]]
        R3 = [R_P T_hat, R_Y[:, X3 Q_tilde[:, k:]]]

    and the triple from Q_tilde^* Y the same way.  Then R_i^* R_j =
    W_i^* W_j still holds, to the rounding of the decomposition; R1 is a
    view of R_Y, R2 and R3 are new arrays with R_Y's rows.  On ms5k
    (ktilde = 41) that is 84 columns in place of 123, and its first
    cycle's projection (seed 1) took 21.6 ms against 33.2 ms, the probe
    0.9 ms of it, and the fold of its 16 row blocks 11.5 ms against 20.7
    (medians of 20 and 15, one thread of a 2-core VM).  Any other streamed
    projection forms [W1 W2 W3] itself, and R1, R2 and R3 are views of its
    3ktilde x 3ktilde triangle; ``ProjectedQep.relation`` tells which.
    The derived blocks carry the decomposition's rounding, not that of
    products formed from Q_tilde: a residual near the rounding floor reads
    lower through them (n = 47, blocks of 7 rows, sigma = -13 + 0.4i: a
    delivered pair at 2.0e-17 whose residual from M, C and K is 1.0e-15,
    where [W1 W2 W3] gives 6.9e-16), while ms5k's delivered residuals,
    about 1e-11, match those from M, C and K to 3e-6 relative.

    A streamed block's column of X_i v, v a column of Q_tilde or P, is
    written into the zeroed buffer by scipy's own CSR matrix-vector kernel,
    reading the block's range of the CSR arrays of ``OperatorPair.work_csr``
    in place (for a matrix equal to its transpose, its own CSC arrays): no
    slice of the matrices, copy of the basis rows or product temporary.
    Each entry is summed over the same columns in the same order as in the
    one-block product.  The views of the basis columns are made once per
    projection and those of the buffer's columns once per block, and the
    kernel runs matrix by matrix on the block's one slice of that matrix's
    ``indptr``: on ms5k's first cycle (16 blocks, ktilde = 41) the 1968
    kernel calls of [W1 W2 W3] took 4.8 ms of that projection's 32.7,
    5.8 ms with both views made per call (one thread of a 2-core VM), and
    the relation makes 1344.  The one block of all n rows takes the whole
    matrices times row-major copies of at most PROJECT_CHUNK_ENTRIES basis
    entries, each shared by the three products: CSC-by-dense products run
    2-5x faster on row-major operands.
    A block's share of Q_tilde^* W_i is conj(Q_tilde[rows]^T conj(W_i[rows])),
    with the block conjugated in place and back: no conjugated copy of the
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
    relation = streamed and _relation_holds(state, op)
    if streamed:
        # an operator's first streamed projection builds these, before the
        # buffer is allocated
        csr = op.real_work_csr if real else op.work_csr
        # views of the basis columns, which are contiguous in the
        # column-major Q_tilde and P, and the matrix each column is
        # multiplied by, in the buffer's column order
        cols = [np.ascontiguousarray(q) for q in Qt.T]
        if relation:
            k = state.k
            plan = [(0, cols), (2, [np.ascontiguousarray(p)
                                    for p in state.P.T]),
                    (1, cols[k:]), (2, cols[k:])]
        else:
            plan = [(0, cols), (1, cols), (2, cols)]
        width = sum(len(v) for _, v in plan)
    else:
        work = op.real_work if real else (op.work_M, op.work_C, op.work_K)
        chunk = max(1, PROJECT_CHUNK_ENTRIES // n)
        width = 3 * kt
    dtype = float if real else complex
    buf = np.empty(blocks[0].stop * width, dtype=dtype)
    triangle = (np.zeros((width, width), dtype=dtype, order="F")
                if streamed else None)
    # the products with Q_tilde^*: one ktilde x width array through the
    # relation, else one ktilde x ktilde block per working matrix
    parts = ([(0, width)] if relation
             else [(i * kt, (i + 1) * kt) for i in range(3)])
    triple = [None] * len(parts)
    for rows in blocks:
        b = rows.stop - rows.start
        W = buf[:b * width].reshape((b, width), order="F")
        if streamed:
            W[:] = 0
            out = iter(W.T)
            for i, vecs in plan:
                indptr, indices, data = csr[i]
                indptr = indptr[rows.start:rows.stop + 1]
                for q, w in zip(vecs, out):
                    csr_matvec(b, n, indptr, indices, data, q, w)
        else:
            for j in range(0, kt, chunk):
                Q_chunk = np.ascontiguousarray(Qt[:, j:j + chunk])
                for i, X in enumerate(work):
                    W[:, i * kt + j:i * kt + min(j + chunk, kt)] = X @ Q_chunk
            # the last chunk is freed before the block's triple and fold
            Q_chunk = None
        Q_rows = Qt[rows]
        for i, (lo, hi) in enumerate(parts):
            blk = W[:, lo:hi]
            np.conjugate(blk, out=blk)
            Xk = Q_rows.T @ blk
            np.conjugate(Xk, out=Xk)
            np.conjugate(blk, out=blk)
            if triple[i] is None:
                triple[i] = Xk
            else:
                triple[i] += Xk
        R = kernels.gram_blocks(W, triangle)
    if relation:
        triple = _through_relation(triple[0], state, kt)
        R = _through_relation(triangle, state, kt)
    return ProjectedQep(Qt, *triple, blocks=R, op=op, relation=relation)


def _through_relation(Y, state, kt):
    """(Z1, Z2, Z3), the blocks of Z [W1 W2 W3] from those of Z Y, where
    Y = [X1 Q_tilde, X3 P_{k+1}, X2 Q_tilde[:, k:], X3 Q_tilde[:, k:]]
    (``project``): Z1 is a view of Z Y, Z2 and Z3 are new arrays."""
    k, T = state.k, state.T_hat
    Z1 = Y[:, :kt]
    ZP = Y[:, kt:kt + k + 1]
    tail = kt - k
    Z2 = Z1[:, :k + 1] @ T
    Z2 += ZP[:, :k]
    np.negative(Z2, out=Z2)
    Z2 = np.hstack((Z2, Y[:, kt + k + 1:kt + k + 1 + tail]))
    Z3 = np.hstack((ZP @ T, Y[:, kt + k + 1 + tail:]))
    return Z1, Z2, Z3


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
