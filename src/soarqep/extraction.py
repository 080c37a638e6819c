"""Rayleigh-Ritz and refined extraction from an MSOAR subspace.

``project`` projects the QEP the recurrence iterated on (the shift-inverted
triple in shift-invert mode) onto the finalized basis.  ``extract_ritz``
and ``extract_refined`` take every residual norm and refined vector of a
cycle through the projection's R blocks, at no n-length cost, and report
relative residuals of the original problem; where the projection went
through the MSOAR relation, ``extract_ritz`` builds only the wanted Ritz
vectors.  A float64 basis projects in float64; the Ritz values, primitive
vectors and delivered eigenvectors are complex128.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse._sparsetools import csr_matvec

from . import kernels
from .msoar import extraction_basis
from .operator import recover_eigen

# |theta| above this is treated as infinite: QZ can return an infinite
# eigenvalue of a singular M_k as a huge finite one
HUGE_RITZ = 1e12


@dataclass
class ProjectedQep:
    """The QEP projected onto the n x ktilde basis Q_tilde.

    With the working matrices W1 = M Q_tilde, W2 = C Q_tilde and
    W3 = K Q_tilde, it keeps the triple M_k = Q_tilde^* W1, C_k, K_k and
    blocks (R1, R2, R3) with [W1 W2 W3] = Z [R1 R2 R3] for a Z with
    orthonormal columns, so R_i^* R_j = W_i^* W_j, float64 for a real
    projection and complex otherwise.  The R_i are the column blocks of
    the Gram triangle of [W1 W2 W3], or, where ``relation`` is set, blocks
    with the rows of the triangle of the MSOAR relation's columns
    (``project``).  The W_i are not kept; ``W1``..``W3`` recompute them
    from the operator's working matrices on demand, and the solver never
    asks for them.
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
    """One eigenpair of the projected QEP.

    ``theta``, an eigenvalue of the projected working QEP, and its unit
    complex128 primitive vector ``g`` (length ktilde) are in working
    coordinates; ``lam`` and ``rel_residual`` are of the original problem.
    ``residual`` is ||(theta^2 W1 + theta W2 + W3) g||.  An entry with
    ``finite`` False (a huge or infinite theta, or a zero one in
    shift-invert mode) has an infinite ``lam`` and ``rel_residual`` and a
    ``residual`` of None.  ``sigma_min`` is None on a Ritz entry and
    equals ``residual`` on a refined one (``extract_refined``)."""
    theta: complex
    g: np.ndarray
    lam: complex
    rel_residual: float
    finite: bool = True
    sigma_min: float = None
    residual: float = None


@dataclass
class RitzSet:
    """The Ritz entries of one projection: ``pairs`` holds all 2 ktilde in
    the order of ``kernels.solve_projected_qep``'s theta, ``selection`` the
    indices of at most m wanted finite ones, largest |theta| first, and
    ``refined`` the entries ``extract_refined`` made, by index.

    ``wanted_only`` tells which path ``extract_ritz`` took.  False: all
    vectors, and ``pairs`` is a list of every entry.  True: the projection
    went through the MSOAR relation and only the selected entries, with
    their conjugate partners on a real projection, were built, by inverse
    iteration; ``pairs`` is a read-only sequence that builds any other
    entry on its first access, the same way, and returns that same object
    on every later one.  The solver reads the selected entries only."""
    pairs: Sequence
    selection: list
    refined: dict = field(default_factory=dict)
    wanted_only: bool = False

    def wanted(self):
        """The m wanted entries: refined where extract_refined made one,
        the Ritz pair otherwise."""
        return [self.refined.get(i, self.pairs[i]) for i in self.selection]


# basis entries per row-major copy in a one-block ``project`` (512 KiB):
# CSC-by-dense products run faster on row-major operands, and a bounded
# chunk adds little to the block where a copy of the whole basis would not
PROJECT_CHUNK_ENTRIES = 2 ** 15

# entries of S per group of columns whose Ritz residuals ``_residual_norms``
# takes at once (256 KiB complex), which bounds its temporaries; OpenBLAS
# can round a group's product differently from the same columns of one
# whole product, by an ulp, so an S this small stays one group
RITZ_GROUP_ENTRIES = 2 ** 14

# a wanted g of a wanted-only extraction is accepted where
# ||P_k(theta) g|| <= NULL_VECTOR_TOL eps ||P_k(theta)||_1: inverse
# iteration reaches at most tens of units of that on every benchmark
# workload, so a thousand leaves room and still refuses a theta that is
# not an eigenvalue
NULL_VECTOR_TOL = 1e3

# two wanted theta closer than this, relative to the larger, are not
# distinct to rounding: a defective double eigenvalue splits by about
# sqrt(eps), and inverse iteration would give both one vector
WANTED_MIN_GAP = np.sqrt(np.finfo(float).eps)

# a projection goes through the MSOAR relation when both of its block rows
# hold to this many units of rounding (``_relation_holds``): where the
# decomposition holds to rounding the probe reads hundreds of eps, and
# orders of magnitude more once P has grown
RELATION_TOL = 1e3

# ... and, given the run's ctol, to this fraction of ctol: the residuals
# derived through the relation differ from those of the direct products by
# about the probe's reading, so a residual at ctol reads within about 1% of
# the direct one
RELATION_CTOL_FRACTION = 1e-2


def _project_blocks(op, kt, real):
    """The row blocks ``project`` forms, as a list of slices:
    ``kernels.row_blocks(n)`` if, for every block, the three working
    matrices' entries in the block's own rows
    (``OperatorPair.work_row_entries``) take fewer bytes, a value in the
    projection's dtype (float64 for a ``real`` one) and an int32 index
    each, than the rows of the n x 3ktilde array that streaming does not
    hold; else one block of all n rows.  Each column pass over a block
    reads those entries, so a banded matrix streams and one with rows about
    half full, such as the damping matrix of ``gen_string_damping``, does
    not.
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


def _relation_holds(state, op, tol):
    """Whether the MSOAR decomposition holds to ``tol`` (relative) in both
    block rows, read off one fixed probe direction g = ones(k)/sqrt(k):

        upper  ||X1 Q_{k+1} T_hat g + X2 Q_k g + X3 P_k g|| <= tol ||X2 Q_k g||
        lower  ||Q_k g - P_{k+1} T_hat g||                  <= tol ||Q_k g||

    so X2 Q_k and X3 Q_k derived from the two rows (``project``) are within
    ``tol`` of the products formed directly, relative to their own scale.
    The upper row is measured against that scale, not against the
    shift-invert solve's backward error, eps ||X1|| ||Q_{k+1} T_hat g||:
    next to an eigenvalue the latter accepts states whose derived
    residuals read far below those recomputed from M, C and K.  A
    decomposition
    with a zero Q column (deflation or breakdown) is refused outright.
    Reads the state and the operator, writes neither, and holds a few
    n-vectors.
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
    return bool(np.linalg.norm(upper) <= tol * scales[0]
                and np.linalg.norm(lower) <= tol * scales[1])


def project(state, op, ctol=None):
    """Project the working QEP onto the finalized basis Q_tilde.

    Takes the cycle's SoarState and OperatorPair, and the run's ctol or
    None.  Returns a ProjectedQep of Q_tilde = ``extraction_basis(state)``
    (n x ktilde): float64 triple and R blocks for a float64 Q_tilde, which
    projects with the real working matrices, complex128 for any other
    (``ProjectedQep.real``).  Writes neither the state nor the operator,
    except that an operator's first streamed projection builds its CSR
    arrays (``OperatorPair.work_csr``), before the buffer is allocated.

    Forms the columns of one plan, a list of (working matrix, basis
    columns), a block of rows at a time in one reused column-major buffer;
    each block adds its share of Q_tilde^* times those columns to the
    triple and is folded into the Gram triangle by ``kernels.gram_blocks``
    before the next one is formed.

    - The direct plan is [W1 W2 W3] = [X1 Q_tilde, X2 Q_tilde, X3 Q_tilde];
      R1, R2 and R3 are the thirds of its triangle.
    - Where the decomposition holds to min(RELATION_TOL eps,
      RELATION_CTOL_FRACTION ctol) (``_relation_holds``; RELATION_TOL eps
      without ``ctol``), the plan is the 2k + 4 (ktilde = k + 1) or 2k + 7
      (ktilde = k + 2) columns Y = [X1 Q_tilde, X3 P_{k+1},
      X2 Q_tilde[:, k:], X3 Q_tilde[:, k:]], and R1, R2, R3 and the triple
      are derived from those of Y through X2 Q_k = -X1 Q_{k+1} T_hat -
      X3 P_k and X3 Q_k = X3 P_{k+1} T_hat (``_through_relation``).
      ``ProjectedQep.relation`` tells which plan ran.  The derived blocks
      carry the decomposition's rounding, not that of products formed from
      Q_tilde, so a residual near the rounding floor can read lower through
      them than the delivered vector's (``ConvergedPair.residual`` is
      recomputed from M, C and K).

    The blocks are ``kernels.row_blocks`` where that holds less memory
    (``_project_blocks``).  Then each column X_i v of a block is written
    into the zeroed buffer by scipy's CSR matrix-vector kernel, reading the
    block's range of the CSR arrays in place, entry for entry the sums of
    the one-block product, and the call holds the buffer of one block, the
    plan-wide triangle and the triple, never the n-row array.  Otherwise
    there is one block of all n rows, formed by the whole matrices times
    row-major copies of at most PROJECT_CHUNK_ENTRIES basis entries, and R
    is the row-major triangle of ``gram_blocks`` without a fold.  A block's
    share of Q_tilde^* W is conj(Q_tilde[rows]^T conj(W[rows])), with the
    block conjugated in place and back: in one block that is Q_tilde^* W
    bit for bit.
    """
    Qt = extraction_basis(state)
    n, kt = Qt.shape
    real = Qt.dtype == float
    blocks = _project_blocks(op, kt, real)
    streamed = len(blocks) > 1
    tol = RELATION_TOL * np.finfo(float).eps
    if ctol is not None:
        tol = min(tol, RELATION_CTOL_FRACTION * ctol)
    relation = _relation_holds(state, op, tol)
    # (index of the working matrix, basis, first column)
    if relation:
        k = state.k
        plan = [(0, Qt, 0), (2, state.P, 0), (1, Qt, k), (2, Qt, k)]
    else:
        plan = [(0, Qt, 0), (1, Qt, 0), (2, Qt, 0)]
    width = sum(B.shape[1] - j for _, B, j in plan)
    if streamed:
        # an operator's first streamed projection builds these, before the
        # buffer is allocated
        work = op.real_work_csr if real else op.work_csr
        # views of the basis columns, contiguous in the column-major
        # Q_tilde and P, made once per basis
        views = {id(B): [np.ascontiguousarray(v) for v in B.T]
                 for _, B, _ in plan}
    else:
        work = op.real_work if real else (op.work_M, op.work_C, op.work_K)
        chunk = max(1, PROJECT_CHUNK_ENTRIES // n)
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
            for i, B, j in plan:
                indptr, indices, data = work[i]
                indptr = indptr[rows.start:rows.stop + 1]
                for v, w in zip(views[id(B)][j:], out):
                    csr_matvec(b, n, indptr, indices, data, v, w)
        else:
            at = 0
            for i, B, j in plan:
                for c in range(j, B.shape[1], chunk):
                    B_chunk = np.ascontiguousarray(B[:, c:c + chunk])
                    W[:, at:at + B_chunk.shape[1]] = work[i] @ B_chunk
                    at += B_chunk.shape[1]
            # the last chunk is freed before the block's triple and fold
            B_chunk = None
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
        R = _through_relation(R, state, kt)
    else:
        R = R[:, :kt], R[:, kt:2 * kt], R[:, 2 * kt:]
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


def _live_groups(proj, op, theta):
    """(live, groups): the indices of the finite theta, ascending, and
    groups of positions in ``live``, conjugate partners together on a real
    projection (``kernels.conjugate_groups``), each alone otherwise.
    Theta above HUGE_RITZ or infinite, and in shift-invert mode below
    1e-300 (lam = infinity), is not finite."""
    mag = np.abs(theta)
    ok = mag <= HUGE_RITZ
    if op.sigma is not None:
        ok &= mag >= 1e-300
    live = np.flatnonzero(ok)
    groups = (kernels.conjugate_groups(theta[live])[0] if proj.real
              else [(j,) for j in range(live.size)])
    return live, groups


def _select(theta, indices, m):
    """The m wanted of ``indices`` into ``theta``, a list of Python
    complex: by (-|theta|, Re theta, Im theta), ties in the order given."""
    return sorted(indices, key=lambda i: (-abs(theta[i]), theta[i].real,
                                          theta[i].imag))[:m]


def _entry(op, theta, g, norm):
    """The RitzEntry of theta and g, with the residual ``norm`` or, for a
    theta that is not finite, None."""
    lam, rel = (_relative(op, theta, norm) if norm is not None
                else (complex(np.inf), float(np.inf)))
    return RitzEntry(theta=theta, g=g, lam=lam, rel_residual=rel,
                     finite=norm is not None, residual=norm)


def _group_entries(proj, op, theta, groups, check):
    """The entries of ``groups``, lists of indices of finite theta with
    conjugate partners together on a real projection, by index: one g by
    ``kernels.null_vector`` and one residual by ``_residual_norms`` per
    group, the partner's g conjugated.  With ``check``, None if a g's
    ||P_k(theta) g|| exceeds NULL_VECTOR_TOL eps ||P_k(theta)||_1."""
    G = np.empty((proj.M_k.shape[0], len(groups)), dtype=complex, order="F")
    bound = NULL_VECTOR_TOL * np.finfo(float).eps
    for j, group in enumerate(groups):
        G[:, j], res, scale = kernels.null_vector(
            proj.M_k, proj.C_k, proj.K_k, theta[group[0]])
        if check and res > bound * scale:
            return None
    norms = _residual_norms(proj.blocks, theta[[group[0] for group in groups]],
                            G, list(range(len(groups))))
    return {i: _entry(op, theta[i].item(), g, norm)
            for j, (group, norm) in enumerate(zip(groups, norms))
            for i, g in zip(group, (G[:, j], G[:, j].conj()))}


class _PairsOnAccess(Sequence):
    """All Ritz entries of a wanted-only extraction, in theta order: those
    ``_wanted_only`` built, and any other made on its first access, with
    its conjugate group, by ``_group_entries`` (a theta that is not finite
    alone, its g by ``kernels.null_vector``), and returned as that same
    object on every later access."""

    def __init__(self, proj, op, theta, groups, built):
        self._proj, self._op, self._theta = proj, op, theta
        self._group = {i: group for group in groups for i in group}
        self._built = built

    def __len__(self):
        return len(self._theta)

    def __getitem__(self, i):
        i = range(len(self))[i]
        if i not in self._built:
            if i in self._group:
                self._built.update(_group_entries(
                    self._proj, self._op, self._theta, [self._group[i]],
                    check=False))
            else:
                theta = self._theta[i]
                g = kernels.null_vector(self._proj.M_k, self._proj.C_k,
                                        self._proj.K_k, theta)[0]
                self._built[i] = _entry(self._op, theta.item(), g, None)
        return self._built[i]


def _wanted_only(proj, op, m):
    """The RitzSet of ``extract_ritz`` with only the wanted entries built,
    or None where it falls back to all vectors (``extract_ritz``)."""
    theta, _ = kernels.solve_projected_qep(proj.M_k, proj.C_k, proj.K_k,
                                           vectors=False)
    live, groups = _live_groups(proj, op, theta)
    live = live.tolist()
    selection = _select(theta.tolist(), live, m)
    wanted = theta[selection]
    for a, t in enumerate(wanted):
        rest = wanted[a + 1:]
        if np.any(np.abs(rest - t)
                  <= WANTED_MIN_GAP * np.maximum(np.abs(rest), abs(t))):
            return None
    # the groups as lists of indices into theta: tuples built from
    # generators would leave free-list blocks behind every cycle, which
    # count in a tracemalloc peak
    groups = [[live[j] for j in group] for group in groups]
    chosen = set(selection)
    built = _group_entries(proj, op, theta, [
        group for group in groups if not chosen.isdisjoint(group)], check=True)
    if built is None:
        return None
    return RitzSet(pairs=_PairsOnAccess(proj, op, theta, groups, built),
                   selection=selection, wanted_only=True)


def extract_ritz(proj, op, m):
    """All Ritz pairs of the projected QEP plus the m wanted ones.

    Takes a ProjectedQep, its OperatorPair and m.  Returns a new RitzSet
    with no refined entries.  Wanted means largest |theta| in working
    coordinates: largest magnitude in direct mode, nearest the target in
    shift-invert mode.  Theta above HUGE_RITZ or infinite, and in
    shift-invert mode below 1e-300 (lam = infinity), is not finite: it is
    never selected and carries an infinite residual.

    Where ``proj.relation`` is set, the extraction is wanted-only
    (``RitzSet.wanted_only``): ``kernels.solve_projected_qep`` gives the
    eigenvalues alone, and the unit g of each wanted theta, and of its
    whole conjugate group on a real projection, comes from
    ``kernels.null_vector``; only those entries' residuals are taken.
    ``pairs`` builds any other entry on its first access, the same way.
    Such a cycle falls back to all vectors when two wanted theta are
    within WANTED_MIN_GAP of each other, relatively, or when a wanted g's
    ||P_k(theta) g|| exceeds NULL_VECTOR_TOL eps ||P_k(theta)||_1.

    Otherwise every eigenvector comes from ``kernels.solve_projected_qep``
    and the residual ||(theta^2 W1 + theta W2 + W3) g|| of each finite
    pair is taken through the R blocks (``_residual_norms``), a bounded
    group of columns at a time, so besides theta and G the call holds one
    group's temporaries.  On a real projection one column serves each
    conjugate pair: the partner's S is the conjugate bit for bit, with the
    same norm.  Raises ``kernels.SingularPencilError`` if the projected
    QEP's eigensolver fails.
    """
    if proj.relation:
        ritz = _wanted_only(proj, op, m)
        if ritz is not None:
            return ritz
    theta, G = kernels.solve_projected_qep(proj.M_k, proj.C_k, proj.K_k)
    live, groups = _live_groups(proj, op, theta)
    first = live[[group[0] for group in groups]]
    norms = {}
    for group, norm in zip(groups, _residual_norms(proj.blocks, theta, G,
                                                   first)):
        norms.update((int(live[j]), norm) for j in group)
    theta = theta.tolist()
    pairs = [_entry(op, th, G[:, i], norms.get(i))
             for i, th in enumerate(theta)]
    return RitzSet(pairs=pairs, selection=_select(theta, norms, m))


def extract_refined(proj, op, ritz):
    """Fill ``ritz.refined`` in place for every selected index and return
    ``ritz``; ``ritz.pairs`` is not changed.

    Each refined vector comes from ``kernels.refined_vector``, started at
    the Ritz vector; a refined entry is the Ritz entry with g, sigma_min
    (the residual norm of g), residual and rel_residual replaced.  Its
    residual never reads above the Ritz vector's: where the refined
    vector's does, at the rounding floor, where ||S g|| through R_S and
    through the blocks round differently, the entry keeps the Ritz vector
    and its residual, with sigma_min set to that residual, so it still
    counts as refined.

    On a real projection one call serves each conjugate pair of
    ``kernels.conjugate_groups``: the partner takes the conjugate vector and
    the same sigma_min, which is what ``kernels.refined_vector`` would
    return for it bit for bit, as complex arithmetic is symmetric under
    conjugation.  The call holds what one ``kernels.refined_vector`` call
    holds, on top of the refined entries.
    """
    sel = ritz.selection
    groups = (kernels.conjugate_groups([ritz.pairs[i].theta for i in sel])[0]
              if proj.real else [(j,) for j in range(len(sel))])
    for group in groups:
        first = ritz.pairs[sel[group[0]]]
        z, smin = kernels.refined_vector(first.theta, *proj.blocks, first.g)
        for j, g in zip(group, (z, z.conj())):
            entry = ritz.pairs[sel[j]]
            ritz.refined[sel[j]] = (
                replace(entry, sigma_min=entry.residual)
                if smin > entry.residual else
                replace(entry, g=g, sigma_min=smin, residual=smin,
                        rel_residual=_relative(op, entry.theta, smin)[1]))
    return ritz


def residual_bound(state, theta, s, norm_M):
    """A-posteriori residual bound c_k t_{k+1,k} |e_k^* s| for each Petrov
    pair (theta, s) of T_k, with the exact ||P_k s|| in the coefficient.
    Takes the state, the Petrov values, their k-length vectors ``s`` (one
    per column) and ||M||_1 of the working triple; returns one float64
    bound per column of ``s``, or a float for a 1-D ``s``, and writes
    nothing."""
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
