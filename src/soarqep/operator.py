"""Problem container and matrix-free application of the monic-form operators.

The solver never forms A = -M^{-1}C or B = -M^{-1}K explicitly; it keeps a
sparse LU factorization of M (direct mode) or of the shift-inverted
M_hat = sigma^2 M + sigma C + K and applies the pair through one solve per
step.

In shift-invert mode M_hat and C_hat = C + 2 sigma M are assembled on C's
own sparsity pattern whenever M's and K's entries lie on it, as they do
for every generator: both reference C's index arrays and hold only their
own data, entry for entry what scipy's sparse sums would compute.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class FactorizationError(RuntimeError):
    """The leading matrix is (numerically) singular.

    ``pivot_position`` is the index of the smallest pivot on the diagonal of
    U, in the factorization's column order, when one was computed.
    """

    def __init__(self, message, pivot_position=None):
        super().__init__(message)
        self.pivot_position = pivot_position


# stored entries whose absolute values ``_one_norm`` holds at a time, unless
# one column has more: 512 KiB of float64, where all of string1000's shifted
# damping matrix (500k entries) took 3.8 MiB and set the solve's peak
ONE_NORM_GROUP_ENTRIES = 2 ** 16


def _one_norm(A):
    """Largest absolute column sum of a CSC matrix, without forming abs(A).

    Takes the stored entries a group of whole columns at a time, about
    ONE_NORM_GROUP_ENTRIES of them, and sums each non-empty column with
    ``np.add.reduceat``, as scipy's own ``abs(A).sum(axis=0)`` does, so the
    value is the same bit for bit.
    """
    indptr, n = A.indptr, A.shape[1]
    best, c = 0.0, 0
    while c < n:
        e = n
        if indptr[n] - indptr[c] > ONE_NORM_GROUP_ENTRIES:
            e = max(c + 1, int(np.searchsorted(
                indptr, indptr[c] + ONE_NORM_GROUP_ENTRIES, side="right")) - 1)
        ptr = indptr[c:e + 1]
        starts = ptr[:-1][np.diff(ptr) > 0]
        if starts.size:
            # np.maximum, not max, so a NaN sum propagates
            best = np.maximum(best, np.add.reduceat(
                np.abs(A.data[ptr[0]:ptr[-1]]), starts - ptr[0]).max())
        c = e
    return float(best)


@dataclass
class QepProblem:
    """The triple (M, C, K) of an n-by-n quadratic eigenvalue problem as
    complex CSC matrices, converted from any dense or sparse triple, which
    must be square of one size with finite entries; ``norms1`` holds their
    1-norms.  ``from_matrices(M, C, K)`` is the same call.

    Index arrays are stored as int32 whenever n and nnz fit, the dtype
    scipy picks for new matrices.  scipy's sums of int64 inputs choose
    their index dtype from the contents of an uninitialized buffer, so
    without the cast the index dtype of ``build_operator``'s sums could
    differ from run to run."""

    M: sp.csc_matrix
    C: sp.csc_matrix
    K: sp.csc_matrix
    norms1: tuple = field(init=False)

    def __post_init__(self):
        self.M, self.C, self.K = mats = [
            sp.csc_matrix(X if sp.issparse(X) else sp.csc_matrix(np.asarray(X)),
                          dtype=complex) for X in (self.M, self.C, self.K)]
        n = self.n
        self.norms1 = tuple(_one_norm(X) for X in mats)
        for name, X, norm1 in zip("MCK", mats, self.norms1):
            if X.shape != (n, n):
                raise ValueError("%s has shape %s, expected (%d, %d)" % (name, X.shape, n, n))
            if not np.isfinite(norm1):
                raise ValueError("%s has 1-norm %r; entries must be finite" % (name, norm1))
            if max(n, X.nnz) <= np.iinfo(np.int32).max:
                X.indices = X.indices.astype(np.int32, copy=False)
                X.indptr = X.indptr.astype(np.int32, copy=False)

    @classmethod
    def from_matrices(cls, M, C, K):
        return cls(M, C, K)

    @property
    def n(self):
        return self.M.shape[0]

    @property
    def norm_sum(self):
        return self.norms1[0] + self.norms1[1] + self.norms1[2]


def _checked_splu(A, what, norm1):
    """Sparse LU of A, refused when A is numerically singular.

    A passes when ||A||_1 * est(||A^{-1}||_1) < 1e14 (``norm1`` is
    ||A||_1), a condition estimate on the scale of a pivot 1e-14 times the
    largest; a NaN estimate fails.  scipy's ``onenormest`` with t=1 (the
    Hager/Higham method) needs only solves with the factors and draws no
    random numbers.  ``lu.U`` is read only on the raising path, to report
    the smallest pivot: reading ``lu.L`` or ``lu.U`` makes scipy's
    ``SuperLU`` build CSC copies of both factors, and it keeps them
    (read-only, not releasable) for as long as the factorization lives.
    """
    try:
        lu = spla.splu(A.tocsc())
    except RuntimeError as exc:
        raise FactorizationError("%s is singular: %s" % (what, exc)) from exc
    inverse = spla.LinearOperator(lu.shape, lu.solve, dtype=complex,
                                  rmatvec=lambda x: lu.solve(x, trans="H"))
    if not norm1 * spla.onenormest(inverse, t=1) < 1e14:
        raise FactorizationError(
            "%s is numerically singular (1-norm condition estimate >= 1e14)"
            % what,
            pivot_position=int(np.argmin(np.abs(lu.U.diagonal()))),
        )
    return lu


# stored entries whose row indices ``OperatorPair.work_row_entries`` counts
# at a time: np.bincount takes them as 8-byte integers, which for all of
# string2000's shifted damping matrix (2M entries) would be 15 MiB
ROW_COUNT_GROUP_ENTRIES = 2 ** 16


@dataclass
class OperatorPair:
    """Matrix-free A q + B p (direct) or its shift-inverted analogue.

    ``work_M``, ``work_C``, ``work_K`` are the matrices of the QEP the
    Arnoldi recurrence actually iterates on: (M, C, K) in direct mode,
    (M_hat, C_hat, K_hat) in shift-invert mode.  ``sigma`` is None in
    direct mode, so it alone tells the two modes apart.
    """

    problem: QepProblem
    sigma: complex
    lu: object
    work_M: sp.csc_matrix
    work_C: sp.csc_matrix
    work_K: sp.csc_matrix
    work_norms1: tuple

    @property
    def n(self):
        return self.problem.n

    @property
    def work_norm_sum(self):
        return self.work_norms1[0] + self.work_norms1[1] + self.work_norms1[2]

    @cached_property
    def real_work(self):
        """The working matrices as float64 CSC matrices, or None if one of
        them has a nonzero imaginary part (a complex problem or sigma).
        ``apply_ab`` and ``extraction.project`` take them for a real
        decomposition (``msoar.init_state``); their data are views of the
        complex matrices' real parts, built once per operator."""
        work = (self.work_M, self.work_C, self.work_K)
        if any(X.data.imag.any() for X in work):
            return None
        return tuple(sp.csc_matrix((X.data.real, X.indices, X.indptr),
                                   shape=X.shape) for X in work)

    @cached_property
    def work_row_entries(self):
        """The stored entries of work_M, work_C and work_K together in the
        rows before each row r = 0..n: the sum of their CSR ``indptr``
        arrays, counted from their CSC row indices ROW_COUNT_GROUP_ENTRIES
        at a time, with no CSR copy.  ``extraction.project`` decides from
        it whether to stream; it is built once per operator."""
        n = self.n
        counts = np.zeros(n + 1, dtype=np.int64)
        for X in (self.work_M, self.work_C, self.work_K):
            rows = X.indices[:X.indptr[-1]]
            for s in range(0, rows.size, ROW_COUNT_GROUP_ENTRIES):
                counts[1:] += np.bincount(
                    rows[s:s + ROW_COUNT_GROUP_ENTRIES], minlength=n)
        return np.cumsum(counts, out=counts)

    @cached_property
    def work_csr(self):
        """The CSR arrays of work_M, work_C and work_K (``_csr_arrays``),
        from which a streamed ``extraction.project`` reads a row block's
        entries in place; built once per operator, by its first streamed
        projection."""
        return tuple(_csr_arrays(X)
                     for X in (self.work_M, self.work_C, self.work_K))

    @cached_property
    def real_work_csr(self):
        """The CSR arrays of the matrices of ``real_work``, which must
        exist, as ``work_csr``."""
        return tuple(_csr_arrays(X) for X in self.real_work)


def _csr_arrays(X):
    """(indptr, indices, data) of the CSR form of the CSC matrix X, each
    contiguous.  A matrix whose CSC arrays are bit for bit those of its
    ``tocsr()`` copy, as a canonical matrix equal to its transpose has,
    keeps its own (a contiguous copy of a strided ``data`` aside), and the
    copy is dropped; any other keeps the copy."""
    Y = X.tocsr()
    data = X.data[:Y.nnz]
    if (np.array_equal(X.indptr, Y.indptr)
            and np.array_equal(X.indices[:Y.nnz], Y.indices)
            and np.array_equal(_bits(data), _bits(Y.data))):
        return X.indptr, X.indices, (data if data.flags.c_contiguous
                                     else Y.data)
    return Y.indptr, Y.indices, Y.data


def _bits(a):
    """A view of the 1-D float or complex array a as unsigned integers of
    its bits (two per complex entry), so that -0.0 and 0.0 differ."""
    if a.dtype.kind == "c":
        a = a.view(a.real.dtype)
    return a.view("u%d" % a.itemsize)


# largest |Re sigma| + |Im sigma| whose square is finite
_SIGMA_MAX = np.sqrt(np.finfo(float).max)


def _keys(X):
    """col * n + row of each stored entry of the n-row X, in storage order,
    as int64."""
    n = X.shape[0]
    keys = np.repeat(np.arange(X.shape[1], dtype=np.int64) * n,
                     np.diff(X.indptr))
    keys += X.indices[:X.indptr[-1]]
    return keys


def _positions_on(C, mats):
    """Where each of ``mats`` stores its entries among C's, as an index
    array per matrix, found by ``searchsorted`` on C's keys; None if an
    entry lies off C's pattern.  All the matrices are canonical.  C's keys,
    8 bytes per stored entry, are freed on return, before any data array is
    built."""
    keys, found = _keys(C), []
    for X in mats:
        want = _keys(X)
        at = np.searchsorted(keys, want)
        # want is sorted too, so the last position is the largest
        if at.size and (at[-1] == keys.size or (keys[at] != want).any()):
            return None
        found.append(at)
    return found


def _add_on_pattern(a, pos, b, out=None):
    """The entries of scipy's sum A + B of canonical matrices, where B's
    entries b sit at positions ``pos`` of A's entries a: a + b there, and
    a + 0 elsewhere, which turns -0.0 into 0.0 as the sum's op(x, 0) does.
    Exact zeros are kept; ``out`` may be a."""
    at = a[pos]
    out = np.add(a, 0, out=out)
    out[pos] = at + b
    return out


def _shifted_on_pattern(problem, sigma):
    """(M_hat, C_hat) on C's pattern, or None when the sums must build them.

    M_hat = (sigma^2 M + sigma C) + K and C_hat = C + 2 sigma M are formed
    entry by entry with the operands and the association of scipy's sums,
    so they equal ``sigma**2 * M + sigma * C + K`` and ``C + 2.0 * sigma *
    M`` bit for bit: the scalar products are taken of whole data arrays as
    scipy takes them, and an entry that sigma^2 M + sigma C cancels exactly,
    which that sum drops, is 0 where K is added to it.  A matrix without an
    exact zero shares C's ``indices`` and ``indptr``; one with an exact
    zero gets copies of them with its zeros eliminated, as the sums drop
    them.  None unless the three matrices are canonical (sorted indices, no
    duplicates) and every entry of M and K lies on C's pattern.
    """
    M, C, K = problem.M, problem.C, problem.K
    if not all(X.has_canonical_format for X in (M, C, K)):
        return None
    positions = _positions_on(C, (M, K))
    if positions is None:
        return None
    pos_m, pos_k = positions
    c, m, k = (X.data[:X.indptr[-1]] for X in (C, M, K))
    hat = c * sigma
    _add_on_pattern(hat, pos_m, m * sigma ** 2, out=hat)
    # sigma^2 M + sigma C drops what it cancels exactly, so K is added to
    # 0 there; elsewhere a zero stays zero and is dropped below
    hat[hat == 0] = 0
    _add_on_pattern(hat, pos_k, k, out=hat)
    tilde = _add_on_pattern(c, pos_m, m * (2.0 * sigma))
    return tuple(_on_pattern(C, data) for data in (hat, tilde))


def _on_pattern(C, data):
    """The CSC matrix of ``data`` on C's pattern: sharing C's index arrays,
    or, with an exact zero in ``data``, on copies of them with the zeros
    eliminated.  C's own arrays are never changed."""
    if data.all():
        return sp.csc_matrix((data, C.indices, C.indptr), shape=C.shape)
    X = sp.csc_matrix((data, C.indices.copy(), C.indptr.copy()),
                      shape=C.shape)
    X.eliminate_zeros()
    return X


def build_operator(problem, mode="direct", sigma=None):
    """Factorize and wrap the operator pair for ``mode``.

    In shift-invert mode assembles M_hat = sigma^2 M + sigma C + K,
    C_hat = C + 2 sigma M and K_hat = M, and factorizes M_hat.  Where M's
    and K's entries lie on C's pattern (``_shifted_on_pattern``), M_hat and
    C_hat share C's ``indices`` and ``indptr`` and keep only their data
    arrays; a matrix with an exact zero on that pattern, such as C_hat's
    diagonal on ``gen_mass_spring(200, tau=1.0)`` at sigma = -1.5, gets
    its own compacted index arrays instead.  A non-canonical C, or an M or
    K with an entry off C's pattern, takes scipy's sparse sums; both routes
    give the same matrices bit for bit.  Direct mode refuses a sigma;
    shift-invert mode needs one with a finite square.
    """
    if mode == "direct":
        if sigma is not None:
            raise ValueError("direct mode takes no sigma, got %r" % (sigma,))
        wM, wC, wK, norms1 = problem.M, problem.C, problem.K, problem.norms1
        lu = _checked_splu(wM, "M", norms1[0])
    elif mode == "shift-invert":
        if sigma is None:
            raise ValueError("shift-invert mode requires sigma")
        sigma = complex(sigma)
        # NaN fails the comparison too
        if not abs(sigma.real) + abs(sigma.imag) <= _SIGMA_MAX:
            raise ValueError("sigma must be finite with a finite sigma^2, "
                             "got %r" % sigma)
        work = _shifted_on_pattern(problem, sigma)
        if work is None:
            work = (sp.csc_matrix(sigma ** 2 * problem.M + sigma * problem.C
                                  + problem.K),
                    sp.csc_matrix(problem.C + 2.0 * sigma * problem.M))
        wM, wC = work
        wK = problem.M
        norms1 = (_one_norm(wM), _one_norm(wC), problem.norms1[0])
        lu = _checked_splu(wM, "sigma^2 M + sigma C + K", norms1[0])
    else:
        raise ValueError("unknown mode %r" % mode)
    return OperatorPair(problem=problem, sigma=sigma, lu=lu,
                        work_M=wM, work_C=wC, work_K=wK, work_norms1=norms1)


def apply_ab(op, q, p):
    """r = A q + B p through one solve with the cached factorization.

    Float64 q and p on an operator with ``real_work`` give a float64 r:
    the products take the real working matrices, and the complex
    factorization of a real matrix solves a real right-hand side with an
    imaginary part of exact zeros, which is dropped."""
    if q.dtype == float and p.dtype == float and op.real_work is not None:
        _, C, K = op.real_work
        return -op.lu.solve(C @ q + K @ p).real
    rhs = op.work_C @ q + op.work_K @ p
    return -op.lu.solve(rhs)


def recover_eigen(op, rho, residual_norm_hat):
    """Map a shift-inverted eigenpair back to the original problem.

    Given rho with residual norm ||Q_hat(rho) y|| for unit y, the original
    eigenvalue is 1/rho + sigma and its residual norm is the hatted one
    divided by |rho|^2.  In direct mode this is the identity.
    """
    if op.sigma is None:
        return complex(rho), float(residual_norm_hat)
    if abs(rho) < 1e-300:
        raise ZeroDivisionError("shift-inverted eigenvalue too close to zero")
    lam = 1.0 / rho + op.sigma
    return complex(lam), float(residual_norm_hat / abs(rho) ** 2)
