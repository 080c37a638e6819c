"""Problem container and matrix-free application of the monic-form operators.

The solver never forms A = -M^{-1}C or B = -M^{-1}K explicitly; it keeps a
sparse LU factorization of M (direct mode) or of the shift-inverted
M_hat = sigma^2 M + sigma C + K and applies the pair through one solve per
step.
"""

from dataclasses import dataclass, field

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


def _one_norm(A):
    """Largest absolute column sum of a CSC matrix, without forming abs(A).

    Sums each non-empty column's stored entries with ``np.add.reduceat``,
    as scipy's own ``abs(A).sum(axis=0)`` does, so the value is the same
    bit for bit.
    """
    starts = A.indptr[:-1][np.diff(A.indptr) > 0]
    if starts.size == 0:
        return 0.0
    return float(np.add.reduceat(np.abs(A.data), starts).max())


@dataclass
class QepProblem:
    """The triple (M, C, K) of an n-by-n quadratic eigenvalue problem."""

    M: sp.csc_matrix
    C: sp.csc_matrix
    K: sp.csc_matrix
    n: int
    norms1: tuple

    @classmethod
    def from_matrices(cls, M, C, K):
        mats = []
        for X in (M, C, K):
            if not sp.issparse(X):
                X = sp.csc_matrix(np.asarray(X))
            mats.append(sp.csc_matrix(X, dtype=complex))
        M, C, K = mats
        n = M.shape[0]
        norms1 = tuple(_one_norm(X) for X in mats)
        for name, X, norm1 in zip("MCK", mats, norms1):
            if X.shape != (n, n):
                raise ValueError("%s has shape %s, expected (%d, %d)" % (name, X.shape, n, n))
            if not np.isfinite(norm1):
                raise ValueError("%s has 1-norm %r; entries must be finite" % (name, norm1))
        return cls(M=M, C=C, K=K, n=n, norms1=norms1)

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


@dataclass
class OperatorPair:
    """Matrix-free A q + B p (direct) or its shift-inverted analogue.

    ``work_M``, ``work_C``, ``work_K`` are the matrices of the QEP the
    Arnoldi recurrence actually iterates on: (M, C, K) in direct mode,
    (M_hat, C_hat, K_hat) in shift-invert mode.
    """

    problem: QepProblem
    mode: str
    sigma: complex = None
    lu: object = None
    work_M: sp.csc_matrix = None
    work_C: sp.csc_matrix = None
    work_K: sp.csc_matrix = None
    work_norms1: tuple = field(default=None)

    @property
    def n(self):
        return self.problem.n

    @property
    def work_norm_sum(self):
        return self.work_norms1[0] + self.work_norms1[1] + self.work_norms1[2]


def build_operator(problem, mode="direct", sigma=None):
    """Factorize and wrap the operator pair for ``mode``.

    In shift-invert mode assembles M_hat = sigma^2 M + sigma C + K,
    C_hat = C + 2 sigma M and K_hat = M, and factorizes M_hat.
    """
    if mode == "direct":
        wM, wC, wK = problem.M, problem.C, problem.K
        norms1 = problem.norms1
        lu = _checked_splu(wM, "M", norms1[0])
    elif mode == "shift-invert":
        if sigma is None:
            raise ValueError("shift-invert mode requires sigma")
        sigma = complex(sigma)
        wM = sp.csc_matrix(sigma ** 2 * problem.M + sigma * problem.C + problem.K)
        wC = sp.csc_matrix(problem.C + 2.0 * sigma * problem.M)
        wK = problem.M
        norms1 = (_one_norm(wM), _one_norm(wC), problem.norms1[0])
        lu = _checked_splu(wM, "sigma^2 M + sigma C + K", norms1[0])
    else:
        raise ValueError("unknown mode %r" % mode)
    return OperatorPair(problem=problem, mode=mode, sigma=sigma, lu=lu,
                        work_M=wM, work_C=wC, work_K=wK, work_norms1=norms1)


def apply_ab(op, q, p):
    """r = A q + B p through one solve with the cached factorization."""
    rhs = op.work_C @ q + op.work_K @ p
    return -op.lu.solve(rhs)


def recover_eigen(op, rho, residual_norm_hat):
    """Map a shift-inverted eigenpair back to the original problem.

    Given rho with residual norm ||Q_hat(rho) y|| for unit y, the original
    eigenvalue is 1/rho + sigma and its residual norm is the hatted one
    divided by |rho|^2.  In direct mode this is the identity.
    """
    if op.mode == "direct":
        return complex(rho), float(residual_norm_hat)
    if abs(rho) < 1e-300:
        raise ZeroDivisionError("shift-inverted eigenvalue too close to zero")
    lam = 1.0 / rho + op.sigma
    return complex(lam), float(residual_norm_hat / abs(rho) ** 2)
