"""Small dense complex linear-algebra kernels shared by the solver layers.

All routines work on plain ndarrays at orders <= ~200 and do not care where
the data came from.  Everything is complex; real inputs are promoted.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class QRSweepError(RuntimeError):
    """A shifted-QR sweep failed to restore Hessenberg form (internal bug)."""


class RankDeficiencyError(ValueError):
    """Row rank of the input is lower than its structure guarantees."""


class SingularPencilError(RuntimeError):
    """The QZ iteration on the companion pencil did not converge."""


def orthogonalize_with_refinement(v, basis):
    """Orthogonalize v against the columns of ``basis`` with iterative refinement.

    ``basis`` is an n-by-j matrix whose nonzero columns are orthonormal
    (zero columns are tolerated and simply pick up zero coefficients).

    Returns (coefficients, residual, residual_norm) with
    v = basis @ coefficients + residual.  Re-orthogonalizes whenever the
    residual norm drops below 1/sqrt(2) of the pre-pass norm (the classical
    twice-is-enough rule), up to three passes.
    """
    v = np.asarray(v, dtype=complex)
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim == 1:
        basis = basis.reshape(-1, 1)

    coeffs = np.zeros(basis.shape[1], dtype=complex)
    r = v.copy()
    prev_norm = float(np.linalg.norm(r))
    for _ in range(3):
        # conjugating the vector, not the basis, avoids an n-by-j copy
        c = (r.conj() @ basis).conj()
        r = r - basis @ c
        coeffs += c
        rn = float(np.linalg.norm(r))
        if rn >= prev_norm / np.sqrt(2.0) or rn == 0.0:
            break
        prev_norm = rn
    return coeffs, r, rn


def _givens(a, b):
    """Unitary 2x2 G with G^* [a, b]^T = [r, 0]^T; returns (c, s, r)."""
    if b == 0:
        return 1.0 + 0.0j, 0.0 + 0.0j, a
    r = np.hypot(abs(a), abs(b))
    return a / r, b / r, r + 0.0j


def hessenberg_shifted_qr(T, shifts):
    """Run one explicit shifted-QR sweep per shift on a Hessenberg matrix.

    Returns (V, T_plus) with T_plus = V^* T V Hessenberg and
    psi(T) = V @ R for upper-triangular R, psi(mu) = prod(mu - mu_j).
    V is unitary with at most len(shifts) nonzero subdiagonals.
    """
    T = np.asarray(T, dtype=complex)
    k = T.shape[0]
    if T.shape != (k, k):
        raise ValueError("T must be square")
    if len(shifts) >= k and len(shifts) > 0:
        raise ValueError("number of shifts must be below the order of T")

    V = np.eye(k, dtype=complex)
    Tp = T.copy()
    for mu in shifts:
        R = Tp - mu * np.eye(k)
        Q = np.eye(k, dtype=complex)
        for i in range(k - 1):
            c, s, r = _givens(R[i, i], R[i + 1, i])
            # rows i, i+1 of R <- G^* rows
            row_i = np.conj(c) * R[i, i:] + np.conj(s) * R[i + 1, i:]
            row_n = -s * R[i, i:] + c * R[i + 1, i:]
            R[i, i:] = row_i
            R[i + 1, i:] = row_n
            R[i + 1, i] = 0.0
            # columns i, i+1 of Q <- columns times G
            col_i = Q[:, i] * c + Q[:, i + 1] * s
            col_n = -Q[:, i] * np.conj(s) + Q[:, i + 1] * np.conj(c)
            Q[:, i] = col_i
            Q[:, i + 1] = col_n
        Tp = R @ Q + mu * np.eye(k)
        if not np.all(np.isfinite(Tp)):
            raise QRSweepError("non-finite entries after QR sweep")
        # RQ + mu*I is Hessenberg by structure; enforce the exact zeros
        for i in range(2, k):
            Tp[i, : i - 1] = 0.0
        V = V @ Q
    return V, Tp


@dataclass
class QepEigenpair:
    """One eigenpair of a projected QEP; ``finite`` is False at infinity."""

    theta: complex
    g: np.ndarray
    finite: bool = True


def solve_projected_qep(M_k, C_k, K_k):
    """Solve the k-by-k QEP (theta^2 M_k + theta C_k + K_k) g = 0.

    Linearizes to the companion pencil

        [-C_k  -K_k] [theta g]         [M_k  0] [theta g]
        [  I     0 ] [   g   ] = theta [ 0   I] [   g   ]

    and solves it with the dense QZ algorithm.  Eigenvectors are recovered
    from the first k components when |theta| >= 1 and the last k otherwise.
    Returns a list of 2k QepEigenpair, infinite eigenvalues flagged.
    """
    M_k = np.asarray(M_k, dtype=complex)
    C_k = np.asarray(C_k, dtype=complex)
    K_k = np.asarray(K_k, dtype=complex)
    k = M_k.shape[0]
    cond = np.linalg.cond(M_k)
    if not np.isfinite(cond) or cond > 1e14:
        warnings.warn(
            "projected mass matrix is numerically singular (cond=%.2e)" % cond,
            RuntimeWarning,
        )
    A = np.zeros((2 * k, 2 * k), dtype=complex)
    B = np.zeros((2 * k, 2 * k), dtype=complex)
    A[:k, :k] = -C_k
    A[:k, k:] = -K_k
    A[k:, :k] = np.eye(k)
    B[:k, :k] = M_k
    B[k:, k:] = np.eye(k)
    try:
        w, vr = scipy.linalg.eig(A, B, right=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise SingularPencilError("QZ iteration failed on the companion pencil") from exc

    pairs = []
    for i in range(2 * k):
        theta = w[i]
        finite = bool(np.isfinite(theta))
        vec = vr[:, i]
        if not finite or abs(theta) >= 1.0:
            g = vec[:k]
        else:
            g = vec[k:]
        gn = np.linalg.norm(g)
        if gn == 0.0:
            g = vec[k:] if (not finite or abs(theta) >= 1.0) else vec[:k]
            gn = np.linalg.norm(g)
        g = g / gn
        pairs.append(QepEigenpair(theta=complex(theta) if finite else complex(np.inf),
                                  g=g, finite=finite))
    return pairs


def gram_blocks(W1, W2, W3):
    """The nine k-by-k Gram blocks W_i^* W_j, computed once per subspace."""
    Ws = (W1, W2, W3)
    return [[Ws[i].conj().T @ Ws[j] for j in range(3)] for i in range(3)]


def refined_vector(theta, W1, W2, W3, blocks=None):
    """Minimizer of ||(theta^2 W1 + theta W2 + W3) z|| over unit z.

    Works through the Hermitian cross-product matrix

        B = |t|^4 G11 + |t|^2 G22 + G33 + t tbar^2 G12 + tbar t^2 G21
            + tbar^2 G13 + t^2 G31 + tbar G23 + t G32,   G_ij = W_i^* W_j,

    whose smallest eigenpair gives (sigma_min^2, z).  Warns when the two
    smallest eigenvalues nearly coincide, where the cross-product route
    loses accuracy.
    """
    t = complex(theta)
    tb = np.conj(t)
    if blocks is None:
        blocks = gram_blocks(W1, W2, W3)
    G = blocks
    B = (abs(t) ** 4 * G[0][0] + abs(t) ** 2 * G[1][1] + G[2][2]
         + t * tb ** 2 * G[0][1] + tb * t ** 2 * G[1][0]
         + tb ** 2 * G[0][2] + t ** 2 * G[2][0]
         + tb * G[1][2] + t * G[2][1])
    B = 0.5 * (B + B.conj().T)
    evals, evecs = np.linalg.eigh(B)
    z = evecs[:, 0]
    sigma_min = float(np.sqrt(max(evals[0], 0.0)))
    if len(evals) > 1:
        scale = max(abs(evals[1]), np.finfo(float).tiny)
        if (evals[1] - evals[0]) <= 1e-6 * scale:
            warnings.warn(
                "two smallest eigenvalues of the cross-product matrix nearly "
                "coincide; the refined vector may be inaccurate",
                RuntimeWarning,
            )
    return z, sigma_min


def qr_unit_diagonal(V_hat, rank_tol=1e-12):
    """QR-like factorization V_hat = U R tolerating dependent columns.

    V_hat is (k-j)-by-k with independent rows.  Columns that fall inside the
    span of the previous ones yield a zero column of U and a forced unit
    diagonal in R; the remaining columns of U are orthonormal.
    """
    V_hat = np.asarray(V_hat, dtype=complex)
    m, k = V_hat.shape
    U = np.zeros((m, k), dtype=complex)
    R = np.zeros((k, k), dtype=complex)
    nonzero = []
    for col in range(k):
        v = V_hat[:, col]
        vn = np.linalg.norm(v)
        coeffs, r, rn = orthogonalize_with_refinement(v, U[:, nonzero])
        R[nonzero, col] = coeffs
        if rn <= rank_tol * vn or vn == 0.0:
            R[col, col] = 1.0
        else:
            U[:, col] = r / rn
            R[col, col] = rn
            nonzero.append(col)
    if len(nonzero) != m:
        raise RankDeficiencyError(
            "row rank below %d: found only %d independent columns" % (m, len(nonzero))
        )
    return U, R
