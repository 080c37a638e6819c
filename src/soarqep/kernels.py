"""Small dense complex linear-algebra kernels shared by the solver layers.

All routines work on plain ndarrays and do not care where the data came
from.  Only ``orthogonalize_with_refinement`` and ``gram_blocks`` touch
n-length data; the rest works at orders <= ~200 (shifted QR by LAPACK
rotations, each applied once; the projected QEP by standard eig on the monic
companion when M_k is well conditioned and by QZ otherwise, returned as an
eigenvalue array and one matrix of unit eigenvectors; refined vectors by QR,
then SVD).  Everything is complex; real inputs are promoted.
"""

import warnings

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import zlartg, zrot


class QRSweepError(RuntimeError):
    """A shifted-QR sweep produced non-finite entries."""


class RankDeficiencyError(ValueError):
    """Row rank of the input is lower than its structure guarantees."""


class SingularPencilError(RuntimeError):
    """The eigensolver on the companion linearization (standard eig on the
    monic companion, or QZ on the pencil) did not converge."""


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


def hessenberg_shifted_qr(T, shifts):
    """Run one explicit shifted-QR sweep per shift on a Hessenberg matrix.

    Returns (V, T_plus) with T_plus = V^* T V Hessenberg and
    psi(T) = V @ R for upper-triangular R, psi(mu) = prod(mu - mu_j).
    V is unitary with at most len(shifts) nonzero subdiagonals.  Each sweep
    reduces T - mu I to R with LAPACK rotations and applies them to R from
    the right; right rotation i meets columns that are zero below row i+1,
    so it stops there and T_plus is exactly Hessenberg.
    """
    Tp = np.array(T, dtype=complex, order="F")
    k = Tp.shape[0]
    if Tp.shape != (k, k):
        raise ValueError("T must be square")
    if len(shifts) >= k and len(shifts) > 0:
        raise ValueError("number of shifts must be below the order of T")

    V = np.eye(k, dtype=complex, order="F")
    # zrot works in place on these flat column-major views, (r, c) at r + c*k;
    # positional arguments, as keywords cost more than the rotation itself
    t, v = Tp.reshape(-1, order="F"), V.reshape(-1, order="F")
    for mu in shifts:
        t[:: k + 1] -= mu
        rotations = []
        for i in range(k - 1):
            c, s, Tp[i, i] = zlartg(Tp[i, i], Tp[i + 1, i])
            Tp[i + 1, i] = 0.0
            o = i + (i + 1) * k     # rows i, i+1 from column i+1 on
            zrot(t, t, c, s, k - i - 1, o, k, o + 1, k, 1, 1)
            rotations.append((c, s.conjugate()))
        for i, (c, s) in enumerate(rotations):
            # columns i, i+1: rows up to i+1 of T_plus, all rows of V
            zrot(t, t, c, s, i + 2, i * k, 1, i * k + k, 1, 1, 1)
            zrot(v, v, c, s, k, i * k, 1, i * k + k, 1, 1, 1)
        t[:: k + 1] += mu
        if not np.all(np.isfinite(Tp)):
            raise QRSweepError("non-finite entries after QR sweep")
    return V, Tp


# cond(M_k) up to which solve_projected_qep uses the monic companion
MONIC_COND_MAX = 10.0


def solve_projected_qep(M_k, C_k, K_k, vectors=True):
    """Solve the k-by-k QEP (theta^2 M_k + theta C_k + K_k) g = 0.

    With z = [theta g; g] the QEP is the companion problem

        [-C_k  -K_k] z = theta [M_k  0] z.
        [  I     0 ]           [ 0   I]

    When cond(M_k) <= MONIC_COND_MAX, M_k^{-1} is applied to the top block
    row and the standard eigensolver (LAPACK zgeev) runs on the monic
    companion [-M_k^{-1} C_k  -M_k^{-1} K_k; I  0], several times cheaper
    than QZ (zggev) at order 280.  Its backward error maps back to the QEP
    amplified by about cond(M_k) (Tisseur & Meerbergen, SIAM Rev. 43
    (2001)), so the threshold is kept low: at 10, imsoar on mass-spring
    n=500, sigma=-13+0.4i still reaches ctol=1e-15 (9.4e-16, a call at
    cond 6.0 goes monic); at 100 a call at cond 79 goes monic and the run
    stalls at 1.2e-15.  Above the threshold the pencil goes to QZ, which
    also delivers the infinite eigenvalues of a singular M_k.  The direct
    string-damping problems (M = pi/2 I) always have cond 1.

    Returns (theta, G): theta holds the 2k eigenvalues, inf where infinite,
    and column j of the k-by-2k matrix G is the unit eigenvector g of
    theta[j], taken from the first k components of z when |theta[j]| >= 1
    (or theta[j] is infinite) and from the last k otherwise.  Neither half
    is ever zero: z_top = theta z_bot at finite theta, z_bot = 0 at
    infinite.  With ``vectors=False`` only eigenvalues are computed and G
    is None.
    """
    M_k = np.asarray(M_k, dtype=complex)
    C_k = np.asarray(C_k, dtype=complex)
    K_k = np.asarray(K_k, dtype=complex)
    k = M_k.shape[0]
    cond = np.linalg.cond(M_k)
    A = np.zeros((2 * k, 2 * k), dtype=complex)
    A[k:, :k] = np.eye(k)
    if cond <= MONIC_COND_MAX:
        A[:k] = -scipy.linalg.solve(M_k, np.hstack((C_k, K_k)))
        B = None
    else:
        if not np.isfinite(cond) or cond > 1e14:
            warnings.warn(
                "projected mass matrix is numerically singular (cond=%.2e)" % cond,
                RuntimeWarning,
            )
        A[:k, :k] = -C_k
        A[:k, k:] = -K_k
        B = np.eye(2 * k, dtype=complex)
        B[:k, :k] = M_k
    try:
        out = scipy.linalg.eig(A, B, right=vectors, overwrite_a=True,
                               overwrite_b=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise SingularPencilError("eigensolver failed on the companion "
                                  "linearization") from exc
    w, vr = out if vectors else (out, None)
    theta = np.where(np.isfinite(w), w, np.inf)
    if not vectors:
        return theta, None
    G = np.asfortranarray(vr[:k])
    np.copyto(G, vr[k:], where=np.abs(theta) < 1.0)
    for j in range(2 * k):
        # one 1-D norm per column: norm(G, axis=0) rounds differently
        G[:, j] /= np.linalg.norm(G[:, j])
    return theta, G


def gram_blocks(W1, W2, W3):
    """The Gram blocks W_i^* W_j in factored form, one QR per subspace.

    A Householder QR [W1 W2 W3] = Z [R1 R2 R3], factored in place in one
    n-by-3k work array, returns the column blocks (R1, R2, R3) of the
    min(n, 3k)-by-3k triangle R, so R_i^* R_j = W_i^* W_j and
    ||(a W1 + b W2 + c W3) x|| = ||(a R1 + b R2 + c R3) x|| for any a, b, c, x.
    """
    k = W1.shape[1]
    A = np.empty((W1.shape[0], 3 * k), dtype=complex, order="F")
    np.concatenate((W1, W2, W3), axis=1, out=A)
    _, R = scipy.linalg.qr(A, overwrite_a=True, mode="raw", check_finite=False)
    return R[:, :k], R[:, k:2 * k], R[:, 2 * k:]


def refined_vector(theta, R1, R2, R3):
    """Minimizer z of ||(theta^2 R1 + theta R2 + R3) z|| over unit z.

    Returns (z, sigma_min): the smallest right singular vector of
    S = theta^2 R1 + theta R2 + R3 and its singular value, from an SVD of
    the k-by-k triangle of a QR of S.  With the blocks of ``gram_blocks``
    this is the refined vector of the tall W_i at no n-length cost.
    """
    t = complex(theta)
    S = t ** 2 * R1 + t * R2 + R3
    _, svals, Vh = np.linalg.svd(np.linalg.qr(S, mode="r"))
    return Vh[-1].conj(), float(svals[-1])


def qr_unit_diagonal(V_hat):
    """QR-like factorization V_hat = U R tolerating dependent columns.

    V_hat is (k-j)-by-k with independent rows.  Columns that fall inside the
    span of the previous ones (relative residual at most 1e-12) yield a zero
    column of U and a forced unit diagonal in R; the remaining columns of U
    are orthonormal.
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
        if rn <= 1e-12 * vn or vn == 0.0:
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
