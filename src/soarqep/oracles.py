"""Brute-force verification backends for the test suite.

Dense O(n^3) reference paths: explicit linearization H = [A B; I 0],
standard Arnoldi on H, and the full QEP spectrum via the companion pencil.
They call nothing from the solver layers except apply_ab, so agreement is
meaningful.  For n past the dense guards, the mass-spring chain has a
closed-form spectrum.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operator import apply_ab


class SizeGuardError(ValueError):
    """The dense reference path was asked for a problem too large."""


@dataclass
class DenseLinearization:
    """The explicit complex 2n-by-2n linearization H = [A B; I 0] of an
    operator, with exact lower blocks, as ``build_h`` builds it."""
    H: np.ndarray


def build_h(op, max_dim=1000):
    """Materialize H column by column through the matrix-free operator."""
    n = op.n
    if 2 * n > max_dim:
        raise SizeGuardError("2n = %d exceeds the dense guard %d" % (2 * n, max_dim))
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    e = np.zeros(n, dtype=complex)
    z = np.zeros(n, dtype=complex)
    for j in range(n):
        e[j] = 1.0
        H[:n, j] = apply_ab(op, e, z)       # column j of A
        H[:n, n + j] = apply_ab(op, z, e)   # column j of B
        e[j] = 0.0
    H[n:, :n] = np.eye(n)
    return DenseLinearization(H=H)


def arnoldi_on_h(H, v, k):
    """Standard Arnoldi with full reorthogonalization.

    Returns (V, Hess, trail): V holds the k+1 orthonormal basis vectors
    (fewer on breakdown), Hess is the square upper-Hessenberg projection of
    the completed steps, and trail lists the subdiagonal norms h_{j+1,j}
    including the final one.
    """
    H = np.asarray(H, dtype=complex)
    v = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("starting vector must be nonzero")
    V = [v / nrm]
    Hc = []
    trail = []
    for j in range(k):
        w = H @ V[j]
        Vm = np.column_stack(V)
        h = Vm.conj().T @ w
        w = w - Vm @ h
        h2 = Vm.conj().T @ w
        w = w - Vm @ h2
        h = h + h2
        beta = np.linalg.norm(w)
        col = np.zeros(j + 2, dtype=complex)
        col[: j + 1] = h
        col[j + 1] = beta
        Hc.append(col)
        trail.append(float(beta))
        if beta <= 1e-14 * np.linalg.norm(H @ V[j]):
            break
        V.append(w / beta)
    kk = len(Hc)
    Hess = np.zeros((kk, kk), dtype=complex)
    for j, col in enumerate(Hc):
        Hess[: min(j + 2, kk), j] = col[: min(j + 2, kk)]
    return np.column_stack(V), Hess, trail


def dense_qep_spectrum(M, C, K, max_n=500):
    """Full 2n-eigenpair spectrum of a dense QEP via the companion pencil.

    Returns (lams, X) with X columns the unit eigenvectors; infinite
    eigenvalues appear as inf entries with the corresponding X column taken
    from the leading block.  A triple with no nonzero imaginary part goes
    through the real QZ, which is several times faster than the complex one.
    """
    mats = [X.toarray() if hasattr(X, "toarray") else np.asarray(X)
            for X in (M, C, K)]
    if not any(np.imag(X).any() for X in mats):
        mats = [np.real(X) for X in mats]
    M, C, K = mats
    dtype = np.result_type(*mats, float)
    n = M.shape[0]
    if n > max_n:
        raise SizeGuardError("n = %d exceeds the dense guard %d" % (n, max_n))
    A = np.zeros((2 * n, 2 * n), dtype=dtype)
    B = np.zeros((2 * n, 2 * n), dtype=dtype)
    A[:n, :n] = -C
    A[:n, n:] = -K
    A[n:, :n] = np.eye(n)
    B[:n, :n] = M
    B[n:, n:] = np.eye(n)
    w, vr = scipy.linalg.eig(A, B, right=True)
    lams = np.empty(2 * n, dtype=complex)
    X = np.zeros((n, 2 * n), dtype=complex)
    for i in range(2 * n):
        finite = bool(np.isfinite(w[i]))
        lams[i] = w[i] if finite else complex(np.inf)
        x = vr[:n, i] if (not finite or abs(w[i]) >= 1.0) else vr[n:, i]
        xn = np.linalg.norm(x)
        if xn == 0.0:
            x = vr[n:, i] if (not finite or abs(w[i]) >= 1.0) else vr[:n, i]
            xn = np.linalg.norm(x)
        X[:, i] = x / xn
    return lams, X


def mass_spring_spectrum(n, kappa=5.0, tau=10.0):
    """All 2n eigenvalues of ``gen_mass_spring(n, kappa, tau)`` in closed form.

    M = I and C, K are tau and kappa times tridiag(-1, 3, -1), whose
    eigenvalues mu_j = 3 - 2 cos(j pi / (n + 1)) share one eigenvector
    basis, so the eigenvalues are the roots of
    lam^2 + tau mu_j lam + kappa mu_j = 0, j = 1..n.
    """
    mu = 3.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    disc = np.sqrt((tau * mu) ** 2 - 4.0 * kappa * mu + 0j)
    return np.concatenate([(-tau * mu + disc) / 2.0, (-tau * mu - disc) / 2.0])
