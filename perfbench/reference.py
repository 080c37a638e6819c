"""Reference spectra built without soarqep, and the per-solve verifier.

The verifier recomputes every delivered residual from the original M, C and
K, matches every delivered eigenvalue to a reference spectrum, and checks
that the delivered pairs are the m wanted ones: the m nearest sigma in
shift-invert mode, the m of largest magnitude in direct mode.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

LAM_RTOL = 1e-7      # |lam - lam_ref| <= LAM_RTOL * max(1, |lam_ref|)
RES_ABS = 1e-14      # rounding floor of a recomputed relative residual
RES_AGREE = 0.05     # recomputed vs reported residual, relative
TIE_RTOL = 1e-9      # wanted-set boundary ties


@dataclass
class Reference:
    """Reference eigenvalues ordered from most to least wanted."""

    lams: np.ndarray
    keys: np.ndarray      # ascending selection key; smaller is more wanted
    norm_sum: float       # ||M||_1 + ||C||_1 + ||K||_1 of the original triple
    M: sp.csr_matrix
    C: sp.csr_matrix
    K: sp.csr_matrix


def _one_norm(A):
    return float(abs(A).sum(axis=0).max()) if A.nnz else 0.0


def _selection_key(lams, sigma):
    if sigma is None:
        return -np.abs(lams)
    return np.abs(lams - sigma)


def mass_spring_spectrum(n, kappa, tau):
    """All 2n roots of lam^2 + tau mu_j lam + kappa mu_j = 0,
    mu_j = 3 - 2 cos(j pi / (n + 1)): M = I and C, K are multiples of
    tridiag(-1, 3, -1), whose eigenvalues are the mu_j."""
    mu = 3.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    disc = np.sqrt((tau * mu) ** 2 - 4.0 * kappa * mu + 0j)
    return np.concatenate([(-tau * mu + disc) / 2.0, (-tau * mu - disc) / 2.0])


def _companion(M, C, K):
    """A, B of the first companion pencil A z = lam B z, z = [lam x; x]."""
    n = M.shape[0]
    eye = sp.identity(n, dtype=complex, format="csc")
    A = sp.bmat([[-C, -K], [eye, None]], format="csc")
    B = sp.bmat([[M, None], [None, eye]], format="csc")
    return A, B


def dense_companion_spectrum(M, C, K):
    """All 2n eigenvalues of the dense companion pencil (QZ, in real
    arithmetic when the triple is real)."""
    A, B = (X.toarray() for X in _companion(M, C, K))
    if not (A.imag.any() or B.imag.any()):
        A, B = A.real, B.real
    return scipy.linalg.eigvals(A, B)


def arpack_companion_spectrum(M, C, K, sigma, count):
    """The ``count`` eigenvalues nearest sigma, from ARPACK on the
    shift-inverted companion pencil (A - sigma B)^{-1} B."""
    A, B = _companion(M, C, K)
    lu = spla.splu(sp.csc_matrix(A - sigma * B))
    op = spla.LinearOperator(A.shape, matvec=lambda v: lu.solve(B @ v),
                             dtype=complex)
    v0 = np.ones(A.shape[0], dtype=complex)
    nu = spla.eigs(op, k=count, which="LM", v0=v0, tol=1e-14,
                   return_eigenvectors=False)
    return sigma + 1.0 / nu


def build_reference(lams, M, C, K, sigma):
    M, C, K = (sp.csr_matrix(X, dtype=complex) for X in (M, C, K))
    lams = np.asarray(lams, dtype=complex)
    keys = _selection_key(lams, sigma)
    order = np.argsort(keys, kind="stable")
    return Reference(lams=lams[order], keys=keys[order],
                     norm_sum=_one_norm(M) + _one_norm(C) + _one_norm(K),
                     M=M, C=C, K=K)


def verify_pairs(ref, pairs, m, ctol):
    """Problems found with the delivered (lam, x, reported residual) pairs;
    an empty list means every check passed."""
    problems = []
    if len(pairs) < m:
        problems.append("delivered %d of %d wanted pairs" % (len(pairs), m))
    boundary = ref.keys[min(m, len(ref.keys)) - 1]
    boundary += TIE_RTOL * max(1.0, abs(boundary))
    matched = set()
    for lam, x, reported in pairs:
        lam = complex(lam)
        x = np.asarray(x, dtype=complex)
        xn = np.linalg.norm(x)
        if not (np.isfinite(lam) and np.isfinite(xn) and xn > 0.0):
            problems.append("non-finite or zero pair at lam=%r" % lam)
            continue
        x = x / xn
        r = lam * lam * (ref.M @ x) + lam * (ref.C @ x) + ref.K @ x
        res = float(np.linalg.norm(r)) / ref.norm_sum
        if res > ctol + RES_ABS:
            problems.append("lam=%.12g%+.12gj: residual %.3e above ctol %.1e"
                            % (lam.real, lam.imag, res, ctol))
        if abs(res - reported) > RES_AGREE * max(res, reported) + RES_ABS:
            problems.append("lam=%.12g%+.12gj: residual %.3e, reported %.3e"
                            % (lam.real, lam.imag, res, reported))
        dist = np.abs(ref.lams - lam)
        i = int(np.argmin(dist))
        if dist[i] > LAM_RTOL * max(1.0, abs(ref.lams[i])):
            problems.append("lam=%.12g%+.12gj: no reference eigenvalue within "
                            "%.1e (nearest %.3e away)"
                            % (lam.real, lam.imag, LAM_RTOL, dist[i]))
        elif i in matched:
            problems.append("lam=%.12g%+.12gj delivered twice" % (lam.real, lam.imag))
        elif ref.keys[i] > boundary:
            problems.append("lam=%.12g%+.12gj is not among the %d wanted"
                            % (lam.real, lam.imag, m))
        matched.add(i)
    return problems
