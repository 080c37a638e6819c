"""Dense linear-algebra kernels shared by the solver layers.

Every routine takes plain ndarrays and says what it returns, what it
overwrites and what it holds.  ``orthogonalize_with_refinement`` and
``gram_blocks`` touch n-length data; the rest work at the order k of the
projected problem, in place on column-major arrays where LAPACK allows.
A routine that follows its inputs' dtype keeps float64 inputs in float64
arithmetic; the others work in complex128.
"""

import warnings

import numpy as np
import scipy.linalg
from scipy.linalg.blas import drot
from scipy.linalg.lapack import (dgeev, dgeev_lwork, dggev, dgeqrt, dlartg,
                                 dtpqrt, zgeqrf, zgeqrt, zgetrf, zgetrs, zggev,
                                 zlartg, zrot, ztpqrt, ztrtrs)


class QRSweepError(RuntimeError):
    """A shifted-QR sweep produced non-finite entries."""


class RankDeficiencyError(ValueError):
    """Row rank of the input is lower than its structure guarantees."""


class SingularPencilError(RuntimeError):
    """The eigensolver on the companion linearization (standard eig on the
    monic companion, or QZ on the pencil) did not converge."""


def orthogonalize_with_refinement(v, basis):
    """Orthogonalize v against the columns of ``basis`` with iterative refinement.

    Takes a length-n vector v and an n-by-j ``basis`` whose nonzero columns
    are orthonormal (zero columns pick up zero coefficients).  Returns
    (coefficients, residual, residual_norm): a length-j vector, a length-n
    vector and a float, with v = basis @ coefficients + residual.  All are
    float64 when v and ``basis`` are both real, complex128 otherwise; an
    input of another dtype is converted to that one first, by a copy.

    Passes repeat while a pass lowers the residual norm below 1/sqrt(2) of
    the norm before it (the twice-is-enough rule), three at most.  v and
    ``basis`` are not written: the residual is the call's one copy of v,
    from which each pass subtracts ``basis @ c`` in place, and the call
    holds it and one n-length temporary at a time.
    """
    v, basis = np.asarray(v), np.asarray(basis)
    dtype = np.result_type(v, basis, float)
    v = v.astype(dtype, copy=False)
    basis = basis.astype(dtype, copy=False)

    coeffs = np.zeros(basis.shape[1], dtype=dtype)
    r = v.copy()
    prev_norm = float(np.linalg.norm(r))
    for _ in range(3):
        # conjugating the vector, not the basis, avoids an n-by-j copy
        c = (r.conj() @ basis).conj()
        r -= basis @ c
        coeffs += c
        rn = float(np.linalg.norm(r))
        if rn >= prev_norm / np.sqrt(2.0) or rn == 0.0:
            break
        prev_norm = rn
    return coeffs, r, rn


def matmul_complex(A, G):
    """A @ G for a complex128 G, 1-D or 2-D, as a new complex128 array of
    shape A.shape[:1] + G.shape[1:].  A float64 A multiplies G's real and
    imaginary parts, interleaved in a row-major copy of G, in one real
    product, without the complex copy of A that ``A @ G`` makes."""
    if np.iscomplexobj(A):
        return A @ G
    parts = np.ascontiguousarray(G).reshape(G.shape[0], -1).view(float)
    return (A @ parts).view(complex).reshape(A.shape[:1] + G.shape[1:])


def hessenberg_shifted_qr(T, shifts):
    """Run one shifted-QR sweep per shift on a Hessenberg matrix.

    Takes a k-by-k upper Hessenberg T, which is not written, and fewer than
    k shifts.  Returns (V, T_plus), new column-major complex128 k-by-k
    arrays: V is unitary with at most len(shifts) nonzero subdiagonals,
    T_plus = V^* T V is Hessenberg, and psi(T) = V R for an upper
    triangular R, where psi(mu) = prod(mu - mu_j).  The call holds V,
    T_plus and, while conjugate pairs are applied, a 2k-by-k float64 copy
    of both.

    On a T with no nonzero imaginary part whose smallest nonzero
    subdiagonal entry exceeds DOUBLE_SHIFT_MIN_SUBDIAG of its largest
    entry, and shifts that ``conjugate_groups`` closes, V and T_plus have
    imaginary parts of exact zeros: each conjugate pair is one real
    implicit double-shift (Francis) sweep (dlartg, drot), as in ARPACK's
    real driver, and each real shift an explicit sweep of real data.  Any
    other T or shift set takes explicit sweeps in complex arithmetic
    (zlartg, zrot) throughout.

    Raises ValueError if T is not square or the shifts are not fewer than
    its order, and QRSweepError if a sweep leaves a non-finite entry.
    """
    Tp = np.array(T, dtype=complex, order="F")
    k = Tp.shape[0]
    if Tp.shape != (k, k):
        raise ValueError("T must be square")
    if len(shifts) >= k and len(shifts) > 0:
        raise ValueError("number of shifts must be below the order of T")

    V = np.eye(k, dtype=complex, order="F")
    sweeps, closed = conjugate_groups(shifts)
    if Tp.imag.any() or not closed or _nearly_reduced(Tp):
        sweeps = [(i,) for i in range(len(shifts))]
    real = None      # [T_plus; V] in float64 while pairs are applied
    for sweep in sweeps:
        mu = shifts[sweep[0]]
        if len(sweep) == 2:
            if real is None:
                real = np.asfortranarray(np.vstack((Tp.real, V.real)))
            _double_shift_sweep(real, complex(mu))
            finite = np.isfinite(real[:k])
        else:
            if real is not None:
                Tp.real, V.real, real = real[:k], real[k:], None
            _shifted_sweep(Tp, V, mu)
            finite = np.isfinite(Tp)
        if not np.all(finite):
            raise QRSweepError("non-finite entries after QR sweep")
    if real is not None:
        Tp.real, V.real = real[:k], real[k:]
    return V, Tp


# smallest nonzero |t_{i+1,i}| / max|t_ij| at which hessenberg_shifted_qr
# still chases conjugate shift pairs in real arithmetic: below it the chase
# starts from entries that are rounding noise and is forward unstable
# (Parlett & Le, SIAM J. Matrix Anal. Appl. 14 (1993)), as on an
# underdamped chain's T at 1e-17, where string300's T stays above 7e-11
DOUBLE_SHIFT_MIN_SUBDIAG = 1e-15


def _nearly_reduced(T):
    """Whether T's smallest nonzero subdiagonal entry is at most
    DOUBLE_SHIFT_MIN_SUBDIAG of its largest entry; exact zeros are splits,
    which the double-shift chase handles."""
    sub = np.abs(np.diagonal(T, -1))
    sub = sub[sub > 0.0]
    return (bool(sub.size)
            and sub.min() <= DOUBLE_SHIFT_MIN_SUBDIAG * np.abs(T).max())


def conjugate_groups(values):
    """The indices of ``values`` in groups: a real value alone, a complex
    one with the exact conjugate that follows it (either member first).

    Returns (groups, closed), a list of index tuples and whether every
    complex value found its partner; one that did not is a group alone.
    """
    values = [complex(v) for v in values]
    groups, closed, i = [], True, 0
    while i < len(values):
        v = values[i]
        if (v.imag != 0.0 and i + 1 < len(values)
                and values[i + 1] == v.conjugate()):
            groups.append((i, i + 1))
            i += 2
        else:
            closed = closed and v.imag == 0.0
            groups.append((i,))
            i += 1
    return groups, closed


def _shifted_sweep(Tp, V, mu):
    """One explicit shifted-QR sweep with shift mu on the complex
    column-major Tp, accumulated into V, both in place.

    T - mu I is reduced to R by left rotations, which are then applied to
    R from the right; right rotation i meets columns that are zero below
    row i+1, so it stops there and Tp stays exactly Hessenberg."""
    k = Tp.shape[0]
    # zrot works in place on these flat column-major views, (r, c) at r + c*k;
    # positional arguments, as keywords cost more than the rotation itself
    t, v = Tp.reshape(-1, order="F"), V.reshape(-1, order="F")
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


def _double_shift_sweep(TV, mu):
    """One implicit double-shift sweep with shifts mu and conj(mu) on the
    real Hessenberg T, accumulated into V, in place on the column-major
    stack TV = [T; V].

    The first column of psi(T) = (T - mu I)(T - conj(mu) I), scaled as in
    LAPACK dlahqr, starts a bulge at the top of each unreduced block, which
    two real rotations per column chase to the block's foot (Golub & Van
    Loan, Matrix Computations, 4th ed., Sec. 7.5).  By the implicit-Q
    theorem each block's rotations make psi of that block V_b R_b; an
    exactly zero subdiagonal keeps T block triangular, so psi(T) = V R
    holds across the split too, where a single chase through it would not.
    Rows of T below a block are zero in its columns, so a right rotation
    runs down whole columns of the stack, T's and V's rows in one call.
    """
    k = TV.shape[1]
    T, n = TV[:k], 2 * k
    tv = TV.reshape(-1, order="F")      # (r, c) at r + c*n
    a, b = mu.real, mu.imag
    splits = [0] + [i for i in range(1, k) if T[i, i - 1] == 0.0] + [k]
    for lo, hi in zip(splits[:-1], splits[1:]):
        hi -= 1          # the block is rows and columns lo..hi
        if hi == lo:
            continue
        d = T[lo, lo] - a
        scale = abs(d) + abs(b) + abs(T[lo + 1, lo])
        h = T[lo + 1, lo] / scale
        x = h * T[lo, lo + 1] + d * (d / scale) + b * (b / scale)
        y = h * (T[lo, lo] + T[lo + 1, lo + 1] - 2.0 * a)
        z = h * T[lo + 2, lo + 1] if hi > lo + 1 else 0.0
        for r in range(lo, hi):
            if r > lo:
                # the bulge: column r-1 below its subdiagonal
                x, y = T[r, r - 1], T[r + 1, r - 1]
                z = T[r + 2, r - 1] if r + 2 <= hi else 0.0
            o = r + r * n           # row r from column r on
            if r + 2 <= hi:
                c1, s1, y = dlartg(y, z)
                drot(tv, tv, c1, s1, k - r, o + 1, n, o + 2, n, 1, 1)
            c2, s2, x = dlartg(x, y)
            drot(tv, tv, c2, s2, k - r, o, n, o + 1, n, 1, 1)
            if r > lo:
                T[r, r - 1], T[r + 1, r - 1] = x, 0.0
                if r + 2 <= hi:
                    T[r + 2, r - 1] = 0.0
            o = r * n               # column r
            if r + 2 <= hi:
                drot(tv, tv, c1, s1, n, o + n, 1, o + 2 * n, 1, 1, 1)
            drot(tv, tv, c2, s2, n, o, 1, o + n, 1, 1, 1)


# cond(M_k) up to which solve_projected_qep takes the monic companion: its
# backward error reaches the QEP amplified by about cond(M_k) (Tisseur &
# Meerbergen, SIAM Rev. 43 (2001)), and at 10 the tight-ctol runs still
# converge where a bound of 100 stalls them
MONIC_COND_MAX = 10.0


def solve_projected_qep(M_k, C_k, K_k, vectors=True):
    """Solve the k-by-k QEP (theta^2 M_k + theta C_k + K_k) g = 0.

    With z = [theta g; g] the QEP is the companion problem

        [-C_k  -K_k] z = theta [M_k  0] z.
        [  I     0 ]           [ 0   I]

    When cond(M_k) <= MONIC_COND_MAX, M_k^{-1} is applied to the top block
    row and the standard eigensolver (LAPACK geev) runs on the monic
    companion [-M_k^{-1} C_k  -M_k^{-1} K_k; I  0]; otherwise QZ (ggev)
    runs on the pencil, which also delivers the infinite eigenvalues of a
    singular M_k.  A triple with no nonzero imaginary part is solved in
    float64 (dgeev, dggev), any other in complex arithmetic.

    Returns (theta, G).  theta is a complex128 array of the 2k
    eigenvalues, inf where infinite.  G is a column-major complex128
    k-by-2k array whose column j is the unit eigenvector g of theta[j],
    taken from the first k components of z when |theta[j]| >= 1 (or
    theta[j] is infinite) and from the last k otherwise; neither half is
    zero, as z_top = theta z_bot at finite theta and z_bot = 0 at
    infinite.  With ``vectors=False`` only eigenvalues are computed and G
    is None.  For a real triple the complex eigenpairs come in adjacent
    pairs, as LAPACK lists them, the member with positive imaginary part
    first, and the two members' theta and g are conjugates bit for bit.

    The triple is not written.  The 2k-by-2k companion is built
    column-major and overwritten by LAPACK.  The real monic path calls
    dgeev itself, with the workspace ``scipy.linalg.eig`` queries, so its
    results are that call's bit for bit, and builds G from the needed half
    of dgeev's real eigenvector matrix after the companion is freed: it
    holds at most the companion, that matrix and dgeev's workspace, or that
    matrix and G.  Without ``vectors`` the QZ path calls ggev itself
    (``_qz_eigvals``), with an eigenvalue-only workspace query, so its
    eigenvalues are ``scipy.linalg.eig``'s bit for bit and it holds the
    pencil and ggev's workspace.  The QZ path with vectors and the complex
    monic path go through ``scipy.linalg.eig`` and also hold its 2k-by-2k
    complex eigenvector matrix.

    Warns (RuntimeWarning) when QZ gets an M_k with cond above 1e14 or not
    finite.  Raises ValueError if the companion has a non-finite entry and
    SingularPencilError if the eigensolver does not converge.
    """
    triple = [np.asarray(X) for X in (M_k, C_k, K_k)]
    real = not any(np.iscomplexobj(X) and X.imag.any() for X in triple)
    # every array below follows the triple's dtype
    M_k, C_k, K_k = (np.asarray(X.real, dtype=float) if real
                     else np.asarray(X, dtype=complex) for X in triple)
    k = M_k.shape[0]
    cond = np.linalg.cond(M_k)
    A = np.zeros((2 * k, 2 * k), dtype=M_k.dtype, order="F")
    A[np.arange(k, 2 * k), np.arange(k)] = 1.0
    if cond <= MONIC_COND_MAX:
        CK = np.empty((k, 2 * k), dtype=M_k.dtype, order="F")
        CK[:, :k], CK[:, k:] = C_k, K_k
        np.negative(scipy.linalg.solve(M_k, CK, overwrite_b=True), out=A[:k])
        del CK
        B = None
    else:
        if not np.isfinite(cond) or cond > 1e14:
            warnings.warn(
                "projected mass matrix is numerically singular (cond=%.2e)" % cond,
                RuntimeWarning,
            )
        A[:k, :k] = -C_k
        A[:k, k:] = -K_k
        B = np.eye(2 * k, dtype=M_k.dtype, order="F")
        B[:k, :k] = M_k
    real_qz = real and B is not None
    try:
        if real and B is None:
            w, vr = _real_eig(A, vectors)
        elif B is not None and not vectors:
            w, vr = _qz_eigvals(A, B), None
        else:
            out = scipy.linalg.eig(A, B, right=vectors, overwrite_a=True,
                                   overwrite_b=True)
            w, vr = out if vectors else (out, None)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise SingularPencilError("eigensolver failed on the companion "
                                  "linearization") from exc
    del A, B
    # LAPACK's real form of a pair: its real part in the first column, its
    # imaginary part in the next (the mask scipy.linalg.eig reads it with)
    first = w.imag > 0
    first[:-1] |= w.imag[1:] < 0
    if real_qz:
        # dggev gives the two members of a pair different betas, so their
        # alpha/beta are conjugate only to rounding; the member with positive
        # imaginary part comes first
        pos = np.flatnonzero(w.imag > 0)
        w[pos + 1] = w[pos].conj()
    theta = np.where(np.isfinite(w), w, np.inf)
    if not vectors:
        return theta, None
    low = np.abs(theta) < 1.0
    G = np.empty((k, 2 * k), dtype=complex, order="F")
    for j in range(2 * k):
        z, g = vr[k:] if low[j] else vr[:k], G[:, j]
        if vr.dtype != float:
            g[:] = z[:, j]
        elif first[j]:
            g.real, g.imag = z[:, j], z[:, j + 1]
        elif j and first[j - 1]:
            g.real = z[:, j - 1]
            np.negative(z[:, j], out=g.imag)
        else:
            g.real, g.imag = z[:, j], 0.0
        # one 1-D norm per column: norm(G, axis=0) rounds differently
        g /= np.linalg.norm(g)
    return theta, G


# solves of the inverse iteration in ``null_vector``, the first of them
# with U alone; it stops earlier once ||P(theta) g|| stops falling
NULL_VECTOR_MAX_STEPS = 4


def null_vector(M_k, C_k, K_k, theta):
    """The unit g that P(theta) = theta^2 M_k + theta C_k + K_k maps
    nearest to zero, for a finite eigenvalue theta of the k-by-k QEP.

    Takes the triple (float64 or complex128, not written) and a complex
    theta.  Returns (g, residual, scale): g a unit complex128 vector of
    length k, residual = ||P(theta) g|| and scale = ||P(theta)||_1.

    Inverse iteration on the LU of P(theta) (LAPACK zgetrf), as LAPACK's
    zlaein runs it: a pivot of U below eps scale is raised to eps scale,
    the first iterate solves U y = ones(k), a fixed start, and each next
    solves P y = g.  An iterate is kept only while its residual falls, for
    at most NULL_VECTOR_MAX_STEPS solves, so g is the iterate of least
    residual; the iteration stops without a warning at an iterate whose
    norm or residual is not finite (a P whose entries all lie below about
    1e-154 can do that too, as the norm sums squares).  If the first does,
    g is the unit start ones(k)/sqrt(k) and the residual is inf.  The call
    holds P and its LU.
    """
    eps = np.finfo(float).eps
    P = M_k * (theta * theta)
    P += theta * C_k
    P += K_k
    k = P.shape[0]
    scale = float(np.abs(P).sum(axis=0).max())
    lu, piv, _ = zgetrf(P)
    d = np.arange(k)
    tiny = d[np.abs(lu[d, d]) < eps * scale]
    lu[tiny, tiny] = max(eps * scale, np.finfo(float).tiny)
    g = np.full(k, 1.0 / np.sqrt(k), dtype=complex)
    res = np.inf
    # np.linalg.norm sums squares, which overflow above about 1e154
    with np.errstate(over="ignore"):
        for step in range(NULL_VECTOR_MAX_STEPS):
            y = (zgetrs(lu, piv, g)[0] if step
                 else ztrtrs(lu, np.ones(k, dtype=complex))[0])
            norm = np.linalg.norm(y)
            if not 0.0 < norm < np.inf:
                break
            y /= norm
            r = float(np.linalg.norm(P @ y))
            if not r < res:
                break
            g, res = y, r
    return g, res, scale


def _real_eig(A, vectors):
    """``scipy.linalg.eig(A, right=vectors, overwrite_a=True)`` on the real
    column-major A, by the same dgeev call, but with the eigenvectors left
    in LAPACK's real form: (w, vr), vr None without ``vectors``."""
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    lwork, _ = dgeev_lwork(A.shape[0], compute_vl=0, compute_vr=int(vectors))
    wr, wi, _, vr, info = dgeev(A, compute_vl=0, compute_vr=int(vectors),
                                lwork=int(lwork), overwrite_a=1)
    if info:
        raise scipy.linalg.LinAlgError("eig algorithm (geev) did not converge")
    return wr + 1j * wi, vr if vectors else None


def _qz_eigvals(A, B):
    """``scipy.linalg.eig(A, B, right=False, overwrite_a=True,
    overwrite_b=True)`` on the column-major pencil (A, B), float64 or
    complex128, by the same ggev call (LAPACK dggev or zggev), but with an
    eigenvalue-only workspace query: scipy's query asks for both
    eigenvector arrays and copies A and B.  Returns the complex eigenvalues
    alpha / beta, inf where beta is zero."""
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("array must not contain infs or NaNs")
    ggev = dggev if A.dtype == float else zggev
    flags = dict(compute_vl=0, compute_vr=0, overwrite_a=1, overwrite_b=1)
    lwork = int(ggev(A, B, lwork=-1, **flags)[-2][0].real)
    *alpha, beta, _, _, _, info = ggev(A, B, lwork=lwork, **flags)
    if info:
        raise scipy.linalg.LinAlgError("generalized eig algorithm (ggev) did "
                                       "not converge")
    alpha = alpha[0] + 1j * alpha[1] if len(alpha) == 2 else alpha[0]
    w = np.full(beta.shape, np.inf, dtype=complex)
    finite = beta != 0
    w[finite] = alpha[finite] / beta[finite]
    return w


# rows per block of the n-length passes that stream by rows (projection,
# contraction): n up to 4 ROW_BLOCK_MIN is one block, so its arithmetic is
# the unblocked formula's, and a block past that has at least ROW_BLOCK_MIN
# rows, as each block costs a fixed overhead (in the projection, a sparse
# kernel call per formed column and one fold)
ROW_BLOCK_MIN = 256
# the most blocks a pass is cut into, which bounds those overheads
ROW_BLOCKS_MAX = 16


def row_blocks(n):
    """Consecutive row slices covering range(n): one for n at most
    4 ROW_BLOCK_MIN, else max(ROW_BLOCK_MIN, ceil(n / ROW_BLOCKS_MAX)) rows
    each, the last one possibly shorter (5000 rows are 16 blocks of 313)."""
    if n <= 4 * ROW_BLOCK_MIN:
        return [slice(0, n)]
    b = max(ROW_BLOCK_MIN, -(-n // ROW_BLOCKS_MAX))
    return [slice(r, min(r + b, n)) for r in range(0, n, b)]


def gram_blocks(A, R=None):
    """The triangle R of a Householder QR A = Z R, so R^* R = A^* A.

    ``A`` is an n-by-w array, or a row block of one.  For any column blocks
    A_i of A and the same column blocks R_i of R, R_i^* R_j = A_i^* A_j, so
    ||sum_i A_i x_i|| = ||sum_i R_i x_i|| at no n-length cost.  A complex
    ``A`` goes through LAPACK zgeqrt and ztpqrt in complex128, any other
    through dgeqrt and dtpqrt in float64, and R has that dtype.  A
    column-major ``A`` of that dtype is overwritten with the reflectors;
    any other is copied first.

    Without ``R``: returns a new row-major min(n, w)-by-w upper triangle,
    ``np.triu`` of geqrt's result, in reflector blocks of 32 columns.
    geqrt factors each panel recursively with level-3 updates (Elmroth &
    Gustavson, IBM J. Res. Dev. 44 (2000)), where zgeqrf's level-2 panel
    streams all n rows once per column.

    With ``R``, the caller's column-major w-by-w triangle of the rows above
    ``A`` (zeros before the first row block): returns the triangle of those
    rows and ``A`` stacked, by tpqrt, the triangular-pentagonal QR that
    tall-skinny QR is built on (Demmel, Grigori, Hoemmen & Langou, SIAM J.
    Sci. Comput. 34 (2012)), in reflector blocks of 16 columns.  The
    result is ``R`` itself, overwritten, when ``R`` has its dtype (LAPACK
    works on a copy otherwise), so row blocks fold into one triangle and
    no n-row array is needed.  Besides ``A`` and ``R`` the fold holds
    tpqrt's T factor and workspace, a reflector block's width in rows.
    """
    geqrt, tpqrt = ((zgeqrt, ztpqrt) if np.iscomplexobj(A)
                    else (dgeqrt, dtpqrt))
    if R is None:
        # one block keeps geqrt's row-major triangle and this width because
        # the one-block projection's rounding rests on both: zero-padding R
        # to w rows, or folding the block into a zeroed triangle, rounds
        # differently
        A, _, _ = geqrt(min(32, *A.shape), A, overwrite_a=1)
        return np.triu(A[:min(A.shape)])
    # 16 columns per reflector block, the fastest fold width of 8 to 64
    # (README, Performance)
    R, _, _, _ = tpqrt(0, min(16, A.shape[1]), R, A, overwrite_a=1,
                       overwrite_b=1)
    return R


# entries of S that refined_vector forms per group of columns, so a group's
# temporaries stay at 64 KiB complex
REFINED_GROUP_ENTRIES = 2 ** 12
# row bands in which refined_vector copies its triangle out of S, so that S
# and the bands hold S plus about half the triangle at most
REFINED_TRIANGLE_BANDS = 8

# inverse-iteration steps refined_vector takes before it falls back to the
# SVD: each step is two k-order triangular solves, so the steps cost less
# than the SVD of the k-by-k triangle, which resolves any gap
REFINED_MAX_STEPS = 8
# a step that lowers ||R_S z|| by at most this much, relative, ends the iteration
REFINED_RTOL = 1e-12
# a diagonal entry of R_S at most this much of the largest one makes R_S
# singular to working precision, and sends it to the SVD
REFINED_TINY_PIVOT = np.finfo(float).eps


def refined_vector(theta, R1, R2, R3, start):
    """Minimizer z of ||(theta^2 R1 + theta R2 + R3) z|| over unit z.

    Takes a complex theta, three m-by-k blocks R1, R2, R3 (m >= k; float64
    or complex128) and a length-k ``start``, none of which is written.
    Returns (z, sigma_min): z a unit complex128 length-k vector and
    sigma_min = ||R_S z|| = ||S z||, the exact residual of z, never above
    that of ``start`` normalized.  With the column blocks of the triangle
    of ``gram_blocks`` this is the refined vector of the tall W_i at no
    n-length cost.

    S = theta^2 R1 + theta R2 + R3 is reduced to the k-by-k triangle R_S
    of its QR, and z is the smallest right singular vector of R_S, found
    by inverse iteration on R_S^* R_S from ``start`` (the Ritz vector, in
    practice): z <- normalize(R_S^{-1} R_S^{-*} z), two triangular solves
    per step.  A step is kept only if ||R_S z|| does not increase, and the
    iteration stops once a step lowers it by at most REFINED_RTOL
    relative.  After REFINED_MAX_STEPS steps, or when R_S has a diagonal
    entry at most REFINED_TINY_PIVOT of its largest, z comes from the SVD
    of R_S instead.

    S is formed in one column-major complex128 m-by-k buffer,
    REFINED_GROUP_ENTRIES entries at a time, and LAPACK zgeqrf overwrites
    it, as ``scipy.linalg.qr`` would call it; R_S is copied out in
    REFINED_TRIANGLE_BANDS row bands and built once S is freed.  So the
    call holds at most S and about half of R_S.  Raises
    numpy.linalg.LinAlgError if the SVD does not converge.
    """
    t = complex(theta)
    S = np.empty(R1.shape, dtype=complex, order="F")
    k = S.shape[1]
    width = max(1, REFINED_GROUP_ENTRIES // S.shape[0])
    for j in range(0, k, width):
        c = slice(j, j + width)
        S[:, c] = t ** 2 * R1[:, c] + t * R2[:, c] + R3[:, c]
    # zgeqrf in place, with the workspace scipy.linalg.qr queries
    work = zgeqrf(S, lwork=-1, overwrite_a=1)[2]
    zgeqrf(S, lwork=int(work[0].real), overwrite_a=1)
    # R_S = triu(S[:k]), row-major as np.triu gives it, copied out in row
    # bands so that S is freed before R_S is allocated
    step = -(-k // REFINED_TRIANGLE_BANDS)
    bands = [S[a:min(a + step, k), a:].copy() for a in range(0, k, step)]
    del S
    R = np.zeros((k, k), dtype=complex)
    for a, band in zip(range(0, k, step), bands):
        band[np.tri(*band.shape, k=-1, dtype=bool)] = 0.0
        R[a:a + step, a:] = band
    del bands
    d = np.abs(np.diagonal(R))
    if d.min() > REFINED_TINY_PIVOT * d.max():
        z = start / np.linalg.norm(start)
        res = float(np.linalg.norm(R @ z))
        for _ in range(REFINED_MAX_STEPS):
            y = scipy.linalg.solve_triangular(R, z, trans="C",
                                              check_finite=False)
            y = scipy.linalg.solve_triangular(R, y, check_finite=False)
            y /= np.linalg.norm(y)
            r = float(np.linalg.norm(R @ y))
            if r > res:
                return z, res
            if res - r <= REFINED_RTOL * res:
                return y, r
            z, res = y, r
    z = np.linalg.svd(R)[2][-1].conj()
    return z, float(np.linalg.norm(R @ z))


def qr_unit_diagonal(V_hat):
    """QR-like factorization V_hat = U R tolerating dependent columns.

    Takes an m-by-k V_hat (m = k - j) with independent rows, which is not
    written.  Returns (U, R), new m-by-k and k-by-k arrays, float64 for a
    real V_hat and complex128 otherwise.  A column whose residual against
    the previous ones is at most 1e-12 of its norm counts as dependent,
    as rounding leaves such a residual where it is dependent in exact
    arithmetic: it yields a zero column of U and a unit diagonal entry of
    R.  The other columns of U are orthonormal.  Raises
    RankDeficiencyError if fewer than m columns are independent.
    """
    V_hat = np.asarray(V_hat)
    V_hat = V_hat.astype(np.result_type(V_hat, float), copy=False)
    m, k = V_hat.shape
    U = np.zeros((m, k), dtype=V_hat.dtype)
    R = np.zeros((k, k), dtype=V_hat.dtype)
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
