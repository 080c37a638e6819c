"""Small dense linear-algebra kernels shared by the solver layers.

All routines work on plain ndarrays and do not care where the data came
from.  ``orthogonalize_with_refinement`` and ``gram_blocks`` touch
n-length data, ``gram_blocks`` a block of rows at a time: all n rows by
LAPACK geqrt where the projection does not stream
(``extraction.project``), else blocks of the sizes ``row_blocks`` hands
out (one block up to n = 1024, 1/16 of n from n = 4096 on), which the
projection forms in its one buffer from the working matrices' CSR rows,
read in place, each folded by LAPACK tpqrt into the one triangle the
projection holds (see ``gram_blocks``).  The rest works at
orders <= ~200 (shifted QR by LAPACK rotations, each applied once; the
projected QEP by standard eig on the monic companion when M_k is well
conditioned and by QZ otherwise, returned as an eigenvalue array and one
matrix of unit eigenvectors; refined vectors by QR, then inverse
iteration from the Ritz vector on its triangle).  Real data stay real:
``orthogonalize_with_refinement``, ``qr_unit_diagonal`` and
``gram_blocks`` follow their inputs' dtype, so a float64 basis is
orthogonalized in float64, ``matmul_complex`` multiplies a float64 matrix
into complex vectors without a complex copy of it,
``solve_projected_qep`` keeps a triple with no nonzero imaginary part in
float64, up to its complex theta and G, and ``hessenberg_shifted_qr``
applies conjugate shift pairs to a real T in real arithmetic.  The rest
is complex: T's other sweeps, which turn a float64 decomposition complex
(``restart.contract``), and the refined vector's S.  The k-order routines work
in place on column-major arrays LAPACK can overwrite, so a call holds
few copies of its order-k data (each function says which).
"""

import warnings

import numpy as np
import scipy.linalg
from scipy.linalg.blas import drot
from scipy.linalg.lapack import (dgeev, dgeev_lwork, dgeqrt, dlartg, dtpqrt,
                                 zgeqrf, zgeqrt, zlartg, zrot, ztpqrt)


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
    twice-is-enough rule), up to three passes.  Works in float64 when v and
    ``basis`` are both real, in complex arithmetic otherwise.  The residual
    is the call's one copy of v, from which each pass subtracts
    ``basis @ c`` in place; v and ``basis`` are not written.
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
    """A @ G for a complex G, 1-D or 2-D.  A float64 A multiplies G's real
    and imaginary parts, interleaved in a row-major copy, in one real
    product; ``A @ G`` would multiply a complex copy of A."""
    if np.iscomplexobj(A):
        return A @ G
    parts = np.ascontiguousarray(G).reshape(G.shape[0], -1).view(float)
    return (A @ parts).view(complex).reshape(A.shape[:1] + G.shape[1:])


def hessenberg_shifted_qr(T, shifts):
    """Run one shifted-QR sweep per shift on a Hessenberg matrix.

    Returns (V, T_plus) with T_plus = V^* T V Hessenberg and
    psi(T) = V @ R for upper-triangular R, psi(mu) = prod(mu - mu_j).
    V is unitary with at most len(shifts) nonzero subdiagonals.

    A real shift, or any shift on a complex T or in a set that
    ``conjugate_groups`` does not close, gets an explicit sweep in complex
    arithmetic: T - mu I is reduced to R with LAPACK rotations (zlartg,
    zrot), which are then applied to R from the right; right rotation i
    meets columns that are zero below row i+1, so it stops there and T_plus
    is exactly Hessenberg.  On a T with no nonzero imaginary part, each
    conjugate pair of a closed set is one real implicit double-shift
    (Francis) sweep of real rotations (dlartg, drot), as ARPACK's real
    driver does, so V and T_plus keep exact-zero imaginary parts.  A T
    whose smallest nonzero subdiagonal is at most DOUBLE_SHIFT_MIN_SUBDIAG
    of its largest entry takes the complex sweeps throughout: relative to
    such a T the chase starts from entries that are rounding noise, and is
    forward unstable (Parlett & Le, SIAM J. Matrix Anal. Appl. 14 (1993)).
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
# still chases conjugate shift pairs in real arithmetic: an underdamped
# chain's T reaches 1e-17 and loses the restart filter in the chase (V e1
# left at |cos| = 0.04 from psi(T) e1), where string300's T stays above 7e-11
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
    column-major Tp, accumulated into V, both in place."""
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

    A triple with no nonzero imaginary part is taken in float64, never
    promoted, and so are the companion and the QZ pencil's B, so it goes to
    dgeev or dggev at a fraction of the complex cost (the ARPACK users'
    guide's real driver does the same); any other triple is complex
    throughout.  A real triple's complex eigenpairs then come in adjacent
    pairs, as LAPACK lists them, the member with positive imaginary part
    first: the two members' theta and g are conjugates bit for bit (for QZ
    the second member is set to the conjugate of the first, as dggev gives
    them different betas).

    The companion is built column-major, so LAPACK overwrites it in place.
    The real monic companion goes to dgeev directly, with the workspace
    that ``scipy.linalg.eig`` queries, so theta and G are what that call
    gives bit for bit; G is assembled from the needed half of dgeev's real
    eigenvector matrix after the companion is freed, without the 2k-by-2k
    complex eigenvector matrix scipy would build.  What the call holds at
    most is then the companion, that real matrix and dgeev's workspace, or
    that matrix and G; QZ, and a complex triple, still go through
    ``scipy.linalg.eig`` and its 2k-by-2k eigenvector matrix.

    Returns (theta, G), complex whatever the path: theta holds the 2k
    eigenvalues, inf where infinite, and column j of the column-major
    k-by-2k matrix G is the unit eigenvector g of theta[j], taken from the
    first k components of z when |theta[j]| >= 1 (or theta[j] is infinite)
    and from the last k otherwise.  Neither half
    is ever zero: z_top = theta z_bot at finite theta, z_bot = 0 at
    infinite.  With ``vectors=False`` only eigenvalues are computed and G
    is None.
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


# rows per block of the n-length passes that stream by rows (projection,
# contraction): any n up to 4 ROW_BLOCK_MIN is one block, so its arithmetic
# is the unblocked formula's; past that, blocks of at least ROW_BLOCK_MIN
# rows, since each costs a fixed overhead (in the projection, 3 ktilde
# sparse kernel calls and a fold whatever its size), and at most
# ROW_BLOCKS_MAX of them, so those overheads are bounded and a block is
# 1/16 of n from n = 4096 on
ROW_BLOCK_MIN = 256
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

    ``A`` is the n-by-w array of the columns a projection forms, or a row
    block of it; for any column blocks A_i of A and the same column blocks
    R_i of R, R_i^* R_j = A_i^* A_j, so ||sum_i A_i x_i|| = ||sum_i R_i x_i||
    at no n-length cost.  A complex ``A`` goes through LAPACK zgeqrt and
    ztpqrt, any other through dgeqrt and dtpqrt, as float64; R has that
    dtype.  A column-major complex128 or float64 ``A`` is factored in place
    and left holding the reflectors; any other is copied first.

    Without ``R``, R is the row-major min(n, w)-by-w triangle of ``A``
    alone, as ``np.triu`` gives it, from geqrt in reflector blocks of 32
    columns: the one-block projection's bits rest on both (zero-padding R
    to w rows, or folding the one block from zeros, moved string300's
    seed-1 final).  geqrt factors each panel recursively with level-3
    updates (Elmroth & Gustavson, IBM J. Res. Dev. 44 (2000)), where
    zgeqrf's level-2 panel streams all n rows once per column.

    With ``R``, the caller's column-major w-by-w triangle of the rows above
    ``A`` (zeros before the first row block), R becomes the triangle of
    those rows and ``A`` stacked, by LAPACK tpqrt, the triangular-pentagonal
    QR that tall-skinny QR is built on (Demmel, Grigori, Hoemmen & Langou,
    SIAM J. Sci. Comput. 34 (2012)), in reflector blocks of 16 columns.  It
    overwrites ``R`` in place if it has the result's dtype (LAPACK gets a
    copy otherwise), so the row blocks fold into one triangle and A is
    never needed whole.
    """
    geqrt, tpqrt = ((zgeqrt, ztpqrt) if np.iscomplexobj(A)
                    else (dgeqrt, dtpqrt))
    if R is None:
        # columns per reflector block of the one-block QR: one zgeqrt of a
        # 5000 x 123 array took 26.0, 25.5 and 28.2 ms at 16, 32 and 64
        # (medians of 15, one thread of a 2-core VM), so 32, the width
        # string300's and string1000's rounding rests on, is kept
        A, _, _ = geqrt(min(32, *A.shape), A, overwrite_a=1)
        return np.triu(A[:min(A.shape)])
    # columns per reflector block of a fold, in ms to fold the row blocks
    # of an n x 123 array into a zeroed triangle (medians of 15, one thread
    # of a 2-core VM):
    #
    #   n, dtype (blocks)          16     32     64
    #   5000 complex (16 x 313)   20.9   24.3   32.6
    #   5000 float64 (16 x 313)    7.4    9.7   15.0
    #   20000 complex (16 x 1250) 79.7   90.1  119.0
    #   3000 complex (12 x 256)   12.6   14.4   19.4
    #
    # 12 came within 0.5 ms of 16 and 8 within 3 ms
    R, _, _, _ = tpqrt(0, min(16, A.shape[1]), R, A, overwrite_a=1,
                       overwrite_b=1)
    return R


# entries of S that refined_vector forms per group of columns (64 KiB complex)
REFINED_GROUP_ENTRIES = 2 ** 12
# row bands in which refined_vector copies its triangle out of S: S and the
# bands hold S plus 0.56 of the triangle at most, where S and the triangle
# held both
REFINED_TRIANGLE_BANDS = 8

# inverse-iteration steps refined_vector takes before it falls back to the SVD
REFINED_MAX_STEPS = 8
# a step that lowers ||R_S z|| by at most this much, relative, ends the iteration
REFINED_RTOL = 1e-12
# a diagonal entry of R_S at most this much of the largest one makes R_S
# singular to working precision, and sends it to the SVD
REFINED_TINY_PIVOT = np.finfo(float).eps


def refined_vector(theta, R1, R2, R3, start):
    """Minimizer z of ||(theta^2 R1 + theta R2 + R3) z|| over unit z.

    S = theta^2 R1 + theta R2 + R3 is reduced to the k-by-k triangle R_S of
    its QR, and z is the smallest right singular vector of R_S, found by
    inverse iteration on R_S^* R_S from ``start`` (the Ritz vector, in
    practice): z <- normalize(R_S^{-1} R_S^{-*} z), two triangular solves
    per step.  A step is kept only if ||R_S z|| does not increase, so the
    result is never worse than ``start``; iteration stops once a step lowers
    it by at most REFINED_RTOL relative.  If REFINED_MAX_STEPS steps do not
    get there (a small gap between the two smallest singular values), or
    R_S has a zero or relatively tiny diagonal entry, z comes from the SVD
    of the same triangle instead.

    Returns (z, sigma_min) with sigma_min = ||R_S z|| = ||S z||, the exact
    residual of the delivered vector.  With the column blocks of the
    triangle of ``gram_blocks`` this is the refined vector of the tall W_i
    at no n-length cost.

    S is formed in one column-major complex buffer, REFINED_GROUP_ENTRIES
    entries at a time by the same per-entry expression, and LAPACK zgeqrf
    overwrites it, as ``scipy.linalg.qr`` would call it; the k-by-k
    triangle R_S is copied out in REFINED_TRIANGLE_BANDS row bands and
    built once S is freed.  So the call holds one array of S's size and
    about half of R_S, not the four arrays of S's size that forming S whole
    and a full-height triangle took.
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

    V_hat is (k-j)-by-k with independent rows.  Columns that fall inside the
    span of the previous ones (relative residual at most 1e-12) yield a zero
    column of U and a forced unit diagonal in R; the remaining columns of U
    are orthonormal.  U and R are float64 for a real V_hat, complex
    otherwise.
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
