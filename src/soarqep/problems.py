"""Built-in problem generators and Matrix Market I/O.

Generators: a damped mass-spring chain (identity mass, tridiagonal damping
and stiffness) and a damped vibrating string whose damping entries come
from closed-form cosine moments.  The string's damping matrix is zero
wherever i+j is odd; its stored entries form two parity blocks, each a
Toeplitz minus a Hankel matrix of the moments, computed straight into
CSC arrays in O(nnz) time and memory.  Matrix Market files are read and
written by ``scipy.io``; a parse error becomes a ``MatrixMarketError``
that names the file and the line scipy reports.
"""

import re

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import scipy.io
import scipy.sparse as sp

from .operator import QepProblem


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; carries the file and the line number,
    or None where the parser names no line (as for a truncated file)."""

    def __init__(self, path, lineno, message):
        where = path if lineno is None else "%s:%d" % (path, lineno)
        super().__init__("%s: %s" % (where, message))
        self.path = path
        self.lineno = lineno


def gen_mass_spring(n, kappa=5.0, tau=10.0):
    """Damped mass-spring chain: M = I, C = tau*tridiag(-1,3,-1),
    K = kappa*tridiag(-1,3,-1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    ones = np.ones(n)
    T = sp.diags([-ones[:-1], 3.0 * ones, -ones[:-1]], [-1, 0, 1], format="csc")
    return QepProblem(sp.identity(n, format="csc"), tau * T, kappa * T)


def gen_string_damping(n, epsilon=0.6):
    """Damped vibrating string: M = (pi/2) I, K = (pi/2) diag(j^2) and
    c_ij = |integral of epsilon a(x) sin(ix) sin(jx)| on [0, pi], with
    a(x) = x^2 (pi-x)^2 - 201.

    The product of sines is half the difference of cosines, so
    c_ij = 0.5 epsilon |h_{|i-j|} - h_{i+j}| needs only the 2n+1 moments
    h_m = integral of a(x) cos(mx) on [0, pi], in closed form:
    h_0 = pi^5/30 - 201 pi, and for m >= 1 four integrations by parts
    leave only the boundary term of a'''(x) = 24x - 12 pi, which is
    -24 pi/m^4 for even m and 0 for odd m (a is symmetric about pi/2).
    Entries with i+j odd are therefore exact zeros, and C does not store
    them.

    Counted from 0, the rows and columns of one parity p form an N-by-N
    block B_p[a, b] = 0.5 epsilon |he[|a-b|] - he[p+1+a+b]|, he = h[0::2]:
    a Toeplitz matrix minus a Hankel matrix, both read as strided views of
    the moments.  Column c of C is column c//2 of B_{c%2}, on rows c%2,
    c%2 + 2, ...  The blocks are computed straight into C's CSC data, so
    time and memory are O(nnz), with no n-by-n array.  Each entry is
    rounded as the dense formula rounds it, and an entry that is an exact
    zero (all of them at epsilon = 0, or a product that underflows) is
    dropped, so C is bit for bit ``csc_matrix`` of the dense matrix.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not np.isfinite(epsilon):
        raise ValueError("epsilon must be finite, got %r" % (epsilon,))
    m = np.arange(2 * n + 1)
    h = np.where(m % 2 == 0, -24.0 * np.pi / np.maximum(m, 1) ** 4.0, 0.0)
    h[0] = np.pi ** 5 / 30.0 - 201.0 * np.pi
    j = np.arange(1, n + 1)
    M = (np.pi / 2.0) * sp.identity(n, format="csc")
    K = sp.diags((np.pi / 2.0) * j.astype(float) ** 2, format="csc")
    return QepProblem(M, _parity_blocks_csc(n, h[0::2], 0.5 * epsilon), K)


def _parity_blocks_csc(n, he, scale):
    """The string's C = scale |he[|a-b|] - he[p+1+a+b]| on each parity
    block p, as a complex CSC matrix with exact zeros dropped and int32
    index arrays (int64 only past int32's range, as scipy picks).

    Columns 2b and 2b+1 (b < n//2) hold n consecutive entries: the
    ceil(n/2) of class 0, then the n//2 of class 1.  An odd n ends with
    column n-1 alone.  B_p is symmetric, so its row b is its column b.
    """
    n0, n1 = (n + 1) // 2, n // 2
    nnz = n0 * n0 + n1 * n1
    idx = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
    data = np.zeros(nnz, dtype=complex)
    vals = data.real
    pairs = vals[:n1 * n].reshape(n1, n)
    for p, size, out in ((0, n0, pairs[:, :n0]), (1, n1, pairs[:, n0:])):
        if size == 0:
            continue
        toeplitz = sliding_window_view(
            np.concatenate((he[size - 1:0:-1], he[:size])), size)[::-1]
        hankel = sliding_window_view(he[p + 1:p + 2 * size], size)
        np.subtract(toeplitz[:n1], hankel[:n1], out=out)
        if size > n1:
            np.subtract(toeplitz[n1], hankel[n1], out=vals[n1 * n:])
    # |.| then the scalar 0.5 epsilon, the dense formula's order
    np.abs(vals, out=vals)
    vals *= scale
    rows = np.concatenate((np.arange(0, n, 2, dtype=idx),
                           np.arange(1, n, 2, dtype=idx)))
    indices = np.empty(nnz, dtype=idx)
    indices[:n1 * n].reshape(n1, n)[:] = rows
    indices[n1 * n:] = rows[:nnz - n1 * n]
    indptr = np.empty(n + 1, dtype=idx)
    indptr[0::2] = np.arange(n1 + 1, dtype=idx) * n
    indptr[1::2] = np.arange(n0, dtype=idx) * n + n0
    C = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    if not vals.all():
        C.eliminate_zeros()
    return C


def read_matrix_market(path):
    """Read one Matrix Market file into a complex csc matrix."""
    try:
        A = scipy.io.mmread(path)
    except (ValueError, OverflowError) as exc:
        line, message = re.match(r"(?:Line (\d+): )?(.*)", str(exc),
                                 re.S).groups()
        raise MatrixMarketError(path, None if line is None else int(line),
                                message) from exc
    return sp.csc_matrix(A, dtype=complex)


def write_matrix_market(path, A, comment=None):
    """Write a matrix in general coordinate format, real when every imaginary
    part is zero, in shortest round-trip digits."""
    A = sp.coo_matrix(A, dtype=complex)
    if not np.any(A.data.imag):
        A = A.real
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, A, comment=comment, symmetry="general")


def load_matrix_market(paths):
    """Assemble a QepProblem from three Matrix Market files (M, C, K); an
    error of ``QepProblem``'s checks is raised with the three paths."""
    if len(paths) != 3:
        raise ValueError("need exactly three paths (M, C, K)")
    mats = [read_matrix_market(p) for p in paths]
    try:
        return QepProblem(*mats)
    except ValueError as exc:
        raise ValueError("%s: %s" % (", ".join(map(str, paths)), exc)) from exc
