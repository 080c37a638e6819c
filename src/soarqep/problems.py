"""Built-in problem generators and Matrix Market coordinate I/O.

Generators: a damped mass-spring chain (identity mass, tridiagonal damping
and stiffness) and a damped vibrating string whose damping entries are
adaptive-quadrature integrals.  The Matrix Market code is a small hand-rolled
reader/writer for the coordinate format so parse errors carry line numbers.
"""

import numpy as np
import scipy.integrate
import scipy.sparse as sp

from .operator import QepProblem


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; carries file and line number."""

    def __init__(self, path, lineno, message):
        super().__init__("%s:%d: %s" % (path, lineno, message))
        self.path = path
        self.lineno = lineno


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def gen_mass_spring(n, kappa=5.0, tau=10.0):
    """Damped mass-spring chain: M = I, C = tau*tridiag(-1,3,-1),
    K = kappa*tridiag(-1,3,-1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    ones = np.ones(n)
    T = sp.diags([-ones[:-1], 3.0 * ones, -ones[:-1]], [-1, 0, 1], format="csc")
    return QepProblem.from_matrices(sp.identity(n, format="csc"),
                                    tau * T, kappa * T)


def _cos_moment(m, epsabs=1e-10):
    """integral over [0, pi] of (x^2 (pi-x)^2 - 201) cos(m x)."""
    def a(x):
        return x * x * (np.pi - x) ** 2 - 201.0

    if m == 0:
        val, err = scipy.integrate.quad(a, 0.0, np.pi, epsabs=epsabs, limit=200)
    else:
        val, err = scipy.integrate.quad(a, 0.0, np.pi, weight="cos", wvar=float(m),
                                        epsabs=epsabs, limit=200)
    if err > 1e-8:
        raise QuadratureError("cosine moment m=%d did not converge (err=%.2e)"
                              % (m, err))
    return val


def gen_string_damping(n, epsilon=0.6):
    """Damped vibrating string: M = (pi/2) I, K = (pi/2) diag(j^2) and
    c_ij = |integral of epsilon a(x) sin(ix) sin(jx)| on [0, pi].

    The product of sines is rewritten as half the difference of cosines, so
    only the 2n+1 cosine moments are integrated adaptively.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    h = np.array([_cos_moment(m) for m in range(2 * n + 1)])
    j = np.arange(1, n + 1)
    C = 0.5 * epsilon * np.abs(h[np.abs(j[:, None] - j[None, :])]
                               - h[j[:, None] + j[None, :]])
    M = (np.pi / 2.0) * sp.identity(n, format="csc")
    K = sp.diags((np.pi / 2.0) * j.astype(float) ** 2, format="csc")
    return QepProblem.from_matrices(M, sp.csc_matrix(C), K)


def _parse_value(field_kind, parts, path, lineno):
    if field_kind == "pattern":
        return 1.0 + 0.0j
    if field_kind == "complex":
        if len(parts) < 2:
            raise MatrixMarketError(path, lineno, "complex entry needs two values")
        return complex(float(parts[0]), float(parts[1]))
    return complex(float(parts[0]))


def read_matrix_market(path):
    """Read one coordinate-format Matrix Market file into a csc matrix."""
    with open(path, "r") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError(path, 1, "empty file")
    header = lines[0].split()
    if (len(header) < 5 or header[0] != "%%MatrixMarket"
            or header[1].lower() != "matrix"):
        raise MatrixMarketError(path, 1, "bad header line")
    layout, field_kind, symmetry = (header[2].lower(), header[3].lower(),
                                    header[4].lower())
    if layout != "coordinate":
        raise MatrixMarketError(path, 1, "only coordinate layout is supported")
    if field_kind not in ("real", "integer", "complex", "pattern"):
        raise MatrixMarketError(path, 1, "unknown field %r" % field_kind)
    if symmetry not in ("general", "symmetric", "hermitian", "skew-symmetric"):
        raise MatrixMarketError(path, 1, "unknown symmetry %r" % symmetry)

    lineno = 1
    idx = 1
    while idx < len(lines) and lines[idx].lstrip().startswith("%"):
        idx += 1
    if idx >= len(lines):
        raise MatrixMarketError(path, len(lines), "missing size line")
    lineno = idx + 1
    sizes = lines[idx].split()
    if len(sizes) != 3:
        raise MatrixMarketError(path, lineno, "size line needs rows cols nnz")
    try:
        rows, cols, nnz = (int(x) for x in sizes)
    except ValueError:
        raise MatrixMarketError(path, lineno, "non-integer size line")

    ii, jj, vv = [], [], []
    count = 0
    for off, line in enumerate(lines[idx + 1:]):
        lineno = idx + 2 + off
        s = line.strip()
        if not s or s.startswith("%"):
            continue
        parts = s.split()
        need = 2 if field_kind == "pattern" else 3
        if len(parts) < need:
            raise MatrixMarketError(path, lineno, "too few fields in entry")
        try:
            i = int(parts[0])
            j = int(parts[1])
            v = _parse_value(field_kind, parts[2:], path, lineno)
        except ValueError:
            raise MatrixMarketError(path, lineno, "malformed entry %r" % s)
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixMarketError(path, lineno, "index (%d, %d) out of range" % (i, j))
        ii.append(i - 1)
        jj.append(j - 1)
        vv.append(v)
        if symmetry != "general" and i != j:
            ii.append(j - 1)
            jj.append(i - 1)
            if symmetry == "symmetric":
                vv.append(v)
            elif symmetry == "hermitian":
                vv.append(np.conj(v))
            else:
                vv.append(-v)
        count += 1
    if count != nnz:
        raise MatrixMarketError(path, lineno, "expected %d entries, found %d"
                                % (nnz, count))
    return sp.csc_matrix((np.asarray(vv, dtype=complex), (ii, jj)),
                         shape=(rows, cols))


def write_matrix_market(path, A, comment=None):
    """Write a matrix in general coordinate format with %.17g precision."""
    A = sp.coo_matrix(A)
    is_cplx = bool(np.iscomplexobj(A.data) and np.any(A.data.imag != 0.0))
    kind = "complex" if is_cplx else "real"
    with open(path, "w") as fh:
        fh.write("%%%%MatrixMarket matrix coordinate %s general\n" % kind)
        if comment:
            for c in str(comment).splitlines():
                fh.write("%% %s\n" % c)
        fh.write("%d %d %d\n" % (A.shape[0], A.shape[1], A.nnz))
        for i, j, v in zip(A.row, A.col, A.data):
            if is_cplx:
                fh.write("%d %d %.17g %.17g\n" % (i + 1, j + 1, v.real, v.imag))
            else:
                fh.write("%d %d %.17g\n" % (i + 1, j + 1, v.real))


def load_matrix_market(paths):
    """Assemble a QepProblem from three Matrix Market files (M, C, K)."""
    if len(paths) != 3:
        raise ValueError("need exactly three paths (M, C, K)")
    mats = [read_matrix_market(p) for p in paths]
    n = mats[0].shape[0]
    for p, A in zip(paths, mats):
        if A.shape != (n, n):
            raise ValueError("%s has shape %s, expected (%d, %d)"
                             % (p, A.shape, n, n))
    return QepProblem.from_matrices(*mats)
