"""Built-in problem generators and Matrix Market I/O.

Generators: a damped mass-spring chain (identity mass, tridiagonal damping
and stiffness) and a damped vibrating string whose damping entries come
from closed-form cosine moments.  Matrix Market files are read and written
by ``scipy.io``; a parse error becomes a ``MatrixMarketError`` that names
the file and the line scipy reports.
"""

import re

import numpy as np
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

    The product of sines is half the difference of cosines, so C needs only
    the 2n+1 moments h_m = integral of a(x) cos(mx) on [0, pi], in closed
    form: h_0 = pi^5/30 - 201 pi, and for m >= 1 four integrations by parts
    leave only the boundary term of a'''(x) = 24x - 12 pi, which is
    -24 pi/m^4 for even m and 0 for odd m (a is symmetric about pi/2).
    Entries with i+j odd are therefore exact zeros.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    m = np.arange(2 * n + 1)
    h = np.where(m % 2 == 0, -24.0 * np.pi / np.maximum(m, 1) ** 4.0, 0.0)
    h[0] = np.pi ** 5 / 30.0 - 201.0 * np.pi
    j = np.arange(1, n + 1)
    C = 0.5 * epsilon * np.abs(h[np.abs(j[:, None] - j[None, :])]
                               - h[j[:, None] + j[None, :]])
    M = (np.pi / 2.0) * sp.identity(n, format="csc")
    K = sp.diags((np.pi / 2.0) * j.astype(float) ** 2, format="csc")
    return QepProblem(M, sp.csc_matrix(C), K)


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
