"""Shared builders for the test suite.

The engineered problems target specific recurrence events: a guaranteed
deflation at step 1, repeated deflations from a rank-deficient second
operator, and a guaranteed breakdown from starting vectors spanned by a few
exact eigenvectors.

Hypothesis profiles: ``default`` (30 derandomized examples) runs with the
suite; ``thorough`` draws 500 random examples per test, e.g.
``pytest --hypothesis-profile=thorough --hypothesis-seed=N tests/test_properties.py``.
"""

import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import settings

from soarqep.operator import QepProblem, build_operator
from soarqep.oracles import dense_qep_spectrum

# "default" is the profile hypothesis loads unless told otherwise, so
# registering it here replaces the active settings; a profile inherits from
# the active one, hence the explicit derandomize=False
settings.register_profile("default", max_examples=30, derandomize=True,
                          deadline=None, database=None)
settings.register_profile("thorough", max_examples=500, derandomize=False,
                          deadline=None, database=None)


def peak(f):
    """(f(), the tracemalloc peak of the call in bytes), with garbage
    collected first so that the peak is the call's own."""
    gc.collect()
    tracemalloc.start()
    try:
        value = f()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_qep(rng, n, complex_data=False):
    """Well-conditioned dense QEP with a mass matrix near the identity."""
    def mat():
        X = rng.standard_normal((n, n))
        if complex_data:
            X = X + 1j * rng.standard_normal((n, n))
        return X
    M = np.eye(n) + 0.1 * mat()
    return QepProblem.from_matrices(M, mat(), mat())


def deflation_at_step1(rng, n, alpha=0.8):
    """QEP plus starts with A u1 + B u2 = alpha u1, so step 1 stops with a
    deflation and the run then continues normally (B is full rank)."""
    u1 = rng.standard_normal(n)
    u2 = rng.standard_normal(n)
    A = rng.standard_normal((n, n))
    B0 = rng.standard_normal((n, n))
    w = alpha * u1 - A @ u1
    P = np.eye(n) - np.outer(u2, u2) / (u2 @ u2)
    B = np.outer(w, u2) / (u2 @ u2) + B0 @ P
    # monic QEP with M = I has A = -C, B = -K
    return QepProblem.from_matrices(np.eye(n), -A, -B), u1, u2


def rank_deficient_qep(rng, n, rank=1):
    """A = 0 and B of low rank: the r-sequence dies after `rank`+1 steps and
    the run then produces deflations until the stored directions saturate."""
    U = rng.standard_normal((n, rank))
    V = rng.standard_normal((n, rank))
    return QepProblem.from_matrices(np.eye(n), np.zeros((n, n)), -(U @ V.T))


def breakdown_starts(problem, d, rng=None, which="largest"):
    """Starting vectors inside the span of d exact stacked eigenvectors, so
    the stacked Krylov space is invariant and the run must break down."""
    lams, X = dense_qep_spectrum(problem.M, problem.C, problem.K)
    finite = np.isfinite(lams)
    order = np.argsort(np.abs(np.where(finite, lams, 0.0)))
    idx = [i for i in order if finite[i]]
    idx = idx[-d:] if which == "largest" else idx[:d]
    idx = np.asarray(idx)
    u1 = (X[:, idx] * lams[idx]).sum(axis=1)
    u2 = X[:, idx].sum(axis=1)
    return u1, u2


def arpack_nearest_eigenvalues(M, C, K, sigma, count):
    """The ``count`` eigenvalues of the QEP nearest sigma, by ARPACK.

    Linearized as the pencil A z = lam B z with z = [x; lam x],
    A = [0 I; -K -C] and B = diag(I, M); ARPACK finds the largest
    nu = 1/(lam - sigma) of (A - sigma B)^{-1} B through one sparse LU.
    Independent of the solver, and usable where a dense QZ is too large.
    """
    n = M.shape[0]
    eye = sp.identity(n, dtype=complex, format="csc")
    A = sp.bmat([[None, eye], [-K, -C]], format="csc")
    B = sp.bmat([[eye, None], [None, M]], format="csc")
    lu = spla.splu(sp.csc_matrix(A - sigma * B, dtype=complex))
    op = spla.LinearOperator(A.shape, matvec=lambda v: lu.solve(B @ v),
                             dtype=complex)
    nu = spla.eigs(op, k=count, which="LM", v0=np.ones(2 * n, dtype=complex),
                   tol=1e-14, return_eigenvectors=False)
    return sigma + 1.0 / nu


def complex_start(op, u1, u2):
    """The start ``init_state`` makes of well-scaled u1 and u2, computed and
    stored in complex128 as for a complex problem or shift: for a real
    problem's runs recorded in that arithmetic."""
    from soarqep.msoar import SoarState

    u1, u2 = (np.asarray(u, dtype=complex) for u in (u1, u2))
    nrm = np.linalg.norm(u1)
    state = SoarState(op.n, complex)
    state.Q[:, 0] = u1 / nrm
    state.P[:, 0] = u2 / nrm
    return state


def stacked_residual(op, state):
    """Frobenius norm of H [Q_k; P_k] - [Q_{k+1}; P_{k+1}] T_hat."""
    from soarqep.oracles import build_h

    H = build_h(op).H
    S = np.vstack([state.Q, state.P])
    k = state.k
    return float(np.linalg.norm(H @ S[:, :k] - S @ state.T_hat))


def decomposition_tolerance(state, base=1e-10):
    p_max = np.linalg.norm(state.P, axis=0).max()
    return base * (1.0 + np.linalg.norm(state.T_hat)) * (1.0 + p_max)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
