import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import conftest
from conftest import random_qep
from soarqep import operator
from soarqep.operator import (FactorizationError, QepProblem, _csr_arrays,
                              _one_norm, apply_ab, build_operator,
                              recover_eigen)
from soarqep.driver import SolverConfig, solve
from soarqep.problems import gen_mass_spring, gen_string_damping

# the shift of the string1000 benchmark workload
STRING_SIGMA = 0.6 + 0.8j


def _int64_indices(X):
    """A copy of the CSC matrix X with int64 index arrays (scipy's
    constructor would pick int32 for them)."""
    X = X.copy()
    X.indices = X.indices.astype(np.int64)
    X.indptr = X.indptr.astype(np.int64)
    return X


class TestProblem:
    def test_norms_and_flags(self):
        M = np.array([[2.0, 0.0], [0.0, 1.0]])
        C = np.array([[0.0, -3.0], [1.0, 0.0]])
        K = np.eye(2)
        prob = QepProblem.from_matrices(M, C, K)
        assert prob.norms1 == (2.0, 3.0, 1.0)
        assert prob.norm_sum == 6.0

    @pytest.mark.parametrize("dense", [
        [[0, 1, 0, -2j, 0], [0, 3, 0, 0, 0], [0, -1e-3, 0, 7, 0]],
        [[1, 0, 0.5, 0], [0, 0, -2, 0], [4j, 0, 0, 0]],
        np.sin(np.arange(1200.0)).reshape(300, 4) * [0, 1 + 0.7j, 0, -3j],
        np.zeros((4, 5)),
        np.cos(np.arange(90000.0)).reshape(300, 300)
        * (np.arange(300) % 7 > 0),
    ])
    def test_one_norm_matches_abs_column_sums(self, dense, monkeypatch):
        # empty leading, interior and trailing columns, long columns, no
        # stored entry at all, and 77k entries in groups of 2**16 entries;
        # groups of 3 entries split every matrix, and are shorter than its
        # longest columns
        A = sp.csc_matrix(np.asarray(dense, dtype=complex))
        want = float(abs(A).sum(axis=0).max())
        assert _one_norm(A) == want
        monkeypatch.setattr(operator, "ONE_NORM_GROUP_ENTRIES", 3)
        assert _one_norm(A) == want

    def test_one_norm_holds_one_group_of_entries(self):
        # a full 600 x 600 matrix: abs of all its 360k entries would take
        # 2.9 MB, one group of whole columns 2**16 entries of float64
        A = sp.csc_matrix(np.exp(1j * np.arange(360000.0)).reshape(600, 600))
        want = float(abs(A).sum(axis=0).max())
        got, peak = conftest.peak(lambda: _one_norm(A))
        assert got == want
        assert peak <= 1.25 * 8 * operator.ONE_NORM_GROUP_ENTRIES

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="C"):
            QepProblem.from_matrices(np.eye(3), np.eye(2), np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("name", ["M", "C", "K"])
    def test_non_finite_entry_rejected(self, name, bad):
        mats = {"M": np.eye(3), "C": np.eye(3), "K": np.eye(3)}
        mats[name] = mats[name].astype(complex)
        mats[name][2, 1] = bad
        with pytest.raises(ValueError, match="^%s has 1-norm (nan|inf)" % name):
            QepProblem.from_matrices(**mats)

    def test_int64_indices_stored_as_int32(self):
        ref = gen_mass_spring(20)
        wide = [_int64_indices(X) for X in (ref.M, ref.C, ref.K)]
        prob = QepProblem(*wide)
        for got, want in zip((prob.M, prob.C, prob.K), (ref.M, ref.C, ref.K)):
            assert _arrays(got) == _arrays(want)
        assert prob.norms1 == ref.norms1
        assert all(X.indices.dtype == np.int64 for X in wide)

    def test_sparse_input_kept_sparse(self):
        prob = QepProblem.from_matrices(sp.identity(4), sp.identity(4),
                                        sp.identity(4))
        assert sp.issparse(prob.M)


class TestConstructor:
    """``QepProblem(M, C, K)`` is the one construction path: n and the
    1-norms are read off the matrices, never passed in."""

    def test_converts_dense_real_triple(self):
        M, K = np.diag([2.0, 1.0]), np.eye(2)
        C = np.array([[0.0, -3.0], [1.0, 0.0]])
        prob = QepProblem(M, C, K)
        for got, want in zip((prob.M, prob.C, prob.K), (M, C, K)):
            assert got.format == "csc" and got.dtype == complex
            assert np.array_equal(got.toarray(), want)
        assert prob.n == 2 and prob.norms1 == (2.0, 3.0, 1.0)

    @pytest.mark.parametrize("mats", [
        (np.eye(3), np.diag([1.0, np.nan, 1.0]), np.eye(3)),
        (np.eye(3), np.eye(3), np.eye(2)),
    ], ids=["nan", "shape"])
    def test_refusals_match_from_matrices(self, mats):
        with pytest.raises(ValueError) as direct:
            QepProblem(*mats)
        with pytest.raises(ValueError) as named:
            QepProblem.from_matrices(*mats)
        assert str(direct.value) == str(named.value)

    def test_derived_values_are_not_arguments(self):
        prob = gen_string_damping(5)
        with pytest.raises(TypeError):
            QepProblem(prob.M, prob.C, prob.K, 5, (1e-30,) * 3)
        with pytest.raises(TypeError):
            QepProblem(prob.M, prob.C, prob.K, norms1=(1e-30,) * 3)
        with pytest.raises(AttributeError):
            prob.n = 4


class TestBuildOperator:
    def test_unknown_mode_rejected(self):
        prob = QepProblem(np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            build_operator(prob, mode="bogus")

    def test_singular_mass_rejected(self):
        M = np.zeros((3, 3))
        with pytest.raises(FactorizationError):
            build_operator(QepProblem.from_matrices(M, np.eye(3), np.eye(3)))

    def test_numerically_singular_pivot(self):
        M = np.diag([1.0, 1e-18, 1.0])
        prob = QepProblem.from_matrices(M, np.eye(3), np.eye(3))
        with pytest.raises(FactorizationError) as exc:
            build_operator(prob)
        assert exc.value.pivot_position is not None

    def test_shift_invert_rejects_numerically_singular_shift(self):
        # sigma = 1 gives M_hat = diag(2, 1e-18, 2): condition about 2e18
        prob = QepProblem.from_matrices(np.diag([1.0, 1e-18, 1.0]),
                                        np.zeros((3, 3)),
                                        np.diag([1.0, 0.0, 1.0]))
        with pytest.raises(FactorizationError) as exc:
            build_operator(prob, mode="shift-invert", sigma=1.0)
        assert exc.value.pivot_position == 1

    @staticmethod
    def _estimates(monkeypatch):
        """Record each 1-norm estimate the build computes."""
        seen, real = [], spla.onenormest

        def spy(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(spla, "onenormest", spy)
        return seen

    def test_estimate_bounds_inverse_norm_dense(self, monkeypatch):
        # complex non-Hermitian A = X^{-1}, X = I plus a heavy first column
        # whose squared phases cancel: ||X||_1 = 25 but ||X||_inf = 4, and
        # solving with A^T in place of A^H stops the estimate near 3
        n = 8
        X = np.eye(n, dtype=complex)
        X[:, 0] += 3.0 * np.exp(0.25j * np.pi * np.arange(n))
        seen = self._estimates(monkeypatch)
        build_operator(QepProblem.from_matrices(np.linalg.inv(X), np.eye(n),
                                                np.eye(n)))
        exact = np.abs(X).sum(axis=0).max()
        assert seen[0] <= exact * (1 + 1e-12) and exact <= 3 * seen[0]

    def test_global_random_state_untouched(self):
        before = np.random.get_state()
        build_operator(gen_string_damping(200), mode="shift-invert",
                       sigma=STRING_SIGMA)
        after = np.random.get_state()
        assert np.array_equal(before[1], after[1])
        assert before[:1] + before[2:] == after[:1] + after[2:]

    def test_string_shift_accepted(self, monkeypatch):
        seen = self._estimates(monkeypatch)
        op = build_operator(gen_string_damping(200), mode="shift-invert",
                            sigma=STRING_SIGMA)
        assert op.lu is not None
        exact = np.abs(np.linalg.inv(op.work_M.toarray())).sum(axis=0).max()
        assert seen[0] <= exact * (1 + 1e-12) and exact <= 3 * seen[0]

    def test_direct_mode_reuses_problem_norms(self, rng):
        prob = QepProblem.from_matrices(np.eye(3), rng.standard_normal((3, 3)),
                                        rng.standard_normal((3, 3)))
        assert build_operator(prob).work_norms1 is prob.norms1

    def test_shift_invert_keeps_no_factor_copies(self):
        # SuperLU's own factor storage is invisible to tracemalloc; reading
        # lu.L or lu.U would leave CSC copies of both factors in the heap
        prob = gen_string_damping(400)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            op = build_operator(prob, mode="shift-invert", sigma=STRING_SIGMA)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # M_hat and C_hat share C's index arrays, so only their data is
        # kept: 1.00 times its bytes, where private index arrays took 1.26
        assert kept <= 1.05 * sum(X.data.nbytes
                                  for X in (op.work_M, op.work_C))

    def test_direct_mode_refuses_sigma(self):
        prob = QepProblem.from_matrices(np.eye(3), np.eye(3), np.eye(3))
        with pytest.raises(ValueError, match="direct mode takes no sigma"):
            build_operator(prob, sigma=0.5)

    def test_shift_invert_requires_sigma(self, rng):
        prob = QepProblem.from_matrices(np.eye(3), np.eye(3), np.eye(3))
        with pytest.raises(ValueError):
            build_operator(prob, mode="shift-invert")

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, 1e160,
                                       complex(0.0, np.nan)])
    def test_shift_must_be_finite_with_finite_square(self, sigma):
        prob = QepProblem.from_matrices(np.eye(3), np.eye(3), np.eye(3))
        with pytest.raises(ValueError, match="sigma must be finite"):
            build_operator(prob, mode="shift-invert", sigma=sigma)

    def test_shift_invert_matrices(self, rng):
        n = 5
        M = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        C = rng.standard_normal((n, n))
        K = rng.standard_normal((n, n))
        sigma = 1.5 - 0.5j
        op = build_operator(QepProblem.from_matrices(M, C, K),
                            mode="shift-invert", sigma=sigma)
        assert np.allclose(op.work_M.toarray(),
                           sigma ** 2 * M + sigma * C + K)
        assert np.allclose(op.work_C.toarray(), C + 2 * sigma * M)
        assert np.allclose(op.work_K.toarray(), M)


def _sums(prob, sigma):
    """M_hat and C_hat as scipy's sparse sums form them."""
    return (sp.csc_matrix(sigma ** 2 * prob.M + sigma * prob.C + prob.K),
            sp.csc_matrix(prob.C + 2.0 * sigma * prob.M))


def _arrays(X):
    return [(a.dtype, a.tobytes()) for a in (X.data, X.indices, X.indptr)]


def _assert_bitwise_as_sums(op, prob):
    for got, want in zip((op.work_M, op.work_C), _sums(prob, op.sigma)):
        assert _arrays(got) == _arrays(want)


def _diagonal(values):
    """CSC diagonal matrix that stores every value, zeros included."""
    n = len(values)
    return sp.csc_matrix((values, np.arange(n), np.arange(n + 1)),
                         shape=(n, n))


# both signs of zero in each part, and sigmas whose products make them
SIGNED = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)] + [
    1.0, -1.0, complex(-0.0, 1.0), complex(1.0, -0.0)]
SIGNED_SIGMAS = [complex(a, b) for a in (0.0, -0.0, 1.0, -1.0)
                 for b in (0.0, -0.0, 1.0)]


class TestShiftedAssembly:
    """M_hat and C_hat are built on C's pattern, bit for bit as the sums
    ``sigma**2 * M + sigma * C + K`` and ``C + 2.0 * sigma * M``."""

    @pytest.mark.parametrize("make, sigma", [
        (lambda: gen_string_damping(300), STRING_SIGMA),
        (lambda: gen_string_damping(300), -2.0),
        (lambda: gen_mass_spring(500), -13 + 0.4j),
        (lambda: gen_mass_spring(500), -13.0),
        (lambda: gen_mass_spring(200, tau=1.0), -1.0),
    ], ids=["string", "string-real", "mass-spring", "mass-spring-real",
            "chain"])
    def test_generators_share_c_pattern(self, make, sigma):
        # the string's M and K are diagonal inside C's pattern; the
        # mass-spring K has C's own pattern
        prob = make()
        op = build_operator(prob, mode="shift-invert", sigma=sigma)
        _assert_bitwise_as_sums(op, prob)
        for X in (op.work_M, op.work_C):
            assert X.indices is not prob.C.indices
            assert np.shares_memory(X.indices, prob.C.indices)
            assert np.shares_memory(X.indptr, prob.C.indptr)

    def test_string1000_keeps_only_data(self):
        prob = gen_string_damping(1000)
        op = build_operator(prob, mode="shift-invert", sigma=STRING_SIGMA)
        assert np.shares_memory(op.work_C.indices, prob.C.indices)
        assert np.shares_memory(op.work_M.indices, prob.C.indices)

    def test_exact_cancellation_gets_own_arrays(self):
        # C_hat's diagonal is 3 + 2 (-1.5) = 0 on the underdamped chain: the
        # sum drops it, so C_hat has its own compacted index arrays, while
        # M_hat still shares C's
        prob = gen_mass_spring(200, tau=1.0)
        op = build_operator(prob, mode="shift-invert", sigma=-1.5)
        _assert_bitwise_as_sums(op, prob)
        assert op.work_C.nnz == prob.C.nnz - 200
        assert not np.shares_memory(op.work_C.indices, prob.C.indices)
        assert not np.shares_memory(op.work_C.indptr, prob.C.indptr)
        assert np.shares_memory(op.work_M.indices, prob.C.indices)

    @pytest.mark.parametrize("sigma", [0.3 - 1.1j, 0.7])
    def test_fallback_mass_off_c_pattern(self, rng, sigma):
        n = 30
        C = sp.random(n, n, density=0.2, random_state=rng) + sp.identity(n)
        K = sp.diags(rng.standard_normal(n))
        M = sp.identity(n) + sp.csc_matrix(([0.5], ([0], [n - 1])),
                                           shape=(n, n))
        C = C.tolil()
        C[0, n - 1] = 0.0
        prob = QepProblem(M, C.tocsc(), K)
        assert operator._shifted_on_pattern(prob, complex(sigma)) is None
        op = build_operator(prob, mode="shift-invert", sigma=sigma)
        _assert_bitwise_as_sums(op, prob)

    def test_fallback_sums_of_int64_input_are_int32(self):
        # scipy's sums pick the index dtype of int64 inputs from an
        # uninitialized buffer; QepProblem stores int32, which fixes it
        ref = gen_mass_spring(20)
        M = ref.M + sp.csc_matrix(([0.5], ([0], [19])), shape=(20, 20))
        prob = QepProblem(*[_int64_indices(X) for X in (M, ref.C, ref.K)])
        sigma = -13 + 0.4j
        assert operator._shifted_on_pattern(prob, sigma) is None
        for _ in range(5):
            op = build_operator(prob, mode="shift-invert", sigma=sigma)
            for X in (op.work_M, op.work_C, op.work_K):
                assert X.indices.dtype == X.indptr.dtype == np.int32
        _assert_bitwise_as_sums(op, prob)

    def test_fallback_non_canonical_c(self):
        # C's rows stored in descending order within each column
        ref = gen_mass_spring(40)
        C = ref.C.tocoo()
        order = np.lexsort((-C.row, C.col))
        C = sp.csc_matrix((C.data[order], C.row[order],
                           ref.C.indptr.copy()), shape=C.shape)
        prob = QepProblem(ref.M, C, ref.K)
        assert not prob.C.has_sorted_indices
        assert operator._shifted_on_pattern(prob, -13 + 0.4j) is None
        op = build_operator(prob, mode="shift-invert", sigma=-13 + 0.4j)
        want_M, want_C = _sums(prob, -13 + 0.4j)
        # the factorization sorts M_hat's unsorted indices in place
        assert not want_M.has_sorted_indices
        want_M.sum_duplicates()
        assert _arrays(op.work_M) == _arrays(want_M)
        assert _arrays(op.work_C) == _arrays(want_C)

    def test_signed_zeros_and_cancellations(self):
        # every sign of zero in M, C and K against shifts that cancel or
        # make signed zeros: one entry each, so M and K have C's own
        # pattern, then diagonal M and K inside a full 2 x 2 C
        for m in SIGNED:
            for c in SIGNED:
                for k in SIGNED:
                    prob = QepProblem(_diagonal([m]), _diagonal([c]),
                                      _diagonal([k]))
                    for sigma in SIGNED_SIGMAS:
                        got = operator._shifted_on_pattern(prob, sigma)
                        for X, Y in zip(got, _sums(prob, sigma)):
                            assert _arrays(X) == _arrays(Y), (m, c, k, sigma)
        rng = np.random.default_rng(4)
        for _ in range(300):
            m, k = rng.choice(SIGNED, 2), rng.choice(SIGNED, 2)
            C = rng.choice(SIGNED, (2, 2))
            prob = QepProblem(_diagonal(m),
                              sp.csc_matrix((C.ravel(order="F"),
                                             [0, 1, 0, 1], [0, 2, 4]),
                                            shape=(2, 2)),
                              _diagonal(k))
            sigma = SIGNED_SIGMAS[rng.integers(len(SIGNED_SIGMAS))]
            got = operator._shifted_on_pattern(prob, sigma)
            for X, Y in zip(got, _sums(prob, sigma)):
                assert _arrays(X) == _arrays(Y), (m, C, k, sigma)

    def test_problem_untouched_by_build_and_solve(self):
        prob = gen_string_damping(200)
        before = [_arrays(X) for X in (prob.M, prob.C, prob.K)]
        op = build_operator(prob, mode="shift-invert", sigma=STRING_SIGMA)
        assert [_arrays(X) for X in (prob.M, prob.C, prob.K)] == before
        del op
        rep = solve(prob, SolverConfig(m=6, k=20, p=8, mode="shift-invert",
                                       sigma=STRING_SIGMA, variant="imsoar",
                                       ctol=1e-10, max_restarts=2))
        assert rep.residual_history
        assert [_arrays(X) for X in (prob.M, prob.C, prob.K)] == before


class TestRowAccess:
    def test_row_entries_sum_the_csr_indptrs(self, rng, monkeypatch):
        # counted 5 row indices at a time: a banded triple, a full first
        # column of C, which spreads over every row, and dense matrices
        monkeypatch.setattr(operator, "ROW_COUNT_GROUP_ENTRIES", 5)
        prob = gen_mass_spring(30)
        C = prob.C.tolil()
        C[:, 0] = 1.0
        arrow = QepProblem.from_matrices(prob.M, C, prob.K)
        dense = QepProblem.from_matrices(
            *(np.eye(9) + rng.standard_normal((9, 9)) for _ in range(3)))
        for problem, kw in ((prob, dict(mode="shift-invert", sigma=-1 + 1j)),
                            (arrow, dict(mode="shift-invert", sigma=-1.0)),
                            (dense, {})):
            op = build_operator(problem, **kw)
            want = sum(X.tocsr().indptr.astype(np.int64)
                       for X in (op.work_M, op.work_C, op.work_K))
            assert op.work_row_entries.dtype == np.int64
            assert np.array_equal(op.work_row_entries, want)

    def test_csr_arrays_are_shared_only_when_bitwise_equal(self):
        # a symmetric pattern whose transpose moves a -0.0, and a symmetric
        # matrix with unsorted indices, are copied; a canonical symmetric
        # one keeps its own arrays, and a strided real view of its data
        # gets a contiguous copy of that alone
        signed = sp.csc_matrix((np.array([1.0, 0.0, -0.0, 1.0]),
                                np.array([0, 1, 0, 1]), np.array([0, 2, 4])),
                               shape=(2, 2))
        unsorted = sp.csc_matrix((np.array([1.0, 2.0, 2.0, 1.0]),
                                  np.array([1, 0, 1, 0]), np.array([0, 2, 4])),
                                 shape=(2, 2))
        for X in (signed, unsorted):
            indptr, indices, data = _csr_arrays(X)
            Y = X.tocsr()
            assert not np.shares_memory(data, X.data)
            assert data.tobytes() == Y.data.tobytes()
            assert np.array_equal(indices, Y.indices)
        X = gen_mass_spring(20).K
        indptr, indices, data = _csr_arrays(X)
        assert indptr is X.indptr and indices is X.indices
        assert np.shares_memory(data, X.data)
        real = sp.csc_matrix((X.data.real, X.indices, X.indptr), shape=X.shape)
        assert not real.data.flags.c_contiguous
        indptr, indices, data = _csr_arrays(real)
        assert indptr is real.indptr and indices is real.indices
        assert data.flags.c_contiguous and np.array_equal(data, X.data.real)


class TestApply:
    def test_direct_matches_dense(self, rng):
        n = 8
        M = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        C = rng.standard_normal((n, n))
        K = rng.standard_normal((n, n))
        op = build_operator(QepProblem.from_matrices(M, C, K))
        q = rng.standard_normal(n)
        p = rng.standard_normal(n)
        want = -np.linalg.solve(M, C @ q + K @ p)
        assert np.allclose(apply_ab(op, q, p), want, atol=1e-11)

    def test_one_solve_per_step(self, rng):
        # apply with p = 0 gives A q; with q = 0 gives B p
        n = 6
        M = np.eye(n)
        C = rng.standard_normal((n, n))
        K = rng.standard_normal((n, n))
        op = build_operator(QepProblem.from_matrices(M, C, K))
        q = rng.standard_normal(n)
        z = np.zeros(n)
        assert np.allclose(apply_ab(op, q, z), -C @ q, atol=1e-12)
        assert np.allclose(apply_ab(op, z, q), -K @ q, atol=1e-12)


    def test_real_vectors_apply_in_float64(self, rng):
        # on real working matrices float64 q and p give a float64 r, the
        # real part of the complex application bit for bit; a complex shift
        # applies in complex arithmetic
        prob = random_qep(rng, 8)
        q, p = rng.standard_normal(8), rng.standard_normal(8)
        for kw in ({}, dict(mode="shift-invert", sigma=0.3)):
            op = build_operator(prob, **kw)
            r = apply_ab(op, q, p)
            want = apply_ab(op, q.astype(complex), p.astype(complex))
            assert r.dtype == float and not want.imag.any()
            assert np.array_equal(r, want.real)
        op = build_operator(prob, mode="shift-invert", sigma=0.3 + 0.2j)
        assert apply_ab(op, q, p).dtype == complex


class TestRecover:
    def test_direct_identity(self, rng):
        prob = QepProblem.from_matrices(np.eye(2), np.eye(2), np.eye(2))
        op = build_operator(prob)
        lam, res = recover_eigen(op, 2.0 + 1.0j, 0.5)
        assert lam == 2.0 + 1.0j and res == 0.5

    def test_shift_invert_mapping(self, rng):
        prob = QepProblem.from_matrices(np.eye(2), np.eye(2), np.eye(2))
        op = build_operator(prob, mode="shift-invert", sigma=1.0 + 2.0j)
        rho = 0.25 - 0.5j
        lam, res = recover_eigen(op, rho, 1e-8)
        assert lam == pytest.approx(1.0 / rho + (1.0 + 2.0j))
        assert res == pytest.approx(1e-8 / abs(rho) ** 2)

    def test_zero_rho_rejected(self):
        prob = QepProblem.from_matrices(np.eye(2), np.eye(2), np.eye(2))
        op = build_operator(prob, mode="shift-invert", sigma=0.5)
        with pytest.raises(ZeroDivisionError):
            recover_eigen(op, 0.0, 1.0)

    def test_residual_recovery_exact(self, rng):
        # recovered residual equals the directly computed original residual
        n = 10
        M = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        C = rng.standard_normal((n, n))
        K = rng.standard_normal((n, n))
        prob = QepProblem.from_matrices(M, C, K)
        sigma = 0.3 + 0.7j
        op = build_operator(prob, mode="shift-invert", sigma=sigma)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = y / np.linalg.norm(y)
        rho = 0.9 - 0.4j
        Mh, Ch, Kh = (op.work_M.toarray(), op.work_C.toarray(),
                      op.work_K.toarray())
        res_hat = np.linalg.norm((rho ** 2 * Mh + rho * Ch + Kh) @ y)
        lam, res = recover_eigen(op, rho, res_hat)
        direct = np.linalg.norm((lam ** 2 * M + lam * C + K) @ y)
        assert res == pytest.approx(direct, rel=1e-12)
