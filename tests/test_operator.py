import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from soarqep import operator
from soarqep.operator import (FactorizationError, QepProblem, _one_norm,
                              apply_ab, build_operator, recover_eigen)
from soarqep.problems import gen_string_damping

# the shift of the string1000 benchmark workload
STRING_SIGMA = 0.6 + 0.8j


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
        gc.collect()
        tracemalloc.start()
        try:
            got = _one_norm(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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
        work = sum(X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
                   for X in (op.work_M, op.work_C))
        assert kept <= 1.05 * work

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
