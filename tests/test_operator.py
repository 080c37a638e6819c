import numpy as np
import pytest
import scipy.sparse as sp

from soarqep.operator import (FactorizationError, QepProblem, apply_ab,
                              build_operator, recover_eigen)


class TestProblem:
    def test_norms_and_flags(self):
        M = np.array([[2.0, 0.0], [0.0, 1.0]])
        C = np.array([[0.0, -3.0], [1.0, 0.0]])
        K = np.eye(2)
        prob = QepProblem.from_matrices(M, C, K)
        assert prob.norms1 == (2.0, 3.0, 1.0)
        assert prob.norm_sum == 6.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="C"):
            QepProblem.from_matrices(np.eye(3), np.eye(2), np.eye(3))

    def test_sparse_input_kept_sparse(self):
        prob = QepProblem.from_matrices(sp.identity(4), sp.identity(4),
                                        sp.identity(4))
        assert sp.issparse(prob.M)


class TestBuildOperator:
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

    def test_shift_invert_requires_sigma(self, rng):
        prob = QepProblem.from_matrices(np.eye(3), np.eye(3), np.eye(3))
        with pytest.raises(ValueError):
            build_operator(prob, mode="shift-invert")

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
