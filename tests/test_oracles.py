import numpy as np
import pytest

from conftest import random_qep
from soarqep.operator import QepProblem, build_operator
from soarqep.oracles import (SizeGuardError, arnoldi_on_h, build_h,
                             dense_qep_spectrum, mass_spring_spectrum)
from soarqep.problems import gen_mass_spring


class TestBuildH:
    def test_scalar_case(self):
        # M=1, C=3, K=2: A = -3, B = -2, eigenvalues -1 and -2
        prob = QepProblem.from_matrices(np.array([[1.0]]), np.array([[3.0]]),
                                        np.array([[2.0]]))
        H = build_h(build_operator(prob)).H
        assert np.allclose(H, np.array([[-3.0, -2.0], [1.0, 0.0]]))
        ev = sorted(np.linalg.eigvals(H).real)
        assert ev == pytest.approx([-2.0, -1.0], abs=1e-12)

    def test_spectrum_matches_companion_oracle(self, rng):
        prob = random_qep(rng, 20)
        H = build_h(build_operator(prob)).H
        got = np.sort_complex(np.round(np.linalg.eigvals(H), 9))
        lams, _ = dense_qep_spectrum(prob.M, prob.C, prob.K)
        assert np.all(np.isfinite(lams))   # M is nonsingular here
        want = np.sort_complex(np.round(lams, 9))
        # multiset comparison via nearest matching
        want = list(want)
        for g in got:
            j = int(np.argmin(np.abs(np.array(want) - g)))
            assert abs(want[j] - g) < 1e-8
            want.pop(j)

    def test_size_guard(self, rng):
        prob = random_qep(rng, 8)
        with pytest.raises(SizeGuardError):
            build_h(build_operator(prob), max_dim=15)


class TestArnoldi:
    def test_single_step_basis(self, rng):
        A = rng.standard_normal((6, 6))
        v = rng.standard_normal(6)
        V, Hess, trail = arnoldi_on_h(A, v, 1)
        assert V.shape == (6, 2)
        assert np.allclose(V[:, 0], v / np.linalg.norm(v))
        assert Hess.shape == (1, 1)
        assert len(trail) == 1

    def test_reduction_identity(self, rng):
        A = rng.standard_normal((12, 12))
        v = rng.standard_normal(12)
        k = 5
        V, Hess, trail = arnoldi_on_h(A, v, k)
        assert V.shape == (12, k + 1)
        assert np.linalg.norm(V.conj().T @ V - np.eye(k + 1)) < 1e-12
        # A V_k = V_k H + beta v_{k+1} e_k^*
        lhs = A @ V[:, :k]
        rhs = V[:, :k] @ Hess
        rhs[:, -1] += trail[-1] * V[:, k]
        assert np.linalg.norm(lhs - rhs) < 1e-10 * np.linalg.norm(A)

    def test_zero_start_rejected(self, rng):
        with pytest.raises(ValueError):
            arnoldi_on_h(np.eye(3), np.zeros(3), 2)

    def test_invariant_subspace_stops_early(self, rng):
        # block-diagonal A with the start in a 3-dimensional invariant block
        A = np.zeros((8, 8))
        A[:3, :3] = rng.standard_normal((3, 3))
        A[3:, 3:] = rng.standard_normal((5, 5))
        v = np.zeros(8)
        v[:3] = rng.standard_normal(3)
        V, Hess, trail = arnoldi_on_h(A, v, 6)
        assert Hess.shape[0] <= 3
        assert trail[-1] < 1e-10 * np.linalg.norm(A)


class TestDenseSpectrum:
    def test_scalar_roots(self):
        lams, X = dense_qep_spectrum([[1.0]], [[3.0]], [[2.0]])
        assert sorted(lams.real) == pytest.approx([-2.0, -1.0], abs=1e-12)
        assert np.allclose(np.abs(X), 1.0)

    def test_eigenpairs_satisfy_qep(self, rng):
        prob = random_qep(rng, 15)
        M, C, K = prob.M.toarray(), prob.C.toarray(), prob.K.toarray()
        lams, X = dense_qep_spectrum(M, C, K)
        for i in range(len(lams)):
            if not np.isfinite(lams[i]):
                continue
            r = (lams[i] ** 2 * M + lams[i] * C + K) @ X[:, i]
            assert np.linalg.norm(r) < 1e-8 * max(1.0, abs(lams[i]) ** 2)

    def test_singular_mass_gives_infinite_eigenvalues(self):
        M = np.diag([1.0, 0.0])
        lams, _ = dense_qep_spectrum(M, np.eye(2), np.eye(2))
        assert np.sum(~np.isfinite(lams)) >= 1

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            dense_qep_spectrum(np.eye(8), np.eye(8), np.eye(8), max_n=5)


class TestMassSpringSpectrum:
    @pytest.mark.parametrize("kappa, tau", [(5.0, 10.0), (1.0, 0.3)])
    def test_matches_dense_spectrum(self, kappa, tau):
        # (1, 0.3) has complex roots, (5, 10) only real ones
        prob = gen_mass_spring(40, kappa=kappa, tau=tau)
        want, _ = dense_qep_spectrum(prob.M, prob.C, prob.K)
        got = mass_spring_spectrum(40, kappa, tau)
        assert len(got) == len(want) == 80
        rest = list(want)
        for v in got:
            j = int(np.argmin(np.abs(np.array(rest) - v)))
            assert abs(v - rest.pop(j)) <= 1e-10 * max(1.0, abs(v))
