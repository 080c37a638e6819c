import numpy as np
import pytest
import scipy.linalg

from conftest import (breakdown_starts, decomposition_tolerance,
                      deflation_at_step1, random_qep, rank_deficient_qep,
                      stacked_residual)
from soarqep.msoar import (BREAKDOWN, CONTINUE, DEFLATION, ZeroStartError,
                           estimate_ck, extraction_basis, init_state,
                           msoar_step, run_msoar)
from soarqep.operator import QepProblem, build_operator
from soarqep.oracles import arnoldi_on_h, build_h


class TestInit:
    def test_scaling(self, rng):
        prob = random_qep(rng, 6)
        op = build_operator(prob)
        u1 = 3.0 * np.eye(6)[:, 0]
        st = init_state(op, u1, np.zeros(6))
        assert np.allclose(st.q_cols[0], np.eye(6)[:, 0])
        assert np.allclose(st.p_cols[0], 0.0)

    def test_p1_norm(self, rng):
        prob = random_qep(rng, 6)
        op = build_operator(prob)
        u1 = rng.standard_normal(6)
        u2 = rng.standard_normal(6)
        st = init_state(op, u1, u2)
        assert np.linalg.norm(st.p_cols[0]) == pytest.approx(
            np.linalg.norm(u2) / np.linalg.norm(u1), abs=1e-14)

    def test_zero_start_rejected(self, rng):
        op = build_operator(random_qep(rng, 4))
        with pytest.raises(ZeroStartError):
            init_state(op, np.zeros(4), np.ones(4))


class TestSteps:
    def test_decomposition_identity(self, rng):
        for _ in range(5):
            n = int(rng.integers(15, 40))
            k = int(rng.integers(4, 10))
            prob = random_qep(rng, n)
            op = build_operator(prob)
            st = run_msoar(init_state(op, rng.standard_normal(n),
                                      rng.standard_normal(n)), op, k, 1e-12)
            assert stacked_residual(op, st) <= decomposition_tolerance(st)
            Q = st.nonzero_q()
            assert np.linalg.norm(Q.conj().T @ Q - np.eye(Q.shape[1])) < 1e-10

    def test_reduces_to_arnoldi_when_b_and_u2_zero(self, rng):
        n, k = 20, 6
        M = np.eye(n)
        C = rng.standard_normal((n, n))
        prob = QepProblem.from_matrices(M, C, np.zeros((n, n)))
        op = build_operator(prob)
        u1 = rng.standard_normal(n)
        st = run_msoar(init_state(op, u1, np.zeros(n)), op, k, 1e-12)
        V, _, _ = arnoldi_on_h(-C, u1.astype(complex), k)
        for j in range(k + 1):
            cos = abs(np.vdot(V[:, j], st.q_cols[j]))
            assert 1.0 - cos < 1e-10

    def test_zero_operator_breaks_by_step2(self, rng):
        # step 1 stalls with s = q1 still independent (deflation); step 2
        # produces s = 0 and the stacked sequence is exhausted (breakdown)
        n = 5
        prob = QepProblem.from_matrices(np.eye(n), np.zeros((n, n)),
                                        np.zeros((n, n)))
        op = build_operator(prob)
        st = init_state(op, rng.standard_normal(n), np.zeros(n))
        out = msoar_step(st, op, 1e-12)
        assert out.kind == DEFLATION
        out = msoar_step(st, op, 1e-12)
        assert out.kind == BREAKDOWN
        assert st.breakdown and st.breakdown_step == 2

    def test_deflation_columns_shape(self, rng):
        prob, u1, u2 = deflation_at_step1(rng, 18)
        op = build_operator(prob)
        st = init_state(op, u1, u2)
        out = msoar_step(st, op, 1e-10)
        assert out.kind == DEFLATION
        assert st.deflation_steps == [1]
        assert np.all(st.q_cols[1] == 0.0)
        assert st.T_hat[1, 0] == 1.0
        # the run continues and keeps the decomposition identity
        run_msoar(st, op, 7, 1e-10)
        assert not st.breakdown
        assert stacked_residual(op, st) <= decomposition_tolerance(st)

    def test_first_stop_is_deflation_rank_deficient(self, rng):
        for trial in range(6):
            prob = rank_deficient_qep(rng, 14, rank=int(rng.integers(1, 3)))
            op = build_operator(prob)
            st = init_state(op, rng.standard_normal(14),
                            rng.standard_normal(14))
            first = None
            while st.k < 14 and not st.breakdown:
                out = msoar_step(st, op, 1e-10)
                if out.kind != CONTINUE:
                    first = out.kind
                    break
            assert first == DEFLATION

    def test_breakdown_from_invariant_start(self, rng):
        prob = random_qep(rng, 10)
        u1, u2 = breakdown_starts(prob, 6)
        op = build_operator(prob)
        st = run_msoar(init_state(op, u1, u2), op, 10, 1e-12)
        assert st.breakdown
        assert st.breakdown_step <= 7

    def test_breakdown_matches_arnoldi_trail(self, rng):
        # the explicit Arnoldi process on H stalls where the recurrence does
        prob = random_qep(rng, 9)
        u1, u2 = breakdown_starts(prob, 5)
        op = build_operator(prob)
        st = run_msoar(init_state(op, u1, u2), op, 9, 1e-13)
        assert st.breakdown
        H = build_h(op).H
        v = np.concatenate([st.q_cols[0], st.p_cols[0]])
        _, _, trail = arnoldi_on_h(H, v, st.breakdown_step)
        assert trail[-1] < 1e-10 * np.linalg.norm(H)

    def test_subspace_equivalence(self, rng):
        for _ in range(4):
            n = int(rng.integers(12, 30))
            k = int(rng.integers(4, 9))
            prob = random_qep(rng, n)
            op = build_operator(prob)
            u1 = rng.standard_normal(n)
            u2 = rng.standard_normal(n)
            st = run_msoar(init_state(op, u1, u2), op, k, 1e-12)
            assert not st.deflation_steps
            H = build_h(op).H
            v = np.concatenate([st.q_cols[0], st.p_cols[0]])
            V, _, _ = arnoldi_on_h(H, v, k - 1)
            S = np.vstack([st.Q, st.P])[:, :k]
            angles = scipy.linalg.subspace_angles(S, V[:, :k])
            assert np.max(angles) < 1e-8


class TestAccounting:
    def test_t_hat_shape_and_hessenberg(self, rng):
        prob = random_qep(rng, 16)
        op = build_operator(prob)
        st = run_msoar(init_state(op, rng.standard_normal(16),
                                  rng.standard_normal(16)), op, 6, 1e-12)
        T = st.T_hat
        assert T.shape == (7, 6)
        assert np.all(np.tril(T, -2) == 0.0)

    def test_estimate_ck_formula(self, rng):
        prob = random_qep(rng, 12)
        op = build_operator(prob)
        st = run_msoar(init_state(op, rng.standard_normal(12),
                                  rng.standard_normal(12)), op, 5, 1e-12)
        theta = 1.3 - 0.2j
        pn = st.p_norms
        want = (np.sqrt(abs(theta) ** 2 + 1)
                * np.sqrt(prob.norms1[0] ** 2 + pn[5] ** 2)
                / np.sqrt(1 + sum(x * x for x in pn[:5]) / 5))
        assert estimate_ck(st, theta, prob.norms1[0]) == pytest.approx(want)

    def test_estimate_ck_plugin(self):
        # theta = 1, ||M||_1 = 1, p_{k+1} = 0, mean ||p_j||^2 = 1 -> exactly 1
        op = build_operator(QepProblem.from_matrices(np.eye(3), np.eye(3),
                                                     np.eye(3)))
        st = init_state(op, np.eye(3)[:, 0], np.eye(3)[:, 2])
        st.reserve(1)
        st.k = 1
        st.Q[:, 1] = np.eye(3)[:, 1]
        st.T_hat[1, 0] = 1.0
        assert estimate_ck(st, 1.0, 1.0) == pytest.approx(1.0)

    def test_extraction_basis_appends_p1_direction(self, rng):
        prob = random_qep(rng, 20)
        op = build_operator(prob)
        u1 = rng.standard_normal(20)
        u2 = rng.standard_normal(20)
        st = run_msoar(init_state(op, u1, u2), op, 5, 1e-12)
        Qt = extraction_basis(st)
        assert Qt.shape[1] == 7    # k+1 basis columns plus the u2 direction
        assert np.linalg.norm(Qt.conj().T @ Qt - np.eye(7)) < 1e-10
        # u2 lies in the span of the extended basis
        resid = u2 - Qt @ (Qt.conj().T @ u2)
        assert np.linalg.norm(resid) < 1e-8 * np.linalg.norm(u2)
