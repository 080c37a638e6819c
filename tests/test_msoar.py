import numpy as np
import pytest
import scipy.linalg

from conftest import (breakdown_starts, complex_start,
                      decomposition_tolerance, deflation_at_step1, random_qep,
                      rank_deficient_qep, stacked_residual)
from soarqep.msoar import (BREAKDOWN, CONTINUE, DEFLATION, ZeroStartError,
                           extraction_basis, init_state, msoar_step,
                           run_msoar)
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

    def test_non_finite_start_named(self, rng):
        op = build_operator(random_qep(rng, 10))
        u1 = np.ones(10)
        u1[3] = np.inf
        with pytest.raises(ValueError,
                           match="start vector u1 has an inf or NaN entry"):
            init_state(op, u1, np.ones(10))

    def test_short_start_named(self, rng):
        op = build_operator(random_qep(rng, 10))
        with pytest.raises(ValueError, match=r"start vector u2 has shape "
                           r"\(5,\), need length n=10"):
            init_state(op, np.ones(10), np.ones(5))

    def test_storage_dtype_follows_operator_and_starts(self, rng):
        # float64 for real working matrices and starts with no nonzero
        # imaginary part, whatever their dtype; a complex start or shift
        # keeps complex storage
        prob = random_qep(rng, 8)
        u = rng.standard_normal(8)
        w = u + 1j * rng.standard_normal(8)
        real_si, complex_si = (dict(mode="shift-invert", sigma=s)
                               for s in (0.3, 0.3 + 0.2j))
        cases = [({}, u, u, float), ({}, u.astype(complex), u, float),
                 ({}, w, u, complex), ({}, u, w, complex),
                 (real_si, u, u, float), (complex_si, u, u, complex)]
        for kw, u1, u2, dtype in cases:
            op = build_operator(prob, **kw)
            st = run_msoar(init_state(op, u1, u2), op, 4, 1e-12)
            assert st.dtype == dtype
            assert all(X.dtype == dtype for X in (st.Q, st.P, st.T_hat))
        # a complex-typed start with a zero imaginary part is the real one
        op = build_operator(prob)
        a, b = (run_msoar(init_state(op, x, u), op, 4, 1e-12)
                for x in (u, u.astype(complex)))
        assert np.array_equal(a.Q, b.Q) and np.array_equal(a.T_hat, b.T_hat)

    def test_real_storage_matches_complex(self, rng):
        # the float64 recurrence is the complex one on real data, to rounding
        n = 30
        op = build_operator(random_qep(rng, n))
        u1, u2 = rng.standard_normal(n), rng.standard_normal(n)
        real = run_msoar(init_state(op, u1, u2), op, 10, 1e-12)
        cplx = run_msoar(complex_start(op, u1, u2), op, 10, 1e-12)
        for X, Y in ((real.Q, cplx.Q), (real.P, cplx.P),
                     (real.T_hat, cplx.T_hat)):
            assert X.dtype == float and Y.dtype == complex
            assert np.linalg.norm(X - Y) <= 1e-12 * np.linalg.norm(Y)


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
        assert st.breakdown and st.k == 2
        # the flag is read off the measured t_{k+1,k}, and the run ends there
        assert st.breakdown_t is not None
        with pytest.raises(AttributeError):
            st.breakdown = False
        with pytest.raises(RuntimeError, match="past breakdown"):
            msoar_step(st, op, 1e-12)
        assert st.k == 2

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
        assert st.k <= 7

    def test_breakdown_matches_arnoldi_trail(self, rng):
        # the explicit Arnoldi process on H stalls where the recurrence does
        prob = random_qep(rng, 9)
        u1, u2 = breakdown_starts(prob, 5)
        op = build_operator(prob)
        st = run_msoar(init_state(op, u1, u2), op, 9, 1e-13)
        assert st.breakdown
        H = build_h(op).H
        v = np.concatenate([st.q_cols[0], st.p_cols[0]])
        _, _, trail = arnoldi_on_h(H, v, st.k)
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

    def test_extraction_basis_is_q_itself(self, rng):
        # no zero column and p1 = q1: the basis is the live Q, not a copy
        prob = random_qep(rng, 20)
        op = build_operator(prob)
        u1 = rng.standard_normal(20)
        st = run_msoar(init_state(op, u1, u1), op, 5, 1e-12)
        Qt = extraction_basis(st)
        assert Qt.shape == (20, 6) and Qt.flags.f_contiguous
        assert np.shares_memory(Qt, st.Q)

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
