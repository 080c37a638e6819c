import warnings

import numpy as np
import pytest
import scipy.linalg

from soarqep import kernels
from soarqep.kernels import (RankDeficiencyError, gram_blocks,
                             hessenberg_shifted_qr,
                             orthogonalize_with_refinement, qr_unit_diagonal,
                             refined_vector, solve_projected_qep)


class TestOrthogonalize:
    def test_reconstruction(self, rng):
        basis, _ = np.linalg.qr(rng.standard_normal((30, 6))
                                + 1j * rng.standard_normal((30, 6)))
        v = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        c, r, rn = orthogonalize_with_refinement(v, basis)
        assert np.allclose(basis @ c + r, v, atol=1e-13)
        assert np.linalg.norm(basis.conj().T @ r) < 1e-13

    def test_empty_basis(self, rng):
        v = rng.standard_normal(8)
        c, r, rn = orthogonalize_with_refinement(v, np.zeros((8, 0)))
        assert c.size == 0
        assert rn == pytest.approx(np.linalg.norm(v))

    def test_zero_columns_tolerated(self, rng):
        basis = np.zeros((10, 3), dtype=complex)
        basis[:, 1] = np.eye(10)[:, 0]
        v = rng.standard_normal(10)
        c, r, rn = orthogonalize_with_refinement(v, basis)
        assert c[0] == 0 and c[2] == 0
        assert abs(r[0]) < 1e-14

    def test_nearly_dependent_refines(self, rng):
        # a vector almost inside the span still orthogonalizes cleanly
        basis, _ = np.linalg.qr(rng.standard_normal((40, 10)))
        v = basis @ rng.standard_normal(10) + 1e-10 * rng.standard_normal(40)
        _, r, rn = orthogonalize_with_refinement(v, basis)
        assert np.linalg.norm(basis.conj().T @ r) < 1e-14 * max(rn, 1.0) + 1e-15


class TestShiftedQr:
    def test_similarity_and_structure(self, rng):
        k = 9
        T = np.triu(rng.standard_normal((k, k)), -1) + 0j
        shifts = [0.3 + 0.2j, -1.1, 0.7j]
        V, Tp = hessenberg_shifted_qr(T, shifts)
        assert np.linalg.norm(V.conj().T @ V - np.eye(k)) < 1e-12
        assert np.linalg.norm(Tp - V.conj().T @ T @ V) < 1e-10
        # exactly Hessenberg below the subdiagonal
        for i in range(2, k):
            assert np.all(Tp[i, : i - 1] == 0.0)
        ev0 = np.linalg.eigvals(T)
        ev1 = list(np.linalg.eigvals(Tp))
        for v in ev0:
            j = int(np.argmin([abs(v - w) for w in ev1]))
            assert abs(v - ev1.pop(j)) < 1e-10

    def test_filter_identity(self, rng):
        # psi(T) = V R for upper-triangular R: columns of psi(T) and V agree
        # on the leading one after QR, and V^* psi(T) is upper triangular
        T7 = np.triu(rng.standard_normal((7, 7)), -1) + 0j
        T40 = np.triu(rng.standard_normal((40, 40))
                      + 1j * rng.standard_normal((40, 40)), -1)
        mu40 = list(rng.standard_normal(15) + 1j * rng.standard_normal(15))
        for T, shifts in [(T7, [0.5, -0.4 + 0.3j]), (T40, mu40)]:
            k = T.shape[0]
            V, _ = hessenberg_shifted_qr(T, shifts)
            psi = np.eye(k, dtype=complex)
            for mu in shifts:
                psi = psi @ (T - mu * np.eye(k))
            Qpsi, _ = np.linalg.qr(psi)
            cos = abs(np.vdot(Qpsi[:, 0], V[:, 0]))
            assert 1.0 - cos < 1e-10
            lower = np.tril(V.conj().T @ psi, -1)
            assert np.linalg.norm(lower) <= 1e-12 * np.linalg.norm(psi)

    def test_decoupled_hessenberg_stays_split(self, rng):
        # a zero subdiagonal (after a deflation or an exact shift) gives an
        # identity rotation, so both blocks stay exactly decoupled
        k = 10
        T = np.triu(rng.standard_normal((k, k))
                    + 1j * rng.standard_normal((k, k)), -1)
        T[4, 3] = 0.0
        V, Tp = hessenberg_shifted_qr(T, [0.3 - 0.1j, -0.8, 1.2j])
        assert Tp[4, 3] == 0.0
        assert np.all(V[4:, :4] == 0.0)
        assert np.linalg.norm(Tp - V.conj().T @ T @ V) < 1e-12 * np.linalg.norm(T)

    def test_exact_shifts_decouple(self, rng):
        k = 8
        T = np.triu(rng.standard_normal((k, k)), -1) + 0j
        ev = np.linalg.eigvals(T)
        shifts = list(ev[:3])
        _, Tp = hessenberg_shifted_qr(T, shifts)
        # the trailing p-by-p block splits off: the connecting subdiagonal dies
        assert abs(Tp[k - 3, k - 4]) < 1e-8 * np.linalg.norm(T)

    def test_too_many_shifts_rejected(self):
        with pytest.raises(ValueError):
            hessenberg_shifted_qr(np.eye(3, dtype=complex), [0.0, 1.0, 2.0])

    def test_subdiagonal_band_of_v(self, rng):
        k, p = 10, 3
        T = np.triu(rng.standard_normal((k, k)), -1) + 0j
        V, _ = hessenberg_shifted_qr(T, list(rng.standard_normal(p)))
        sub = np.tril(V, -(p + 1))
        assert np.max(np.abs(sub)) < 1e-12


def _triple_with_mass_condition(rng, k, cond):
    """Random complex k-by-k (M, C, K), M with singular values 1 to ``cond``."""
    def mat():
        return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    U, _ = np.linalg.qr(mat())
    V, _ = np.linalg.qr(mat())
    return U @ np.diag(np.geomspace(1.0, cond, k)) @ V.conj().T, mat(), mat()


# one condition number on each side of the monic-companion threshold
CONDITIONS = [kernels.MONIC_COND_MAX / 5, kernels.MONIC_COND_MAX * 100]


class TestProjectedQep:
    def test_scalar_roots(self):
        theta, G = solve_projected_qep([[1.0]], [[3.0]], [[2.0]])
        assert sorted(theta.real) == pytest.approx([-2.0, -1.0], abs=1e-12)
        assert G.shape == (1, 2)

    def test_residuals_random(self, rng):
        k = 5
        M = np.eye(k) + 0.1 * rng.standard_normal((k, k))
        C = rng.standard_normal((k, k))
        K = rng.standard_normal((k, k))
        theta, G = solve_projected_qep(M, C, K)
        assert theta.shape == (2 * k,) and G.shape == (k, 2 * k)
        assert np.all(np.isfinite(theta))
        for t, g in zip(theta, G.T):
            r = (t ** 2 * M + t * C + K) @ g
            assert np.linalg.norm(r) < 1e-8 * (1 + abs(t)) ** 2
            assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)

    def test_singular_mass_warns_and_flags_infinite(self, rng):
        k = 3
        M = np.zeros((k, k))
        M[0, 0] = 1.0
        C = np.eye(k)
        K = rng.standard_normal((k, k))
        with pytest.warns(RuntimeWarning):
            theta, G = solve_projected_qep(M, C, K)
        assert np.any(theta == np.inf)
        assert np.all(np.isfinite(theta) | (theta == np.inf))
        # unit columns, those of the infinite eigenvalues included
        assert np.allclose(np.linalg.norm(G, axis=0), 1.0, atol=1e-12)

    def test_matches_dense_oracle(self, rng):
        from soarqep.oracles import dense_qep_spectrum
        k = 6
        M = np.eye(k) + 0.05 * rng.standard_normal((k, k))
        C = rng.standard_normal((k, k))
        K = rng.standard_normal((k, k))
        got, _ = solve_projected_qep(M, C, K)
        want, _ = dense_qep_spectrum(M, C, K)
        rest = list(want)
        for v in got:
            j = int(np.argmin([abs(v - w) for w in rest]))
            assert abs(v - rest.pop(j)) < 1e-9

    @pytest.fixture
    def pencils(self, monkeypatch):
        """The B argument of every scipy.linalg.eig call (None: monic)."""
        eig = scipy.linalg.eig
        seen = []

        def recording(a, b=None, **kwargs):
            seen.append(b)
            return eig(a, b, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eig", recording)
        return seen

    @pytest.mark.parametrize("cond", CONDITIONS)
    def test_matches_dense_oracle_and_backward_stable(self, rng, pencils, cond):
        from soarqep.oracles import dense_qep_spectrum
        M, C, K = _triple_with_mass_condition(rng, 8, cond)
        theta, G = solve_projected_qep(M, C, K)
        assert [B is None for B in pencils] == [cond <= kernels.MONIC_COND_MAX]
        want, _ = dense_qep_spectrum(M, C, K)
        rest = list(want)
        for t in theta:
            j = int(np.argmin([abs(t - w) for w in rest]))
            assert abs(t - rest.pop(j)) < 1e-9
        norms = [np.linalg.norm(X, 2) for X in (M, C, K)]
        for t, g in zip(theta, G.T):
            r = np.linalg.norm((t ** 2 * M + t * C + K) @ g)
            scale = abs(t) ** 2 * norms[0] + abs(t) * norms[1] + norms[2]
            assert r <= 1e-12 * scale

    @pytest.mark.parametrize("cond", CONDITIONS)
    def test_values_only_same_spectrum(self, rng, cond):
        M, C, K = _triple_with_mass_condition(rng, 8, cond)
        full, _ = solve_projected_qep(M, C, K)
        bare, G = solve_projected_qep(M, C, K, vectors=False)
        assert G is None
        assert bare.shape == full.shape == (16,)
        assert np.all(np.isfinite(bare))
        rest = list(full)
        for t in bare:
            j = int(np.argmin([abs(t - w) for w in rest]))
            ref = rest.pop(j)
            assert abs(t - ref) <= 1e-12 * abs(ref)


class TestRefinedVector:
    def test_matches_direct_svd(self, rng):
        n, k = 25, 6
        W1 = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        W2 = rng.standard_normal((n, k))
        W3 = rng.standard_normal((n, k))
        theta = 0.7 - 0.3j
        z, smin = refined_vector(theta, W1, W2, W3)
        S = theta ** 2 * W1 + theta * W2 + W3
        svals = np.linalg.svd(S, compute_uv=False)
        assert smin == pytest.approx(svals[-1], rel=1e-8, abs=1e-10)
        assert np.linalg.norm(S @ z) == pytest.approx(smin, rel=1e-6, abs=1e-10)

    @pytest.mark.parametrize("n, k", [(30, 4), (10, 6)])   # n > 3k, n < 3k
    def test_gram_blocks_factor_the_gram_matrix(self, rng, n, k):
        W = [rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
             for _ in range(3)]
        R = gram_blocks(*W)
        for Ri in R:
            assert Ri.shape == (min(n, 3 * k), k)
        for i in range(3):
            for j in range(3):
                G = W[i].conj().T @ W[j]
                assert (np.linalg.norm(R[i].conj().T @ R[j] - G)
                        <= 1e-12 * np.linalg.norm(G))

    def test_degenerate_gap_matches_svd(self):
        # the two smallest singular values of S = W3 coincide
        W1 = np.zeros((4, 2))
        W2 = np.zeros((4, 2))
        W3 = np.vstack([np.eye(2), np.zeros((2, 2))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, smin = refined_vector(0.0, *gram_blocks(W1, W2, W3))
        assert smin == pytest.approx(np.linalg.svd(W3, compute_uv=False)[-1],
                                     rel=1e-14)
        assert np.linalg.norm(z) == pytest.approx(1.0, rel=1e-14)
        assert np.linalg.norm(W3 @ z) == pytest.approx(smin, rel=1e-14)


class TestQrUnitDiagonal:
    def test_full_rank_square(self, rng):
        V = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        U, R = qr_unit_diagonal(V)
        assert np.linalg.norm(U @ R - V) < 1e-12
        assert np.linalg.norm(U.conj().T @ U - np.eye(5)) < 1e-12
        assert np.all(np.abs(np.diag(R)) > 0)

    def test_dependent_column_forced_unit(self, rng):
        V = rng.standard_normal((3, 4))
        V[:, 2] = 2.0 * V[:, 0] - V[:, 1]   # dependent third column
        U, R = qr_unit_diagonal(V)
        assert np.linalg.norm(U[:, 2]) == 0.0
        assert R[2, 2] == 1.0
        assert np.linalg.norm(U @ R - V) < 1e-12
        nz = [c for c in range(4) if np.linalg.norm(U[:, c]) > 0]
        Unz = U[:, nz]
        assert np.linalg.norm(Unz.conj().T @ Unz - np.eye(3)) < 1e-12

    def test_row_rank_deficiency_raises(self, rng):
        V = rng.standard_normal((4, 3))   # 4 rows cannot fit in 3 columns
        with pytest.raises(RankDeficiencyError):
            qr_unit_diagonal(V)
