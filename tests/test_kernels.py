import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dgeqrt, zgeqrt, zlartg, zrot

import conftest
from soarqep import kernels
from soarqep.kernels import (ROW_BLOCK_MIN, ROW_BLOCKS_MAX,
                             RankDeficiencyError, conjugate_groups,
                             gram_blocks, hessenberg_shifted_qr,
                             orthogonalize_with_refinement, qr_unit_diagonal,
                             refined_vector, row_blocks, solve_projected_qep)


def _random(rng, shape, dtype):
    X = rng.standard_normal(shape)
    return X + 1j * rng.standard_normal(shape) if dtype is complex else X


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

    def test_dtype_follows_inputs(self, rng):
        # float64 when v and the basis are real; either complex makes the
        # whole call complex
        basis, _ = np.linalg.qr(rng.standard_normal((20, 4)))
        v = rng.standard_normal(20)
        for b, w, dtype in ((basis, v, float), (basis.astype(complex), v,
                                                complex),
                            (basis, v.astype(complex), complex)):
            c, r, rn = orthogonalize_with_refinement(w, b)
            assert c.dtype == r.dtype == dtype
            assert np.linalg.norm(basis @ c + r - v) < 1e-13
            assert np.linalg.norm(basis.T @ r) < 1e-13

    def test_in_place_residual_matches_out_of_place(self, rng):
        # r -= basis @ c on the call's own copy of v: the bits of
        # r = r - basis @ c, with v and the basis left as they were
        def out_of_place(v, basis):
            coeffs = np.zeros(basis.shape[1], dtype=basis.dtype)
            r = v.copy()
            prev_norm = float(np.linalg.norm(r))
            for _ in range(3):
                c = (r.conj() @ basis).conj()
                r = r - basis @ c
                coeffs += c
                rn = float(np.linalg.norm(r))
                if rn >= prev_norm / np.sqrt(2.0) or rn == 0.0:
                    break
                prev_norm = rn
            return coeffs, r, rn

        for dtype in (complex, float):
            basis, _ = np.linalg.qr(_random(rng, (50, 8), dtype))
            basis = np.asfortranarray(basis)
            # a generic v, and one nearly inside the span, which refines
            for v in (_random(rng, 50, dtype),
                      basis @ _random(rng, 8, dtype)
                      + 1e-10 * _random(rng, 50, dtype)):
                v_bytes, basis_bytes = v.tobytes(), basis.tobytes()
                c, r, rn = orthogonalize_with_refinement(v, basis)
                assert v.tobytes() == v_bytes
                assert basis.tobytes() == basis_bytes
                want = out_of_place(v, basis)
                assert c.tobytes() == want[0].tobytes()
                assert r.tobytes() == want[1].tobytes()
                assert rn == want[2]


class TestMatmulComplex:
    def test_equals_the_complex_product(self, rng):
        # a float64 A takes one real product of G's interleaved parts; a
        # complex A is the plain product
        for dtype in (float, complex):
            A = _random(rng, (12, 5), dtype)
            for shape in ((5,), (5, 3)):
                G = _random(rng, shape, complex)
                got = kernels.matmul_complex(A, G)
                assert got.shape == (12,) + shape[1:] and got.dtype == complex
                assert np.allclose(got, A.astype(complex) @ G, rtol=1e-14,
                                   atol=1e-14)


class TestConjugateGroups:
    A = 0.5 + 2.0j

    def test_real_singles_and_pairs_in_either_order(self):
        a = self.A
        values = np.array([1.0, a, a.conjugate(), -3.0, a.conjugate(), a, 0.0])
        groups, closed = conjugate_groups(values)
        assert groups == [(0,), (1, 2), (3,), (4, 5), (6,)] and closed

    def test_lone_complex_value_is_alone(self):
        a = self.A
        # the partner does not follow at once, or is missing
        assert conjugate_groups([a, 1.0, a.conjugate()]) == (
            [(0,), (1,), (2,)], False)
        assert conjugate_groups([2.0, a]) == ([(0,), (1,)], False)

    def test_partner_one_ulp_off_is_no_pair(self):
        a = self.A
        for off in (complex(np.nextafter(a.real, 1.0), -a.imag),
                    complex(a.real, -np.nextafter(a.imag, 3.0))):
            assert conjugate_groups([a, off]) == ([(0,), (1,)], False)

    def test_empty(self):
        assert conjugate_groups([]) == ([], True)


class TestShiftedQr:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hessenberg_shifted_qr(np.ones((3, 2)), [0.5])

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

    @staticmethod
    def _check_real_pairs(T, shifts):
        """V and T_plus real, V orthogonal, T_plus = V^T T V exactly
        Hessenberg, and V^T psi(T) upper triangular."""
        k = T.shape[0]
        V, Tp = hessenberg_shifted_qr(T + 0j, shifts)
        assert not V.imag.any() and not Tp.imag.any()
        V, Tp = V.real, Tp.real
        assert np.linalg.norm(V.T @ V - np.eye(k)) <= 1e-13
        assert np.linalg.norm(Tp - V.T @ T @ V) <= 1e-13 * np.linalg.norm(T)
        for i in range(2, k):
            assert np.all(Tp[i, : i - 1] == 0.0)
        # psi(T) in real arithmetic: a real factor per pair
        psi, I = np.eye(k), np.eye(k)
        for mu in shifts:
            if mu.imag == 0.0:
                psi = psi @ (T - mu.real * I)
            elif mu.imag > 0.0:
                psi = psi @ (T @ T - 2.0 * mu.real * T + abs(mu) ** 2 * I)
        lower = np.tril(V.T @ psi, -1)
        assert np.linalg.norm(lower) <= 1e-12 * np.linalg.norm(psi)

    @staticmethod
    def _paired_shifts(rng, pairs, real):
        mu = rng.standard_normal(pairs) + 1j * rng.standard_normal(pairs)
        return sorted([*mu, *mu.conj(), *real],
                      key=lambda t: (abs(t), t.real, t.imag))

    def test_conjugate_pairs_on_real_t_stay_real(self, rng):
        # 7 pairs as real double-shift sweeps and one real shift
        k = 40
        T = np.triu(rng.standard_normal((k, k)), -1)
        self._check_real_pairs(T, self._paired_shifts(rng, 7, [0.3]))

    def test_conjugate_pairs_across_zero_subdiagonal(self, rng):
        # one chase through the split would lose psi(T) = V R; a fresh bulge
        # at the top of each unreduced block keeps it, with the 1-by-1 and
        # 2-by-2 blocks of the splits at 4 and 6 and at the foot
        k = 40
        T = np.triu(rng.standard_normal((k, k)), -1)
        T[4, 3] = T[6, 5] = T[7, 6] = T[k - 1, k - 2] = 0.0
        self._check_real_pairs(T, self._paired_shifts(rng, 7, [-0.8]))

    @staticmethod
    def _complex_sweeps(T, shifts):
        """The explicit single-shift sweeps, each shift alone in complex
        arithmetic, as a loop over zlartg and zrot."""
        Tp = np.array(T, dtype=complex, order="F")
        k = Tp.shape[0]
        V = np.eye(k, dtype=complex, order="F")
        t, v = Tp.reshape(-1, order="F"), V.reshape(-1, order="F")
        for mu in shifts:
            t[:: k + 1] -= mu
            rotations = []
            for i in range(k - 1):
                c, s, Tp[i, i] = zlartg(Tp[i, i], Tp[i + 1, i])
                Tp[i + 1, i] = 0.0
                o = i + (i + 1) * k
                zrot(t, t, c, s, k - i - 1, o, k, o + 1, k, 1, 1)
                rotations.append((c, s.conjugate()))
            for i, (c, s) in enumerate(rotations):
                zrot(t, t, c, s, i + 2, i * k, 1, i * k + k, 1, 1, 1)
                zrot(v, v, c, s, k, i * k, 1, i * k + k, 1, 1, 1)
            t[:: k + 1] += mu
        return V, Tp

    def test_complex_or_unpaired_keeps_single_sweeps(self, rng):
        k = 20
        real = np.triu(rng.standard_normal((k, k)), -1) + 0j
        cplx = real + 1j * np.triu(rng.standard_normal((k, k)), -1)
        # a real T with a nonzero subdiagonal entry below the threshold
        reduced = real.copy()
        reduced[8, 7] = 0.5 * kernels.DOUBLE_SHIFT_MIN_SUBDIAG * np.abs(real).max()
        paired = self._paired_shifts(rng, 3, [0.5])
        i = next(j for j, mu in enumerate(paired) if mu.imag != 0.0)
        unpaired = paired[:i] + paired[i + 1:]    # one pair loses a member
        for T, shifts in [(cplx, paired), (real, unpaired),
                          (real, [0.4, -1.2, 0.9]), (reduced, paired)]:
            V, Tp = hessenberg_shifted_qr(T, shifts)
            V_ref, Tp_ref = self._complex_sweeps(T, shifts)
            assert np.array_equal(V, V_ref) and np.array_equal(Tp, Tp_ref)

    def test_nearly_reduced_t_keeps_the_filter(self):
        # the first restart of an underdamped chain (shift-invert at
        # sigma = -1, the solver's start vector of seed 2): ||p_j|| grows
        # to 4e16 and T with it, so its smallest subdiagonal entry is 8e-18
        # of its largest.  The real double-shift chase left V e1 at
        # |cos| = 0.04 from psi(T) e1; the complex sweeps keep it.
        T, shifts = _underdamped_chain_restart()
        sub = np.abs(np.diagonal(T, -1))
        assert sub.min() <= 1e-17 * np.abs(T).max()
        assert len(shifts) == 14 and conjugate_groups(shifts)[1]
        V, _ = hessenberg_shifted_qr(T, shifts)
        x = np.eye(T.shape[0], 1, dtype=complex)[:, 0]
        for mu in shifts:
            x = T @ x - mu * x
        cos = abs(np.vdot(V[:, 0], x)) / np.linalg.norm(x)
        assert 1.0 - cos <= 1e-8


def _underdamped_chain_restart():
    """(T, shifts) of the first restart of ``gen_mass_spring(200,
    tau=1.0)``, shift-invert at sigma = -1, m=6, k=20, from the solver's
    start vector of seed 2, as ``driver.solve`` forms them."""
    from soarqep.extraction import extract_ritz, project
    from soarqep.msoar import init_state, run_msoar
    from soarqep.operator import build_operator
    from soarqep.problems import gen_mass_spring
    from soarqep.restart import select_shifts

    op = build_operator(gen_mass_spring(200, tau=1.0), mode="shift-invert",
                        sigma=-1.0)
    u1 = np.random.default_rng(2).random(op.n)
    state = run_msoar(init_state(op, u1, u1), op, 20, 1e-10)
    proj = project(state, op)
    with pytest.warns(RuntimeWarning, match="numerically dependent"):
        shifts = select_shifts(proj, extract_ritz(proj, op, 6).wanted(), 14)
    return state.T.copy(), shifts.shifts


def _triple_with_mass_condition(rng, k, cond, real=False):
    """Random k-by-k (M, C, K), M with singular values 1 to ``cond``, all
    complex arrays; with ``real``, their imaginary parts are exact zeros, as
    in a projection of a real problem."""
    def mat():
        X = rng.standard_normal((k, k)) + 0j
        if not real:
            X += 1j * rng.standard_normal((k, k))
        return X
    U, _ = np.linalg.qr(mat())
    V, _ = np.linalg.qr(mat())
    return U @ np.diag(np.geomspace(1.0, cond, k)) @ V.conj().T, mat(), mat()


def _assert_exact_conjugate_pairs(theta, G=None):
    """There is a nonreal theta[j], and every one has a partner equal to
    conj(theta[j]) bit for bit, with column conj(G[:, j]); real eigenvalues
    have real columns."""
    assert np.any(theta.imag != 0.0)
    partners = {}
    for j, t in enumerate(theta.tolist()):
        partners.setdefault(t, []).append(j)
    for j, t in enumerate(theta.tolist()):
        if t.imag == 0.0:
            assert G is None or not G[:, j].imag.any()
            continue
        mates = partners.get(t.conjugate(), [])
        assert len(mates) == len(partners[t])
        if G is not None:
            assert any(np.array_equal(G[:, i], G[:, j].conj()) for i in mates)


def _eig_reference(M_k, C_k, K_k, vectors=True):
    """The projected QEP solved the way ``solve_projected_qep`` did before
    it called dgeev itself: the triple promoted to complex (a real one
    taken back as .real views), a row-major companion, ``scipy.linalg.eig``
    and G from the needed half of its 2k-by-2k complex eigenvectors."""
    M_k, C_k, K_k = (np.asarray(X, dtype=complex) for X in (M_k, C_k, K_k))
    if not (M_k.imag.any() or C_k.imag.any() or K_k.imag.any()):
        M_k, C_k, K_k = M_k.real, C_k.real, K_k.real
    k = M_k.shape[0]
    cond = np.linalg.cond(M_k)
    A = np.zeros((2 * k, 2 * k), dtype=M_k.dtype)
    A[k:, :k] = np.eye(k)
    B = None
    if cond <= kernels.MONIC_COND_MAX:
        A[:k] = -scipy.linalg.solve(M_k, np.hstack((C_k, K_k)))
    else:
        A[:k, :k], A[:k, k:] = -C_k, -K_k
        B = np.eye(2 * k, dtype=M_k.dtype)
        B[:k, :k] = M_k
    out = scipy.linalg.eig(A, B, right=vectors, overwrite_a=True,
                           overwrite_b=True)
    w, vr = out if vectors else (out, None)
    if B is not None and B.dtype == float:
        first = np.flatnonzero(w.imag > 0)
        w[first + 1] = w[first].conj()
    theta = np.where(np.isfinite(w), w, np.inf)
    if not vectors:
        return theta, None
    G = np.asfortranarray(vr[:k], dtype=complex)
    np.copyto(G, vr[k:], where=np.abs(theta) < 1.0)
    for j in range(2 * k):
        G[:, j] /= np.linalg.norm(G[:, j])
    return theta, G


def _thirds(W1, W2, W3):
    """(R1, R2, R3), the column blocks of the Gram triangle of
    [W1 W2 W3]."""
    return np.hsplit(gram_blocks(np.hstack((W1, W2, W3))), 3)


def _from_one_block_qr(T, A):
    """Relative distance of the folded triangle T from the one-block QR
    triangle of the full-rank A with at least as many rows as columns, up to
    the signs of its rows: a full-rank triangle is unique up to those, and
    the diagonal of either QR is real."""
    one = gram_blocks(np.asfortranarray(A))
    signs = np.sign(np.diagonal(T).real * np.diagonal(one).real)
    return np.linalg.norm(T - signs[:, None] * one) / np.linalg.norm(one)


# one condition number on each side of the monic-companion threshold
CONDITIONS = [kernels.MONIC_COND_MAX / 5, kernels.MONIC_COND_MAX * 100]
# (cond, real) for each condition, with a complex and with a real triple
TRIPLES = ([pytest.param(c, False, id=str(c)) for c in CONDITIONS]
           + [pytest.param(c, True, id="%s-real" % c) for c in CONDITIONS])


@pytest.fixture
def pencils(monkeypatch):
    """The dtypes (of A, of B) of every eigensolver call: scipy.linalg.eig,
    LAPACK dgeev on a real monic companion, or LAPACK dggev or zggev on an
    eigenvalue-only pencil (its workspace query not counted); B is None on
    the monic companion."""
    eig, dgeev = scipy.linalg.eig, kernels.dgeev
    seen = []

    def recording(a, b=None, **kwargs):
        seen.append((a.dtype.name, None if b is None else b.dtype.name))
        return eig(a, b, **kwargs)

    def recording_dgeev(a, **kwargs):
        seen.append((a.dtype.name, None))
        return dgeev(a, **kwargs)

    def recording_ggev(ggev):
        def call(a, b, **kwargs):
            if kwargs.get("lwork") != -1:
                seen.append((a.dtype.name, b.dtype.name))
            return ggev(a, b, **kwargs)
        return call

    monkeypatch.setattr(scipy.linalg, "eig", recording)
    monkeypatch.setattr(kernels, "dgeev", recording_dgeev)
    for name in ("dggev", "zggev"):
        monkeypatch.setattr(kernels, name, recording_ggev(getattr(kernels, name)))
    return seen


class TestProjectedQep:
    def test_eigensolver_failure_named(self, monkeypatch):
        # scipy.linalg.eig raises; the direct dgeev call of a real monic
        # companion reports non-convergence through info > 0
        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("did not converge")

        def unconverged(a, **kwargs):
            n = a.shape[0]
            return np.zeros(n), np.zeros(n), None, np.eye(n), 1

        def unconverged_qz(a, b, **kwargs):
            # (alphar, alphai, or alpha,) beta, vl, vr, work, info
            n = a.shape[0]
            alpha = (np.zeros(n),) * (2 if a.dtype == float else 1)
            return alpha + (np.ones(n), None, None, np.ones(1), 1)

        monkeypatch.setattr(scipy.linalg, "eig", fail)
        monkeypatch.setattr(kernels, "dgeev", unconverged)
        monkeypatch.setattr(kernels, "dggev", unconverged_qz)
        monkeypatch.setattr(kernels, "zggev", unconverged_qz)
        for M in (np.eye(2), 1j * np.eye(2), np.diag([1.0, 1e-3]),
                  1j * np.diag([1.0, 1e-3])):
            for vectors in (True, False):
                with pytest.raises(kernels.SingularPencilError,
                                   match="companion linearization"):
                    solve_projected_qep(M, np.eye(2), np.eye(2),
                                        vectors=vectors)

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

    def test_singular_mass_warns_and_flags_infinite(self, rng, pencils):
        k = 3
        M = np.zeros((k, k))
        M[0, 0] = 1.0
        C = np.eye(k)
        K = rng.standard_normal((k, k))
        with pytest.warns(RuntimeWarning):
            theta, G = solve_projected_qep(M, C, K)
        # a real triple: real QZ (dggev)
        assert pencils == [("float64", "float64")]
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

    @pytest.mark.parametrize("cond, real", TRIPLES)
    def test_matches_dense_oracle_and_backward_stable(self, rng, pencils, cond,
                                                      real):
        from soarqep.oracles import dense_qep_spectrum
        M, C, K = _triple_with_mass_condition(rng, 8, cond, real)
        theta, G = solve_projected_qep(M, C, K)
        assert theta.dtype == G.dtype == complex and G.flags.f_contiguous
        dtype = "float64" if real else "complex128"
        monic = cond <= kernels.MONIC_COND_MAX
        assert pencils == [(dtype, None if monic else dtype)]
        if real:
            _assert_exact_conjugate_pairs(theta, G)
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

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("cond, real", TRIPLES)
    def test_bitwise_as_scipy_eig(self, rng, pencils, cond, real, vectors):
        # k = 70 is a companion of order 140, where LAPACK's blocked
        # Hessenberg and QR code runs; a real triple keeps float64 (the
        # monic one goes to dgeev directly) and a complex one goes through
        # scipy.linalg.eig, and either gives theta and G bit for bit as
        # before
        for k in (8, 70):
            M, C, K = _triple_with_mass_condition(rng, k, cond, real)
            theta, G = solve_projected_qep(M, C, K, vectors=vectors)
            want, want_G = _eig_reference(M, C, K, vectors)
            if real:
                # real eigenvalues among the conjugate pairs
                assert np.any(theta.imag == 0.0) and np.any(theta.imag != 0.0)
            assert theta.tobytes() == want.tobytes()
            if vectors:
                assert G.flags.f_contiguous and G.tobytes() == want_G.tobytes()
            else:
                assert G is None
        dtype = "float64" if real else "complex128"
        monic = cond <= kernels.MONIC_COND_MAX
        assert pencils[0] == (dtype, None if monic else dtype)

    def test_real_monic_holds_companion_eigenvectors_and_workspace(self, rng):
        # string300's order, k = 141: a real monic call holds the companion,
        # dgeev's real eigenvectors and its workspace (0.46 companions), then
        # those eigenvectors and G: 2.50 companions of (2k)^2 float64 with
        # vectors, 1.61 without.  Promoting the triple to complex, copying
        # the row-major companion and building scipy's complex eigenvectors
        # took 5.55 and 3.64.
        k = 141
        M, C, K = (X.real for X in _triple_with_mass_condition(rng, k, 2.0,
                                                                True))
        companion = (2 * k) ** 2 * 8
        assert (conftest.peak(lambda: solve_projected_qep(M, C, K))[1]
                <= 2.6 * companion)
        assert (conftest.peak(lambda: solve_projected_qep(M, C, K,
                                                          vectors=False))[1]
                <= 1.7 * companion)

    @pytest.mark.parametrize("k, real", [(41, False), (70, True)])
    def test_qz_values_only_holds_no_vectors(self, rng, pencils, k, real):
        # ms5k's order, k = 41, and a real pencil: the eigenvalue-only QZ
        # call holds the pencil (A, B) and ggev's workspace, 1.26 and 1.19
        # pencils, with scipy.linalg.eig's values bit for bit; through
        # scipy, whose workspace query copies A and B and asks for both
        # eigenvector arrays, it held 3.12 and 3.02
        M, C, K = _triple_with_mass_condition(rng, k, 1e3, real)
        pencil = 2 * (2 * k) ** 2 * (8 if real else 16)
        (theta, _), peak = conftest.peak(lambda: solve_projected_qep(
            M, C, K, vectors=False))
        assert pencils == [("float64",) * 2 if real else ("complex128",) * 2]
        assert peak <= 1.35 * pencil
        assert theta.tobytes() == _eig_reference(M, C, K, False)[0].tobytes()

    @pytest.mark.parametrize("cond, real", TRIPLES)
    def test_values_only_same_spectrum(self, rng, pencils, cond, real):
        M, C, K = _triple_with_mass_condition(rng, 8, cond, real)
        full, _ = solve_projected_qep(M, C, K)
        bare, G = solve_projected_qep(M, C, K, vectors=False)
        assert G is None
        assert bare.shape == full.shape == (16,)
        assert np.all(np.isfinite(bare))
        assert {a for a, _ in pencils} == {"float64" if real else "complex128"}
        if real:
            _assert_exact_conjugate_pairs(bare)
        rest = list(full)
        for t in bare:
            j = int(np.argmin([abs(t - w) for w in rest]))
            ref = rest.pop(j)
            assert abs(t - ref) <= 1e-12 * abs(ref)


class TestNullVector:
    @pytest.mark.parametrize("case", ["zero", "first-overflows", "tiny"])
    def test_non_finite_iterate_stops_without_warning(self, case):
        # P(1) = 0: no pivot is raised (eps ||P||_1 = 0), so the second
        # solve divides by zero, and the first iterate, the start itself,
        # is kept with its zero residual.  P(1) = 1e-300 [[0, 1], [0, 0]]:
        # both pivots are raised to the smallest normal number and the
        # first iterate overflows.  P(1) = 1e-200 I: the first iterate is
        # 1e200 ones, whose norm overflows.  Either way g is the unit start
        # and the residual inf, which ``extraction`` refuses
        Z = np.zeros((2, 2))
        K = {"zero": Z, "first-overflows": np.array([[0.0, 1e-300],
                                                     [0.0, 0.0]]),
             "tiny": 1e-200 * np.eye(2)}[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, res, scale = kernels.null_vector(Z, Z, K, 1.0 + 0j)
        start = np.full(2, 1 / np.sqrt(2), dtype=complex)
        assert g.tobytes() == start.tobytes()
        assert (res, scale) == ((0.0, 0.0) if case == "zero"
                                else (np.inf, float(np.abs(K).max())))


def _unit(rng, k):
    g = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return g / np.linalg.norm(g)


def _refined_problem(rng, n, theta, svals):
    """Random tall W1, W2, W3 with theta^2 W1 + theta W2 + W3 = S, where S
    has the singular values ``svals``; returns (W1, W2, W3, S)."""
    k = len(svals)
    U = np.linalg.qr(rng.standard_normal((n, k))
                     + 1j * rng.standard_normal((n, k)))[0]
    V = np.linalg.qr(rng.standard_normal((k, k))
                     + 1j * rng.standard_normal((k, k)))[0]
    S = U @ np.diag(svals) @ V.conj().T
    W1, W2 = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
              for _ in range(2))
    return W1, W2, S - theta ** 2 * W1 - theta * W2, S


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices np.linalg.svd is called on."""
    svd = np.linalg.svd
    calls = []

    def recording(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


GAPPED = [0.01, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0]
# sigma_1 / sigma_2 = 1 - 1e-3: inverse iteration would need thousands of
# steps, so the step cap hands over to the SVD
CLOSE = [1.0, 1.001, 2.0, 3.0, 4.0, 5.0]


def _dense_refined(theta, R1, R2, R3, start):
    """``refined_vector`` as it was before it formed S in column groups:
    S whole, and R_S the first k rows of the dense
    ``scipy.linalg.qr(S, mode="r")``."""
    t = complex(theta)
    S = t ** 2 * R1 + t * R2 + R3
    k = S.shape[1]
    R = scipy.linalg.qr(S, overwrite_a=True, mode="r", check_finite=False)[0][:k]
    d = np.abs(np.diagonal(R))
    if d.min() > kernels.REFINED_TINY_PIVOT * d.max():
        z = start / np.linalg.norm(start)
        res = float(np.linalg.norm(R @ z))
        for _ in range(kernels.REFINED_MAX_STEPS):
            y = scipy.linalg.solve_triangular(R, z, trans="C",
                                              check_finite=False)
            y = scipy.linalg.solve_triangular(R, y, check_finite=False)
            y /= np.linalg.norm(y)
            r = float(np.linalg.norm(R @ y))
            if r > res:
                return z, res
            if res - r <= kernels.REFINED_RTOL * res:
                return y, r
            z, res = y, r
    z = np.linalg.svd(R)[2][-1].conj()
    return z, float(np.linalg.norm(R @ z))


class TestRefinedVector:
    # (n, k): S of 3k = 180 rows in groups of 22 columns; 100 rows, fewer
    # than 3k = 123; a 9-by-3 S
    @pytest.mark.parametrize("n, k", [(400, 60), (100, 41), (20, 3)])
    def test_bitwise_as_dense_qr(self, rng, monkeypatch, n, k):
        for dtype in (float, complex):
            A = np.hstack([_random(rng, (n, k), dtype) for _ in range(3)])
            R = np.hsplit(gram_blocks(np.asfortranarray(A)), 3)
            for theta in (0.3 + 0.2j, -1.5, 2.0 - 0.7j):
                g = _unit(rng, k)
                want = _dense_refined(theta, *R, g)
                for entries, bands in ((kernels.REFINED_GROUP_ENTRIES,
                                        kernels.REFINED_TRIANGLE_BANDS),
                                       (1, 1), (1, k)):
                    # one-column groups, and the triangle in one band or in
                    # one band per row
                    monkeypatch.setattr(kernels, "REFINED_GROUP_ENTRIES",
                                        entries)
                    monkeypatch.setattr(kernels, "REFINED_TRIANGLE_BANDS",
                                        bands)
                    z, smin = refined_vector(theta, *R, g)
                    assert z.tobytes() == want[0].tobytes()
                    assert smin == want[1]
        # the SVD fallback reads the same triangle
        monkeypatch.setattr(kernels, "REFINED_MAX_STEPS", 0)
        z, smin = refined_vector(theta, *R, g)
        want = _dense_refined(theta, *R, g)
        assert z.tobytes() == want[0].tobytes() and smin == want[1]

    def test_holds_one_array_of_s_size(self, rng):
        # string300's R blocks: 300 rows of a 423-column triangle, k = 141.
        # S is 300 x 141 complex; the call holds it and one group of its
        # columns' temporaries, then it, zgeqrf's workspace and the row
        # bands of its k x k triangle: 1.44 S.  Building the triangle while
        # S was alive took 1.71, forming S whole and a full-height triangle
        # 3.27.
        n, k = 300, 141
        R = np.hsplit(gram_blocks(np.asfortranarray(
            rng.standard_normal((n, 3 * k)))), 3)
        g = _unit(rng, k)
        S_bytes = n * k * 16
        assert (conftest.peak(lambda: refined_vector(0.3 + 0.4j, *R, g))[1]
                <= 1.5 * S_bytes)

    def test_matches_direct_svd(self, rng):
        n, k = 25, 6
        W1 = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        W2 = rng.standard_normal((n, k))
        W3 = rng.standard_normal((n, k))
        theta = 0.7 - 0.3j
        z, smin = refined_vector(theta, W1, W2, W3, _unit(rng, k))
        S = theta ** 2 * W1 + theta * W2 + W3
        svals = np.linalg.svd(S, compute_uv=False)
        assert smin == pytest.approx(svals[-1], rel=1e-8, abs=1e-10)
        assert np.linalg.norm(S @ z) == pytest.approx(smin, rel=1e-6, abs=1e-10)

    @pytest.mark.parametrize("start", ["random", "largest"])
    def test_never_worse_than_start(self, rng, svd_calls, start):
        theta = -0.4 + 1.1j
        W1, W2, W3, S = _refined_problem(rng, 40, theta, GAPPED)
        g = _unit(rng, len(GAPPED))
        if start == "largest":
            # the dominant right singular vector, nudged off it
            g = scipy.linalg.svd(S)[2][0].conj() + 1e-3 * g
        R = _thirds(W1, W2, W3)
        z, smin = refined_vector(theta, *R, g)
        assert svd_calls == []      # inverse iteration alone got there
        assert np.linalg.norm(S @ z) <= np.linalg.norm(S @ g) / np.linalg.norm(g)
        assert smin == pytest.approx(GAPPED[0], rel=1e-8)

    @pytest.mark.parametrize("svals", [GAPPED, CLOSE], ids=["gapped", "close"])
    def test_sigma_min_is_residual_of_returned_vector(self, rng, svals):
        theta = 2.0 + 0.5j
        W1, W2, W3, _ = _refined_problem(rng, 60, theta, svals)
        z, smin = refined_vector(theta, *_thirds(W1, W2, W3),
                                 _unit(rng, len(svals)))
        S = theta ** 2 * W1 + theta * W2 + W3
        assert np.linalg.norm(z) == pytest.approx(1.0, rel=1e-14)
        assert smin == pytest.approx(np.linalg.norm(S @ z), rel=1e-12)

    def test_singular_triangle_falls_back_without_warnings(self, rng):
        n, k = 20, 5
        W1, W2, W3 = (rng.standard_normal((n, k)) for _ in range(3))
        W3[:, 2] = 0.0          # S = W3 at theta = 0: R_S[2, 2] == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, smin = refined_vector(0.0, *_thirds(W1, W2, W3),
                                     _unit(rng, k))
        assert smin <= 1e-14 * np.linalg.norm(W3)
        assert np.linalg.norm(z) == pytest.approx(1.0, rel=1e-14)
        assert np.linalg.norm(W3 @ z) <= 1e-14 * np.linalg.norm(W3)

    def test_close_smallest_pair_falls_back_to_svd(self, rng, svd_calls):
        theta = 0.3 - 0.2j
        W1, W2, W3, S = _refined_problem(rng, 20, theta, CLOSE)
        z, smin = refined_vector(theta, *_thirds(W1, W2, W3),
                                 _unit(rng, len(CLOSE)))
        assert svd_calls == [(len(CLOSE), len(CLOSE))]
        assert smin == pytest.approx(CLOSE[0], rel=1e-8)
        assert np.linalg.norm(S @ z) == pytest.approx(smin, rel=1e-8)

    # n > 3k, n < 3k; k = 41 spans four QR blocks of 32 columns
    @pytest.mark.parametrize("n, k", [(30, 4), (10, 6), (2000, 41), (100, 41)])
    def test_gram_blocks_factor_the_gram_matrix(self, rng, n, k):
        for dtype in (complex, float):
            W = [_random(rng, (n, k), dtype) for _ in range(3)]
            A = np.asfortranarray(np.hstack(W))
            T = gram_blocks(A)
            # factored in place (zgeqrt or dgeqrt): A now holds the
            # triangle above its reflectors
            assert np.array_equal(np.triu(A[:min(n, 3 * k)]), T)
            R = np.hsplit(T, 3)
            for Ri in R:
                assert Ri.shape == (min(n, 3 * k), k) and Ri.dtype == dtype
            # the rows of R1 from k on and of R2 from 2k on are exact zeros
            assert not np.any(R[0][k:]) and not np.any(R[1][2 * k:])
            for i in range(3):
                for j in range(3):
                    G = W[i].conj().T @ W[j]
                    assert (np.linalg.norm(R[i].conj().T @ R[j] - G)
                            <= 1e-12 * np.linalg.norm(G))

    # 2000 rows in blocks of 500; 100 rows in blocks of 30, each shorter
    # than 3k = 123
    @pytest.mark.parametrize("n, k, rows", [(2000, 41, 500), (100, 41, 30),
                                            (31, 4, 7)])
    def test_gram_blocks_fold_row_blocks(self, rng, n, k, rows):
        for dtype in (complex, float):
            A = np.hstack([_random(rng, (n, k), dtype) for _ in range(3)])
            triangle = np.zeros((3 * k, 3 * k), dtype=dtype, order="F")
            for r in range(0, n, rows):
                T = gram_blocks(np.asfortranarray(A[r:r + rows]), triangle)
            assert T is triangle
            assert T.shape == (3 * k, 3 * k) and T.dtype == dtype
            assert not np.any(np.tril(T, -1))
            G = A.conj().T @ A
            assert (np.linalg.norm(T.conj().T @ T - G)
                    <= 1e-13 * np.linalg.norm(G))
            if n >= 3 * k:
                assert _from_one_block_qr(T, A) <= 1e-13

    def test_gram_blocks_fold_sixteen_blocks_in_place(self, rng):
        # 16 row blocks of 125 rows, as the projection streams them at
        # n = 2000: each tpqrt, the first included, overwrites the caller's
        # triangle.  What a fold allocates is tpqrt's T factor and
        # workspace, 16 rows each for reflector blocks of 16 columns,
        # 32 / 3k = 0.26 of the triangle at 3k = 123 (measured 0.266
        # complex, 0.269 float64); blocks of 32 columns held 0.53, a new
        # zero-padded triangle and an hstack per fold 3.0.
        n, k, rows = 2000, 41, 125
        for dtype in (complex, float):
            A = np.hstack([_random(rng, (n, k), dtype) for _ in range(3)])
            blocks = [np.asfortranarray(A[r:r + rows])
                      for r in range(0, n, rows)]
            assert len(blocks) == 16
            triangle = np.zeros((3 * k, 3 * k), dtype=dtype, order="F")

            def fold():
                for block in blocks:
                    T = gram_blocks(block, triangle)
                return T

            T, peak = conftest.peak(fold)
            assert peak <= 0.3 * triangle.nbytes
            assert T is triangle
            assert not np.any(np.tril(T, -1))
            G = A.conj().T @ A
            assert (np.linalg.norm(T.conj().T @ T - G)
                    <= 1e-13 * np.linalg.norm(G))

    # n >= 3k and n < 3k
    @pytest.mark.parametrize("n, k", [(400, 41), (100, 41)])
    def test_gram_blocks_one_block_is_geqrt_at_width_32(self, rng, n, k):
        # the one-block path's bits: LAPACK geqrt in reflector blocks of 32
        # columns, then the triangle of min(n, 3k) rows, as np.triu gives it
        for dtype, geqrt in ((complex, zgeqrt), (float, dgeqrt)):
            A = np.asfortranarray(
                np.hstack([_random(rng, (n, k), dtype) for _ in range(3)]))
            want, _, _ = geqrt(32, A.copy(order="F"))
            want = np.triu(want[:min(n, 3 * k)])
            R = gram_blocks(A)
            assert R.dtype == dtype and R.shape == want.shape
            assert R.tobytes() == want.tobytes()

    def test_gram_blocks_first_fold_into_one_square_triangle(self, rng):
        # three row blocks of 300 rows: the first goes through tpqrt from a
        # zeroed column-major 3k-by-3k triangle like the others, so the run
        # holds that triangle plus tpqrt's T factor and workspace, 1.53
        # triangles; a row-major first triangle copied by the first fold
        # held two, 2.53.  R is the one-block QR's up to the signs of its
        # rows.
        n, k, rows = 900, 41, 300
        for dtype in (complex, float):
            A = np.hstack([_random(rng, (n, k), dtype) for _ in range(3)])
            blocks = [np.asfortranarray(A[r:r + rows])
                      for r in range(0, n, rows)]

            def fold():
                triangle = np.zeros((3 * k, 3 * k), dtype=dtype, order="F")
                for block in blocks:
                    R = gram_blocks(block, triangle)
                return triangle, R

            (triangle, R), peak = conftest.peak(fold)
            assert R is triangle
            assert peak <= 1.6 * triangle.nbytes
            assert _from_one_block_qr(R, A) <= 1e-13

    def test_degenerate_gap_matches_svd(self):
        # the two smallest singular values of S = W3 coincide
        W1 = np.zeros((4, 2))
        W2 = np.zeros((4, 2))
        W3 = np.vstack([np.eye(2), np.zeros((2, 2))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, smin = refined_vector(0.0, *_thirds(W1, W2, W3),
                                     np.array([0.6, 0.8j]))
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

    def test_dtype_follows_input(self, rng):
        V = rng.standard_normal((3, 5))
        for X, dtype in ((V, float), (V.astype(complex), complex)):
            U, R = qr_unit_diagonal(X)
            assert U.dtype == R.dtype == dtype
            assert np.linalg.norm(U @ R - V) < 1e-12


class TestRowBlocks:
    @pytest.mark.parametrize("n", [1, 1024, 1025, 20000, 16 * 1024 + 1])
    def test_row_blocks_cover_rows(self, n):
        blocks = row_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert len(blocks) <= ROW_BLOCKS_MAX
        assert all(b.stop - b.start >= ROW_BLOCK_MIN for b in blocks[:-1])
        # up to 4 ROW_BLOCK_MIN rows, the arithmetic is the unblocked one's
        assert (len(blocks) == 1) == (n <= 4 * ROW_BLOCK_MIN)

    @pytest.mark.parametrize("n, count, rows", [(1025, 5, 256),
                                                (5000, 16, 313),
                                                (20000, 16, 1250)])
    def test_row_block_counts(self, n, count, rows):
        blocks = row_blocks(n)
        assert len(blocks) == count
        assert {b.stop - b.start for b in blocks[:-1]} <= {rows}
        assert 0 < blocks[-1].stop - blocks[-1].start <= rows
