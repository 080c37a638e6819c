import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import csr_matvec

import conftest
from conftest import breakdown_starts, complex_start, random_qep
from soarqep import extraction, kernels
from soarqep.driver import SolverConfig, solve
from soarqep.extraction import (_project_blocks, extract_refined,
                                extract_ritz, project, residual_bound)
from soarqep.kernels import gram_blocks
from soarqep.msoar import extraction_basis, init_state, run_msoar
from soarqep.operator import QepProblem, build_operator
from soarqep.problems import gen_mass_spring, gen_string_damping
from soarqep.restart import contract, select_shifts


def _run(rng, prob, k, mode="direct", sigma=None, u1=None, u2=None,
         tol=1e-12):
    op = build_operator(prob, mode=mode, sigma=sigma)
    u1 = u1 if u1 is not None else rng.standard_normal(prob.n)
    u2 = u2 if u2 is not None else rng.standard_normal(prob.n)
    st = run_msoar(init_state(op, u1, u2), op, k, tol)
    return op, st


def _arrow(n):
    """gen_mass_spring(n) with a full first column of C, so that the
    shifted M and C are not symmetric."""
    prob = gen_mass_spring(n)
    C = prob.C.tolil()
    C[:, 0] = 1.0
    return QepProblem.from_matrices(prob.M, C, prob.K)


def _deflating_starts(op, rng):
    """Starts with A u1 + B u2 = 0.5 u1 for the operator's monic pair, so
    step 1 deflates: X3 u2 = -(0.5 X1 + X2) u1.  A decomposition with a
    zero Q column is refused by ``extraction._relation_holds``."""
    u1 = rng.standard_normal(op.n)
    rhs = -(0.5 * (op.work_M @ u1) + op.work_C @ u1)
    u2 = spla.spsolve(op.work_K.tocsc(), rhs)
    return u1, (u2.real if op.real_work is not None else u2)


def _sliced_projection(Qt, op, real, chunk_entries, state=None):
    """(M_k, C_k, K_k, R) by the streamed formula that slices the working
    matrices, the reference the CSR kernel is held to bit for bit: each row
    block's products are one slice of each matrix, over the block's rows
    and the span of columns they touch, times row-major copies of at most
    ``chunk_entries`` entries of those rows of the basis (and of P); the
    triple and the fold are ``project``'s.  With the ``state`` of Qt, the
    products are those of ``project``'s relation path, Y = [X1 Q_tilde,
    X3 P_{k+1}, X2 Q_tilde[:, k:], X3 Q_tilde[:, k:]], and the triple and R
    are derived from them as ``project`` derives them."""
    n, kt = Qt.shape
    work = op.real_work if real else (op.work_M, op.work_C, op.work_K)
    lo, hi = np.full(n, n), np.full(n, -1)
    for X in work:
        for j in range(n):
            rows = X.indices[X.indptr[j]:X.indptr[j + 1]]
            if rows.size:
                lo[j], hi[j] = min(lo[j], rows.min()), max(hi[j], rows.max())
    if state is None:
        plan = [(0, Qt), (1, Qt), (2, Qt)]
    else:
        k = state.k
        plan = [(0, Qt), (2, state.P), (1, Qt[:, k:]), (2, Qt[:, k:])]
    width = sum(V.shape[1] for _, V in plan)
    parts = ([(i * kt, (i + 1) * kt) for i in range(3)] if state is None
             else [(0, width)])
    dtype = float if real else complex
    triangle = np.zeros((width, width), dtype=dtype, order="F")
    triple = [0] * len(parts)
    for rows in kernels.row_blocks(n):
        touched = np.flatnonzero((lo < rows.stop) & (hi >= rows.start))
        cols = slice(touched[0], touched[-1] + 1)
        W = np.empty((rows.stop - rows.start, width), dtype=dtype, order="F")
        mats = [X[rows, cols] for X in work]
        chunk = max(1, chunk_entries // (cols.stop - cols.start))
        at = 0
        for i, V in plan:
            for j in range(0, V.shape[1], chunk):
                part = V[cols, j:j + chunk]
                V_chunk = np.ascontiguousarray(part.real if real else part)
                W[:, at:at + V_chunk.shape[1]] = mats[i] @ V_chunk
                at += V_chunk.shape[1]
        Q_rows = np.asfortranarray(Qt[rows].real) if real else Qt[rows]
        for i, (a, b) in enumerate(parts):
            Xk = np.conj(Q_rows.T @ np.conj(W[:, a:b]))
            triple[i] = Xk if rows.start == 0 else triple[i] + Xk
        gram_blocks(W, triangle)
    if state is None:
        R = (triangle[:, :kt], triangle[:, kt:2 * kt], triangle[:, 2 * kt:])
    else:
        triple = extraction._through_relation(triple[0], state, kt)
        R = extraction._through_relation(triangle, state, kt)
    return (*triple, np.hstack(R))


def _relation_cycles(config, n):
    """(report, ``relation`` of each cycle) of a solve of
    ``gen_mass_spring(n)``."""
    report = solve(gen_mass_spring(n), config)
    return report, [c.relation for c in report.cycles]


class TestProject:
    def test_projection_matches_direct(self, rng):
        prob = random_qep(rng, 25)
        op, st = _run(rng, prob, 6)
        proj = project(st, op)
        Qt = proj.Q_tilde
        assert np.allclose(proj.M_k, Qt.conj().T @ prob.M.toarray() @ Qt,
                           atol=1e-12)
        assert np.allclose(proj.K_k, Qt.conj().T @ prob.K.toarray() @ Qt,
                           atol=1e-12)

    def test_basis_layout_changes_projection_only_by_rounding(self, rng):
        # project runs the sparse products on row-major copies of a few
        # basis columns at a time and the triple on the column-major basis
        prob = random_qep(rng, 40)
        op, st = _run(rng, prob, 8, mode="shift-invert", sigma=0.3 + 0.2j)
        proj = project(st, op)
        Q = extraction_basis(st)
        work = (op.work_M, op.work_C, op.work_K)
        got = (proj.W1, proj.W2, proj.W3, proj.M_k, proj.C_k, proj.K_k)

        def close(a, b):
            return np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)

        for Qx in (np.asfortranarray(Q), np.ascontiguousarray(Q)):
            W = [A @ Qx for A in work]
            want = W + [Qx.conj().T @ Wi for Wi in W]
            assert all(close(g, w) for g, w in zip(got, want))
        dense = [A.toarray() @ Q for A in work]
        dense += [Q.conj().T @ Wi for Wi in dense]
        assert all(close(g, w) for g, w in zip(got, dense))

    def test_chunked_projection_matches_unchunked_formula(self, rng,
                                                          monkeypatch):
        # step 1 deflates, so ktilde = k + 1 = 9 and the projection forms
        # [W1 W2 W3] itself, each in chunks of 4, 4 and 1 columns
        monkeypatch.setattr(extraction, "PROJECT_CHUNK_ENTRIES", 4 * 40 + 3)
        prob = random_qep(rng, 40, complex_data=True)
        op = build_operator(prob, mode="shift-invert", sigma=0.3 + 0.2j)
        u1, u2 = _deflating_starts(op, rng)
        op, st = _run(rng, prob, 8, mode="shift-invert", sigma=0.3 + 0.2j,
                      u1=u1, u2=u2)
        proj = project(st, op)
        assert not proj.relation
        Qt = proj.Q_tilde
        assert Qt.shape[1] == 9
        W = [X @ np.ascontiguousarray(Qt)
             for X in (op.work_M, op.work_C, op.work_K)]
        for Xk, Wi in zip((proj.M_k, proj.C_k, proj.K_k), W):
            assert np.array_equal(Xk, np.conj(Qt.T @ np.conj(Wi)))
        want = gram_blocks(np.asfortranarray(np.hstack(W)))
        assert np.array_equal(np.hstack(proj.blocks), want)

    @pytest.mark.parametrize("problem", ["arrow", "tridiagonal"])
    def test_row_blocks_match_unblocked_formula(self, rng, monkeypatch,
                                                problem):
        # blocks of 7 rows, the last one shorter; the first block has fewer
        # rows than [W1 W2 W3] has columns.  A full first column of C makes
        # the shifted M and C unsymmetric, so they stream from CSR copies.
        # A real shift streams the same blocks in real arithmetic.  Step 1
        # deflates, so the projection forms [W1 W2 W3] itself, not the
        # columns of the MSOAR relation (TestRelation).
        monkeypatch.setattr(kernels, "ROW_BLOCK_MIN", 7)
        n = 47
        prob = _arrow(n) if problem == "arrow" else gen_mass_spring(n)

        def close(a, b):
            return np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)

        for sigma in (0.3 + 0.2j, 0.3):
            op = build_operator(prob, mode="shift-invert", sigma=sigma)
            u1, u2 = _deflating_starts(op, rng)
            op, st = _run(rng, prob, 8, mode="shift-invert", sigma=sigma,
                          u1=u1, u2=u2)
            assert st.deflation_steps == [1]
            kt = extraction_basis(st).shape[1]
            blocks = _project_blocks(op, kt, sigma.imag == 0.0)
            assert blocks == kernels.row_blocks(n)
            assert len(blocks) == 7
            proj = project(st, op)
            assert proj.real == (sigma.imag == 0.0)
            assert not proj.relation
            Qt = proj.Q_tilde
            W = [X @ Qt for X in (op.work_M, op.work_C, op.work_K)]
            for Xk, Wi in zip((proj.M_k, proj.C_k, proj.K_k), W):
                assert close(Xk, Qt.conj().T @ Wi)
            R = np.hstack(proj.blocks)
            assert R.shape == (3 * kt, 3 * kt)
            assert not np.any(np.tril(R, -1))
            A = np.hstack(W)
            assert close(R.conj().T @ R, A.conj().T @ A)

    @pytest.mark.parametrize("problem", ["arrow", "mass-spring"])
    def test_streamed_products_match_sliced_formula(self, rng, monkeypatch,
                                                    problem):
        # blocks of 7 rows; the oracle's basis chunks of 40 entries are 1
        # to 5 columns of a span.  The mass-spring working matrices equal
        # their transposes bit for bit and stream from their own CSC arrays;
        # the arrow's shifted M and C are copied to CSR once per operator,
        # its K_hat = M is not.  A real shift streams in real arithmetic.
        # The decomposition holds to rounding, so the products are those of
        # the MSOAR relation, with P's columns read in place as Q_tilde's;
        # TestRelation holds the direct products to the same oracle.
        monkeypatch.setattr(kernels, "ROW_BLOCK_MIN", 7)
        n = 47
        prob = _arrow(n) if problem == "arrow" else gen_mass_spring(n)
        tocsr, copies = sp.csc_matrix.tocsr, []

        def counting(X, *args, **kwargs):
            copies.append(X)
            return tocsr(X, *args, **kwargs)

        for sigma in (0.3 + 0.2j, 0.3):
            op, st = _run(rng, prob, 8, mode="shift-invert", sigma=sigma)
            real = sigma.imag == 0.0
            monkeypatch.setattr(sp.csc_matrix, "tocsr", counting)
            copies.clear()
            got = project(st, op)
            project(st, op)
            monkeypatch.setattr(sp.csc_matrix, "tocsr", tocsr)
            assert got.real == real
            work = op.real_work if real else (op.work_M, op.work_C, op.work_K)
            csr = op.real_work_csr if real else op.work_csr
            # one CSR form of each matrix per operator, from the first call
            assert [id(X) for X in copies] == [id(X) for X in work]
            for i, (X, (indptr, indices, data)) in enumerate(zip(work, csr)):
                shared = problem == "mass-spring" or i == 2
                assert (indptr is X.indptr) == shared
                assert (indices is X.indices) == shared
                # a real matrix's data is a strided view of the complex one's
                assert np.shares_memory(data, X.data) == (shared and not real)
                assert data.flags.c_contiguous
                Y = X.tocsr()
                assert np.array_equal(indptr, Y.indptr)
                assert np.array_equal(indices, Y.indices)
                assert data.tobytes() == Y.data.tobytes()
            assert got.relation
            want = _sliced_projection(got.Q_tilde, op, real, 40, st)
            for g, w in zip((got.M_k, got.C_k, got.K_k,
                             np.hstack(got.blocks)), want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_streamed_block_holds_no_basis_copy(self, rng):
        # Past what it is entered with, a streamed projection holds its
        # block buffer, the 3ktilde x 3ktilde triangle and O(ktilde^2) more:
        # the triple, one block's share of it and tpqrt's T factor and
        # workspace, 7.3 ktilde^2 entries at n = 3000, ktilde = 41 (8.9
        # with 32-column reflector blocks, 18.5 with the sliced products'
        # basis-row chunks and product temporaries), complex for a complex
        # basis and float64 for a float64 one (measured 16.3 and 17.2
        # ktilde^2 entries past the buffer).  The float64 basis is read
        # in place: no copy of its rows or columns (a float64 copy of the
        # block's basis rows and of one column took 25.9).  u2 = u1 makes
        # Q_tilde a view of Q, not a copy.  The complex run goes through
        # the MSOAR relation, whose buffer and triangle have 2k + 4 = 84
        # columns, not 123: measured 0.80 MB against 0.94 MB forming
        # [W1 W2 W3]; the probe refuses the real one at sigma = -13.
        n = 3000
        prob = gen_mass_spring(n)
        u1 = rng.standard_normal(n)
        b = kernels.row_blocks(n)[0].stop
        for sigma in (-13 + 0.4j, -13.0):
            op, st = _run(rng, prob, 40, mode="shift-invert", sigma=sigma,
                          u1=u1, u2=u1)
            # the operator's row counts and CSR arrays, built once
            project(st, op)
            proj, peak = conftest.peak(lambda: project(st, op))
            kt = proj.ktilde
            assert kt == 41 and proj.real == (sigma.imag == 0.0)
            item = 8 if proj.real else 16
            assert peak <= (b * 3 * kt + 19 * kt * kt) * item
            del proj

    def test_gram_triangle_layout(self, rng, monkeypatch):
        # a streamed projection of [W1 W2 W3] folds every row block into
        # one zeroed column-major 3ktilde x 3ktilde triangle, which R1, R2
        # and R3 view; one block keeps geqrt's row-major triangle of
        # min(n, 3ktilde) rows (20 rows when n = 20 < 3ktilde).  The runs
        # deflate at step 1, so they do not go through the MSOAR relation
        # (TestRelation has its layout)
        for n, streamed in ((47, False), (20, False), (47, True)):
            if streamed:
                monkeypatch.setattr(kernels, "ROW_BLOCK_MIN", 7)
            for sigma in (0.3 + 0.2j, 0.3):
                prob = gen_mass_spring(n)
                op = build_operator(prob, mode="shift-invert", sigma=sigma)
                u1, u2 = _deflating_starts(op, rng)
                op, st = _run(rng, prob, 8, mode="shift-invert", sigma=sigma,
                              u1=u1, u2=u2)
                proj = project(st, op)
                assert not proj.relation
                kt = proj.ktilde
                R = proj.blocks
                dtype = float if proj.real else complex
                assert all(Ri.dtype == dtype for Ri in R)
                if streamed:
                    triangle = R[0].base
                    assert all(Ri.base is triangle for Ri in R)
                    assert triangle.shape == (3 * kt, 3 * kt)
                    assert triangle.flags.f_contiguous
                else:
                    T = np.hstack(R)
                    assert T.shape == (min(n, 3 * kt), 3 * kt)
                    assert R[0].base.flags.c_contiguous
                    assert R[0].base.shape == T.shape
            monkeypatch.undo()

    def test_full_rows_are_projected_in_one_block(self, rng, monkeypatch):
        # A 16-row block of dense working matrices holds more entries than
        # the rows of the n x 3ktilde array that streaming spares, so
        # project takes all n rows at once: the unblocked formula bit for
        # bit, at about twice the array's size, and no CSR copy of the
        # unsymmetric matrices.
        n = 200
        prob = random_qep(rng, n, complex_data=True)
        op, st = _run(rng, prob, 8, mode="shift-invert", sigma=0.3 + 0.2j)
        want = project(st, op)
        monkeypatch.setattr(kernels, "ROW_BLOCK_MIN", 16)
        kt = want.ktilde
        assert len(kernels.row_blocks(n)) == 13
        assert _project_blocks(op, kt, False) == [slice(0, n)]
        got, peak = conftest.peak(lambda: project(st, op))
        assert peak <= 2.5 * n * 3 * kt * 16
        for name in ("M_k", "C_k", "K_k"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert all(np.array_equal(g, w)
                   for g, w in zip(got.blocks, want.blocks))
        assert "work_csr" not in vars(op)

    def test_one_block_copies_basis_in_chunks(self, rng):
        # n = 1000 is one row block.  Besides the complex n x 3ktilde array,
        # project holds a row-major copy of 2^15 basis entries (32 columns)
        # and the product of one chunk, and the triangle R is 0.3 of the
        # array: 1.47 arrays.  A row-major copy of the whole basis, with its
        # full-width product, takes 1.78.  From a real start everything is
        # float64, the basis and the real operator's matrices too: 0.735
        # complex arrays (0.91 with a float64 copy of a complex basis's
        # rows for the triple).
        n = 1000
        for real, bound in ((True, 0.75), (False, 1.6)):
            u1 = rng.standard_normal(n)
            if not real:
                u1 = u1 + 1j * rng.standard_normal(n)
            op, st = _run(rng, gen_mass_spring(n), 100, u1=u1)
            proj, peak = conftest.peak(lambda: project(st, op))
            assert proj.ktilde > 100 and proj.real == real
            assert peak <= bound * n * 3 * proj.ktilde * 16
            del proj

    def test_blocks_factor_gram_and_triple_projects_products(self, rng):
        # complex data at a complex shift; a real problem in direct mode or
        # at a real shift from real starts, which projects in float64; a
        # complex shift or start, which makes that projection complex.  A
        # complex-typed start with no nonzero imaginary part is a real one;
        # a complex basis projects complex, whatever its imaginary part
        cplx, real = random_qep(rng, 40, complex_data=True), random_qep(rng, 40)
        start = rng.standard_normal(40)
        si, real_si = (dict(mode="shift-invert", sigma=s) for s in (0.3 + 0.2j,
                                                                    0.3))
        cases = [(cplx, si, None, complex), (real, {}, start, float),
                 (real, real_si, start, float), (real, si, start, complex),
                 (real, {}, start + 1j * rng.standard_normal(40), complex),
                 (real, {}, start.astype(complex), float)]
        for prob, kw, u1, dtype in cases:
            op, st = _run(rng, prob, 8, u1=u1, u2=u1, **kw)
            proj = project(st, op)
            assert proj.real == (dtype is float)
            assert all(X.dtype == dtype
                       for X in (proj.M_k, proj.C_k, proj.K_k, *proj.blocks))
            Qt = proj.Q_tilde
            W = [X @ Qt for X in (op.work_M, op.work_C, op.work_K)]
            for i in range(3):
                for j in range(3):
                    G = W[i].conj().T @ W[j]
                    assert (np.linalg.norm(proj.blocks[i].conj().T
                                           @ proj.blocks[j] - G)
                            <= 1e-12 * np.linalg.norm(G))
            for Xk, Wi in zip((proj.M_k, proj.C_k, proj.K_k), W):
                Pk = Qt.conj().T @ Wi
                assert np.linalg.norm(Xk - Pk) <= 1e-12 * np.linalg.norm(Pk)
        op = build_operator(real)
        st = run_msoar(complex_start(op, start, start), op, 8, 1e-12)
        assert not st.Q.imag.any() and not project(st, op).real

    def test_hermitian_structure_preserved(self, rng):
        n = 18
        def herm():
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return X + X.conj().T
        prob = QepProblem.from_matrices(herm() + 5 * n * np.eye(n), herm(),
                                        herm())
        op, st = _run(rng, prob, 5)
        proj = project(st, op)
        for A in (proj.M_k, proj.C_k, proj.K_k):
            assert np.linalg.norm(A - A.conj().T) < 1e-12 * np.linalg.norm(A)


class TestRelation:
    """A streamed projection of a decomposition that holds to rounding goes
    through the MSOAR relation: n = 47 in blocks of 7 rows."""

    @pytest.fixture(autouse=True)
    def blocks_of_seven(self, monkeypatch):
        monkeypatch.setattr(kernels, "ROW_BLOCK_MIN", 7)

    @staticmethod
    def direct(monkeypatch, state, op):
        """``project`` with the relation refused: [W1 W2 W3] formed."""
        with monkeypatch.context() as m:
            m.setattr(extraction, "_relation_holds",
                      lambda state, op, tol: False)
            return project(state, op)

    @staticmethod
    def check_direct_products(rng, problem, sigma, nblocks):
        # R_i^* R_j = W_i^* W_j and the triple to the bounds of the direct
        # path, in complex and real arithmetic
        n = 47
        prob = _arrow(n) if problem == "arrow" else gen_mass_spring(n)
        op, st = _run(rng, prob, 8, mode="shift-invert", sigma=sigma)
        real = sigma.imag == 0.0
        kt = extraction_basis(st).shape[1]
        assert len(_project_blocks(op, kt, real)) == nblocks
        proj = project(st, op)
        assert proj.relation and proj.real == real

        def close(a, b):
            return np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)

        Qt = proj.Q_tilde
        W = [X @ Qt for X in (op.work_M, op.work_C, op.work_K)]
        for Xk, Wi in zip((proj.M_k, proj.C_k, proj.K_k), W):
            assert Xk.dtype == proj.M_k.dtype
            assert close(Xk, Qt.conj().T @ Wi)
        R, A = np.hstack(proj.blocks), np.hstack(W)
        assert close(R.conj().T @ R, A.conj().T @ A)

    @pytest.mark.parametrize("problem", ["arrow", "mass-spring"])
    @pytest.mark.parametrize("sigma", [0.3 + 0.2j, 0.3])
    def test_blocks_match_direct_products(self, rng, problem, sigma):
        # in blocks of 7 rows
        self.check_direct_products(rng, problem, sigma, 7)

    @pytest.mark.parametrize("problem", ["arrow", "mass-spring"])
    @pytest.mark.parametrize("sigma", [0.3 + 0.2j, 0.3])
    def test_one_block_matches_direct_products(self, rng, monkeypatch,
                                               problem, sigma):
        # the whole of n = 47 in one block
        monkeypatch.setattr(kernels, "ROW_BLOCK_MIN", 47)
        self.check_direct_products(rng, problem, sigma, 1)

    @pytest.mark.parametrize("sigma", [-13 + 0.4j, -13.0, 0.3 + 0.2j])
    def test_residuals_match_direct_path(self, rng, monkeypatch, sigma):
        # every finite Ritz residual and every wanted refined sigma_min,
        # paired by nearest Ritz value, within 1e-12 relative or 100 units
        # of rounding of the residual's terms, |theta|^2 ||R1|| +
        # |theta| ||R2|| + ||R3||, whichever is larger: a residual near
        # that floor differs by up to 11 units between the two paths (4.3
        # relative at sigma = -13), each formed from its own rounding
        op = build_operator(gen_mass_spring(47), mode="shift-invert",
                            sigma=sigma)
        st = run_msoar(init_state(op, rng.standard_normal(47),
                                  rng.standard_normal(47)), op, 10, 1e-12)
        got = project(st, op)
        want = self.direct(monkeypatch, st, op)
        assert got.relation and not want.relation
        ritz = [extract_refined(proj, op, extract_ritz(proj, op, 3))
                for proj in (got, want)]
        thetas = np.array([p.theta for p in ritz[1].pairs])
        norms = [np.linalg.norm(R, 2) for R in want.blocks]
        eps = np.finfo(float).eps

        def partner(entry):
            return int(np.argmin(np.abs(thetas - entry.theta)))

        def floor(theta):
            t = abs(theta)
            return 100 * eps * (t * t * norms[0] + t * norms[1] + norms[2])

        finite = [p for p in ritz[0].pairs if p.finite]
        assert len(finite) == sum(p.finite for p in ritz[1].pairs)
        for p in finite:
            q = ritz[1].pairs[partner(p)]
            assert abs(p.theta - q.theta) <= 1e-12 * abs(q.theta)
            bound = max(1e-12 * q.rel_residual,
                        extraction._relative(op, q.theta, floor(q.theta))[1])
            assert abs(p.rel_residual - q.rel_residual) <= bound
        for i in ritz[0].selection:
            j = partner(ritz[0].pairs[i])
            assert j in ritz[1].selection
            a, b = ritz[0].refined[i].sigma_min, ritz[1].refined[j].sigma_min
            assert abs(a - b) <= max(1e-12 * b, floor(thetas[j]))

    def test_triangle_has_2k_plus_4_columns(self, rng, monkeypatch):
        # u2 = u1 adds no p1 column: ktilde = k + 1, and Y = [X1 Q_tilde,
        # X3 P_{k+1}, X2 q_{k+1}, X3 q_{k+1}] has 2k + 4 columns, each a
        # CSR kernel call per row block; a p1 column makes it 2k + 7
        calls = []

        def counting(*args):
            calls.append(args)
            return csr_matvec(*args)

        n, k = 47, 8
        u1 = rng.standard_normal(n)
        for u2, kt, width in ((u1, k + 1, 2 * k + 4),
                              (rng.standard_normal(n), k + 2, 2 * k + 7)):
            op, st = _run(rng, gen_mass_spring(n), k, mode="shift-invert",
                          sigma=-13 + 0.4j, u1=u1, u2=u2)
            with monkeypatch.context() as m:
                m.setattr(extraction, "csr_matvec", counting)
                calls.clear()
                proj = project(st, op)
            assert proj.relation and proj.ktilde == kt
            triangle = proj.blocks[0].base
            assert triangle.shape == (width, width)
            assert triangle.flags.f_contiguous
            assert not np.any(np.tril(triangle, -1))
            assert all(Ri.shape == (width, kt) for Ri in proj.blocks)
            assert len(calls) == len(kernels.row_blocks(n)) * width

    @staticmethod
    def _restarted_chain(rng):
        """The underdamped chain at sigma = -1 after one restart: P has
        grown to about 1e9, with no deflation and no breakdown."""
        u1 = rng.standard_normal(47)
        op, st = _run(rng, gen_mass_spring(47, tau=1.0), 12,
                      mode="shift-invert", sigma=-1.0, u1=u1, u2=u1)
        proj = project(st, op)
        ritz = extract_refined(proj, op, extract_ritz(proj, op, 3))
        with warnings.catch_warnings():
            # the chain's wanted vectors are numerically dependent
            warnings.simplefilter("ignore", RuntimeWarning)
            shifts = select_shifts(proj, ritz.wanted(), 6)
        st, _ = contract(st, shifts, 12 - len(shifts.shifts), overwrite=True)
        st = run_msoar(st, op, 12, 1e-12)
        assert not st.deflation_steps and not st.breakdown
        assert np.linalg.norm(st.P) > 1e6
        return op, st

    @pytest.mark.parametrize("case", ["deflation", "breakdown", "P growth"])
    def test_refused_states_take_the_direct_path(self, rng, case):
        # bit for bit the streamed products of [W1 W2 W3]
        prob = gen_mass_spring(47)
        if case == "deflation":
            op = build_operator(prob, mode="shift-invert", sigma=0.3 + 0.2j)
            u1, u2 = _deflating_starts(op, rng)
            op, st = _run(rng, prob, 8, mode="shift-invert",
                          sigma=0.3 + 0.2j, u1=u1, u2=u2)
            assert st.deflation_steps
        elif case == "breakdown":
            # [lam v; v] for three eigenpairs of the chain: v_j =
            # sin(j pi i/48) with T v_j = mu_j v_j, and lam the root of
            # lam^2 + 10 mu_j lam + 5 mu_j = 0 of larger magnitude
            i, u1, u2 = np.arange(1, 48), 0.0, 0.0
            for j in (1, 10, 30):
                v = np.sin(j * np.pi * i / 48)
                mu = 3 - 2 * np.cos(j * np.pi / 48)
                u1 = u1 - 0.5 * (10 * mu + np.sqrt(100 * mu ** 2 - 20 * mu)) * v
                u2 = u2 + v
            op, st = _run(rng, prob, 8, u1=u1, u2=u2)
            assert st.breakdown and not st.deflation_steps
        else:
            op, st = self._restarted_chain(rng)
        eps = np.finfo(float).eps
        assert not extraction._relation_holds(st, op,
                                              extraction.RELATION_TOL * eps)
        got = project(st, op)
        assert not got.relation
        assert len(_project_blocks(op, got.ktilde, got.real)) == 7
        want = _sliced_projection(got.Q_tilde, op, got.real, 40)
        for g, w in zip((got.M_k, got.C_k, got.K_k, np.hstack(got.blocks)),
                        want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_solve_reports_true_residuals(self):
        # every cycle goes through the relation; the delivered residuals
        # (about 2.4e-7) are those of M, C and K
        prob = gen_mass_spring(47)
        config = SolverConfig(m=2, k=6, mode="shift-invert", sigma=-20 + 1j,
                              variant="irsoar", ctol=1e-6, seed=0)
        report, relation = _relation_cycles(config, 47)
        assert report.all_converged and len(report.converged) == 2
        assert relation and all(relation)
        M, C, K = prob.M, prob.C, prob.K
        for pair in report.converged:
            lam, x = pair.lam, pair.x
            true = (np.linalg.norm(lam ** 2 * (M @ x) + lam * (C @ x) + K @ x)
                    / np.linalg.norm(x) / prob.norm_sum)
            assert abs(pair.rel_residual - true) <= 1e-6 * true

    @pytest.mark.parametrize("ctol, through", [(1e-10, True), (1e-15, False)])
    def test_gate_tightens_with_ctol(self, ctol, through):
        # the streamed case whose floor-level residual read 2.0e-17 through
        # the relation against 1.0e-15 from M, C and K: at ctol 1e-10 the
        # bound stays RELATION_TOL eps and every cycle takes the relation;
        # at 1e-15 it is 1e-17, below eps, and none does.  The delivered
        # pairs' residuals from M, C and K are reported either way
        config = SolverConfig(m=3, k=12, mode="shift-invert",
                              sigma=-13 + 0.4j, variant="irsoar", ctol=ctol,
                              max_restarts=3, seed=0)
        report, relation = _relation_cycles(config, 47)
        assert relation and all(r == through for r in relation)
        prob = gen_mass_spring(47)
        for pair in report.converged:
            lam, x = pair.lam, pair.x
            true = np.linalg.norm(lam ** 2 * (prob.M @ x) + lam * (prob.C @ x)
                                  + prob.K @ x) / prob.norm_sum
            assert pair.residual == pytest.approx(true, rel=1e-6)


class TestOneBlockRelation:
    """A one-block projection (n <= 1024) of a decomposition that holds to
    rounding goes through the MSOAR relation as a streamed one does."""

    @pytest.mark.parametrize("n, k", [(47, 8), (20, 10)])
    def test_triangle_has_min_n_2k_plus_4_rows(self, rng, monkeypatch, n, k):
        # u2 = u1: Y has 2k + 4 columns, formed in chunks of 4 columns, and
        # its triangle is geqrt's row-major one of min(n, 2k + 4) rows
        # (20 rows when n = 20 < 2k + 4 = 24), which R1 views
        monkeypatch.setattr(extraction, "PROJECT_CHUNK_ENTRIES", 4 * n)
        u1 = rng.standard_normal(n)
        op, st = _run(rng, gen_mass_spring(n), k, mode="shift-invert",
                      sigma=-13 + 0.4j, u1=u1, u2=u1)
        proj = project(st, op)
        assert proj.relation and proj.ktilde == k + 1
        rows = min(n, 2 * k + 4)
        triangle = proj.blocks[0].base
        assert triangle.shape == (rows, 2 * k + 4)
        assert triangle.flags.c_contiguous
        assert not np.any(np.tril(triangle, -1))
        assert all(Ri.shape == (rows, k + 1) for Ri in proj.blocks)
        Qt = proj.Q_tilde
        Y = np.hstack([op.work_M @ Qt, op.work_K @ st.P,
                       op.work_C @ Qt[:, k:], op.work_K @ Qt[:, k:]])
        G = Y.conj().T @ Y
        assert (np.linalg.norm(triangle.conj().T @ triangle - G)
                <= 1e-13 * np.linalg.norm(G))

    @pytest.mark.parametrize("case", ["deflation", "P growth", "ctol"])
    def test_refused_states_give_the_direct_bytes(self, rng, monkeypatch,
                                                  case):
        prob = gen_mass_spring(47)
        ctol = None
        if case == "deflation":
            op = build_operator(prob, mode="shift-invert", sigma=0.3 + 0.2j)
            u1, u2 = _deflating_starts(op, rng)
            op, st = _run(rng, prob, 8, mode="shift-invert",
                          sigma=0.3 + 0.2j, u1=u1, u2=u2)
        elif case == "P growth":
            op, st = TestRelation._restarted_chain(rng)
        else:
            op, st = _run(rng, prob, 8, mode="shift-invert", sigma=0.3 + 0.2j)
            assert project(st, op).relation
            ctol = 1e-15
        got = project(st, op, ctol)
        assert not got.relation
        want = TestRelation.direct(monkeypatch, st, op)
        for name in ("M_k", "C_k", "K_k"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert np.hstack(got.blocks).tobytes() == np.hstack(want.blocks).tobytes()

    def test_tight_ctol_never_takes_the_relation(self, monkeypatch):
        # mass-spring n = 500 at ctol 1e-15 projects in one block; the
        # probe would accept its decompositions at RELATION_TOL eps, and
        # the gate at 1e-2 ctol refuses every one of them
        probe, readings = extraction._relation_holds, []

        def noting(state, op, tol):
            readings.append(probe(state, op, extraction.RELATION_TOL
                                  * np.finfo(float).eps))
            return probe(state, op, tol)

        monkeypatch.setattr(extraction, "_relation_holds", noting)
        config = SolverConfig(m=6, k=40, p=15, mode="shift-invert",
                              sigma=-13 + 0.4j, variant="imsoar", ctol=1e-15,
                              max_restarts=15)
        _, relation = _relation_cycles(config, 500)
        assert relation and not any(relation)
        assert any(readings)

    def test_solve_reports_residuals_within_ctol(self):
        # a one-block solve with every cycle through the relation: each
        # delivered pair's residual from M, C and K is within ctol and
        # equals a recomputation; its backward error is
        # Tisseur's with the 1-norms as weights
        config = SolverConfig(m=4, k=16, mode="shift-invert",
                              sigma=-13 + 0.4j, variant="imsoar", ctol=1e-10,
                              seed=1)
        report, relation = _relation_cycles(config, 300)
        assert report.all_converged and len(report.converged) == 4
        assert relation and all(relation)
        prob = gen_mass_spring(300)
        nM, nC, nK = prob.norms1
        for pair in report.converged:
            lam, x = pair.lam, pair.x
            norm = np.linalg.norm(lam ** 2 * (prob.M @ x) + lam * (prob.C @ x)
                                  + prob.K @ x)
            assert pair.residual <= config.ctol
            assert pair.residual == pytest.approx(norm / prob.norm_sum,
                                                  rel=1e-10)
            t = abs(lam)
            assert pair.backward_error == pytest.approx(
                norm / (t * t * nM + t * nC + nK), rel=1e-10)


class TestRitz:
    def test_grouped_residuals_match_one_array_horner(self, rng, monkeypatch):
        # A real projection at string300's size (ktilde = 141, 300 rows of
        # R; its S is 300 x 282 here, in groups of 54 columns) and a
        # complex one whose S (123 x 82) is one group, also forced into
        # groups of 8 columns.  One group is the one-array Horner formula
        # of before bit for bit.  Across groups the residuals agree to an
        # ulp or two: OpenBLAS's product of a group of columns can round
        # differently from the same columns of one product.
        eps = np.finfo(float).eps
        cases = [(gen_string_damping(300), 140, {}, None),
                 (random_qep(rng, 200, complex_data=True), 40,
                  dict(mode="shift-invert", sigma=0.3 + 0.2j), 8)]
        for prob, k, kw, forced in cases:
            op, st = _run(rng, prob, k, **kw)
            proj = project(st, op)
            theta, G = kernels.solve_projected_qep(proj.M_k, proj.C_k,
                                                   proj.K_k)
            cols = np.flatnonzero(np.abs(theta) <= extraction.HUGE_RITZ)
            R1, R2, R3 = proj.blocks
            t, G_cols = theta[cols], G[:, cols]
            S = kernels.matmul_complex(R1, G_cols)
            S *= t
            S += kernels.matmul_complex(R2, G_cols)
            S *= t
            S += kernels.matmul_complex(R3, G_cols)
            want = np.linalg.norm(S, axis=0)
            one_group = S.size <= extraction.RITZ_GROUP_ENTRIES
            assert one_group == (forced is not None)
            for entries in ([extraction.RITZ_GROUP_ENTRIES]
                            + ([forced * R1.shape[0]] if forced else [])):
                monkeypatch.setattr(extraction, "RITZ_GROUP_ENTRIES", entries)
                got = np.array(extraction._residual_norms(proj.blocks, theta,
                                                          G, cols))
                if S.size <= entries:
                    assert got.tobytes() == want.tobytes()
                else:
                    assert np.all(np.abs(got - want) <= 4 * eps * want)
            monkeypatch.undo()

    def test_selection_largest_magnitude(self, rng):
        prob = random_qep(rng, 30)
        op, st = _run(rng, prob, 8)
        ritz = extract_ritz(project(st, op), op, 4)
        sel = [abs(ritz.pairs[i].theta) for i in ritz.selection]
        rest = [abs(p.theta) for i, p in enumerate(ritz.pairs)
                if p.finite and i not in ritz.selection]
        assert min(sel) >= max(rest) - 1e-12

    def test_residuals_are_true_relative_residuals(self, rng):
        prob = random_qep(rng, 24)
        op, st = _run(rng, prob, 6)
        proj = project(st, op)
        ritz = extract_ritz(proj, op, 3)
        M, C, K = (prob.M.toarray(), prob.C.toarray(), prob.K.toarray())
        for i in ritz.selection:
            e = ritz.pairs[i]
            y = proj.Q_tilde @ e.g
            direct = np.linalg.norm((e.lam ** 2 * M + e.lam * C + K) @ y)
            assert e.rel_residual == pytest.approx(direct / prob.norm_sum,
                                                   rel=1e-10)

    def test_conjugate_partners_get_identical_residuals(self, rng):
        # a real projection takes one residual per conjugate pair, which
        # the partner shares bit for bit; each matches the residual formed
        # in complex arithmetic
        prob = random_qep(rng, 30)
        op, st = _run(rng, prob, 12)
        proj = project(st, op)
        assert proj.real
        ritz = extract_ritz(proj, op, 4)
        pairs = [e for e in ritz.pairs if e.finite]
        groups = kernels.conjugate_groups([e.theta for e in pairs])[0]
        assert sum(len(g) == 2 for g in groups) >= 2
        R = [Ri.astype(complex) for Ri in proj.blocks]
        for group in groups:
            first = pairs[group[0]]
            for j in group:
                assert pairs[j].rel_residual == first.rel_residual
            t = first.theta
            res = np.linalg.norm((t * t * R[0] + t * R[1] + R[2]) @ first.g)
            assert first.rel_residual == pytest.approx(res / prob.norm_sum,
                                                       rel=1e-10, abs=1e-15)

    def test_breakdown_run_gives_exact_pairs(self, rng):
        prob = random_qep(rng, 8)
        u1, u2 = breakdown_starts(prob, 5)
        op, st = _run(rng, prob, 8, u1=u1, u2=u2)
        assert st.breakdown
        ritz = extract_ritz(project(st, op), op, 2)
        finite = [p for p in ritz.pairs if p.finite]
        assert len(finite) >= 5
        assert sorted(p.rel_residual for p in finite)[4] < 1e-10

    def test_stacked_residual_identity(self, rng):
        # || H v - theta v || for v = [theta y; y]/sqrt(|theta|^2+1) equals
        # the QEP residual norm divided by sqrt(|theta|^2+1), M = I case
        n = 14
        C = rng.standard_normal((n, n))
        K = rng.standard_normal((n, n))
        prob = QepProblem.from_matrices(np.eye(n), C, K)
        op, st = _run(rng, prob, 5)
        proj = project(st, op)
        ritz = extract_ritz(proj, op, 2)
        from soarqep.oracles import build_h
        H = build_h(op).H
        i = ritz.selection[0]
        e = ritz.pairs[i]
        y = proj.Q_tilde @ e.g
        v = np.concatenate([e.theta * y, y]) / np.sqrt(abs(e.theta) ** 2 + 1)
        lhs = np.linalg.norm(H @ v - e.theta * v)
        qep = np.linalg.norm((e.theta ** 2 * np.eye(n) + e.theta * C + K) @ y)
        assert lhs == pytest.approx(qep / np.sqrt(abs(e.theta) ** 2 + 1),
                                    rel=1e-10)


def _all_vectors(proj, op):
    """(theta, G, residuals) of every pair as the all-vectors extraction
    takes them: every eigenvector from ``solve_projected_qep`` and the
    residual of each finite pair through ``_residual_norms``, one column
    per conjugate pair on a real projection, by index."""
    theta, G = kernels.solve_projected_qep(proj.M_k, proj.C_k, proj.K_k)
    mag = np.abs(theta)
    ok = mag <= extraction.HUGE_RITZ
    if op.sigma is not None:
        ok &= mag >= 1e-300
    live = np.flatnonzero(ok)
    groups = (kernels.conjugate_groups(theta[live])[0] if proj.real
              else [(j,) for j in range(live.size)])
    first = live[[group[0] for group in groups]]
    norms = {}
    for group, norm in zip(groups, extraction._residual_norms(
            proj.blocks, theta, G, first)):
        norms.update((int(live[j]), norm) for j in group)
    return theta, G, norms


def _key(theta):
    return -abs(theta), theta.real, theta.imag


def _wanted_only_case(case):
    """(op, state) of a decomposition whose projection at ctol 1e-10 is
    extracted wanted-only.  Three hold to rounding, so they also go through
    the MSOAR relation: a complex start in direct mode, the underdamped
    chain at a real shift, whose wanted theta come in conjugate pairs, and
    a mass-spring at a real shift whose M_k goes to QZ (cond above
    MONIC_COND_MAX).  The fourth, a real direct string whose P has grown,
    is refused the relation."""
    rng = np.random.default_rng(0)
    if case == "string-direct":
        u1 = rng.random(100)
        return _run(rng, gen_string_damping(100), 30, u1=u1, u2=u1)
    if case == "complex":
        u1 = rng.standard_normal(47) + 1j * rng.standard_normal(47)
        return _run(rng, gen_mass_spring(47), 6, u1=u1, u2=u1)
    if case == "qz":
        return _run(rng, gen_mass_spring(47), 8, mode="shift-invert",
                    sigma=-13.0)
    u1 = rng.standard_normal(47)
    return _run(rng, gen_mass_spring(47, tau=1.0), 6, mode="shift-invert",
                sigma=-2.0, u1=u1, u2=u1)


class TestWantedOnly:
    """A projection at a ctol of at least NULL_VECTOR_TOL eps builds only the
    wanted Ritz vectors (``extract_ritz``), through the MSOAR relation or
    not; at a ctol below that, without a ctol or after a breakdown, the
    extraction is the all-vectors one bit for bit."""

    @staticmethod
    def refused(case):
        """(proj, op) of a projection at ctol 1e-15, below NULL_VECTOR_TOL
        eps, which takes all vectors."""
        rng = np.random.default_rng(0)
        if case == "tight-ctol":
            # mass-spring n = 500: the relation is refused too
            u1 = rng.random(500)
            op, st = _run(rng, gen_mass_spring(500), 40, mode="shift-invert",
                          sigma=-13 + 0.4j, u1=u1, u2=u1)
        else:
            op, st = _wanted_only_case(case)
        return project(st, op, 1e-15), op

    @pytest.mark.parametrize("case", ["tight-ctol", "string-direct"])
    def test_all_vectors_bit_for_bit(self, case):
        proj, op = self.refused(case)
        assert not proj.relation and not proj.wanted_only
        ritz = extract_ritz(proj, op, 6)
        assert not ritz.wanted_only and isinstance(ritz.pairs, list)
        theta, G, norms = _all_vectors(proj, op)
        assert len(ritz.pairs) == theta.size
        for i, e in enumerate(ritz.pairs):
            assert complex(e.theta) == theta[i]
            assert e.g.tobytes() == G[:, i].tobytes()
            assert e.residual == norms.get(i)

    @pytest.mark.parametrize("case", ["complex", "real", "qz",
                                      "string-direct"])
    def test_wanted_entries_match_all_vectors(self, case):
        # each wanted theta to 1e-12 relative, each g a null vector of
        # P_k(theta) to NULL_VECTOR_TOL eps ||P_k(theta)||_1 and each
        # residual to 1e-8 relative of the all-vectors extraction's
        op, st = _wanted_only_case(case)
        proj = project(st, op, 1e-10)
        assert proj.wanted_only and proj.real == (case != "complex")
        assert proj.relation == (case != "string-direct")
        assert ((np.linalg.cond(proj.M_k) > kernels.MONIC_COND_MAX)
                == (case == "qz"))
        ritz = extract_ritz(proj, op, 5)
        assert ritz.wanted_only
        theta, _, norms = _all_vectors(proj, op)
        want = sorted(norms, key=lambda i: _key(complex(theta[i])))[:5]
        eps = np.finfo(float).eps
        for i, j in zip(ritz.selection, want):
            e = ritz.pairs[i]
            assert abs(e.theta - theta[j]) <= 1e-12 * abs(theta[j])
            P = e.theta ** 2 * proj.M_k + e.theta * proj.C_k + proj.K_k
            assert np.linalg.norm(e.g) == pytest.approx(1.0, abs=1e-14)
            assert (np.linalg.norm(P @ e.g)
                    <= extraction.NULL_VECTOR_TOL * eps
                    * np.abs(P).sum(axis=0).max())
            assert e.residual == pytest.approx(norms[j], rel=1e-8)

    def test_conjugate_partners_share_residuals(self):
        # m = 5 leaves out the partner of the fifth wanted theta; it is
        # built with its group, with the conjugate g and the same residual
        op, st = _wanted_only_case("real")
        proj = project(st, op, 1e-10)
        ritz = extract_ritz(proj, op, 5)
        assert ritz.wanted_only
        theta, _ = kernels.solve_projected_qep(proj.M_k, proj.C_k, proj.K_k,
                                               vectors=False)
        left_out = 0
        for group in kernels.conjugate_groups(theta)[0]:
            if len(group) == 1 or not set(group) & set(ritz.selection):
                continue
            a, b = (ritz.pairs[i] for i in group)
            assert complex(a.theta) == theta[group[0]]
            assert b.residual == a.residual and b.g.tobytes() == a.g.conj().tobytes()
            left_out += not set(group) <= set(ritz.selection)
        assert left_out == 1

    @pytest.mark.parametrize("case", ["complex", "real"])
    def test_unbuilt_entries_are_none(self, case):
        # pairs keeps theta's order and length; only the selection, with
        # its conjugate partners on a real projection, is built
        op, st = _wanted_only_case(case)
        proj = project(st, op, 1e-10)
        ritz = extract_ritz(proj, op, 5)
        assert ritz.wanted_only and len(ritz.pairs) == 2 * proj.ktilde
        built = {i for i, e in enumerate(ritz.pairs) if e is not None}
        assert built >= set(ritz.selection)
        partners = {i for i in built - set(ritz.selection)
                    if any(ritz.pairs[i].theta == ritz.pairs[j].theta.conjugate()
                           for j in ritz.selection)}
        assert partners == built - set(ritz.selection)
        assert bool(partners) == (case == "real")

    @staticmethod
    def double_wanted():
        """(proj, op): a synthetic real projected triple marked
        wanted-only, with the largest |theta| a double eigenvalue, -2 (and
        2) with two independent vectors; the blocks are the triple itself,
        the R of W_i = X_i for Q_tilde = I."""
        M = np.eye(4)
        C = np.zeros((4, 4))
        K = -np.diag([4.0, 4.0, 1.0, 0.25])
        op = build_operator(QepProblem.from_matrices(M, C, K))
        proj = extraction.ProjectedQep(np.eye(4), M, C, K, blocks=(M, C, K),
                                       op=op, wanted_only=True)
        return proj, op

    @pytest.mark.parametrize("case", ["double", "residual", "non-finite"])
    def test_fallback_is_all_vectors(self, monkeypatch, case):
        # a double wanted theta, or a wanted g whose residual check fails
        # or is not finite, sends a wanted-only projection to the
        # all-vectors path, bit for bit
        if case == "double":
            proj, op = self.double_wanted()
            m = 2
        else:
            op, st = _wanted_only_case("real")
            proj, m = project(st, op, 1e-10), 5
            if case == "residual":
                monkeypatch.setattr(extraction, "NULL_VECTOR_TOL", 0.0)
            else:
                null_vector = kernels.null_vector

                def overflowed(*args):
                    g, _, scale = null_vector(*args)
                    return g, np.nan, scale

                monkeypatch.setattr(kernels, "null_vector", overflowed)
        assert proj.wanted_only
        ritz = extract_ritz(proj, op, m)
        assert not ritz.wanted_only
        theta, G, norms = _all_vectors(proj, op)
        for i, e in enumerate(ritz.pairs):
            assert complex(e.theta) == theta[i]
            assert e.g.tobytes() == G[:, i].tobytes()
            assert e.residual == norms.get(i)


class TestRefined:
    def test_refined_never_worse(self, rng):
        for trial in range(6):
            prob = random_qep(rng, int(rng.integers(15, 35)))
            op, st = _run(rng, prob, int(rng.integers(5, 9)))
            proj = project(st, op)
            ritz = extract_refined(proj, op, extract_ritz(proj, op, 4))
            for i in ritz.selection:
                assert (ritz.refined[i].rel_residual
                        <= ritz.pairs[i].rel_residual + 1e-14)

    def test_refined_entry_keeps_ritz_value(self, rng):
        prob = random_qep(rng, 20)
        op, st = _run(rng, prob, 6, mode="shift-invert", sigma=0.3)
        proj = project(st, op)
        ritz = extract_refined(proj, op, extract_ritz(proj, op, 3))
        for i in ritz.selection:
            refined, entry = ritz.refined[i], ritz.pairs[i]
            assert refined.theta == entry.theta and refined.lam == entry.lam
            assert refined.finite and entry.sigma_min is None
            assert refined.sigma_min >= 0.0

    def test_sigma_min_matches_direct_svd(self, rng):
        prob = random_qep(rng, 22)
        op, st = _run(rng, prob, 6)
        proj = project(st, op)
        ritz = extract_refined(proj, op, extract_ritz(proj, op, 3))
        for i in ritz.selection:
            t = ritz.pairs[i].theta
            S = t ** 2 * proj.W1 + t * proj.W2 + proj.W3
            svals = np.linalg.svd(S, compute_uv=False)
            gap = (svals[-2] - svals[-1]) / max(svals[0], 1e-300)
            if gap > 1e-6:
                assert ritz.refined[i].sigma_min == pytest.approx(
                    svals[-1], rel=1e-8, abs=1e-8)

    @pytest.fixture
    def refined_calls(self, monkeypatch):
        """The theta of every kernels.refined_vector call."""
        original = kernels.refined_vector
        calls = []

        def recording(theta, *args):
            calls.append(theta)
            return original(theta, *args)

        monkeypatch.setattr(kernels, "refined_vector", recording)
        return calls, original

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_one_call_per_conjugate_pair_of_a_real_projection(
            self, rng, refined_calls, real):
        calls, direct = refined_calls
        prob = random_qep(rng, 30)
        # a real problem and real starts in direct mode project to exactly
        # real blocks; a complex shift makes everything complex
        kw = {} if real else dict(mode="shift-invert", sigma=0.3 + 0.2j)
        op, st = _run(rng, prob, 12, **kw)
        proj = project(st, op)
        assert proj.real == real
        # m = 9 selects one member of a conjugate pair, refined alone
        for m in (8, 9):
            calls.clear()
            ritz = extract_refined(proj, op, extract_ritz(proj, op, m))
            thetas = [ritz.pairs[i].theta for i in ritz.selection]
            classes = {(t.real, abs(t.imag)) for t in thetas}
            if real:
                lone = [t for t in thetas if t.conjugate() not in thetas]
                assert len(lone) == m % 2
                assert len(classes) < len(thetas)   # a selected pair
                assert len(calls) == len(classes)   # pairs plus lone members
            else:
                assert len(calls) == len(thetas)
            for i in ritz.selection:
                entry, refined = ritz.pairs[i], ritz.refined[i]
                g, smin = direct(entry.theta, *proj.blocks, entry.g)
                assert np.array_equal(refined.g, g)
                assert refined.sigma_min == smin
                assert refined.rel_residual <= entry.rel_residual

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_refined_residual_above_ritz_keeps_ritz_vector(
            self, rng, monkeypatch, real):
        # a refined vector whose residual reads above its start's, as two
        # evaluations of ||S g|| at the rounding floor can, is not taken:
        # the entry keeps the Ritz vector and residual, with sigma_min set
        # to that residual, so the shifts are still refined ones
        prob = random_qep(rng, 30)
        kw = {} if real else dict(mode="shift-invert", sigma=0.3 + 0.2j)
        op, st = _run(rng, prob, 12, **kw)
        proj = project(st, op)
        assert proj.real == real
        monkeypatch.setattr(kernels, "refined_vector",
                            lambda theta, R1, R2, R3, start:
                            (np.roll(start, 1), np.inf))
        ritz = extract_refined(proj, op, extract_ritz(proj, op, 4))
        for i in ritz.selection:
            entry, refined = ritz.pairs[i], ritz.refined[i]
            assert refined.g is entry.g
            assert refined.rel_residual == entry.rel_residual
            assert refined.sigma_min == entry.residual is not None
        assert select_shifts(proj, ritz.wanted(), 4).provenance == "refined"

    def test_full_space_refined_is_global_minimum(self, rng):
        # k tilde = n: the refined vector minimizes over the whole space
        n = 6
        prob = random_qep(rng, n)
        op, st = _run(rng, prob, n)
        proj = project(st, op)
        assert proj.ktilde == n
        ritz = extract_refined(proj, op, extract_ritz(proj, op, 2))
        M, C, K = (prob.M.toarray(), prob.C.toarray(), prob.K.toarray())
        for i in ritz.selection:
            t = ritz.pairs[i].theta
            svals = np.linalg.svd(t ** 2 * M + t * C + K, compute_uv=False)
            assert (ritz.refined[i].sigma_min
                    <= svals[-1] * (1 + 1e-8) + 1e-12 * svals[0])


class TestBound:
    def test_zero_cases(self, rng):
        prob = random_qep(rng, 12)
        op, st = _run(rng, prob, 5)
        s = np.zeros(5, dtype=complex)
        s[0] = 1.0    # e_1: last component zero, bound vanishes
        assert residual_bound(st, 1.0 + 0j, s, prob.norms1[0]) == 0.0

    def test_columns_match_single_vectors_at_breakdown(self, rng):
        prob = random_qep(rng, 10)
        u1, u2 = breakdown_starts(prob, 6)
        op, st = _run(rng, prob, 10, u1=u1, u2=u2)
        assert st.breakdown
        nus, S = np.linalg.eig(st.T)
        bounds = residual_bound(st, nus, S, prob.norms1[0])
        assert bounds.shape == (st.k,)
        for i in range(st.k):
            one = residual_bound(st, nus[i], S[:, i], prob.norms1[0])
            assert isinstance(one, float)
            assert bounds[i] == pytest.approx(one, rel=1e-14, abs=0.0)

    def test_bound_vs_true_residual_when_assumption_holds(self, rng):
        # when the Ritz pair beats the Petrov pair targeting the same value
        # (pencil residual comparison), the bound covers the Ritz residual
        n = 30
        prob = random_qep(rng, n)
        op, st = _run(rng, prob, 8)
        proj = project(st, op)
        ritz = extract_ritz(proj, op, 8)
        nus, S = np.linalg.eig(st.T)
        M, C, K = (prob.M.toarray(), prob.C.toarray(), prob.K.toarray())

        def pencil_residual(mu, top, bottom):
            z = np.concatenate([top, bottom])
            z = z / np.linalg.norm(z)
            upper = -C @ z[:n] - K @ z[n:] - mu * (M @ z[:n])
            lower = z[:n] - mu * z[n:]
            return np.linalg.norm(np.concatenate([upper, lower]))

        checked = 0
        for idx in range(len(nus)):
            nu = nus[idx]
            s = S[:, idx] / np.linalg.norm(S[:, idx])
            cands = [p for p in ritz.pairs if p.finite]
            p = min(cands, key=lambda q: abs(q.theta - nu))
            y = proj.Q_tilde @ p.g
            r_ritz = pencil_residual(p.theta, p.theta * y, y)
            w = np.vstack([st.Q[:, :st.k], st.P[:, :st.k]]) @ s
            r_nu = pencil_residual(nu, w[:n], w[n:])
            if r_ritz <= r_nu:    # the comparison the bound rests on
                bound = residual_bound(st, p.theta, s, prob.norms1[0])
                direct = np.linalg.norm(
                    (p.theta ** 2 * M + p.theta * C + K) @ y)
                assert direct <= bound * (1 + 1e-8) + 1e-12
                checked += 1
        assert checked > 0
