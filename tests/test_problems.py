import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from soarqep.operator import QepProblem
from soarqep.problems import (MatrixMarketError, gen_mass_spring,
                              gen_string_damping, load_matrix_market,
                              read_matrix_market, write_matrix_market)


class TestMassSpring:
    def test_small_instance_entries(self):
        prob = gen_mass_spring(3, kappa=5.0, tau=10.0)
        assert np.allclose(prob.M.toarray(), np.eye(3))
        K = prob.K.toarray()
        C = prob.C.toarray()
        assert np.allclose(np.diag(K), 15.0)
        assert K[0, 1] == K[1, 0] == -5.0
        assert K[0, 2] == 0.0
        assert np.allclose(np.diag(C), 30.0)
        assert C[1, 2] == -10.0

    def test_zero_kappa(self):
        prob = gen_mass_spring(4, kappa=0.0)
        assert prob.K.nnz == 0 or not np.any(prob.K.toarray())

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_mass_spring(1)


def _dense_string_damping(n, epsilon):
    """The string triple as the generator once built it: C through dense
    n-by-n arrays and ``csc_matrix`` of the result."""
    m = np.arange(2 * n + 1)
    h = np.where(m % 2 == 0, -24.0 * np.pi / np.maximum(m, 1) ** 4.0, 0.0)
    h[0] = np.pi ** 5 / 30.0 - 201.0 * np.pi
    j = np.arange(1, n + 1)
    C = 0.5 * epsilon * np.abs(h[np.abs(j[:, None] - j[None, :])]
                               - h[j[:, None] + j[None, :]])
    M = (np.pi / 2.0) * sp.identity(n, format="csc")
    K = sp.diags((np.pi / 2.0) * j.astype(float) ** 2, format="csc")
    return QepProblem(M, sp.csc_matrix(C), K)


def _stored(prob):
    """dtype and bytes of every stored array of M, C and K, their
    canonical-format flags and the 1-norms."""
    mats = (prob.M, prob.C, prob.K)
    return ([(a.dtype, a.tobytes()) for X in mats
             for a in (X.data, X.indices, X.indptr)],
            [X.has_canonical_format for X in mats], prob.norms1)


class TestStringDamping:
    @pytest.mark.parametrize("epsilon", [0.6, 0.3, -0.6, 0.0, -0.0, 1e-320])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 300, 301])
    def test_bitwise_as_dense_formula(self, n, epsilon):
        # epsilon = +-0 leaves C empty; at n=300 and 301, 1e-320 underflows
        # the entries whose moment difference is small, and drops them
        got = gen_string_damping(n, epsilon=epsilon)
        want = _dense_string_damping(n, epsilon)
        assert _stored(got) == _stored(want)
        if epsilon == 0.0:
            assert got.C.nnz == 0
        if epsilon == 1e-320 and n >= 300:
            assert 0 < got.C.nnz < (n * n + 1) // 2

    @pytest.mark.parametrize("epsilon", [np.inf, -np.inf, np.nan])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="finite"):
            gen_string_damping(4, epsilon=epsilon)

    def test_generation_holds_no_dense_square(self):
        # C's entries are computed straight into its CSC arrays: one dense
        # n-by-n float64 array alone would be 0.8 times C's stored bytes
        gc.collect()
        tracemalloc.start()
        try:
            C = gen_string_damping(1500).C
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = C.data.nbytes + C.indices.nbytes + C.indptr.nbytes
        assert peak <= 1.5 * stored

    def test_needs_positive_size(self):
        with pytest.raises(ValueError, match="n >= 1"):
            gen_string_damping(0)

    def test_mass_and_stiffness(self):
        prob = gen_string_damping(5)
        assert np.allclose(prob.M.toarray(), (np.pi / 2) * np.eye(5))
        K = prob.K.toarray()
        assert np.allclose(np.diag(K),
                           (np.pi / 2) * np.arange(1, 6) ** 2)
        assert np.count_nonzero(K - np.diag(np.diag(K))) == 0

    def test_damping_symmetric_nonnegative(self):
        C = gen_string_damping(6, epsilon=0.6).C.toarray()
        assert np.allclose(C, C.T)
        assert np.all(C.real >= 0.0)
        assert np.all(C.imag == 0.0)

    @pytest.mark.parametrize("i, j", [(0, 0), (0, 2), (4, 8)])
    def test_c11_against_fine_grid_quadrature(self, i, j):
        # independent check: composite Simpson on a fine grid for
        # 0.6 * integral of (x^2 (pi-x)^2 - 201) sin((i+1)x) sin((j+1)x)
        # over [0, pi]
        from scipy.integrate import simpson
        eps = 0.6
        x = np.linspace(0.0, np.pi, 200001)
        f = ((x ** 2 * (np.pi - x) ** 2 - 201.0)
             * np.sin((i + 1) * x) * np.sin((j + 1) * x))
        want = abs(eps * simpson(f, x=x))
        C = gen_string_damping(9, epsilon=eps).C.toarray()
        assert C[i, j] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n", [6, 7])
    def test_odd_parity_entries_are_exact_zeros(self, n):
        # the damping profile is symmetric about pi/2, so every odd cosine
        # moment vanishes and c_ij = 0 exactly whenever i+j is odd
        C = gen_string_damping(n).C
        i, j = np.indices((n, n))
        assert np.all(C.toarray()[(i + j) % 2 == 1] == 0.0)
        assert C.nnz == (n * n + 1) // 2

    def test_epsilon_scales_linearly(self):
        C1 = gen_string_damping(4, epsilon=0.3).C.toarray()
        C2 = gen_string_damping(4, epsilon=0.6).C.toarray()
        assert np.allclose(C2, 2.0 * C1, rtol=1e-12)


class TestMatrixMarket:
    def test_load_needs_three_paths(self, tmp_path):
        with pytest.raises(ValueError, match="exactly three"):
            load_matrix_market([str(tmp_path / "m.mtx"), str(tmp_path / "c.mtx")])

    def test_round_trip_real(self, rng, tmp_path):
        A = sp.random(7, 7, density=0.4, random_state=42, format="csc")
        p = tmp_path / "a.mtx"
        write_matrix_market(p, A)
        B = read_matrix_market(p)
        assert (A - B).nnz == 0 or np.max(np.abs((A - B).toarray())) == 0.0

    def test_round_trip_complex(self, rng, tmp_path):
        A = sp.csc_matrix(rng.standard_normal((5, 5))
                          + 1j * rng.standard_normal((5, 5)))
        p = tmp_path / "c.mtx"
        write_matrix_market(p, A, comment="test matrix")
        B = read_matrix_market(p)
        assert np.array_equal(A.toarray(), B.toarray())

    def test_writer_output_is_general_and_real_when_imag_is_zero(self,
                                                                 tmp_path):
        # a symmetric matrix with complex dtype but zero imaginary parts, at
        # a path without the .mtx suffix, which must be kept as given
        A = sp.csc_matrix(np.array([[2.0, 1.0 / 3.0], [1.0 / 3.0, 0.0]],
                                   dtype=complex))
        p = tmp_path / "sym.txt"
        write_matrix_market(p, A)
        assert (p.read_text().splitlines()[0]
                == "%%MatrixMarket matrix coordinate real general")
        assert np.array_equal(read_matrix_market(p).toarray(), A.toarray())

    @pytest.mark.parametrize("header, entries, expected", [
        ("real symmetric", "1 1 4.0\n2 1 -1.5\n",
         [[4.0, -1.5], [-1.5, 0.0]]),
        ("complex hermitian", "1 1 4.0 0.0\n2 1 -1.5 2.0\n",
         [[4.0, -1.5 - 2.0j], [-1.5 + 2.0j, 0.0]]),
        ("real skew-symmetric", "2 1 -1.5\n",
         [[0.0, 1.5], [-1.5, 0.0]]),
        ("integer general", "1 1 4\n2 1 -3\n",
         [[4.0, 0.0], [-3.0, 0.0]]),
    ], ids=["symmetric", "hermitian", "skew-symmetric", "integer"])
    def test_symmetric_expansion(self, tmp_path, header, entries, expected):
        # symmetric storage mirrors the lower triangle as is, conjugated or
        # negated; integer entries are read as complex like real ones
        p = tmp_path / "s.mtx"
        p.write_text("%%%%MatrixMarket matrix coordinate %s\n2 2 %d\n%s"
                     % (header, entries.count("\n"), entries))
        A = read_matrix_market(p)
        assert A.dtype == complex
        assert np.array_equal(A.toarray(), np.array(expected, dtype=complex))

    def test_pattern_entries(self, tmp_path):
        p = tmp_path / "p.mtx"
        p.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                     "2 2 2\n1 2\n2 1\n")
        A = read_matrix_market(p).toarray()
        assert A[0, 1] == 1.0 and A[1, 0] == 1.0

    def test_bad_header_reports_line_1(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("MatrixMarket matrix coordinate real general\n1 1 0\n")
        with pytest.raises(MatrixMarketError, match=":1:"):
            read_matrix_market(p)

    def test_malformed_entry_reports_line(self, tmp_path):
        p = tmp_path / "bad2.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "% a comment\n"
                     "2 2 2\n"
                     "1 1 3.0\n"
                     "2 oops 1.0\n")
        with pytest.raises(MatrixMarketError, match=":5:"):
            read_matrix_market(p)

    def test_index_out_of_range(self, tmp_path):
        p = tmp_path / "oor.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 1\n3 1 1.0\n")
        with pytest.raises(MatrixMarketError,
                           match=":3: Row index out of bounds") as exc:
            read_matrix_market(p)
        assert exc.value.lineno == 3

    def test_index_overflow_reports_line(self, tmp_path):
        p = tmp_path / "big.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 1\n99999999999999999999999 1 1.0\n")
        with pytest.raises(MatrixMarketError, match=":3:"):
            read_matrix_market(p)

    def test_entry_count_mismatch(self, tmp_path):
        p = tmp_path / "cnt.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 3\n1 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="Truncated file") as exc:
            read_matrix_market(p)
        assert exc.value.lineno is None
        assert str(exc.value).startswith("%s: " % p)

    def test_load_triple_and_shape_mismatch(self, rng, tmp_path):
        n = 4
        names = []
        for tag, A in (("m", np.eye(n)), ("c", rng.standard_normal((n, n))),
                       ("k", rng.standard_normal((n, n)))):
            q = tmp_path / ("%s.mtx" % tag)
            write_matrix_market(q, sp.csc_matrix(A))
            names.append(str(q))
        prob = load_matrix_market(names)
        assert prob.n == n

        bad = tmp_path / "k3.mtx"
        write_matrix_market(bad, sp.identity(3))
        with pytest.raises(ValueError, match="k3.mtx"):
            load_matrix_market(names[:2] + [str(bad)])

    def test_non_finite_entry_names_the_files(self, tmp_path):
        paths = []
        for tag, A in (("m", np.eye(2)), ("c", np.eye(2)),
                       ("k", np.array([[1.0, np.nan], [0.0, 1.0]]))):
            q = tmp_path / ("%s.mtx" % tag)
            write_matrix_market(q, sp.csc_matrix(A))
            paths.append(str(q))
        with pytest.raises(ValueError, match=r"k\.mtx: K has 1-norm nan"):
            load_matrix_market(paths)
