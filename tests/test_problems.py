import numpy as np
import pytest
import scipy.sparse as sp

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


class TestStringDamping:
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

    def test_symmetric_expansion(self, tmp_path):
        p = tmp_path / "s.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                     "2 2 2\n1 1 4.0\n2 1 -1.5\n")
        A = read_matrix_market(p).toarray()
        assert np.array_equal(A, np.array([[4.0, -1.5], [-1.5, 0.0]],
                                          dtype=complex))

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
        with pytest.raises(MatrixMarketError, match="out of range"):
            read_matrix_market(p)

    def test_entry_count_mismatch(self, tmp_path):
        p = tmp_path / "cnt.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 3\n1 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="expected 3"):
            read_matrix_market(p)

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
