import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import conftest
from conftest import (arpack_nearest_eigenvalues, breakdown_starts,
                      deflation_at_step1, random_qep)
from soarqep import driver, kernels
from soarqep.driver import SolverConfig, solve
from soarqep.extraction import residual_bound
from soarqep.operator import QepProblem
from soarqep.problems import gen_mass_spring, gen_string_damping
from soarqep.oracles import dense_qep_spectrum, mass_spring_spectrum


class TestConfig:
    # the fields are checked when the config is built; mode and sigma when
    # solve builds the operator
    def test_bad_split(self):
        with pytest.raises(ValueError, match="0 < m < k"):
            SolverConfig(m=5, k=5)
        with pytest.raises(ValueError, match="0 < m < k"):
            SolverConfig(m=0, k=4)

    def test_bad_variant_and_mode(self):
        with pytest.raises(ValueError, match="variant"):
            SolverConfig(m=2, k=4, variant="soar")
        with pytest.raises(ValueError, match="mode"):
            solve(gen_mass_spring(10), SolverConfig(m=2, k=4, mode="invert"))

    def test_max_restarts_at_least_one(self):
        with pytest.raises(ValueError, match="max_restarts"):
            SolverConfig(m=2, k=6, max_restarts=0)

    def test_shift_invert_needs_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            solve(gen_mass_spring(10),
                  SolverConfig(m=2, k=4, mode="shift-invert"))

    def test_direct_mode_refuses_sigma(self):
        # a sigma in direct mode would be ignored and steer nothing
        with pytest.raises(ValueError, match="sigma"):
            solve(gen_mass_spring(10), SolverConfig(m=2, k=4, sigma=0.5))

    def test_fields_cannot_be_assigned(self):
        cfg = SolverConfig(m=2, k=4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.k = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.sigma = 0.5
        assert cfg.k == 4 and cfg.sigma is None

    def test_tolerance_ordering(self):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(m=2, k=4, ctol=1e-8, tol=1e-10)
        SolverConfig(m=2, k=4, ctol=1e-10, tol=1e-8)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1e-10])
    def test_ctol_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="ctol must be finite"):
            SolverConfig(m=2, k=4, ctol=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_tol_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="tol must be finite"):
            SolverConfig(m=2, k=4, tol=bad)

    def test_drop_tol_defaults_to_ctol(self):
        assert SolverConfig(m=2, k=4, ctol=1e-9).drop_tol == 1e-9
        assert SolverConfig(m=2, k=4, ctol=1e-9, tol=1e-7).drop_tol == 1e-7

    def test_shift_count_defaults_and_bounds(self):
        cfg = SolverConfig(m=3, k=10)
        assert cfg.num_shifts == 7 and cfg.retained == 3
        cfg = SolverConfig(m=6, k=40, p=15)
        assert cfg.retained == 25
        with pytest.raises(ValueError, match="k - p"):
            SolverConfig(m=6, k=10, p=10)
        with pytest.raises(ValueError, match="k - p"):
            SolverConfig(m=6, k=10, p=5)

    @pytest.mark.parametrize("name", ["u1", "u2"])
    def test_start_vector_length_checked(self, name):
        prob = gen_mass_spring(10)
        cfg = SolverConfig(m=2, k=6, **{name: np.ones(7)})
        with pytest.raises(ValueError, match=r"%s .*n=10" % name):
            solve(prob, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    @pytest.mark.parametrize("name", ["u1", "u2"])
    def test_start_vector_finiteness_checked(self, name, bad):
        prob = gen_mass_spring(10)
        u = np.ones(10, dtype=complex)
        u[4] = bad
        cfg = SolverConfig(m=2, k=6, **{name: u})
        with pytest.raises(ValueError, match="start vector %s .*inf or NaN" % name):
            solve(prob, cfg)

    @pytest.mark.parametrize("scale", [1e300, 1e-320])
    def test_start_vector_scale_does_not_matter(self, scale):
        # ||u1|| overflows at 1e300 and underflows to 0 at 1e-320
        prob = gen_mass_spring(10)
        want = solve(prob, SolverConfig(m=2, k=6, u1=np.ones(10)))
        got = solve(prob, SolverConfig(m=2, k=6, u1=np.full(10, scale)))
        assert got.residual_history == want.residual_history
        assert [c.lam for c in got.converged] == [c.lam for c in want.converged]
        assert len(want.converged) == 2

    def test_start_vector_u2_too_large_for_u1(self):
        # p_1 = u2/||u1|| = 1/(sqrt(10) 1e-320) is past the float range
        cfg = SolverConfig(m=2, k=6, u1=np.full(10, 1e-320), u2=np.ones(10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="u2"):
                solve(gen_mass_spring(10), cfg)

    def test_start_vector_u2_norm_overflows(self):
        # p_1 = u2/sqrt(10) is finite, but the sum of its squares is not
        cfg = SolverConfig(m=2, k=6, u1=np.ones(10), u2=np.full(10, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="u2"):
                solve(gen_mass_spring(10), cfg)

    @pytest.mark.parametrize("scale", [1e70, 1e140, 1e150])
    def test_start_vectors_out_of_scale_named(self, scale):
        # ||p_1|| is finite, but the P t products of the recurrence square
        # it: 1e140 and 1e150 overflow in the first step; at 1e70 the first
        # cycle converges, after the projection has warned of a singular
        # M_k, onto a vector its basis maps near zero (the test below)
        cfg = SolverConfig(m=2, k=6, u1=np.ones(10), u2=np.full(10, scale))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "projected mass matrix")
            with pytest.raises(ValueError, match="u1 and u2 .* overflowed"):
                solve(gen_mass_spring(10), cfg)

    @pytest.mark.parametrize("u1_scale, scale", [(1.0, 1e30), (1.0, 1e50),
                                                 (1.0 + 1.0j, 1e50)])
    def test_start_vectors_out_of_scale_refused_at_delivery(self, u1_scale,
                                                            scale):
        # the runs end without an overflow, with a basis far from
        # orthonormal, and converge onto g with ||Q_tilde g|| near 0: the
        # residual is as small, the eigenvector's 40 to 5000 times
        # norm_sum.  Delivery refuses such a pair, in either arithmetic
        cfg = SolverConfig(m=2, k=6, u1=np.full(10, u1_scale),
                           u2=np.full(10, scale))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "projected mass matrix")
            with pytest.raises(ValueError, match="orthonormality") as exc:
                solve(gen_mass_spring(10), cfg)
        assert exc.value.__cause__ is None


class TestShiftInvert:
    def test_converges_to_nearest_eigenvalues(self, rng):
        n = 40
        prob = random_qep(rng, n)
        sigma = 0.3 + 0.2j
        cfg = SolverConfig(m=4, k=16, mode="shift-invert", sigma=sigma,
                           ctol=1e-10, max_restarts=30, seed=7)
        rep = solve(prob, cfg)
        assert rep.all_converged
        assert len(rep.converged) == 4
        lams, _ = dense_qep_spectrum(prob.M, prob.C, prob.K)
        finite = lams[np.isfinite(lams)]
        nearest = sorted(finite, key=lambda t: abs(t - sigma))[:4]
        got = sorted(rep.converged, key=lambda c: abs(c.lam - sigma))
        for c, want in zip(got, nearest):
            assert abs(c.lam - want) < 1e-8 * max(1.0, abs(want))

    def test_residuals_verified_directly(self, rng):
        n = 30
        prob = random_qep(rng, n)
        cfg = SolverConfig(m=3, k=12, mode="shift-invert", sigma=-0.5,
                           ctol=1e-9, max_restarts=30, seed=3)
        rep = solve(prob, cfg)
        assert rep.all_converged
        M, C, K = prob.M.toarray(), prob.C.toarray(), prob.K.toarray()
        for c in rep.converged:
            direct = np.linalg.norm(
                (c.lam ** 2 * M + c.lam * C + K) @ c.x) / prob.norm_sum
            assert direct <= 2.0 * cfg.ctol

    @pytest.mark.parametrize("variant", ["imsoar", "irsoar"])
    def test_zero_working_ritz_value_is_infinite(self, rng, variant):
        # M = 0 poses a linear pencil as a QEP: the shift-inverted problem
        # then has theta = 0 (lam = infinity) among its Ritz values
        n = 30
        C, K = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        prob = QepProblem.from_matrices(np.zeros((n, n)), C, K)
        sigma = 0.3 + 0.1j
        rep = solve(prob, SolverConfig(m=3, k=12, mode="shift-invert",
                                       sigma=sigma, variant=variant,
                                       max_restarts=30))
        assert rep.all_converged
        nearest = sorted(scipy.linalg.eigvals(-K, C),
                         key=lambda t: abs(t - sigma))[:3]
        got = sorted((c.lam for c in rep.converged), key=lambda t: abs(t - sigma))
        for lam, want in zip(got, nearest):
            assert abs(lam - want) < 1e-8 * abs(want)

    def test_short_shift_set_keeps_larger_subspace(self, rng, monkeypatch):
        # two shifts fewer than p: the contraction keeps two more steps
        select_shifts = driver.select_shifts

        def short_set(*args, **kwargs):
            out = select_shifts(*args, **kwargs)
            return dataclasses.replace(out, shifts=out.shifts[:-2])

        monkeypatch.setattr(driver, "select_shifts", short_set)
        cfg = SolverConfig(m=4, k=16, mode="shift-invert", sigma=0.3 + 0.2j,
                           ctol=1e-10, max_restarts=30, seed=7)
        rep = solve(random_qep(rng, 40), cfg)
        assert rep.all_converged
        retained = [c.retained for c in rep.cycles[:-1]]
        assert retained and all(m == cfg.retained + 2 for m in retained)

    def test_m_equals_k_minus_one(self, rng):
        prob = random_qep(rng, 20)
        cfg = SolverConfig(m=7, k=8, mode="shift-invert", sigma=0.1,
                           ctol=1e-8, max_restarts=60, seed=1)
        rep = solve(prob, cfg)   # p = 1: restarting still makes progress
        assert rep.restarts_used <= 60
        assert len(rep.residual_history) == rep.restarts_used + 1


def _assert_refined_not_worse(report, m):
    """Every cycle's record holds m wanted residuals, none above its Ritz
    pair's."""
    for c in report.cycles:
        assert len(c.residuals) == len(c.ritz_residuals) == m
        assert all(r <= q for r, q in zip(c.residuals, c.ritz_residuals))


class TestVariants:
    def test_irsoar_first_cycle_not_worse(self, rng):
        prob = random_qep(rng, 30)
        base = dict(m=4, k=12, mode="shift-invert", sigma=0.2,
                    max_restarts=1, ctol=1e-30, seed=5)
        rep_i = solve(prob, SolverConfig(variant="imsoar", **base))
        rep_r = solve(prob, SolverConfig(variant="irsoar", **base))
        # identical first subspace: refined residual cannot exceed Ritz
        assert rep_r.residual_history[0] <= rep_i.residual_history[0] + 1e-14

    def test_seeded_runs_bitwise_identical(self, rng):
        prob = random_qep(rng, 25)
        cfg = dict(m=3, k=10, mode="shift-invert", sigma=0.4, ctol=1e-9,
                   max_restarts=20, seed=11)
        a = solve(prob, SolverConfig(**cfg))
        b = solve(prob, SolverConfig(**cfg))
        assert a.residual_history == b.residual_history
        assert a.restarts_used == b.restarts_used
        for ca, cb in zip(a.converged, b.converged):
            assert ca.lam == cb.lam
            assert np.array_equal(ca.x, cb.x)

    def test_monic_path_runs_bitwise_identical(self, monkeypatch):
        # M = (pi/2) I keeps every projected M_k perfectly conditioned, so
        # each projected QEP goes to standard eig on the monic companion:
        # scipy.linalg.eig with no B, or LAPACK dgeev for a real triple
        eig, dgeev = scipy.linalg.eig, kernels.dgeev
        pencils = []

        def recording(a, b=None, **kwargs):
            pencils.append(b)
            return eig(a, b, **kwargs)

        def recording_dgeev(a, **kwargs):
            pencils.append(None)
            return dgeev(a, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eig", recording)
        monkeypatch.setattr(kernels, "dgeev", recording_dgeev)
        prob = gen_string_damping(150)
        cfg = dict(m=10, k=40, mode="direct", variant="irsoar", ctol=1e-10,
                   max_restarts=30, seed=3)
        a = solve(prob, SolverConfig(**cfg))
        b = solve(prob, SolverConfig(**cfg))
        assert a.all_converged and a.restarts_used >= 1
        assert pencils and all(B is None for B in pencils)
        assert a.residual_history == b.residual_history
        assert len(a.converged) == len(b.converged) == 10
        for ca, cb in zip(a.converged, b.converged):
            assert ca.lam == cb.lam
            assert np.array_equal(ca.x, cb.x)

    def test_irsoar_converges_at_tight_ctol(self):
        # the cross-product refined route stalled here near 1e-13
        cfg = SolverConfig(m=6, k=40, p=15, mode="shift-invert",
                           sigma=-13 + 0.4j, variant="irsoar", ctol=1e-15,
                           max_restarts=15)
        rep = solve(gen_mass_spring(500), cfg)
        assert rep.all_converged
        _assert_refined_not_worse(rep, cfg.m)

    def test_imsoar_converges_at_tight_ctol(self):
        cfg = SolverConfig(m=6, k=40, p=15, mode="shift-invert",
                           sigma=-13 + 0.4j, variant="imsoar", ctol=1e-15,
                           max_restarts=15)
        assert solve(gen_mass_spring(500), cfg).all_converged

    @pytest.mark.parametrize("ctol", [1e-10, 1e-13])
    def test_irsoar_refined_not_worse_at_large_ktilde(self, ctol):
        # direct mode at ktilde = 121, where the refined triangles are large
        cfg = SolverConfig(m=10, k=120, p=60, mode="direct", variant="irsoar",
                           ctol=ctol)
        _assert_refined_not_worse(solve(gen_string_damping(150), cfg), cfg.m)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tight_ctol_verdicts_at_blas_thread_count(self, threads):
        # the tight-ctol margins are a few ulps and have flipped with the BLAS
        # thread count, which is fixed once numpy loads: a fresh interpreter
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads))
        tests = ["tests/test_driver.py::TestVariants::test_%s_converges_at_tight_ctol"
                 % variant for variant in ("irsoar", "imsoar")]
        out = subprocess.run([sys.executable, "-m", "pytest", "-q",
                              "-p", "no:cacheprovider"] + tests,
                             cwd=root, env=env, capture_output=True, text=True,
                             timeout=600)
        assert out.returncode == 0, out.stdout[-2000:]
        assert "2 passed" in out.stdout


class TestRealProblems:
    """A real problem in direct mode, or at a real shift, projects to exactly
    real triples, and its cycles solve their projected QEP in real
    arithmetic, for as long as the basis stays real: each conjugate pair of
    shifts is one real double-shift sweep, so only a complex complement (a
    wanted set that splits a pair) makes it complex."""

    def _checked_solve(self, prob, cfg):
        """Solve, and check that no refined residual exceeds its Ritz
        residual in any cycle, and the delivered lambda against the dense
        oracle."""
        rep = solve(prob, cfg)
        _assert_refined_not_worse(rep, cfg.m)
        want, _ = dense_qep_spectrum(prob.M.toarray(), prob.C.toarray(),
                                     prob.K.toarray())
        assert rep.all_converged and len(rep.converged) == cfg.m
        for pair in rep.converged:
            assert np.min(np.abs(want - pair.lam)) <= 1e-8 * abs(pair.lam)
        return rep

    def test_direct_string_real_every_cycle(self):
        # the shifts are complex, but conjugate-closed, so Q stays real
        cfg = SolverConfig(m=10, k=40, mode="direct", variant="irsoar",
                           ctol=1e-10, seed=3)
        rep = self._checked_solve(gen_string_damping(150), cfg)
        assert rep.restarts_used >= 1
        assert [c.real for c in rep.cycles] == [True] * (rep.restarts_used + 1)

    def test_direct_string_split_wanted_pair_goes_complex(self):
        # m = 9 wants one member of a conjugate pair: the complement and the
        # shifts are complex, and so is every cycle after the first
        cfg = SolverConfig(m=9, k=40, mode="direct", variant="irsoar",
                           ctol=1e-10, seed=3)
        rep = self._checked_solve(gen_string_damping(150), cfg)
        assert rep.restarts_used >= 1
        assert ([c.real for c in rep.cycles]
                == [True] + [False] * rep.restarts_used)

    def test_decomposition_stored_real_until_complex_restart(self):
        # the decomposition each cycle projects is float64 while the
        # restarts are real, and complex from the first complex one on; a
        # complex start is complex throughout.  The projection takes its
        # arithmetic from the basis's dtype, so ``real`` follows suit.
        prob = gen_string_damping(150)
        u1 = np.random.default_rng(3).random(150)
        for m, u, want in ((10, u1, True), (9, u1, False),
                           (10, u1 * (1.0 + 1.0j), False)):
            rep = solve(prob, SolverConfig(m=m, k=40, mode="direct",
                                           variant="irsoar", ctol=1e-10, u1=u))
            assert rep.all_converged and rep.restarts_used >= 1
            first = u.dtype != complex
            assert ([c.stored_real for c in rep.cycles]
                    == [first] + [want] * rep.restarts_used)
            assert ([c.real for c in rep.cycles]
                    == [c.stored_real for c in rep.cycles])

    @pytest.mark.parametrize("variant", ["irsoar", "imsoar"])
    def test_small_odd_p_completes_split_pairs(self, variant):
        # p = 3 splits a conjugate pair of shifts in most restarts; taking
        # the partner as well (4 shifts) converges in 47 (irsoar) and 45
        # (imsoar) restarts; leaving the third out (2 shifts) takes 76
        prob = gen_string_damping(150)
        rep = solve(prob, SolverConfig(m=10, k=40, p=3, mode="direct",
                                       variant=variant, ctol=1e-10, seed=3))
        assert rep.all_converged and rep.restarts_used <= 50
        want, _ = dense_qep_spectrum(prob.M.toarray(), prob.C.toarray(),
                                     prob.K.toarray())
        for pair in rep.converged:
            assert np.min(np.abs(want - pair.lam)) <= 1e-8 * abs(pair.lam)

    def test_real_shift_on_real_spectrum_stays_real(self):
        # the chain is overdamped, (x*Cx)^2 > 4 (x*Mx)(x*Kx) for all x != 0,
        # and so is its shift-inverted triple at a real shift and every
        # projection of it onto a real basis: all Ritz values and shifts are
        # real, and the basis stays real through every contraction
        cfg = SolverConfig(m=6, k=16, p=6, mode="shift-invert", sigma=-13.0,
                           variant="irsoar", ctol=1e-10, seed=1)
        rep = self._checked_solve(gen_mass_spring(200), cfg)
        assert rep.restarts_used >= 1
        assert [c.real for c in rep.cycles] == [True] * (rep.restarts_used + 1)
        assert all(mu.imag == 0.0 for c in rep.cycles for mu in c.shifts)


@pytest.fixture(scope="class")
def chain_runs():
    """Reports of an underdamped chain, ``gen_mass_spring(200, tau=1.0)``,
    shift-invert at sigma in {-1.0, -1.5}, m=6, k=20, 40 restarts, both
    variants, seeds 0-2, keyed (sigma, variant, seed).  Every restart drops
    a numerically dependent wanted vector before the complement QR."""
    prob = gen_mass_spring(200, tau=1.0)
    runs = {}
    for sigma in (-1.0, -1.5):
        for variant in ("irsoar", "imsoar"):
            for seed in range(3):
                cfg = SolverConfig(m=6, k=20, mode="shift-invert", sigma=sigma,
                                   variant=variant, max_restarts=40, seed=seed)
                with pytest.warns(RuntimeWarning,
                                  match="numerically dependent"):
                    runs[sigma, variant, seed] = solve(prob, cfg)
    return runs


class TestUnderdampedChain:
    """||p_j|| grows about 15-fold per step on this chain, and T with it,
    until its smallest subdiagonal entry is 1e-17 of its largest.  A real
    double-shift chase on such a T lost the restart filter, and three of
    the six runs at sigma = -1 reported a breakdown at residuals of 2e-2."""

    def test_no_false_breakdown(self, chain_runs):
        for (sigma, _, _), rep in chain_runs.items():
            assert rep.breakdown is None and rep.restarts_used == 40
            if sigma == -1.5:
                # 1.9e-6 to 4.1e-6; 2.2e-4 to 4.6e-3 with the filter lost
                assert rep.residual_history[-1] <= 1e-4

    def test_refined_restarts_beat_exact_restarts(self, chain_runs):
        # the paper's claim for restarted RSOAR against restarted MSOAR:
        # at sigma = -1 irsoar ends 7 to 12 times below imsoar
        for seed in range(3):
            irsoar = chain_runs[-1.0, "irsoar", seed].residual_history[-1]
            imsoar = chain_runs[-1.0, "imsoar", seed].residual_history[-1]
            assert irsoar <= imsoar / 3


class TestLargeN:
    @pytest.mark.parametrize("variant", ["imsoar", "irsoar"])
    def test_mass_spring_20000_matches_analytic_roots(self, variant):
        # past the dense guards: the closed-form spectrum is the oracle
        n, sigma = 20000, -13 + 0.05j
        cfg = SolverConfig(m=6, k=40, p=15, mode="shift-invert", sigma=sigma,
                           variant=variant)
        rep = solve(gen_mass_spring(n), cfg)
        assert rep.all_converged and len(rep.converged) == 6
        want = sorted(mass_spring_spectrum(n, 5.0, 10.0),
                      key=lambda t: abs(t - sigma))[:6]
        got = sorted((c.lam for c in rep.converged), key=lambda t: abs(t - sigma))
        for lam, ref in zip(got, want):
            assert abs(lam - ref) <= 1e-8 * abs(ref)


    def test_string_damping_1000_matches_arpack(self):
        # the string1000 benchmark configuration; past the dense guards,
        # ARPACK on a companion pencil is the oracle
        n, sigma, m = 1000, 0.6 + 0.8j, 6
        prob = gen_string_damping(n, epsilon=0.6)
        cfg = SolverConfig(m=m, k=20, p=8, mode="shift-invert", sigma=sigma,
                           variant="imsoar", ctol=1e-10)
        rep = solve(prob, cfg)
        assert rep.all_converged and len(rep.converged) == m

        def by_distance(lams):
            return sorted(lams, key=lambda t: abs(t - sigma))

        want = by_distance(arpack_nearest_eigenvalues(
            prob.M, prob.C, prob.K, sigma, m + 4))[:m]
        got = by_distance(c.lam for c in rep.converged)
        for lam, ref in zip(got, want):
            assert abs(lam - ref) <= 1e-8 * abs(ref)
        for c in rep.converged:
            x = c.x / np.linalg.norm(c.x)
            r = c.lam ** 2 * (prob.M @ x) + c.lam * (prob.C @ x) + prob.K @ x
            assert np.linalg.norm(r) / prob.norm_sum <= cfg.ctol


def _peak_blocks(n, k, restarts):
    """tracemalloc peak of a mass-spring solve, in blocks of n x (k+2)
    complex, and the restarts it used."""
    cfg = SolverConfig(m=6, k=k, p=15, mode="shift-invert", sigma=-13 + 0.4j,
                       variant="irsoar", ctol=1e-10, tol=1e-8,
                       max_restarts=restarts)
    prob = gen_mass_spring(n)
    rep, peak = conftest.peak(lambda: solve(prob, cfg))
    return peak / (n * (k + 2) * 16), rep.restarts_used


class TestMemory:
    def test_restart_cycle_holds_one_working_set(self):
        # Besides the O(n) operator data, a cycle holds the Q and P buffers
        # and one row block of the projection: 2.63 blocks of n x (k+2)
        # complex at n = 3000, whose twelve row blocks of 256 rows are a
        # twelfth of n each (2.65 with 32-column reflector blocks in the
        # Gram fold).  Slicing the working matrices and copying
        # basis-row chunks for each block took it to 2.80, blocks of 1024
        # rows to 4.10, and the whole n x 3ktilde QR array to 5.75.
        blocks, restarts = _peak_blocks(3000, 40, 2)
        assert restarts == 2
        assert blocks <= 2.7

    def test_ms5k_size_holds_q_and_p_and_one_row_block(self):
        # n = 5000, the size of the ms5k benchmark workload: sixteen row
        # blocks of 313 rows, and a peak of 2.45 blocks (2.47 with
        # 32-column reflector blocks in the Gram fold), where slices and
        # basis-row chunks took it to 2.58 and five blocks of 1024 rows to
        # 3.38
        blocks, restarts = _peak_blocks(5000, 40, 2)
        assert restarts == 2
        assert blocks <= 2.5

    def test_large_n_holds_q_and_p_and_one_row_block(self):
        # At n = 20000 a row block is 1/16 of n, so the peak is the Q and P
        # buffers (1.95 blocks), the operator data and one block of rows:
        # 2.33 (2.44 with slices and basis-row chunks).  The n x 3ktilde
        # array adds 2.9 blocks, a column-norm temporary of Q or a second
        # pair of Q and P buffers at least one.
        blocks, restarts = _peak_blocks(20000, 40, 1)
        assert restarts == 1
        assert blocks <= 2.4

    def test_shift_invert_string_holds_two_data_arrays(self):
        # string1000's configuration at n = 600, one restart, in units of
        # C's data bytes (180k stored entries): M_hat and C_hat share C's
        # index arrays, so the operator keeps 2.0 units and the one-block
        # projection sets the peak at 2.51.  With private index arrays
        # (and scipy's sums) it was 3.02.
        cfg = SolverConfig(m=6, k=20, p=8, mode="shift-invert",
                           sigma=0.6 + 0.8j, variant="imsoar", ctol=1e-10,
                           max_restarts=1)
        prob = gen_string_damping(600)
        rep, peak = conftest.peak(lambda: solve(prob, cfg))
        assert rep.restarts_used == 1
        assert peak <= 2.6 * prob.C.data.nbytes

    def test_direct_real_solve_at_large_ktilde(self):
        # string300's configuration, one restart: n = 300 is small beside
        # ktilde = 141, so the cycle's k-order work sets the peak, here in
        # units of the 2ktilde x 2ktilde float64 companion.  It is 6.35:
        # the refined vector's S on top of the cycle's float64 Q, P and
        # T_hat, R blocks, triple and Ritz vectors; 7.67 with Q, P and
        # T_hat complex.  Promoting the real triple to complex, copying the
        # companion and building scipy's complex eigenvectors, with S formed
        # whole and its triangle built beside it, took 10.62.
        cfg = SolverConfig(m=20, k=140, p=70, mode="direct", variant="irsoar",
                           ctol=1e-10, max_restarts=1)
        prob = gen_string_damping(300)
        rep, peak = conftest.peak(lambda: solve(prob, cfg))
        assert rep.restarts_used == 1 and len(rep.converged) == 20
        assert peak <= 6.4 * (2 * 141) ** 2 * 8


class TestBreakdown:
    def test_huge_shift_reports_breakdown_without_overflow(self):
        # ||M_hat||_1 is about 1e200, whose square overflows a float
        cfg = SolverConfig(m=2, k=6, mode="shift-invert", sigma=1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(gen_mass_spring(10), cfg)
        assert rep.breakdown == (0, 2)
        assert all(np.isfinite(d["bound"]) for d in rep.bound_diagnostics)

    def test_breakdown_finalization(self, rng, monkeypatch):
        original = driver._breakdown_diagnostics
        states = []

        def recording(state, op):
            states.append(state)
            return original(state, op)

        monkeypatch.setattr(driver, "_breakdown_diagnostics", recording)
        prob = random_qep(rng, 10)
        u1, u2 = breakdown_starts(prob, 6)
        cfg = SolverConfig(m=3, k=10, ctol=1e-10, tol=1e-10, max_restarts=5,
                           u1=u1, u2=u2)
        rep = solve(prob, cfg)
        assert rep.breakdown is not None
        assert rep.breakdown[0] == 0      # first cycle
        (record,) = rep.cycles
        assert max(record.residuals) == rep.residual_history[0]
        assert record.shifts == [] and record.retained is None
        assert len(rep.converged) >= 6    # all invariant-subspace pairs
        for c in rep.converged:
            assert c.from_breakdown
            assert c.rel_residual <= 1e-10
        # one bound per Petrov pair of T_k, each the pair's residual_bound
        (st,) = states
        assert rep.breakdown[1] == st.k
        nus, S = np.linalg.eig(st.T)
        assert len(rep.bound_diagnostics) == st.k
        for d, nu, s in zip(rep.bound_diagnostics, nus, S.T):
            want = residual_bound(st, nu, s, prob.norms1[0])
            assert d["theta"] == nu
            assert d["bound"] == pytest.approx(want, rel=1e-14)
            assert d["rel_bound"] == pytest.approx(want / prob.norm_sum,
                                                   rel=1e-14)

    def test_breakdown_pairs_match_oracle(self, rng):
        prob = random_qep(rng, 8)
        u1, u2 = breakdown_starts(prob, 4)
        rep = solve(prob, SolverConfig(m=2, k=8, ctol=1e-10, tol=1e-10,
                                       u1=u1, u2=u2))
        lams, _ = dense_qep_spectrum(prob.M, prob.C, prob.K)
        finite = lams[np.isfinite(lams)]
        for c in rep.converged:
            assert min(abs(c.lam - finite)) < 1e-8 * max(1.0, abs(c.lam))

    def test_breakdown_pairs_checked_against_problem(self, rng):
        # every delivered pair, wanted or not, carries its residual and
        # backward error from M, C and K
        prob = random_qep(rng, 8)
        u1, u2 = breakdown_starts(prob, 4)
        rep = solve(prob, SolverConfig(m=2, k=8, ctol=1e-10, tol=1e-10,
                                       u1=u1, u2=u2))
        assert rep.breakdown and rep.converged
        M, C, K = (X.toarray() for X in (prob.M, prob.C, prob.K))
        eps = np.finfo(float).eps
        for c in rep.converged:
            norm = np.linalg.norm((c.lam ** 2 * M + c.lam * C + K) @ c.x)
            t = abs(c.lam)
            # the two products agree to a few units of the rounding floor
            scale = t * t * prob.norms1[0] + t * prob.norms1[1] + prob.norms1[2]
            assert c.residual == pytest.approx(
                norm / prob.norm_sum, rel=1e-8,
                abs=10 * eps * scale / prob.norm_sum)
            assert c.backward_error == pytest.approx(norm / scale, rel=1e-8,
                                                     abs=10 * eps)


class TestNonConvergence:
    def test_partial_report_after_budget(self, rng):
        # an impossible tolerance: the loop must stop at max_restarts and
        # still hand back whatever did converge, without raising
        prob = random_qep(rng, 20)
        cfg = SolverConfig(m=3, k=8, mode="shift-invert", sigma=0.3,
                           ctol=1e-300, max_restarts=3, seed=2)
        rep = solve(prob, cfg)
        assert not rep.all_converged
        assert rep.restarts_used == 3
        assert len(rep.residual_history) == 4
        assert rep.converged == []

    def test_history_rows_match_cycles(self, rng):
        prob = random_qep(rng, 25)
        cfg = SolverConfig(m=3, k=10, mode="shift-invert", sigma=0.25,
                           ctol=1e-9, max_restarts=25, seed=4)
        rep = solve(prob, cfg)
        assert len(rep.residual_history) == rep.restarts_used + 1
        assert len(rep.deflation_history) == rep.restarts_used + 1
        # one record per row, of Python scalars only, so nothing n-length
        # outlives the solve; a restarted cycle keeps k minus its shifts
        assert len(rep.cycles) == rep.restarts_used + 1 >= 2
        for c, res in zip(rep.cycles, rep.residual_history):
            assert float.hex(max(c.residuals)) == float.hex(res)
            assert c.residuals == c.ritz_residuals      # imsoar
            for value in dataclasses.astuple(c):
                items = value if type(value) is list else [value]
                assert all(type(v) in (bool, int, float, complex, type(None))
                           for v in items)
        assert all(c.retained + len(c.shifts) == cfg.k for c in rep.cycles[:-1])
        assert rep.cycles[-1].shifts == [] and rep.cycles[-1].retained is None



class TestCycleRecords:
    @pytest.mark.parametrize("seed", range(20260830, 20260835))
    def test_repaired_deflation_reported(self, seed):
        # the step-1 deflation of cycle 0 is repaired by its contraction,
        # which RestartReport counts; no later cycle deflates
        prob, u1, u2 = deflation_at_step1(np.random.default_rng(seed), 24)
        cfg = SolverConfig(m=3, k=9, p=4, ctol=1e-10, tol=1e-10,
                           max_restarts=20, u1=u1, u2=u2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(prob, cfg)
        assert rep.restarts_used >= 1
        assert ([c.deflations_repaired for c in rep.cycles]
                == [1] + [0] * rep.restarts_used)
