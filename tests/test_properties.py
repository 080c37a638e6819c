"""Property test: random expand/contract sequences keep the MSOAR decomposition.

Each example grows a decomposition with ``run_msoar``, shrinks it with
``contract`` under random shifts and repeats, on a random problem or on one
of the engineered deflation problems.  After every step the stacked identity
holds, the nonzero Q columns are orthonormal and the Q columns at the
recorded deflation steps are exactly zero.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (complex_start, decomposition_tolerance,
                      deflation_at_step1, random_qep, rank_deficient_qep,
                      stacked_residual)
from soarqep.msoar import init_state, run_msoar
from soarqep.operator import build_operator
from soarqep.restart import ShiftSet, contract

shift_values = st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                  allow_infinity=False)


def _start(kind, n, rng):
    """(problem, u1, u2, drop tolerance) for one problem family."""
    if kind == "deflation":
        prob, u1, u2 = deflation_at_step1(rng, n)
        return prob, u1, u2, 1e-10
    if kind == "rank_deficient":
        prob = rank_deficient_qep(rng, n, rank=int(rng.integers(1, 3)))
        tol = 1e-10
    else:
        prob = random_qep(rng, n)
        tol = 1e-12
    return prob, rng.standard_normal(n), rng.standard_normal(n), tol


def _check(op, state, tol):
    assert stacked_residual(op, state) <= tol
    Q = state.nonzero_q()
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(Q.shape[1])) < 1e-10
    for j in state.deflation_steps:
        assert np.all(state.Q[:, j] == 0.0)


@given(kind=st.sampled_from(["random", "deflation", "rank_deficient"]),
       n=st.integers(10, 40), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_expand_contract_sequences_keep_decomposition(kind, n, seed, data):
    rng = np.random.default_rng(seed)
    prob, u1, u2, tol = _start(kind, n, rng)
    op = build_operator(prob)
    state = init_state(op, u1, u2)
    for _ in range(data.draw(st.integers(1, 4), label="cycles")):
        k = data.draw(st.integers(max(state.k, 2), 12), label="k")
        run_msoar(state, op, k, tol)
        _check(op, state, decomposition_tolerance(state))
        if state.breakdown:
            return
        p = data.draw(st.integers(1, state.k - 1), label="p")
        mu = data.draw(st.lists(shift_values, min_size=p, max_size=p),
                       label="shifts")
        state, _ = contract(state, ShiftSet(shifts=mu, provenance="exact"),
                            state.k - p)
        _check(op, state, decomposition_tolerance(state, 1e-9))


def _replay(n, seed, plan):
    """Run a fixed expand/contract plan on ``rank_deficient_qep``, checking
    like the property test; ``plan`` holds (k, shifts) pairs and the last
    pair has no shifts.  The decomposition is complex throughout
    (``complex_start``), the arithmetic these replays were recorded in:
    their states are rank deficient with ||P|| near 1e15, and stored in
    float64 the first one rounds differently enough that its shift no
    longer meets a zero eigenvalue of T."""
    prob, u1, u2, tol = _start("rank_deficient", n, np.random.default_rng(seed))
    op = build_operator(prob)
    state = complex_start(op, u1, u2)
    for k, mu in plan:
        run_msoar(state, op, k, tol)
        _check(op, state, decomposition_tolerance(state))
        if mu:
            state, _ = contract(state, ShiftSet(shifts=mu, provenance="exact"),
                                state.k - len(mu))
            _check(op, state, decomposition_tolerance(state, 1e-9))


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.xfail(strict=True, reason="FOUND in CHANGES.md: contract divides "
                   "by a tiny R diagonal for a shift near a zero eigenvalue "
                   "of T; the state stays finite (about 1e145) but "
                   "conftest.stacked_residual overflows to inf")
def test_shift_near_zero_eigenvalue_with_deflation():
    _replay(10, 6021, [(3, [6.3703409613256726e-145j]), (3, None)])


@pytest.mark.xfail(strict=True, reason="FOUND in CHANGES.md: "
                   "decomposition_tolerance does not cover the residual "
                   "dropped at deflation steps nor rounding inherited "
                   "through contractions")
def test_tolerance_after_repeated_deflating_contractions():
    _replay(16, 596447, [(10, [0] * 7 + [1j, 2j]), (8, [0] * 6 + [3j]),
                         (2, None)])
