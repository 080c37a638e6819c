"""Smoke tests of the benchmark itself, at reduced problem sizes."""

import json
import math
import os
import time

import numpy as np
import pytest

import harness
import reference
from layertrace import LayerTracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def soarqep():
    return harness.load_soarqep(os.path.join(ROOT, "src"))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_spec_matches_harness():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == [
        wl.name for wl in harness.WORKLOADS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        harness.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [wl.name for wl in harness.WORKLOADS])
def test_small_workload_emits_every_metric(soarqep, name, trace):
    wl = harness.small_workload(
        next(w for w in harness.WORKLOADS if w.name == name))
    metrics, tally, lines = harness.run_workload(soarqep, wl, seed=5,
                                                 seconds=0.0, trace=trace)
    assert tally.failed == 0, tally.reasons
    assert tally.attempted >= 2
    units = harness.PER_LAYER if trace else harness.END_TO_END
    result = harness._result(True, tally, metrics, units)
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert json.loads(json.dumps(result)) == result
    assert any(line.startswith("fail_frac") for line in lines)


def _small_solve(soarqep):
    wl = harness.small_workload(harness.WORKLOADS[0])
    problem = harness.generate(soarqep, wl)
    ref = harness.build_reference(wl, problem)
    runner = harness.Runner(soarqep, wl, problem, ref, seed=2)
    _, report = runner.solve()
    assert runner.tally.failed == 0, runner.tally.reasons
    pairs = [(p.lam, p.x, p.rel_residual) for p in report.converged]
    return wl, ref, runner, report, pairs


def test_verifier_flags_perturbed_pairs(soarqep):
    wl, ref, _, _, pairs = _small_solve(soarqep)
    m, ctol = wl.config["m"], wl.config["ctol"]
    assert reference.verify_pairs(ref, pairs, m, ctol) == []

    lam, x, res = pairs[0]
    bad_lam = [(lam * (1 + 1e-5), x, res)] + pairs[1:]
    assert reference.verify_pairs(ref, bad_lam, m, ctol)

    noise = np.random.default_rng(0).standard_normal(x.shape) * 1e-6
    bad_x = [(lam, x + noise, res)] + pairs[1:]
    assert any("residual" in p for p in reference.verify_pairs(ref, bad_x, m, ctol))

    assert reference.verify_pairs(ref, pairs[1:], m, ctol)
    assert reference.verify_pairs(ref, pairs[:1] + pairs[:-1], m, ctol)


def test_verifier_flags_unwanted_eigenvalue(soarqep):
    wl, ref, _, _, pairs = _small_solve(soarqep)
    m = wl.config["m"]
    far = ref.lams[-1]            # least wanted reference eigenvalue
    problems = reference.verify_pairs(ref, pairs[:-1] + [(far, pairs[-1][1], 0.0)],
                                      m, wl.config["ctol"])
    assert any("not among" in p for p in problems)


def test_determinism_check_flags_changed_history(soarqep):
    _, _, runner, report, _ = _small_solve(soarqep)
    assert runner.check(report) == []
    report.residual_history[-1] = np.nextafter(report.residual_history[-1], 1.0)
    assert any("bitwise" in p for p in runner.check(report))


def test_analytic_mass_spring_matches_dense_companion(soarqep):
    problem = soarqep.gen_mass_spring(40, kappa=harness.MS_KAPPA,
                                      tau=harness.MS_TAU)
    analytic = np.sort_complex(reference.mass_spring_spectrum(
        40, harness.MS_KAPPA, harness.MS_TAU))
    dense = np.sort_complex(reference.dense_companion_spectrum(
        problem.M, problem.C, problem.K))
    assert np.allclose(analytic, dense, rtol=1e-10, atol=1e-10)


def test_tracer_reports_missing_functions_and_restores(soarqep):
    from soarqep import extraction, kernels
    original = kernels.solve_projected_qep
    tracer = LayerTracer("soarqep", harness.LAYERS, harness.OBSERVERS)
    with tracer:
        assert extraction.kernels.solve_projected_qep is not original
    assert kernels.solve_projected_qep is original

    values, absent = harness.layer_metrics(tracer, None)
    assert not absent
    tracer.stats.pop(("kernels", "gram_blocks"))
    values, absent = harness.layer_metrics(tracer, None)
    assert absent == ["kernels.gram_blocks_s"]
    assert values["kernels.gram_blocks_s"] == 0.0


def test_tracer_survives_changed_return_shape(soarqep):
    def expects_pair(result, counters):
        _, rep = result

    tracer = LayerTracer("soarqep", ["operator"],
                         {("operator", "apply_ab"): expects_pair})
    problem = soarqep.gen_mass_spring(30)
    with tracer:
        soarqep.solve(problem, soarqep.SolverConfig(m=2, k=8, mode="shift-invert",
                                                    sigma=-13 + 0.4j))
    assert tracer.calls("operator", "apply_ab") > 0
    assert tracer.observer_errors == {("operator", "apply_ab")}


def test_self_times_add_up_to_the_solve(soarqep):
    tracer = LayerTracer("soarqep", harness.LAYERS)
    problem = soarqep.gen_mass_spring(300)
    config = soarqep.SolverConfig(m=4, k=20, mode="shift-invert", sigma=-13 + 0.4j)
    with tracer:
        t0 = time.perf_counter()
        soarqep.solve(problem, config)
        wall = time.perf_counter() - t0
    total = sum(v[0] for v in tracer.stats.values())
    assert tracer.calls("driver", "solve") == 1
    assert 0.9 * wall <= total <= wall


def test_calibrated_loop_scales_by_bracketing_calibrations():
    cals = iter([1.0, 4.0, 1.0, 4.0])
    steps = iter([(0.5, "a"), (0.25, None), (1.0, "c")])

    def cal():
        return next(cals) * harness.CAL_REF_S

    raw, scaled, last = harness.calibrated_loop(lambda: next(steps), cal,
                                                min_reps=3, seconds=0.0)
    assert raw == [0.5, 0.25, 1.0]
    assert scaled == pytest.approx([0.25, 0.125, 0.5])
    assert last == "c"


def test_missing_sources_are_refused(tmp_path):
    with pytest.raises(harness.SetupError):
        harness.load_soarqep(str(tmp_path))
