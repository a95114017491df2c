"""The benchmark's own tests: deterministic inputs, checks that reject wrong
answers, and a tracer that leaves the package as it found it.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import persuade as P  # noqa: E402

import checks as C  # noqa: E402
from calibrate import REFERENCE_S, WIDEN, Speedometer  # noqa: E402
import gen  # noqa: E402
from instances import load, shares_type_ids, type_map  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", sorted(gen.WORKLOAD_INPUTS))
def test_generators_are_deterministic_per_seed(workload):
    make = gen.WORKLOAD_INPUTS[workload]
    first, again, other = (json.dumps(make(seed)) for seed in (7, 7, 8))
    assert first == again
    assert first != other


def _shape_slots(shape) -> int:
    if shape[0] == "prophet_secretary":
        return len(shape[1])
    return shape[1] if shape[0] == "iid" else shape[2]


def test_workload_sizes_do_not_depend_on_the_seed():
    for seed in (1, 2):
        corpus = gen.symmetric_corpus(seed)
        assert [gen.doc_slots(d) for d in corpus["instances"]] == [
            _shape_slots(shape) for shape in gen.CORPUS_SHAPES
        ]
        ps = gen.symmetric_large(seed)[0]["doc"]
        pool = {(t["rho"], t["xi"]) for dist in ps["dists"] for t in dist}
        assert len(ps["dists"]) == gen.LARGE_PS["n"] and len(pool) <= gen.LARGE_PS["pool"]
        assert shares_type_ids(ps)


def test_generated_documents_load():
    for case in gen.symmetric_large(3):
        load(case["doc"])
    for doc in gen.symmetric_corpus(3)["instances"]:
        load(doc)
    inputs = gen.independent(3)
    for case in inputs["large"] + inputs["small"]:
        inst = load(case["doc"])
        assert inst.designated == C.designated_action(case["doc"])


# --------------------------------------------------------------------------
# Each check rejects a wrong answer
# --------------------------------------------------------------------------

def _independent_case():
    case = gen.independent(5)["large"][0]
    inst = load(case["doc"])
    scheme = P.independent_scheme(inst, case["k"], method="greedy")
    return case["doc"], case["k"], scheme


def test_expost_check_accepts_the_program_and_rejects_a_perturbed_u_sender():
    doc, k, scheme = _independent_case()
    S = C.check_expost_scheme(doc, k, scheme)
    assert len(S) == k - 1
    wrong = dataclasses.replace(scheme, u_sender=scheme.u_sender + 1e-6)
    with pytest.raises(C.CheckFailed):
        C.check_expost_scheme(doc, k, wrong)


def test_expost_check_rejects_an_acceptance_table_below_the_threshold():
    doc, k, scheme = _independent_case()
    rho_e = C.best_fixed_value(doc)
    i = next(i for i in scheme.order
             if any(Fraction(t["rho"]) < rho_e for t in doc["actions"][i]))
    accept = {a: dict(row) for a, row in scheme.accept.items()}
    accept[i] = {t["id"]: (1.0 if Fraction(t["rho"]) < rho_e else 0.0) for t in doc["actions"][i]}
    with pytest.raises(C.CheckFailed):
        C.check_expost_scheme(doc, k, dataclasses.replace(scheme, accept=accept))


def test_relaxation_check_rejects_a_perturbed_f():
    doc, k, scheme = _independent_case()
    S = C.selected_set(doc, scheme.order, k)
    value = P.f_of_S(load(doc), S).objective
    C.check_relaxation(doc, S, value)
    with pytest.raises(C.CheckFailed):
        C.check_relaxation(doc, S, value + 1e-6)


def test_fptas_set_check_rejects_a_set_below_its_guarantee():
    doc = gen.FPTAS_FAULT["doc"]
    d = C.designated_action(doc)
    others = [i for i in range(len(doc["actions"])) if i != d]
    ranked = sorted(itertools.combinations(others, 2), key=lambda S: C.relaxation_value(doc, S))
    C.check_fptas_set(doc, ranked[-1], 3, 0.1)
    with pytest.raises(C.CheckFailed):
        C.check_fptas_set(doc, ranked[0], 3, 0.1)


def test_factor_check_rejects_a_value_below_the_guarantee():
    factor = C.method_factor("greedy", 2, 5, 0.1)
    assert factor == 0.375
    C.check_factor(0.375, factor, 1.0, "greedy")
    with pytest.raises(C.CheckFailed):
        C.check_factor(0.37, factor, 1.0, "greedy")


def test_symmetric_checks_reject_wrong_values():
    doc = gen.fixture_doc("tug_of_war")
    rho_e = C.best_fixed_value(doc)
    assert rho_e == Fraction("1/3")
    C.check_receiver_value(1 / 3, rho_e)
    with pytest.raises(C.CheckFailed):
        C.check_receiver_value(1 / 3 - 1e-6, rho_e)
    C.check_sim_mean(0.67, 0.001, 2 / 3, "sender mean")
    with pytest.raises(C.CheckFailed):
        C.check_sim_mean(0.68, 0.001, 2 / 3, "sender mean")


def test_mc_obedience_accepts_the_slope_executor_and_rejects_a_bad_one():
    doc = gen.fixture_doc("tug_of_war")
    inst = load(doc)
    executor = P.SlopeSchemeExecutor(P.slope_algorithm(inst, 3), 3)
    states, rho = C.sample_symmetric_states(doc, type_map(inst), 2000, seed=1)
    C.check_mc_obedience([executor.recommendation_distribution(s) for s in states], rho)
    sender_pick = [{min(range(3), key=lambda j: (-s[j].xi, j)): 1.0} for s in states]
    with pytest.raises(C.CheckFailed):
        C.check_mc_obedience(sender_pick, rho)


def test_benchmark_sampler_matches_the_prior():
    doc = gen.symmetric_large(2)[1]["doc"]  # iid
    inst = load(doc)
    _, rho = C.sample_symmetric_states(doc, type_map(inst), 3000, seed=4)
    assert abs(rho.mean() - float(C.best_fixed_value(doc))) < 0.01


# --------------------------------------------------------------------------
# Tracing
# --------------------------------------------------------------------------

def test_tracer_counts_calls_and_restores_the_package():
    import persuade.prob_oracle as po
    import persuade.symmetric_schemes as ss

    originals = (P.slope_algorithm, ss.unique_probabilities, po.line_side,
                 P.SlopeSchemeExecutor.recommend)
    inst = load(gen.fixture_doc("tug_of_war"))
    tracer = Tracer()
    with tracer:
        assert P.slope_algorithm is not originals[0]
        P.slope_algorithm(inst, 2)
    assert (P.slope_algorithm, ss.unique_probabilities, po.line_side,
            P.SlopeSchemeExecutor.recommend) == originals
    table = tracer.table()
    assert table["symmetric_schemes.slope_algorithm.calls"] == 1
    assert table["prob_oracle.segment_probabilities.calls"] == 2  # once more via candidate_slopes
    assert table["prob_oracle.unique_probabilities.calls"] == table["lp_core.solve_slope_lp.calls"]
    assert table["geometry.line_side.calls"] > 0
    total = table["symmetric_schemes.slope_algorithm.s"]
    parts = sum(v for name, v in table.items() if name.endswith(".self_s"))
    assert parts == pytest.approx(total, rel=1e-9)


# --------------------------------------------------------------------------
# Calibration
# --------------------------------------------------------------------------

def test_speedometer_scales_a_call_by_the_kernel_samples_around_it():
    speed = Speedometer()
    speed.samples = [0.01, 0.05, 0.03] + [0.02] * WIDEN  # before, during, after the call
    speed.record("solve", (2.0, 0, 2))
    first = 2.0 * REFERENCE_S / statistics.fmean(speed.samples)
    speed.record("solve", (1.0, 2, 3 + WIDEN))  # waits for a later sample
    assert len(speed.pending) == 1
    scaled, raw = speed.take()
    assert not speed.pending
    second = 1.0 * REFERENCE_S / statistics.fmean(speed.samples[2 - WIDEN:4 + 2 * WIDEN])
    assert scaled["solve"] == pytest.approx(first + second)
    assert raw["solve"] == pytest.approx(3.0)
    assert speed.take() == ({}, {})


def test_speedometer_takes_kernel_time_out_of_a_call():
    with Speedometer() as speed:
        mark = speed.start()
        speed.sample()  # as the timer would, in the middle of the call
        seconds, first, last = speed.stop(mark)
    assert seconds < speed.samples[-1] / 10
    assert (first, last) == (0, 2)


def test_speedometer_without_calibration_reports_wall_time():
    with Speedometer(calibrate=False) as speed:
        mark = speed.start()
        sum(range(10000))
        speed.record("simulate", speed.stop(mark))
        scaled, raw = speed.take()
    assert not speed.samples
    assert scaled == raw and raw["simulate"] > 0


# --------------------------------------------------------------------------
# The command
# --------------------------------------------------------------------------

def test_run_refuses_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "independent", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
