"""Acceptance gate: one test per advertised guarantee.

Each test exercises one end-to-end promise of the package at its stated
tolerance, so ``pytest tests/test_acceptance.py -v`` reads as a checklist.
The randomized corpora are seeded and shared with the unit suite through
``corpus.py``.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

import persuade as P
from persuade.cli import main as cli_main
from persuade.exact_oracle import enumerate_count
from persuade.model import ActionType, ProphetSecretaryInstance, _prior_table, _state_sampler, n_slots
from persuade.prob_oracle import unique_probabilities
from persuade.symmetric_schemes import SlopeSchemeExecutor, _Tangency
from corpus import (
    big_prophet_secretary,
    independent_corpus,
    probe_slopes,
    random_best_fixed_deterministic,
    random_symmetric,
    symmetric_corpus,
)


@pytest.fixture(scope="module")
def symmetric200():
    return symmetric_corpus(200)


@pytest.fixture(scope="module")
def independent100():
    return independent_corpus(100)


@pytest.fixture(scope="module")
def bruteforce_opt(independent100):
    """Exact OPT_k per independent corpus instance, k cycled over [2, n]."""
    out = {}
    for idx, inst in enumerate(independent100):
        n = len(inst.actions)
        k = 2 + idx % (n - 1)
        _, value = P.optimal_scheme_bruteforce(inst, k)
        out[idx] = (k, value)
    return out


def test_01_running_example_utility():
    inst = P.load_fixture("tug_of_war")
    start = time.perf_counter()
    scheme = P.slope_algorithm(inst, 3)
    elapsed = time.perf_counter() - start
    assert abs(scheme.u_sender - 2.0 / 3.0) <= 1e-6
    assert elapsed < 1.0
    print(f"u_sender={scheme.u_sender:.9f} in {elapsed * 1000:.0f} ms")


def test_02_slope_matches_bruteforce(symmetric200):
    start = time.perf_counter()
    pairs = 0
    worst = 0.0
    for inst in symmetric200:
        n = n_slots(inst)
        for k in range(2, n + 1):
            got = P.slope_algorithm(inst, k).u_sender
            _, exact = P.optimal_scheme_bruteforce(inst, k)
            worst = max(worst, abs(got - exact))
            assert abs(got - exact) <= 1e-6, (inst.kind, n, k)
            pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"{pairs} (instance, k) pairs, worst gap {worst:.2e}, {elapsed:.1f} s")


def test_03_probability_oracle_equivalence(symmetric200):
    pairs = 0
    worst = 0.0
    for inst in symmetric200:
        n = n_slots(inst)
        for k in range(2, n + 1):
            slopes = probe_slopes(inst, k)
            tables = P.enumerate_oracle(inst, k, slopes=slopes)
            analytic = {(s.a.id, s.b.id): s.p for s in P.segment_probabilities(inst, k)}
            exact = {key: float(v) for key, v in tables.segments.items()}
            for key in set(analytic) | set(exact):
                gap = abs(analytic.get(key, 0.0) - exact.get(key, 0.0))
                worst = max(worst, gap)
                assert gap <= 1e-9, (inst.kind, k, key)
            for s in slopes:
                uniq = {u.c.id: u.p for u in unique_probabilities(inst, k, s)}
                exact_u = {tid: float(v) for (tid, sl), v in tables.uniques.items() if sl == s}
                for tid in set(uniq) | set(exact_u):
                    gap = abs(uniq.get(tid, 0.0) - exact_u.get(tid, 0.0))
                    worst = max(worst, gap)
                    assert gap <= 1e-9, (inst.kind, k, tid, s)
            pairs += 1
    print(f"{pairs} (instance, k) pairs, worst gap {worst:.2e}")


def test_04_greedy_precondition_fixture(tmp_path):
    inst = P.load_fixture("fallback_trap")
    assert abs(P.f_of_S(inst).objective) <= 1e-12
    assert abs(P.f_of_S(inst, [0]).objective) <= 1e-12
    _, opt2 = P.optimal_scheme_bruteforce(inst, 2)
    assert abs(opt2 - 0.5) <= 1e-8
    path = tmp_path / "fallback_trap.json"
    P.save_instance(inst, path)
    result = CliRunner().invoke(
        cli_main,
        ["solve", "--instance", str(path), "--method", "greedy", "--k", "2"],
    )
    assert result.exit_code == 3
    assert "--force" in result.output
    print(f"f(empty)=0, f({{first}})=0, OPT_2={opt2:.9f}, CLI refused with exit 3")


def test_05_greedy_factor_bound(independent100, bruteforce_opt):
    worst = math.inf
    for idx, inst in enumerate(independent100):
        k, opt_k = bruteforce_opt[idx]
        miss = 1.0 - 1.0 / k
        factor = (1.0 - miss**k) * (1.0 - miss ** (k - 1))
        if k == 2:
            assert factor == 0.375
        scheme = P.independent_scheme(inst, k, method="greedy")
        slack = scheme.u_sender - (factor * opt_k - 1e-6)
        worst = min(worst, slack)
        assert slack >= 0.0, (idx, k, scheme.u_sender, opt_k)
    print(f"100 instances, worst slack {worst:.2e}")


def test_06_fptas_bounds(independent100, bruteforce_opt):
    worst_f = worst_end = math.inf
    for idx, inst in enumerate(independent100):
        k, opt_k = bruteforce_opt[idx]
        selected = P.fptas_select(inst, k, 0.1)
        f_got = P.f_of_S(inst, selected).objective
        others = [i for i in range(len(inst.actions)) if i != inst.designated]
        f_best = max(
            P.f_of_S(inst, combo).objective
            for combo in itertools.combinations(others, k - 1)
        )
        slack_f = f_got - (0.9 * f_best - 1e-9)
        worst_f = min(worst_f, slack_f)
        assert slack_f >= 0.0, (idx, k, f_got, f_best)

        miss = 1.0 - 1.0 / k
        scheme = P.independent_scheme(inst, k, method="fptas", epsilon=0.1)
        bound = (1.0 - miss**k) * 0.9 * (1.0 - 1.0 / k) * opt_k - 1e-6
        slack_end = scheme.u_sender - bound
        worst_end = min(worst_end, slack_end)
        assert slack_end >= 0.0, (idx, k, scheme.u_sender, opt_k)
    print(f"100 instances, worst f slack {worst_f:.2e}, end-to-end slack {worst_end:.2e}")


def test_07_coins_closed_form():
    for k in (2, 3, 5):
        inst = P.load_fixture(f"coins_k{k}")
        others = [i for i in range(len(inst.actions)) if i != inst.designated]
        assert abs(P.f_of_S(inst, others).objective - 1.0) <= 1e-9
        scheme = P.independent_scheme(inst, k, method="greedy", force=True)
        closed = 1.0 - (1.0 - 1.0 / k) ** k
        assert abs(scheme.u_sender - closed) <= 1e-9, k
        print(f"k={k}: u_sender={scheme.u_sender:.9f} = 1-(1-1/k)^k, f(S)=1")


def test_08_imitation_and_limit_ratios():
    for name in ("tug_of_war", "ratio_iid", "tight_random_order"):
        inst = P.load_fixture(name)
        n = n_slots(inst)
        opt_n = P.slope_algorithm(inst, n).u_sender
        for k in range(2, n + 1):
            u_im, _ = P.expected_utilities(P.imitation_scheme(inst, k), inst)
            assert u_im >= k / n * opt_n - 1e-6, (name, k)
            opt_k = P.slope_algorithm(inst, k).u_sender
            if name == "tight_random_order":
                assert abs(opt_k - k / n * opt_n) <= 1e-8, k
            if name == "ratio_iid":
                assert opt_k / opt_n <= math.e / (math.e - 1.0) * k / n + 1e-6, k
        print(f"{name}: imitation >= (k/n) OPT_n for all k in [2, {n}]")


def _exact_persuasive(scheme, inst) -> bool:
    report = P.persuasiveness_check(scheme, inst)
    return all(c.value >= c.best_deviation - 1e-8 for c in report.signals.values())


def _mc_persuasive(executor, inst, rng, samples: int = 2500) -> bool:
    """Per-signal, per-deviation 3-sigma check on sampled states, read as
    rows of prior-table columns: the executor's distribution comes from its
    rule over the table's columns, the receiver utilities from the table."""
    n = n_slots(inst)
    sums: dict[tuple[int, int], float] = {}
    sqs: dict[tuple[int, int], float] = {}
    draw = _state_sampler(inst)  # built once; draws the same states as sample_state
    table = _prior_table(inst)
    rho = [r / table.scale for r in table.rho_num]  # each the float of the exact rho
    rule = _Tangency(executor.scheme, table.rho_num, table.xi_num, [t.id for t in table.types])
    for _ in range(samples):
        cols = draw(rng)
        rhos = [rho[c] for c in cols]
        for i, p in rule.distribution(cols[: executor.k]).items():
            for j in range(n):
                y = p * (rhos[i] - rhos[j])
                sums[i, j] = sums.get((i, j), 0.0) + y
                sqs[i, j] = sqs.get((i, j), 0.0) + y * y
    for key, total in sums.items():
        mean = total / samples
        var = max(sqs[key] / samples - mean * mean, 0.0)
        if mean < -3.0 * math.sqrt(var / samples):
            return False
    return True


def test_09_persuasiveness_hundred_seeds():
    big = big_prophet_secretary()
    assert enumerate_count(big) > 10**6
    big_executor = SlopeSchemeExecutor(P.slope_algorithm(big, 3), 3)
    passes = 0
    failed = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ok = True

        inst_s = random_symmetric(rng)
        n = n_slots(inst_s)
        k = int(rng.integers(2, n + 1))
        executor = SlopeSchemeExecutor(P.slope_algorithm(inst_s, k), k)
        ok &= _exact_persuasive(executor, inst_s)
        ok &= _exact_persuasive(P.imitation_scheme(inst_s, k), inst_s)

        inst_i = random_best_fixed_deterministic(rng, int(rng.integers(3, 9)))
        k_i = int(rng.integers(2, len(inst_i.actions) + 1))
        for method, eps in (("greedy", None), ("reduce", None), ("fptas", 0.1)):
            scheme = P.independent_scheme(inst_i, k_i, method=method, epsilon=eps)
            ok &= _exact_persuasive(scheme, inst_i)

        ok &= _mc_persuasive(big_executor, big, rng)
        if ok:
            passes += 1
        else:
            failed.append(seed)
    assert passes >= 99, f"failing seeds: {failed}"
    print(f"{passes}/100 seeds passed (failing: {failed or 'none'})")


def test_10_relaxation_monotone_submodular(independent100):
    rng = np.random.default_rng(20240820)
    cache: dict[tuple[int, frozenset[int]], float] = {}

    def f(idx: int, subset: frozenset[int]) -> float:
        if (idx, subset) not in cache:
            cache[idx, subset] = P.f_of_S(independent100[idx], sorted(subset)).objective
        return cache[idx, subset]

    worst_mono = worst_sub = math.inf
    for _ in range(500):
        idx = int(rng.integers(len(independent100)))
        inst = independent100[idx]
        others = [i for i in range(len(inst.actions)) if i != inst.designated]
        t_size = int(rng.integers(0, len(others)))
        T = frozenset(rng.choice(others, size=t_size, replace=False).tolist())
        S = frozenset(
            rng.choice(sorted(T), size=int(rng.integers(0, len(T) + 1)), replace=False).tolist()
        ) if T else frozenset()
        j = int(rng.choice([i for i in others if i not in T]))

        mono = f(idx, T) - f(idx, S) + 1e-7
        sub = (f(idx, S | {j}) - f(idx, S)) - (f(idx, T | {j}) - f(idx, T)) + 1e-7
        worst_mono = min(worst_mono, mono)
        worst_sub = min(worst_sub, sub)
        assert mono >= 0.0, (idx, sorted(S), sorted(T))
        assert sub >= 0.0, (idx, sorted(S), sorted(T), j)
    print(f"500 triples, worst monotone slack {worst_mono:.2e}, "
          f"worst submodular slack {worst_sub:.2e}")


def test_11_bicriteria_twenty_seeds():
    inst = P.load_fixture("tug_of_war")
    good = 0
    results = []
    for seed in range(20):
        res = P.bicriteria_scheme(inst, 3, epsilon=0.05, samples=5000, rng=seed)
        ok = res.u_sender >= 2.0 / 3.0 - 0.05 and res.max_regret <= 0.05
        results.append((res.u_sender, res.max_regret))
        if ok:
            good += 1
    assert good >= 19, results
    worst_u = min(u for u, _ in results)
    worst_r = max(r for _, r in results)
    print(f"{good}/20 seeds ok, min u_sender {worst_u:.4f}, max regret {worst_r:.5f}")


def test_smoke_large_instance_runtime():
    rng = np.random.default_rng(20240821)
    pool = [
        ActionType(
            f"p{i}",
            Fraction(int(rng.integers(0, 26)), 24),
            Fraction(int(rng.integers(0, 26)), 24),
        )
        for i in range(20)
    ]
    dists = []
    for _ in range(200):
        m = int(rng.integers(1, 4))
        picks = rng.choice(20, size=m, replace=False)
        raws = [int(x) for x in rng.integers(1, 5, size=m)]
        total = sum(raws)
        dists.append(tuple((pool[int(p)], Fraction(w, total)) for p, w in zip(picks, raws)))
    inst = ProphetSecretaryInstance(dists=tuple(dists))
    start = time.perf_counter()
    scheme = P.slope_algorithm(inst, 10)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert math.isfinite(scheme.u_sender)
    print(f"n=200, k=10 solved in {elapsed:.1f} s, u_sender={scheme.u_sender:.6f}")
