"""Independent pipeline: the g curves, the relaxation, selection rules, schemes."""

from __future__ import annotations

from itertools import combinations
from fractions import Fraction

import numpy as np
import pytest

import persuade as P
from persuade.independent_schemes import (
    ExPostScheme,
    PreconditionError,
    _curves,
    _relaxation_value,
    actions_greedy,
    actions_reduce,
    certified_fallback,
    expost_scheme_to_dict,
    f_of_S,
    fptas_select,
    g_curve,
    independent_scheme,
)
from persuade.lp_core import LinearProgram, solve_lp
from persuade.model import ActionType, IndependentInstance
from corpus import independent_corpus, random_best_fixed_deterministic


def mk_action(*types):
    rows = [(tid, Fraction(rho), Fraction(xi), Fraction(q)) for tid, rho, xi, q in types]
    assert sum(q for _, _, _, q in rows) == 1
    return tuple((ActionType(tid, rho, xi), q) for tid, rho, xi, q in rows)


@pytest.fixture(scope="module")
def trap():
    return P.load_fixture("fallback_trap")


@pytest.fixture(scope="module")
def coins3():
    return P.load_fixture("coins_k3")


def test_certified_fallback(trap, coins3):
    assert certified_fallback(trap) is None
    assert certified_fallback(coins3) is None
    rng = np.random.default_rng(2)
    inst = random_best_fixed_deterministic(rng, 5)
    fb = certified_fallback(inst)
    assert fb is not None
    types = inst.actions[fb]
    assert all(t.rho == P.best_fixed_action_value(inst) for t, q in types if q > 0)


def test_certified_fallback_prefers_lowest_index():
    anchor = mk_action(("a", "1/2", 0, 1))
    other = mk_action(("b", "1/2", "1/2", 1))
    inst = IndependentInstance(actions=(anchor, other))
    assert certified_fallback(inst) == 0


def test_g_curve_frozen_example():
    dist = mk_action(("g", 1, 1, "1/2"), ("b", 0, 0, "1/2"))
    curve = g_curve(dist, Fraction(1, 2))
    assert curve.breakpoints == (
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        (Fraction(1), Fraction(1, 2), Fraction(0)),
    )
    assert curve.value(Fraction(0)) == 0
    assert curve.value(Fraction(1, 4)) == Fraction(1, 4)
    assert curve.value(Fraction(3, 4)) == Fraction(1, 2)
    assert curve.value(Fraction(1)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        curve.value(Fraction(-1, 8))
    with pytest.raises(ValueError):
        curve.value(Fraction(9, 8))


def primal_g(dist, rho_e, z):
    """Direct LP for one action's concave component, for cross-checking."""
    types = [t for t, _ in dist]
    qs = [float(q) for _, q in dist]
    lp = LinearProgram(
        objective=tuple(float(t.xi) for t in types),
        rows=(
            (tuple(1.0 for _ in types), "<=", float(z)),
            (tuple(float(t.rho - rho_e) for t in types), ">=", 0.0),
        ),
        bounds=tuple((0.0, q) for q in qs),
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    return sol.objective


def test_g_curve_matches_primal_lp():
    rng = np.random.default_rng(44)
    for _ in range(60):
        m = int(rng.integers(1, 5))
        raws = [int(x) for x in rng.integers(1, 5, size=m)]
        qs = [Fraction(x, sum(raws)) for x in raws]
        dist = tuple(
            (
                ActionType(
                    f"t{j}",
                    Fraction(int(rng.integers(0, 13)), 12),
                    Fraction(int(rng.integers(0, 9)), 8),
                ),
                qs[j],
            )
            for j in range(m)
        )
        rho_e = Fraction(int(rng.integers(0, 13)), 12)
        curve = g_curve(dist, rho_e)
        assert curve.value(Fraction(0)) == 0
        for z in (Fraction(1, 7), Fraction(1, 2), Fraction(9, 10), Fraction(1)):
            assert abs(float(curve.value(z)) - primal_g(dist, rho_e, z)) < 1e-7


def test_g_curve_shape_invariants():
    rng = np.random.default_rng(45)
    for _ in range(40):
        inst = random_best_fixed_deterministic(rng, int(rng.integers(3, 7)))
        rho_e = P.best_fixed_action_value(inst)
        for dist in inst.actions:
            curve = g_curve(dist, rho_e)
            zs = [bp[0] for bp in curve.breakpoints]
            assert zs[0] == 0 and zs[-1] == 1
            assert zs == sorted(zs)
            slopes = [bp[2] for bp in curve.breakpoints]
            assert all(s >= 0 for s in slopes)
            # Concave: marginal values never increase.
            assert all(a >= b for a, b in zip(slopes, slopes[1:]))


def test_f_of_s_counterexample_fixture(trap):
    assert f_of_S(trap).objective == 0.0
    assert f_of_S(trap, [0]).objective == 0.0
    with pytest.raises(ValueError):
        f_of_S(trap, [5])


def test_f_of_s_full_budget(coins3):
    others = [i for i in range(3) if i != coins3.designated]
    sol = f_of_S(coins3, others)
    assert abs(sol.objective - 1.0) < 1e-9
    assert sum(sol.z.values()) <= 1 + 1e-9


def test_relaxation_solution_consistency():
    rng = np.random.default_rng(46)
    for _ in range(15):
        inst = random_best_fixed_deterministic(rng, int(rng.integers(3, 7)))
        others = [i for i in range(len(inst.actions)) if i != inst.designated]
        subset = others[: max(1, len(others) // 2)]
        sol = f_of_S(inst, subset)
        assert set(sol.actions) == set(subset) | {inst.designated}
        total = 0.0
        for i in sol.actions:
            xs = sol.x.get(i, {})
            q_by_id = {t.id: float(q) for t, q in inst.actions[i]}
            for tid, x in xs.items():
                assert -1e-12 <= x <= q_by_id[tid] + 1e-9
            assert abs(sol.z.get(i, 0.0) - sum(xs.values())) < 1e-9
            total += sum(xs.values())
        assert total <= 1 + 1e-9
        assert abs(sol.objective - sum(sol.per_action.values())) < 1e-9


def exhaustive_best(inst, k):
    others = [i for i in range(len(inst.actions)) if i != inst.designated]
    return max(
        f_of_S(inst, list(combo)).objective for combo in combinations(others, k - 1)
    )


def test_greedy_first_pick_is_best_singleton():
    rng = np.random.default_rng(47)
    for _ in range(10):
        inst = random_best_fixed_deterministic(rng, 5)
        sel = actions_greedy(inst, 3)
        assert len(sel) == 2
        assert inst.designated not in sel
        singles = {j: f_of_S(inst, [j]).objective for j in range(5) if j != inst.designated}
        base = f_of_S(inst).objective
        best_gain = max(v - base for v in singles.values())
        if best_gain > 1e-12:
            got_gain = singles[sel[0]] - base
            assert got_gain >= best_gain - 1e-9


def test_exact_relaxation_value_matches_lp_and_lp_scored_greedy():
    def lp_greedy(others, lp):
        # The LP-scored greedy that the exact value replaced, with its float
        # tie tolerance; picks do not depend on k, so one run covers every k.
        chosen = []
        current = lp(())
        for _ in others:
            best_gain = best_i = best_val = None
            for i in others:
                if i in chosen:
                    continue
                val = lp(chosen + [i])
                if best_gain is None or val - current > best_gain + 1e-12:
                    best_gain, best_i, best_val = val - current, i, val
            chosen.append(best_i)
            current = best_val
        return chosen

    rng = np.random.default_rng(53)
    for inst in independent_corpus(100):
        n = len(inst.actions)
        others = [i for i in range(n) if i != inst.designated]
        lp_values = {}

        def lp(S):
            key = tuple(sorted(S))
            if key not in lp_values:
                lp_values[key] = f_of_S(inst, key).objective
            return lp_values[key]

        curves = _curves(inst)
        subsets = [(), tuple(others)] + [(i,) for i in others]
        subsets += [
            tuple(rng.choice(others, size=int(rng.integers(1, len(others) + 1)), replace=False))
            for _ in range(3)
        ]
        for S in subsets:
            exact = _relaxation_value(inst, curves, S)
            assert abs(float(exact) - lp(S)) < 1e-9, (S, exact)
        picks = lp_greedy(others, lp)
        for k in range(2, n + 1):
            assert actions_greedy(inst, k) == tuple(picks[: k - 1]), k


def test_selection_solves_no_lp(monkeypatch):
    import persuade.independent_schemes as indep

    calls = []
    real = indep.solve_lp
    monkeypatch.setattr(indep, "solve_lp", lambda lp: calls.append(lp) or real(lp))
    inst = random_best_fixed_deterministic(np.random.default_rng(54), 6)
    actions_greedy(inst, 4)
    fptas_select(inst, 4, 0.2)
    assert calls == []
    for method, lps in (("greedy", 1), ("reduce", 2), ("fptas", 1)):
        calls.clear()
        independent_scheme(inst, 4, method=method, epsilon=0.2)
        assert len(calls) == lps, method


def test_reduce_ranks_by_relaxation_share():
    rng = np.random.default_rng(48)
    for _ in range(10):
        inst = random_best_fixed_deterministic(rng, 5)
        sel = actions_reduce(inst, 3)
        assert len(sel) == 2 and sel == tuple(sorted(sel))
        others = [i for i in range(5) if i != inst.designated]
        sol = f_of_S(inst, others)
        ranked = sorted(others, key=lambda i: (-sol.per_action.get(i, 0.0), i))
        assert set(sel) == set(ranked[:2])


def fptas_fault_instance():
    # Its plateau-only actions were undervalued by the grid size when the
    # guessed marginal mixed per-cell and per-unit-mass units.
    return IndependentInstance(actions=(
        mk_action(("t0", "3/4", "1/8", 1)),
        mk_action(("t1", "2/3", "3/8", "4/9"), ("t2", "1/6", "1/2", "1/3"),
                  ("t3", "1/6", "1/4", "2/9")),
        mk_action(("t4", "1/2", "1/4", 1)),
        mk_action(("t5", "1/2", "1/4", "3/5"), ("t6", "1/3", "1/8", "1/5"),
                  ("t7", "3/4", "1/2", "1/5")),
        mk_action(("t8", "7/12", "3/8", "3/11"), ("t9", "1/2", "3/4", "4/11"),
                  ("t10", "3/4", "7/8", "4/11")),
        mk_action(("t11", 0, 0, "3/7"), ("t12", "5/6", "1/4", "4/7")),
    ))


def test_fptas_select_near_optimal():
    rng = np.random.default_rng(49)
    cases = []
    for trial in range(12):
        inst = random_best_fixed_deterministic(rng, int(rng.integers(4, 7)))
        n = len(inst.actions)
        k = int(rng.integers(2, min(n, 4) + 1))
        cases += [(inst, k, eps) for eps in (0.1, 0.3)]
    fault = fptas_fault_instance()
    cases += [(fault, k, eps) for k in (4, 5) for eps in (0.05, 0.1, 0.2)]
    for inst, k, eps in cases:
        sel = fptas_select(inst, k, eps)
        assert len(sel) == k - 1
        assert sel == tuple(sorted(sel))
        assert inst.designated not in sel
        best = exhaustive_best(inst, k)
        got = f_of_S(inst, sel).objective
        assert got >= (1 - eps) * best - 1e-9, (k, eps, got, best)


def test_expost_scheme_structure_and_utilities():
    rng = np.random.default_rng(50)
    for _ in range(12):
        inst = random_best_fixed_deterministic(rng, int(rng.integers(3, 7)))
        n = len(inst.actions)
        k = int(rng.integers(2, n + 1))
        scheme = independent_scheme(inst, k, method="greedy")
        assert isinstance(scheme, ExPostScheme)
        assert scheme.persuasiveness_guaranteed
        assert scheme.fallback == certified_fallback(inst)
        for i, row in scheme.accept.items():
            assert all(0.0 <= p <= 1.0 for p in row.values())
        u_s, u_r = P.expected_utilities(scheme, inst)
        assert abs(u_s - scheme.u_sender) < 1e-9
        assert abs(u_r - scheme.u_receiver) < 1e-9
        assert P.persuasiveness_check(scheme, inst).persuasive
        state = tuple(dist[0][0] for dist in inst.actions)
        dist = scheme.recommendation_distribution(state)
        assert abs(sum(dist.values()) - 1.0) < 1e-12
        assert set(dist) <= set(range(n))


def test_precondition_gate(trap):
    with pytest.raises(PreconditionError, match="certified"):
        independent_scheme(trap, 2)
    forced = independent_scheme(trap, 2, force=True)
    assert not forced.persuasiveness_guaranteed
    assert forced.u_sender == 0.0
    assert forced.fallback == trap.designated == 1


def test_method_validation(trap):
    with pytest.raises(ValueError, match="epsilon"):
        independent_scheme(trap, 2, method="fptas", force=True)
    with pytest.raises(ValueError, match="levels"):  # grid of 4e6 > FPTAS_MAX_LEVELS
        independent_scheme(trap, 2, method="fptas", epsilon=1e-6, force=True)
    with pytest.raises(ValueError, match="unknown method"):
        independent_scheme(trap, 2, method="magic", force=True)
    with pytest.raises(ValueError):
        independent_scheme(trap, 3, force=True)


def test_scheme_serialization_keys(trap, coins3):
    guaranteed = independent_scheme(
        random_best_fixed_deterministic(np.random.default_rng(51), 4), 2
    )
    blob = expost_scheme_to_dict(guaranteed)
    assert set(blob) == {"method", "order", "accept", "fallback", "u_sender_lb"}
    assert blob["method"] == "independent"

    forced = independent_scheme(coins3, 3, force=True)
    blob2 = expost_scheme_to_dict(forced)
    assert blob2["warning"] == "persuasiveness not guaranteed"


def test_coins_closed_form(coins3):
    scheme = independent_scheme(coins3, 3, force=True)
    assert abs(scheme.u_sender - (1 - (1 - 1 / 3) ** 3)) < 1e-9
    # Even without certification this particular scheme is persuasive: if
    # every coin fails, every action is known to be worthless.
    assert P.persuasiveness_check(scheme, coins3).persuasive
