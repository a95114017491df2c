"""Independent pipeline: the g curves, the relaxation, selection rules, schemes."""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from fractions import Fraction

import numpy as np
import pytest

import persuade as P
from persuade.independent_schemes import (
    ExPostScheme,
    PreconditionError,
    _allocate,
    _curves,
    _grid_runs,
    _masses,
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
from persuade import lp_core
from persuade.lp_core import LinearProgram, solve_lp
from persuade.model import ActionType, IndependentInstance, _merged
from corpus import (
    independent_corpus,
    perfbench,
    random_best_fixed_deterministic,
    reference_relaxation,
    relaxation_lp,
)


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
    # Accept "g" up to its mass, then nothing more: "b" is worth nothing.
    assert curve.masses == ((0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), 0))
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


def test_g_curve_masses_are_optimal_at_every_breakpoint():
    # Coarse random utilities, so types tie in (xi, rho) and reduced values
    # often: each breakpoint's vector is feasible, spends all of z up to the
    # end of the last rising piece, and is worth the curve's value there.
    rng = np.random.default_rng(55)
    for _ in range(300):
        m = int(rng.integers(1, 6))
        raws = [int(x) for x in rng.integers(1, 4, size=m)]
        dist = tuple(
            (ActionType(f"t{j}", Fraction(int(rng.integers(0, 5)), 4),
                        Fraction(int(rng.integers(0, 3)), 2)), Fraction(raws[j], sum(raws)))
            for j in range(m)
        )
        rho_e = Fraction(int(rng.integers(0, 5)), 4)
        curve = g_curve(dist, rho_e)
        assert len(curve.masses) == len(curve.breakpoints)
        rising = True
        for (z, value, slope), masses in zip(curve.breakpoints, curve.masses):
            assert all(0 <= x <= q for x, (_, q) in zip(masses, dist))
            assert sum((t.rho - rho_e) * x for x, (t, _) in zip(masses, dist)) >= 0
            assert sum(t.xi * x for x, (t, _) in zip(masses, dist)) == value
            assert sum(masses) == z if rising else sum(masses) <= z
            rising = slope > 0


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


def exact_relaxation(inst, S):
    """f_of_S's optimum in rationals: each action's (z, masses by type id)."""
    curves = _curves(inst)
    spent = _allocate(curves, {*S, inst.designated}, inst.designated)
    out = {}
    for a, (p, taken, z_num, _) in spent.items():
        masses, scale = _masses(curves, a, p, taken)
        out[a] = (Fraction(z_num, curves.denominator),
                  {t: Fraction(m, scale) for t, m in zip(curves.type_ids[a], masses)})
    return out


def relaxation_cases():
    """(instance, S) pairs: every subset on the independent fixtures, and
    each selector's set at every k plus the full set on the corpus."""
    for name in ("coins_k2", "coins_k3", "coins_k5", "fallback_trap"):
        inst = P.load_fixture(name)
        others = [i for i in range(len(inst.actions)) if i != inst.designated]
        for size in range(len(others) + 1):
            for S in combinations(others, size):
                yield inst, S
    for inst in independent_corpus(100):
        n = len(inst.actions)
        others = [i for i in range(n) if i != inst.designated]
        sets = {tuple(others)}
        for k in range(2, n + 1):
            sets |= {actions_greedy(inst, k), actions_reduce(inst, k),
                     fptas_select(inst, k, 0.1)}
        for S in sorted(sets):
            yield inst, S


def test_relaxation_optimum_matches_the_lp_and_its_rows_hold_exactly():
    # The LP f_of_S used to solve is the reference: the curves' optimum has
    # its objective, satisfies every one of its rows in rationals, and is
    # worth exactly the merged curves' value; f_of_S reports its floats.
    checked = 0
    for inst, S in relaxation_cases():
        rho_e = P.best_fixed_action_value(inst)
        answer = solve_lp(relaxation_lp(inst, S))
        assert answer.status == "optimal"
        exact = exact_relaxation(inst, S)
        value = Fraction(0)
        for a, (z, x) in exact.items():
            types = {t.id: (t, q) for t, q in _merged(inst.actions[a])}
            assert x.keys() == types.keys()
            assert all(0 <= x[tid] <= q for tid, (_, q) in types.items())
            assert sum(x.values()) == z
            assert sum((t.rho - rho_e) * x[tid] for tid, (t, _) in types.items()) >= 0
            value += sum(t.xi * x[tid] for tid, (t, _) in types.items())
        assert sum(z for z, _ in exact.values()) <= 1
        assert value == _relaxation_value(inst, _curves(inst), S)
        assert abs(float(value) - answer.objective) < 1e-9, S
        sol = f_of_S(inst, S)
        assert sol.objective == float(value)
        for a, (z, x) in exact.items():
            assert sol.z[a] == float(z)
            assert sol.x[a] == {tid: float(m) for tid, m in x.items()}
        checked += 1
    assert checked > 600


def test_tied_slopes_go_to_lower_indices_and_the_designated_action_last():
    # Three slope-1 pieces, 3/5 + 3/5 + 1/2 of mass, share the unit budget:
    # action 1 fills first, action 2 takes the rest, and the designated
    # action 0, though the lowest index, gets nothing.
    inst = IndependentInstance(actions=(
        mk_action(("d1", 1, 1, "1/2"), ("d0", "3/4", 0, "1/2")),
        mk_action(("a1", 1, 1, "3/5"), ("a0", 0, 0, "2/5")),
        mk_action(("b1", 1, 1, "3/5"), ("b0", 0, 0, "2/5")),
    ))
    assert inst.designated == 0
    assert exact_relaxation(inst, [1, 2]) == {
        0: (Fraction(0), {"d1": 0, "d0": 0}),
        1: (Fraction(3, 5), {"a1": Fraction(3, 5), "a0": 0}),
        2: (Fraction(2, 5), {"b1": Fraction(2, 5), "b0": 0}),
    }
    sol = f_of_S(inst, [1, 2])
    assert sol.z == {0: 0.0, 1: 0.6, 2: 0.4} and sol.objective == 1.0
    # Alone with the designated action, action 2 still goes first.
    assert exact_relaxation(inst, [2])[0] == (Fraction(2, 5), {"d1": Fraction(2, 5), "d0": 0})


def test_fallback_trap_accepts_no_zero_value_mass(trap):
    # Every type of the trap is worth 0 to the sender, so no budget is spent:
    # the LP accepted the zero-value "high" type at z = 1/2 instead.
    sol = f_of_S(trap, [0])
    assert sol.z == {0: 0.0, 1: 0.0}
    assert sol.x == {0: {"prize": 0.0}, 1: {"high": 0.0, "low": 0.0}}


def test_f_of_s_counterexample_fixture(trap):
    assert f_of_S(trap).objective == 0.0
    assert f_of_S(trap, [0]).objective == 0.0
    with pytest.raises(ValueError):
        f_of_S(trap, [5])


class _IndexRaises:
    """An object whose __index__ itself raises TypeError."""

    def __index__(self):
        raise TypeError("no index")

    def __repr__(self):
        return "_IndexRaises()"


@pytest.mark.parametrize("index", [True, 1.0, 1.5, "1", _IndexRaises()], ids=repr)
def test_f_of_s_refuses_a_non_integer_action_index(coins3, index):
    # True once solved action 1 and reported it as (0, True); the others
    # failed inside tuple indexing or a sort with a TypeError.
    with pytest.raises(ValueError, match=re.escape(f"action index {index!r} is not an integer")):
        f_of_S(coins3, [index])


def test_f_of_s_stores_a_numpy_index_as_an_int(coins3):
    sol = f_of_S(coins3, [np.int64(1)])
    assert sol.actions == (0, 1)
    assert all(type(a) is int for a in sol.actions)
    assert sol.objective == f_of_S(coins3, [1]).objective


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


def lp_value(inst, S):
    """f(S) by the reference LP on HiGHS."""
    return reference_relaxation(inst, S)[0]


def exhaustive_best(inst, k):
    others = [i for i in range(len(inst.actions)) if i != inst.designated]
    return max(lp_value(inst, combo) for combo in combinations(others, k - 1))


def test_greedy_first_pick_is_best_singleton():
    rng = np.random.default_rng(47)
    for _ in range(10):
        inst = random_best_fixed_deterministic(rng, 5)
        sel = actions_greedy(inst, 3)
        assert len(sel) == 2
        assert inst.designated not in sel
        singles = {j: lp_value(inst, [j]) for j in range(5) if j != inst.designated}
        base = lp_value(inst, ())
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
                lp_values[key] = lp_value(inst, key)
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
    # Every solve_lp call, however imported, goes through lp_core._highs.
    calls = []
    real = lp_core._highs
    monkeypatch.setattr(lp_core, "_highs", lambda: calls.append(1) or real())
    inst = random_best_fixed_deterministic(np.random.default_rng(54), 6)
    for method in ("greedy", "reduce", "fptas"):
        independent_scheme(inst, 4, method=method, epsilon=0.2)
    f_of_S(inst, range(6))
    assert calls == []
    solve_lp(LinearProgram(objective=(1.0,), rows=(), bounds=((0.0, 1.0),)))
    assert calls == [1]


def test_reduce_ranks_by_relaxation_share():
    rng = np.random.default_rng(48)
    for _ in range(10):
        inst = random_best_fixed_deterministic(rng, 5)
        sel = actions_reduce(inst, 3)
        assert len(sel) == 2 and sel == tuple(sorted(sel))
        others = [i for i in range(5) if i != inst.designated]
        # The reference LP's contributions: every kept action is ahead of
        # every dropped one, a tie within float noise going to the lower
        # index.  On these instances HiGHS splits slope ties so that its
        # ranking agrees with the tie rule's.
        _, share = reference_relaxation(inst, others)
        for i in sel:
            for j in set(others) - set(sel):
                assert share[i] > share[j] + 1e-9 or (abs(share[i] - share[j]) <= 1e-9 and i < j)


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
        got = lp_value(inst, sel)
        assert got >= (1 - eps) * best - 1e-9, (k, eps, got, best)


# The knapsack fptas_select ran before its layered in-place DP: it copies the
# whole state dict per action and drops nothing.  Kept as the reference.
@dataclass(frozen=True)
class _PackEntry:
    action: int
    cells: int  # grid cells whose marginal is strictly above the guess
    p_r: int  # scaled curve value collected by those cells
    p_o: int  # scaled value of the plateau of cells exactly at the guess


def reference_guess_knapsack(
    designated: _PackEntry,
    others,
    k: int,
    levels: int,
    m: int,
    kappa: tuple[int, int],
) -> tuple[int, ...]:
    """Best at-most-(k-1) subset of `others` for one guessed cell marginal m.

    Values are floored to multiples of kappa = kappa[0] / kappa[1] so the
    state space stays polynomial; sizes stay exact cell counts.  Each packed
    action commits its above-m cells outright, while plateau mass is
    flexible and fills whatever of the `levels` cells remain at m per cell.
    Returns the chosen action tuple.
    """
    kappa_num, kappa_den = kappa

    def rounded(p: int) -> int:
        return p * kappa_den // kappa_num

    # state: (actions chosen, rounded above-m value, rounded plateau value)
    # mapped to the fewest committed cells reaching it, plus the choice set.
    start = (0, rounded(designated.p_r), rounded(designated.p_o))
    states: dict[tuple[int, int, int], tuple[int, tuple[int, ...]]] = {
        start: (designated.cells, ())
    }
    for entry in others:
        pr_i, po_i = rounded(entry.p_r), rounded(entry.p_o)
        merged = dict(states)
        for (j, pr, po), (cells, chosen) in states.items():
            if j >= k - 1:
                continue
            ncells = cells + entry.cells
            if ncells > levels:
                continue
            nstate = (j + 1, pr + pr_i, po + po_i)
            cand = (ncells, chosen + (entry.action,))
            cur = merged.get(nstate)
            if cur is None or cand < cur:
                merged[nstate] = cand
        states = merged

    # Value kappa*pr + min(m * free cells, kappa*po), scaled by kappa_den.
    best_value = None
    best_chosen: tuple[int, ...] = ()
    for (j, pr, po), (cells, chosen) in states.items():
        value = kappa_num * pr + min(m * (levels - cells) * kappa_den, kappa_num * po)
        if best_value is None or value > best_value or (value == best_value and chosen < best_chosen):
            best_value, best_chosen = value, chosen
    return best_chosen


def knapsack_calls(monkeypatch, inst, k, eps):
    """fptas_select's result and every (arguments, result) of its knapsacks."""
    import persuade.independent_schemes as indep

    calls = []
    real = indep._guess_knapsack
    monkeypatch.setattr(
        indep, "_guess_knapsack", lambda *args: calls.append((args, real(*args))) or calls[-1][1]
    )
    return fptas_select(inst, k, eps), calls


def assert_knapsacks_match_reference(calls):
    for (designated, others, k, levels, m, kappa), got in calls:
        want = reference_guess_knapsack(
            _PackEntry(*designated), [_PackEntry(*e) for e in others], k, levels, m, kappa
        )
        assert got == want, (k, levels, m)


def test_guess_knapsack_matches_the_dict_copy_reference(monkeypatch):
    # The layered in-place DP with its dropped entries returns the same
    # tuple as the dict-copy DP it replaced on every guess fptas_select makes.
    cases = [(inst, k, 0.1) for inst in independent_corpus(100)
             for k in (2, 3, 4) if k <= len(inst.actions)]
    load = perfbench("instances").load
    cases += [(load(c["doc"]), c["k"], 0.2) for c in perfbench("gen").independent(1)["large"]]
    cases += [(fptas_fault_instance(), k, 0.1) for k in (4, 5)]
    guesses = 0
    for inst, k, eps in cases:
        _, calls = knapsack_calls(monkeypatch, inst, k, eps)
        assert_knapsacks_match_reference(calls)
        guesses += len(calls)
    assert guesses > 1000


# fptas_select before the value curves' integer form: Fraction grid values
# and every entry rebuilt with two bisects at every guess.  Kept as the
# reference; it returns the final set and, per guess, the knapsack's
# arguments and chosen tuple.
def reference_grid_prefixes(curves, levels):
    lines = [
        [(bz, bv - bs * bz, bs / levels) for bz, bv, bs in curve.breakpoints] for curve in curves
    ]
    scale = math.lcm(*(c.denominator for rows in lines for _, a, b in rows for c in (a, b)))
    prefixes = []
    for rows in lines:
        pref = []
        for p, (_, a, b) in enumerate(rows):
            stop = math.ceil(rows[p + 1][0] * levels) if p + 1 < len(rows) else levels + 1
            a, b = int(a * scale), int(b * scale)
            pref.extend(a + b * ell for ell in range(len(pref), stop))
        prefixes.append(pref)
    return prefixes


def fraction_relaxation_value(curves, actions):
    """The relaxation's value over the distinct ``actions``, merged in Fractions."""
    pieces = sorted(
        ((slope, z1 - z0)
         for i in actions
         for (z0, _, slope), (z1, _, _) in zip(curves[i].breakpoints, curves[i].breakpoints[1:])
         if slope > 0),
        reverse=True,
    )
    total, budget = Fraction(0), Fraction(1)
    for slope, length in pieces:
        if length >= budget:
            return total + slope * budget
        total += slope * length
        budget -= length
    return total


def reference_fptas_select(inst, k, epsilon, knapsack):
    designated = inst.designated
    others = [i for i in range(len(inst.actions)) if i != designated]
    delta = Fraction(float(epsilon)) / 2
    levels = math.ceil(k / delta)
    curves = [g_curve(dist, P.best_fixed_action_value(inst)) for dist in inst.actions]
    participants = others + [designated]
    prefix = reference_grid_prefixes(curves, levels)
    neg_marginals = [[pref[ell] - pref[ell + 1] for ell in range(levels)] for pref in prefix]
    guesses = sorted({-v for neg in neg_marginals for v in neg if v < 0}, reverse=True)
    cap = 2 * k * delta.denominator // delta.numerator

    candidates, calls = [()], []
    for m in guesses:
        entries = []
        for i in participants:
            neg = neg_marginals[i]
            above = bisect_left(neg, -m)
            plateau = bisect_right(neg, -m, above) - above
            entries.append((i, above, prefix[i][above], m * plateau))
        p_max = max(max(p_r, p_o) for _, _, p_r, p_o in entries)
        kappa = (delta.numerator * p_max, 2 * k * delta.denominator)
        assert all(p_r * kappa[1] // kappa[0] <= cap for _, _, p_r, _ in entries)
        chosen = knapsack(entries[-1], entries[:-1], k, levels, m, kappa)
        calls.append(((entries[-1], entries[:-1], k, levels, m, kappa), chosen))
        candidates.append(tuple(sorted(chosen)))

    best_set = max(
        dict.fromkeys(candidates), key=lambda S: fraction_relaxation_value(curves, {*S, designated})
    )
    spare = [i for i in others if i not in best_set]
    return tuple(sorted([*best_set, *spare[: k - 1 - len(best_set)]])), calls


def integer_form_cases():
    """(instance, k, epsilon) triples the integer form is checked on."""
    cases = [(inst, k, eps) for inst in independent_corpus(100) for k in (2, 3, 4)
             if k <= len(inst.actions) for eps in (0.1, 0.5)]
    load = perfbench("instances").load
    cases += [(load(c["doc"]), c["k"], 0.2) for c in perfbench("gen").independent(1)["large"]]
    return cases + [(fptas_fault_instance(), k, 0.1) for k in (4, 5)]


def knapsack_view(args):
    """A knapsack's entries as (action, cells, plateau cells, rounded values),
    which no common scale of the values changes."""
    designated, others, _, _, m, (kappa_num, kappa_den) = args
    return [(i, cells, p_o // m, p_r * kappa_den // kappa_num, p_o * kappa_den // kappa_num)
            for i, cells, p_r, p_o in (designated, *others)]


def test_fptas_select_matches_the_fraction_rebuild_reference(monkeypatch):
    # The incremental entries over the integer grid give every guess the
    # rebuilt entries (the same cells and plateau counts, the same rounded
    # values under a common scale) and chosen tuple, and the same final set.
    import persuade.independent_schemes as indep

    knapsack = indep._guess_knapsack
    guesses = 0
    for inst, k, eps in integer_form_cases():
        want, want_calls = reference_fptas_select(inst, k, eps, knapsack)
        got, calls = knapsack_calls(monkeypatch, inst, k, eps)
        monkeypatch.undo()
        assert got == want, (k, eps)
        assert len(calls) == len(want_calls)
        for (args, chosen), (want_args, want_chosen) in zip(calls, want_calls):
            assert chosen == want_chosen
            # The guess and kappa share the scale: m / kappa_num is the same.
            assert args[4] * want_args[5][0] == want_args[4] * args[5][0]
            assert knapsack_view(args) == knapsack_view(want_args)
        guesses += len(calls)
    assert guesses > 2500


def test_value_curves_integer_form_is_exact():
    # Every integer breakpoint over the denominator is its Fraction, every
    # grid value over its scale is the curve's value at the grid point, and
    # the positive pieces are the curve's positive-slope pieces.
    instances = list({id(inst): inst for inst, _, _ in integer_form_cases()}.values())
    for inst in instances:
        curves = _curves(inst)
        unit = curves.denominator
        for curve, points, pieces in zip(curves.exact, curves.breakpoints, curves.pieces):
            assert [tuple(Fraction(c, unit) for c in point) for point in points] == list(
                curve.breakpoints
            )
            assert [(Fraction(-s, unit), Fraction(length, unit)) for s, length in pieces] == [
                (bs, z1 - z0)
                for (z0, _, bs), (z1, _, _) in zip(curve.breakpoints, curve.breakpoints[1:])
                if bs > 0
            ]
    for inst in instances:
        curves = _curves(inst)
        for k in (2, 3, 4, 5):
            levels = math.ceil(k / (Fraction(0.2) / 2))
            scale = curves.denominator**2 * levels
            for curve, runs in zip(curves.exact, _grid_runs(curves, levels)):
                grid = [runs[0][3]]
                for marginal, start, cells, before, after in runs:
                    assert grid[-1] == before and after == before + marginal * cells
                    grid += [before + marginal * j for j in range(1, cells + 1)]
                assert len(grid) == levels + 1
                assert [Fraction(v, scale) for v in grid] == [
                    curve.value(Fraction(ell, levels)) for ell in range(levels + 1)
                ]


def test_greedy_matches_the_fraction_merge_reference():
    gen, load = perfbench("gen"), perfbench("instances").load
    checked = 0
    for seed in (1, 2, 3):
        inputs = gen.independent(seed)
        for case in inputs["large"] + inputs["small"]:
            inst = load(case["doc"])
            curves = _curves(inst).exact
            others = [i for i in range(len(inst.actions)) if i != inst.designated]
            for k in (case["k"], case["k"] + 1):
                if k > len(inst.actions):
                    continue
                chosen = []
                for _ in range(k - 1):
                    rest = [i for i in others if i not in chosen]
                    chosen.append(max(rest, key=lambda i: fraction_relaxation_value(
                        curves, {*chosen, i, inst.designated})))
                assert actions_greedy(inst, k) == tuple(chosen)
                checked += 1
    assert checked > 70


def test_fptas_select_keeps_the_lowest_index_duplicates(monkeypatch):
    # Ten identical copies of a rare-type action (2..11) beside the anchor (1)
    # and two distinct actions: the best 3-set is two copies and action 12,
    # and the knapsack keeps only k-1 copies of each shared signature.
    copy = mk_action(("h", 1, 1, "1/5"), ("l", 0, 0, "4/5"))
    inst = IndependentInstance(actions=(
        mk_action(("a1", 1, "1/2", "1/4"), ("a0", 0, 0, "3/4")),
        mk_action(("e", "1/2", 0, 1)),
        *[copy] * 10,
        mk_action(("b1", "3/4", "3/4", "1/3"), ("b0", "1/4", "1/8", "2/3")),
    ))
    assert inst.designated == 1
    got, calls = knapsack_calls(monkeypatch, inst, 4, 0.1)
    assert got == (2, 3, 12)
    assert_knapsacks_match_reference(calls)
    assert any(
        max(Counter(e[1:] for e in others if 2 <= e[0] <= 11).values()) > 3
        for (_, others, *_), _ in calls
    )


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


def test_relaxation_merges_a_type_id_listed_twice():
    # Action 1 lists "h" twice with identical utilities: the relaxation and the
    # scheme see one type of mass 1/2, not two columns under one key.
    inst = P.instance_from_dict({"kind": "independent", "actions": [
        [{"id": "g", "rho": "3/4", "xi": 0, "q": 1}],
        [{"id": "h", "rho": 1, "xi": 1, "q": "1/4"}, {"id": "h", "rho": 1, "xi": 1, "q": "1/4"},
         {"id": "l", "rho": 0, "xi": 1, "q": "1/2"}],
    ]})
    assert _relaxation_value(inst, _curves(inst), [1]) == Fraction(2, 3)
    assert abs(f_of_S(inst, [1]).objective - 2 / 3) < 1e-12
    scheme = independent_scheme(inst, 2)
    u_s, u_r = P.expected_utilities(scheme, inst)
    assert abs(scheme.u_sender - 2 / 3) < 1e-12
    assert abs(u_s - scheme.u_sender) < 1e-12
    assert abs(u_r - scheme.u_receiver) < 1e-12


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


def test_value_curves_built_once_per_instance(monkeypatch):
    # The curves are kept on the instance: later selection calls reuse them.
    from persuade import independent_schemes

    inst = P.load_fixture("coins_k3")
    calls = []
    monkeypatch.setattr(
        independent_schemes, "g_curve", lambda dist, rho_e: calls.append(dist) or g_curve(dist, rho_e)
    )
    actions_greedy(inst, 3)
    fptas_select(inst, 3, 0.2)
    independent_scheme(inst, 3, "greedy", force=True)
    assert calls == list(inst.actions)


def test_expost_scheme_merges_only_the_distributions_it_reads(monkeypatch):
    # The relaxation's actions and the fallback: no other action's types are
    # read, so no other distribution is merged.
    from persuade import independent_schemes

    inst = P.load_fixture("coins_k5")
    relaxation = f_of_S(inst, [1, 2])
    merged = []
    monkeypatch.setattr(independent_schemes, "_merged", lambda dist: merged.append(dist) or _merged(dist))
    scheme = independent_schemes.expost_scheme(inst, relaxation, True)
    read = sorted(i for d in merged for i, action in enumerate(inst.actions) if action is d)
    assert read == sorted({1, 2, scheme.fallback}) and len(inst.actions) > len(read)


def test_best_fixed_action_value_computed_once_per_instance(monkeypatch):
    # The receiver threshold is kept on the instance: the fallback check,
    # the relaxation and the value curves of every method read the one the
    # first of them computed.
    from persuade import model

    compute = model._best_fixed_value
    computed = []
    monkeypatch.setattr(model, "_best_fixed_value", lambda inst: computed.append(inst) or compute(inst))
    inst, other = P.load_fixture("coins_k3"), P.load_fixture("coins_k5")
    for method in ("greedy", "reduce", "fptas"):
        independent_scheme(inst, 2, method, epsilon=0.2, force=True)
        independent_scheme(other, 3, method, epsilon=0.2, force=True)
    assert computed == [inst, other]
    assert P.best_fixed_action_value(inst) == compute(inst)
