"""Symmetric pipeline: slope schemes, executors, imitation, bicriteria."""

from __future__ import annotations

import copy
import json
import pickle
import re
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import persuade as P
from persuade.exact_oracle import enumerate_oracle, enumerate_prior
from persuade.geometry import NEG_INF, UniqueVertex, pareto_frontier, point_for_slope
from persuade.lp_core import BICRITERIA_MARGIN, LinearProgram, solve_lp
from persuade.model import (
    ActionType, IIDInstance, _prior_table, _state_sampler, all_types, instance_from_dict,
    load_fixture, n_slots, sample_state,
)
from persuade.prob_oracle import unique_probabilities
from persuade.symmetric_schemes import (
    ImitationExecutor,
    SlopeScheme,
    SlopeSchemeExecutor,
    TabularScheme,
    bicriteria_scheme,
    imitation_scheme,
    slope_algorithm,
    slope_scheme_from_dict,
    slope_scheme_to_dict,
)
from corpus import random_symmetric, shared_type_priors, symmetric_corpus


@pytest.fixture(scope="module")
def tug():
    return P.load_fixture("tug_of_war")


def by_id(inst):
    return {t.id: t for t in all_types(inst)}


def test_slope_algorithm_large_prophet_secretary():
    # C(1200, 600) overflows a float; the normalised recursion stays in [0, 1].
    hi = ActionType("hi", Fraction(1), Fraction(1, 4))
    lo = ActionType("lo", Fraction(0), Fraction(1))
    dists = tuple(
        ((hi, Fraction(1 + i % 2, 3)), (lo, Fraction(2 - i % 2, 3))) for i in range(1200)
    )
    inst = P.ProphetSecretaryInstance(dists=dists)
    scheme = slope_algorithm(inst, 600)
    rho_e = float(P.best_fixed_action_value(inst))
    assert scheme.u_receiver >= rho_e - 1e-8
    assert scheme.u_sender >= 0.25  # at least the sender value of the receiver-best pick


def test_slope_algorithm_frozen_values(tug):
    two = slope_algorithm(tug, 2)
    assert two.s_star == Fraction(-1)
    assert two.alpha == {("sender_pick", "receiver_pick"): 1.0}
    assert abs(two.u_sender - 2 / 3) < 1e-12
    assert abs(two.u_receiver - 1 / 3) < 1e-12

    three = slope_algorithm(tug, 3)
    assert three.s_star == Fraction(-1)
    assert abs(three.alpha[("sender_pick", "receiver_pick")] - 2 / 3) < 1e-12
    assert abs(three.u_sender - 2 / 3) < 1e-12
    assert abs(three.u_receiver - 1 / 3) < 1e-12


def test_slope_algorithm_validation(tug):
    with pytest.raises(ValueError):
        slope_algorithm(tug, 1)
    with pytest.raises(ValueError):
        slope_algorithm(tug, 4)
    with pytest.raises(TypeError):
        slope_algorithm(P.load_fixture("fallback_trap"), 2)


def test_executor_distributions_running_example(tug):
    types = by_id(tug)
    s, r, d = types["sender_pick"], types["receiver_pick"], types["dud"]
    ex2 = SlopeSchemeExecutor(slope_algorithm(tug, 2), 2)
    assert ex2.recommendation_distribution((s, r, d)) == {0: 1.0}
    assert ex2.recommendation_distribution((r, s, d)) == {1: 1.0}
    assert ex2.recommendation_distribution((s, d, r)) == {0: 1.0}
    assert ex2.recommendation_distribution((d, r, s)) == {1: 1.0}

    ex3 = SlopeSchemeExecutor(slope_algorithm(tug, 3), 3)
    dist = ex3.recommendation_distribution((d, r, s))
    assert abs(dist[2] - 2 / 3) < 1e-12
    assert abs(dist[1] - 1 / 3) < 1e-12


def test_executor_recommend_matches_distribution(tug):
    ex3 = SlopeSchemeExecutor(slope_algorithm(tug, 3), 3)
    types = by_id(tug)
    state = (types["dud"], types["receiver_pick"], types["sender_pick"])
    rng = np.random.default_rng(5)
    counts = {1: 0, 2: 0}
    for _ in range(3000):
        counts[ex3.recommend(state, rng)] += 1
    assert abs(counts[2] / 3000 - 2 / 3) < 0.04
    assert SlopeSchemeExecutor(ex3.scheme, 3).recommend(state, rng) in (1, 2)


def test_executor_realizes_scheme_utilities():
    rng = np.random.default_rng(35)
    instances = [random_symmetric(rng) for _ in range(10)]
    instances += shared_type_priors(np.random.default_rng(43), 4)
    for inst in instances:
        n = n_slots(inst)
        for k in range(2, n + 1):
            scheme = slope_algorithm(inst, k)
            ex = SlopeSchemeExecutor(scheme, k)
            u_s, u_r = P.expected_utilities(ex, inst)
            assert abs(u_s - scheme.u_sender) < 1e-9
            assert abs(u_r - scheme.u_receiver) < 1e-9
            assert P.persuasiveness_check(ex, inst).persuasive


def _frontier_recommendation(scheme, head, tangency):
    """Reference executor: build the Pareto frontier of the first k types and
    take its tangency point at the scheme's slope (memoised per type set)."""
    types = frozenset(head)
    if types not in tangency:
        tangency[types] = point_for_slope(pareto_frontier(head), scheme.s_star)
    corr = tangency[types]
    if isinstance(corr, UniqueVertex):
        weights = [(corr.vertex, 1.0)]
    else:
        alpha = scheme.alpha[(corr.left.id, corr.right.id)]
        weights = [(corr.left, alpha), (corr.right, 1.0 - alpha)]
    out = {}
    for point, w in weights:
        slots = [i for i, t in enumerate(head) if t.id == point.id]
        if w > 0.0:
            out.update((slot, w / len(slots)) for slot in slots)
    return list(out.items())


def test_executor_matches_frontier_tangency_on_every_corpus_state():
    for inst in symmetric_corpus():
        states = list(enumerate_prior(inst))
        for k in range(2, n_slots(inst) + 1):
            schemes = [
                slope_algorithm(inst, k),
                SlopeScheme(s_star=Fraction(0), alpha={}, u_sender=0.0, u_receiver=0.0),
                SlopeScheme(s_star=NEG_INF, alpha={}, u_sender=0.0, u_receiver=0.0),
            ]
            for scheme in schemes:
                ex = SlopeSchemeExecutor(scheme, k)
                tangency = {}
                for state in states:
                    dist = ex.recommendation_distribution(state)
                    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
                    assert list(dist.items()) == _frontier_recommendation(scheme, state[:k], tangency)


def test_scheme_serialization_round_trip(tug):
    scheme = slope_algorithm(tug, 3)
    blob = slope_scheme_to_dict(scheme)
    assert blob["method"] == "slope"
    assert blob["s_star"] == -1
    assert slope_scheme_from_dict(blob) == scheme

    vertical = SlopeScheme(s_star=NEG_INF, alpha={}, u_sender=0.25, u_receiver=1.0)
    again = slope_scheme_from_dict(slope_scheme_to_dict(vertical))
    assert again.s_star is NEG_INF
    assert again == vertical


def test_a_vertical_scheme_survives_pickle_and_deepcopy():
    # -inf is a float: a copy of it is equal to NEG_INF, not the same object.
    inst = load_fixture("ratio_iid")
    scheme = slope_algorithm(inst, 2)
    assert scheme.s_star == NEG_INF
    states = list(enumerate_prior(inst))[:8]
    expected = [SlopeSchemeExecutor(scheme, 2).recommendation_distribution(s) for s in states]
    for again in (pickle.loads(pickle.dumps(scheme)), copy.deepcopy(scheme)):
        assert slope_scheme_to_dict(again) == slope_scheme_to_dict(scheme)
        ex = SlopeSchemeExecutor(again, 2)
        assert [ex.recommendation_distribution(s) for s in states] == expected


def test_any_float_minus_inf_is_the_vertical_slope(tug):
    minus_inf = float("-inf")
    assert unique_probabilities(tug, 2, minus_inf) == unique_probabilities(tug, 2, NEG_INF)
    assert enumerate_oracle(tug, 2, [minus_inf]) == enumerate_oracle(tug, 2, [NEG_INF])
    frontier = pareto_frontier(all_types(tug))
    assert point_for_slope(frontier, minus_inf) == point_for_slope(frontier, NEG_INF)


def test_no_source_tests_a_slope_by_identity():
    # A float -inf that went through pickle, or that a caller built, is not
    # the NEG_INF object; slopes are compared with ==.
    src = Path(P.__file__).parent
    found = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\bis\s+(not\s+)?NEG_INF\b", line)
    ]
    assert found == []


def test_imitation_distribution_spreads_tail(tug):
    imit = imitation_scheme(tug, 2)
    assert isinstance(imit, ImitationExecutor)
    types = by_id(tug)
    state = (types["dud"], types["receiver_pick"], types["sender_pick"])
    base = imit.base.scheme
    assert abs(base.u_sender - 2 / 3) < 1e-12
    dist = imit.recommendation_distribution(state)
    # The base scheme sends 2/3 to slot 2, which imitation spreads over
    # slots 0 and 1, and 1/3 to slot 1 directly.
    assert abs(dist[0] - 1 / 3) < 1e-12
    assert abs(dist[1] - 2 / 3) < 1e-12
    assert set(dist) == {0, 1}


def test_imitation_bound_and_persuasiveness():
    rng = np.random.default_rng(36)
    for _ in range(6):
        inst = random_symmetric(rng)
        n = n_slots(inst)
        if n < 3:
            continue
        opt_n = slope_algorithm(inst, n).u_sender
        for k in range(2, n):
            imit = imitation_scheme(inst, k)
            u_s, _ = P.expected_utilities(imit, inst)
            assert u_s >= (k / n) * opt_n - 1e-6
            assert P.persuasiveness_check(imit, inst).persuasive


def test_bicriteria_running_example(tug):
    res = bicriteria_scheme(tug, 3, epsilon=0.05, samples=2000, rng=1)
    assert res.samples == 2000
    assert res.epsilon == 0.05
    assert res.max_regret <= 0.05 + 1e-12
    assert res.u_sender >= 2 / 3 - 0.05 - 1e-9
    assert res.scheme.fallback_slots == (0, 1, 2)


def test_bicriteria_scheme_is_evaluated_on_its_first_k_slots(tug):
    # The table is keyed by the k slots the fit saw; whole n-slot states are
    # looked up by those, not all sent to the receiver-best fallback.  On
    # tug_of_war (n = 3) at k = 2 the fitted scheme is worth twice the
    # fallback; ratio_iid cannot show this, as both parties rank its two
    # types alike and the fitted table is the fallback's.
    res = bicriteria_scheme(tug, 2, epsilon=0.1, samples=2000, rng=0)
    fallback = TabularScheme(table={}, fallback_slots=(0, 1))
    fitted_value = P.expected_utilities(res.scheme, tug)[0]
    assert fitted_value != P.expected_utilities(fallback, tug)[0]
    assert fitted_value == pytest.approx(2 / 3)
    for state in enumerate_prior(tug):
        assert res.scheme.recommendation_distribution(state) == res.scheme.table[state[:2]]


def test_bicriteria_is_deterministic_per_seed(tug):
    a = bicriteria_scheme(tug, 2, epsilon=0.1, samples=500, rng=7)
    b = bicriteria_scheme(tug, 2, epsilon=0.1, samples=500, rng=7)
    assert a.u_sender == b.u_sender
    assert a.max_regret == b.max_regret


BICRITERIA_GOLDEN = json.loads((Path(__file__).parent / "golden" / "bicriteria.json").read_text())


def bicriteria_record(res) -> dict:
    """A bicriteria result in exact hex floats: its metrics, and its table row
    by row in table order, as (the state's type ids, slot -> weight)."""
    return {
        "u_sender": res.u_sender.hex(),
        "u_receiver": res.u_receiver.hex(),
        "max_regret": res.max_regret.hex(),
        "table": [
            [[t.id for t in state], {str(i): w.hex() for i, w in dist.items()}]
            for state, dist in res.scheme.table.items()
        ],
    }


@pytest.mark.parametrize("name", sorted({case["instance"] for case in BICRITERIA_GOLDEN["cases"]}))
def test_bicriteria_outputs_are_pinned_across_releases(name):
    # Every symmetric fixture and a prophet-secretary prior, at k = 2 and 3,
    # two seeds and epsilon 0.1 and 0, compared bit for bit with the
    # results of earlier releases.
    doc = BICRITERIA_GOLDEN["documents"].get(name)
    inst = load_fixture(name) if doc is None else instance_from_dict(doc)
    for case in BICRITERIA_GOLDEN["cases"]:
        if case["instance"] == name:
            res = bicriteria_scheme(inst, case["k"], case["epsilon"], case["samples"], case["seed"])
            assert bicriteria_record(res) == case["result"], case


def test_bicriteria_validation(tug):
    with pytest.raises(ValueError, match="epsilon"):
        bicriteria_scheme(tug, 2, epsilon=-0.1, samples=10)
    with pytest.raises(ValueError, match="samples"):
        bicriteria_scheme(tug, 2, epsilon=0.1, samples=0)
    big = IIDInstance(palette=((ActionType("big", Fraction(2), Fraction(0)), Fraction(1)),), n=3)
    with pytest.raises(ValueError, match="outside"):
        bicriteria_scheme(big, 2, epsilon=0.1, samples=10)
    # Unchecked, samples=True came back as the result's sample count and a
    # 2.5 sample count or seed failed with unrelated TypeErrors.
    for samples, seed, refusal in (
        (True, 0, "samples must be an integer, got True"),
        (2.5, 0, "samples must be an integer, got 2.5"),
        (10, 1.5, "rng must be an integer, got 1.5"),
        (10, True, "rng must be an integer, got True"),
    ):
        with pytest.raises(ValueError) as refused:
            bicriteria_scheme(tug, 2, 0.1, samples, seed)
        assert str(refused.value) == refusal
    res = bicriteria_scheme(tug, 2, 0.1, np.int64(40), np.int64(-3))
    assert type(res.samples) is int
    assert bicriteria_record(res) == bicriteria_record(bicriteria_scheme(tug, 2, 0.1, 40, -3))



def symmetrized_lp_value(inst, k: int, epsilon: float, samples: int, seed: int) -> float:
    """The bicriteria LP's optimal sender value on `bicriteria_scheme`'s own
    sample (the same sampler and seed), each state counted in every order of
    its k slots: one variable per (type multiset, member type), shared by
    the multiset's orders and split uniformly among slots holding the type,
    and one relaxed-persuasiveness row per slot pair (i, j),
    E[x_i·(rho_i - rho_j + eps)] >= 0, at the same reduced eps."""
    table = _prior_table(inst)
    draw, rng = _state_sampler(inst, k), np.random.default_rng(seed)
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(samples):
        state = tuple(draw(rng))
        counts[state] = counts.get(state, 0) + 1
    orders = list(permutations(range(k)))
    weights: dict[tuple[int, ...], float] = {}
    for state, count in counts.items():
        for order in orders:
            key = tuple(state[i] for i in order)
            weights[key] = weights.get(key, 0.0) + count / (samples * len(orders))

    rho, xi = table.rho, table.xi
    variables: dict[tuple[int, ...], dict[int, int]] = {}
    slots: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    objective: list[float] = []
    for state, w in weights.items():
        key = tuple(sorted(state, key=table.id_rank.__getitem__))
        if key not in variables:
            variables[key] = {c: len(objective) + m for m, c in enumerate(dict.fromkeys(key))}
            objective.extend([0.0] * len(variables[key]))
        members = variables[key]
        for c, var in members.items():
            objective[var] += w * xi[c]
        slots[state] = [(members[c], state.count(c)) for c in state]
    rows = [(dict.fromkeys(members.values(), 1.0), "=", 1.0) for members in variables.values()]
    eps_lp = max(epsilon - BICRITERIA_MARGIN, 0.0)
    for i, j in permutations(range(k), 2):
        coeffs: dict[int, float] = {}
        for state, w in weights.items():
            var, mult = slots[state][i]
            coeffs[var] = coeffs.get(var, 0.0) + w * (rho[state[i]] - rho[state[j]] + eps_lp) / mult
        rows.append((coeffs, ">=", 0.0))
    lp = LinearProgram(tuple(objective), tuple(rows), ((0.0, 1.0),) * len(objective))
    solution = solve_lp(lp)
    assert solution.status == "optimal"
    return solution.objective


def test_bicriteria_matches_the_lp_on_the_symmetrized_sample():
    # The symmetrized sample's LP is the slope LP of a d-random-order prior,
    # so the closed form reaches the LP's optimum.  Only the sender value is
    # compared: the LP may have several sender-optimal solutions, which
    # differ in receiver value and regret.
    pairs = 0
    for idx, inst in enumerate(symmetric_corpus(40)):
        for k in range(2, min(4, n_slots(inst)) + 1):
            for epsilon in (0.0, 0.05, 0.2):
                res = bicriteria_scheme(inst, k, epsilon, 300, idx)
                reference = symmetrized_lp_value(inst, k, epsilon, 300, idx)
                assert res.u_sender == pytest.approx(reference, abs=1e-9), (idx, k, epsilon)
                assert res.max_regret <= epsilon + 1e-12, (idx, k, epsilon)
                pairs += 1
    assert pairs > 200

def test_tabular_scheme_fallback(tug):
    types = by_id(tug)
    s, r, d = types["sender_pick"], types["receiver_pick"], types["dud"]
    known = (s, r, d)
    scheme = TabularScheme(table={known: {0: 1.0}}, fallback_slots=(0, 1))
    assert scheme.recommendation_distribution(known) == {0: 1.0}
    # Unknown state: recommend the receiver-best slot among the fallbacks.
    assert scheme.recommendation_distribution((d, r, s)) == {1: 1.0}
    strict = TabularScheme(table={known: {0: 1.0}})
    with pytest.raises(KeyError):
        strict.recommendation_distribution((d, r, s))
