"""Model layer: exact rationals, validation, sampling, JSON round trips."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import persuade as P
from persuade.model import (
    ActionType,
    DRandomOrderInstance,
    IIDInstance,
    IndependentInstance,
    InstanceFormatError,
    ProphetSecretaryInstance,
    all_types,
    format_rational,
    n_slots,
    parse_rational,
    sample_state,
)
from persuade.model import _prior_table, _state_sampler
from corpus import independent_corpus, random_symmetric, shared_type_priors, symmetric_corpus


def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational(7) == Fraction(7)
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2/6") == Fraction(-1, 3)
    assert parse_rational(Fraction(5, 9)) == Fraction(5, 9)


@pytest.mark.parametrize("bad", [True, False, 0.5, "x/y", None, [1]])
def test_parse_rational_rejects_non_rationals(bad):
    with pytest.raises(InstanceFormatError):
        parse_rational(bad)


def test_format_rational_compact_forms():
    assert format_rational(Fraction(6, 3)) == 2
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(0)) == 0


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_rational_round_trip(num, den):
    q = Fraction(num, den)
    assert parse_rational(format_rational(q)) == q


def test_action_type_requires_fractions():
    with pytest.raises(InstanceFormatError):
        ActionType("a", 0.5, Fraction(1))
    with pytest.raises(InstanceFormatError):
        ActionType("a", 1, Fraction(1))


def test_equal_types_hash_equal_and_share_state_keys():
    a = ActionType("a", Fraction(1, 3), Fraction(2, 3))
    twin = ActionType("a", Fraction(2, 6), Fraction(4, 6))
    b = ActionType("b", Fraction(1, 3), Fraction(2, 3))
    assert a == twin and a is not twin
    assert hash(a) == hash(twin)
    table = {(a, b): 1, (b,): 2}
    assert table[(twin, b)] == 1
    assert {(twin,): 3}.get((a,)) == 3
    assert (b, a) not in table and (a,) not in table


def test_distribution_validation():
    good = ActionType("a", Fraction(1), Fraction(1))
    with pytest.raises(InstanceFormatError, match="negative probability"):
        IIDInstance(
            palette=((good, Fraction(-1, 2)), (ActionType("b", Fraction(0), Fraction(0)), Fraction(3, 2))),
            n=2,
        )
    with pytest.raises(InstanceFormatError, match="sum to"):
        IIDInstance(palette=((good, Fraction(1, 2)),), n=2)
    with pytest.raises(InstanceFormatError, match="n must be"):
        IIDInstance(palette=((good, Fraction(1)),), n=0)


def test_duplicate_type_ids_rejected():
    a1 = ActionType("a", Fraction(1), Fraction(1))
    a2 = ActionType("a", Fraction(0), Fraction(0))
    with pytest.raises(InstanceFormatError, match="duplicate type id"):
        IIDInstance(palette=((a1, Fraction(1, 2)), (a2, Fraction(1, 2))), n=2)


def test_designated_action_tie_breaks():
    # Highest mean receiver utility wins; sender utility then lowest index.
    mk = lambda tid, rho, xi: (ActionType(tid, Fraction(rho), Fraction(xi)), Fraction(1))
    inst = IndependentInstance(actions=((mk("a", 0, 1),), (mk("b", 1, 0),), (mk("c", 1, 1),)))
    assert inst.designated == 2
    tie = IndependentInstance(actions=((mk("d", 1, 1),), (mk("e", 1, 1),)))
    assert tie.designated == 0


def test_best_fixed_action_value():
    inst = P.load_fixture("tug_of_war")
    assert P.best_fixed_action_value(inst) == Fraction(1, 3)
    trap = P.load_fixture("fallback_trap")
    assert P.best_fixed_action_value(trap) == Fraction(1, 2)


def test_sample_state_matches_slots():
    rng = np.random.default_rng(7)
    for inst in symmetric_corpus(count=12, seed=5):
        n = n_slots(inst)
        ids = {t.id for t in all_types(inst)}
        for _ in range(5):
            state = sample_state(inst, rng)
            assert len(state) == n
            assert all(t.id in ids for t in state)


def test_sample_state_frequencies_iid():
    palette = (
        (ActionType("a", Fraction(1), Fraction(0)), Fraction(1, 4)),
        (ActionType("b", Fraction(0), Fraction(1)), Fraction(3, 4)),
    )
    inst = IIDInstance(palette=palette, n=2)
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(4000):
        if sample_state(inst, rng)[0].id == "a":
            hits += 1
    assert abs(hits / 4000 - 0.25) < 0.03


def _choice_per_slot(instance, rng, slots=None):
    """Reference sampler: one `rng.choice` over the float probabilities per
    slot, keeping the first `slots` slots (all by default).  IID draws only
    those slots; the permutation priors draw the whole state and crop it."""

    def draw(dist):
        probs = np.array([float(q) for _, q in dist])
        probs /= probs.sum()
        return dist[rng.choice(len(dist), p=probs)][0]

    if isinstance(instance, IIDInstance):
        return tuple(draw(instance.palette) for _ in range(slots or instance.n))
    if isinstance(instance, ProphetSecretaryInstance):
        order = rng.permutation(len(instance.dists))
        return tuple(draw(instance.dists[i]) for i in order)[:slots]
    if isinstance(instance, DRandomOrderInstance):
        probs = np.array([float(q) for q in instance.vector_probs])
        probs /= probs.sum()
        vec = instance.vectors[rng.choice(len(instance.vectors), p=probs)]
        return tuple(vec[i] for i in rng.permutation(len(vec)))[:slots]
    return tuple(draw(dist) for dist in instance.actions)


def _stream_pin_cases():
    """(instance, slots) pairs: every instance whole, and every symmetric one
    cropped to each k in [1, n), as bicriteria_scheme samples it."""
    out = symmetric_corpus(count=40, seed=9) + shared_type_priors(np.random.default_rng(12), 4)
    out += independent_corpus(count=12, seed=10)
    # Zero masses, a one-type distribution and unequal supports.
    a, b, c = (ActionType(t, Fraction(i, 3), Fraction(2 - i, 3)) for i, t in enumerate("abc"))
    out.append(ProphetSecretaryInstance(dists=(
        ((a, Fraction(0)), (b, Fraction(1, 3)), (c, Fraction(2, 3))),
        ((b, Fraction(1)),),
        ((a, Fraction(1, 2)), (c, Fraction(1, 2))),
        ((c, Fraction(1, 7)), (a, Fraction(6, 7)), (b, Fraction(0))),
    )))
    out.append(IIDInstance(palette=((a, Fraction(1, 5)), (b, Fraction(0)), (c, Fraction(4, 5))), n=6))
    out.append(IndependentInstance(actions=(((a, Fraction(1)), (b, Fraction(0))), ((c, Fraction(1)),))))
    return [(inst, None) for inst in out] + [
        (inst, k) for inst in out if P.is_symmetric(inst) for k in range(1, n_slots(inst))
    ]


@pytest.mark.parametrize("make_rng", [
    lambda seed: np.random.Generator(np.random.Philox(key=[seed, 3])),
    np.random.default_rng,
], ids=["philox", "pcg64"])
def test_sampler_keeps_the_per_slot_choice_stream(make_rng):
    for seed, (inst, slots) in enumerate(_stream_pin_cases()):
        ours, ref = make_rng(seed), make_rng(seed)
        draw = _state_sampler(inst, slots)  # built once, as estimate and bicriteria_scheme do
        types = _prior_table(inst).types
        for _ in range(15):
            assert tuple(types[c] for c in draw(ours)) == _choice_per_slot(inst, ref, slots)
        assert sample_state(inst, ours) == _choice_per_slot(inst, ref)
        assert ours.random() == ref.random()


@pytest.mark.parametrize("make_rng", [
    lambda seed: np.random.Generator(np.random.Philox(key=[seed, 3])),
    np.random.default_rng,
], ids=["philox", "pcg64"])
def test_leading_slots_are_the_full_draw_cropped(make_rng):
    # Prophet-secretary, d-random-order and independent priors draw the
    # whole state for any slot count, and IID priors do with whole_stream:
    # the first k columns of the full draw, with the generator left where
    # the full draw leaves it.
    whole = [inst for inst, slots in _stream_pin_cases() if slots is None]
    for seed, inst in enumerate(whole):
        full = _state_sampler(inst)
        for slots in range(1, n_slots(inst)):
            ours, ref = make_rng(seed), make_rng(seed)
            draw = _state_sampler(inst, slots, whole_stream=isinstance(inst, IIDInstance))
            for _ in range(5):
                assert draw(ours) == full(ref)[:slots]
            assert ours.random() == ref.random()



def test_json_round_trip_all_kinds():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        inst = random_symmetric(rng)
        blob = P.instance_to_dict(inst)
        again = P.instance_from_dict(json.loads(json.dumps(blob)))
        assert again == inst
    trap = P.load_fixture("fallback_trap")
    assert P.instance_from_dict(P.instance_to_dict(trap)) == trap
    # Prophet-secretary distributions that share a type.
    hi = ActionType("hi", Fraction(1), Fraction(1, 4))
    lo = ActionType("lo", Fraction(0), Fraction(1))
    shared = ProphetSecretaryInstance(
        dists=(((hi, Fraction(1, 2)), (lo, Fraction(1, 2))), ((hi, Fraction(1)),), ((lo, Fraction(1)),))
    )
    assert P.instance_from_dict(json.loads(json.dumps(P.instance_to_dict(shared)))) == shared


def test_instance_from_dict_rejects_unknown_kind():
    with pytest.raises(InstanceFormatError, match="unknown instance kind"):
        P.instance_from_dict({"kind": "mystery"})


def test_save_and_load_instance(tmp_path):
    inst = P.load_fixture("ratio_iid")
    path = tmp_path / "inst.json"
    P.save_instance(inst, path)
    assert P.load_instance(path) == inst


def test_fixture_catalog():
    names = P.fixture_names()
    assert "tug_of_war" in names
    assert "fallback_trap" in names
    assert {"coins_k2", "coins_k3", "coins_k5"} <= set(names)
    with pytest.raises(InstanceFormatError, match="no fixture named"):
        P.load_fixture("missing_fixture")


def test_is_symmetric_flags():
    assert P.is_symmetric(P.load_fixture("tug_of_war"))
    assert P.is_symmetric(P.load_fixture("ratio_iid"))
    assert not P.is_symmetric(P.load_fixture("fallback_trap"))


K_RANGE_ENTRY_POINTS = {
    "segment_probabilities": ("tug_of_war", P.segment_probabilities),
    "imitation_scheme": ("tug_of_war", P.imitation_scheme),
    "bicriteria_scheme": ("tug_of_war", lambda inst, k: P.bicriteria_scheme(inst, k, 0.1, 10, 0)),
    "actions_greedy": ("coins_k3", P.actions_greedy),
    "optimal_scheme_bruteforce": ("tug_of_war", P.optimal_scheme_bruteforce),
    "enumerate_oracle": ("tug_of_war", lambda inst, k: P.enumerate_oracle(inst, k, [P.NEG_INF])),
}


@pytest.mark.parametrize("past_n", [False, True], ids=["k=1", "k=n+1"])
@pytest.mark.parametrize("entry", sorted(K_RANGE_ENTRY_POINTS))
def test_every_entry_point_refuses_k_outside_2_to_n_in_the_same_words(entry, past_n):
    fixture, call = K_RANGE_ENTRY_POINTS[entry]
    inst = P.load_fixture(fixture)
    n = n_slots(inst)
    k = n + 1 if past_n else 1
    with pytest.raises(ValueError) as refused:
        call(inst, k)
    assert str(refused.value) == f"k={k} outside [2, {n}]"


K_INTEGER_ENTRY_POINTS = {
    "slope_algorithm": ("ratio_iid", P.slope_algorithm),
    "imitation_scheme": ("tug_of_war", P.imitation_scheme),
    "bicriteria_scheme": ("tug_of_war", lambda inst, k: P.bicriteria_scheme(inst, k, 0.1, 10, 0)),
    "segment_probabilities": ("tug_of_war", P.segment_probabilities),
    "independent_scheme-greedy": (
        "coins_k3", lambda inst, k: P.independent_scheme(inst, k, "greedy", force=True)
    ),
    "independent_scheme-reduce": (
        "coins_k3", lambda inst, k: P.independent_scheme(inst, k, "reduce", force=True)
    ),
    "independent_scheme-fptas": (
        "coins_k3", lambda inst, k: P.independent_scheme(inst, k, "fptas", 0.5, force=True)
    ),
    "optimal_scheme_bruteforce": ("tug_of_war", P.optimal_scheme_bruteforce),
}


@pytest.mark.parametrize("entry", sorted(K_INTEGER_ENTRY_POINTS))
def test_every_entry_point_refuses_a_non_integer_k(entry):
    # Unchecked, a float k runs on: the IID closed form at a fractional
    # power, a 3-action independent scheme for k = 2.5, or an unrelated
    # TypeError.
    fixture, call = K_INTEGER_ENTRY_POINTS[entry]
    inst = P.load_fixture(fixture)
    for k in (2.5, 2.0):
        with pytest.raises(ValueError) as refused:
            call(inst, k)
        assert str(refused.value) == f"k must be an integer, got {k}"
    call(inst, np.int64(2))
