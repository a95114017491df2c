"""Exact enumeration: priors, brute-force optima, persuasiveness verdicts."""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from itertools import permutations, product

import pytest

import persuade as P
from persuade import exact_oracle
from persuade.exact_oracle import (
    enumerate_count,
    enumerate_oracle,
    enumerate_prior,
    expected_utilities,
    optimal_scheme_bruteforce,
    persuasiveness_check,
)
from persuade.geometry import NEG_INF, slope_between
from persuade.lp_core import solve_lp
from persuade.model import (
    ActionType,
    IIDInstance,
    IndependentInstance,
    ProphetSecretaryInstance,
    all_types,
    n_slots,
)
from persuade.symmetric_schemes import SlopeSchemeExecutor, TabularScheme, slope_algorithm
from corpus import independent_corpus, probe_slopes, symmetric_corpus


@pytest.fixture(scope="module")
def tug():
    return P.load_fixture("tug_of_war")


def test_enumerate_count(tug):
    assert enumerate_count(tug) == 6
    assert enumerate_count(P.load_fixture("coins_k3")) == 8
    assert enumerate_count(P.load_fixture("ratio_iid")) == 32
    a = ActionType("a", Fraction(1), Fraction(1))
    b = ActionType("b", Fraction(0), Fraction(0))
    c = ActionType("c", Fraction(1, 2), Fraction(1, 2))
    ps = ProphetSecretaryInstance(
        dists=(((a, Fraction(1, 2)), (b, Fraction(1, 2))), ((c, Fraction(1)),))
    )
    assert enumerate_count(ps) == 4


def test_enumerate_prior_running_example(tug):
    prior = enumerate_prior(tug)
    assert len(prior) == 6
    assert all(p == Fraction(1, 6) for p in prior.values())
    assert sum(prior.values()) == 1
    ids = {tuple(t.id for t in state) for state in prior}
    assert ("sender_pick", "receiver_pick", "dud") in ids


def test_enumerate_prior_iid_products():
    a = ActionType("a", Fraction(1), Fraction(0))
    b = ActionType("b", Fraction(0), Fraction(1))
    inst = IIDInstance(palette=((a, Fraction(1, 4)), (b, Fraction(3, 4))), n=2)
    prior = enumerate_prior(inst)
    by_ids = {tuple(t.id for t in state): p for state, p in prior.items()}
    assert by_ids[("a", "a")] == Fraction(1, 16)
    assert by_ids[("a", "b")] == Fraction(3, 16)
    assert by_ids[("b", "a")] == Fraction(3, 16)
    assert by_ids[("b", "b")] == Fraction(9, 16)


def _reference_prior(instance) -> dict:
    """The exact prior by direct enumeration of histories in Fractions,
    states in the order they are first reached with positive mass."""
    if isinstance(instance, IIDInstance):
        histories = [(Fraction(1), (instance.palette,) * instance.n)]
    elif isinstance(instance, IndependentInstance):
        histories = [(Fraction(1), instance.actions)]
    elif isinstance(instance, ProphetSecretaryInstance):
        n = len(instance.dists)
        histories = [
            (Fraction(1, math.factorial(n)), [instance.dists[i] for i in perm])
            for perm in permutations(range(n))
        ]
    else:
        n = len(instance.vectors[0])
        histories = [
            (qv / math.factorial(n), [((vec[i], Fraction(1)),) for i in perm])
            for vec, qv in zip(instance.vectors, instance.vector_probs)
            for perm in permutations(range(n))
        ]
    prior: dict = {}
    for weight, dists in histories:
        for combo in product(*dists):
            prob = weight * math.prod(q for _, q in combo)
            if prob > 0:
                state = tuple(t for t, _ in combo)
                prior[state] = prior.get(state, 0) + prob
    return prior


def _repeated_entry_instances():
    """An IID and an independent instance that list a type twice in one
    distribution (once after a zero-probability entry of it), and the same
    instances with each type listed once, at its first positive position."""
    a = ActionType("a", Fraction(1), Fraction(0))
    b = ActionType("b", Fraction(0), Fraction(1))
    c = ActionType("c", Fraction(1, 2), Fraction(1, 3))
    q = Fraction
    iid = IIDInstance(
        palette=((b, q(0)), (a, q(1, 4)), (c, q(1, 6)), (a, q(1, 4)), (b, q(1, 3))), n=3
    )
    iid_merged = IIDInstance(palette=((a, q(1, 2)), (c, q(1, 6)), (b, q(1, 3))), n=3)
    ind = IndependentInstance(
        actions=(
            ((a, q(1, 2)), (b, q(1, 4)), (a, q(1, 4))),
            ((c, q(1, 3)), (c, q(1, 3)), (b, q(1, 3))),
            ((b, q(1, 2)), (a, q(1, 2))),
        )
    )
    ind_merged = IndependentInstance(
        actions=(
            ((a, q(3, 4)), (b, q(1, 4))),
            ((c, q(2, 3)), (b, q(1, 3))),
            ((b, q(1, 2)), (a, q(1, 2))),
        )
    )
    return iid, ind, iid_merged, ind_merged


def test_enumerate_prior_matches_direct_enumeration_in_order():
    a = ActionType("a", Fraction(1), Fraction(0))
    b = ActionType("b", Fraction(0), Fraction(1))
    c = ActionType("c", Fraction(1, 2), Fraction(1, 3))
    # Shared types across distributions and zero-probability entries.
    ps = ProphetSecretaryInstance(
        dists=(
            ((a, Fraction(0)), (b, Fraction(1, 3)), (c, Fraction(2, 3))),
            ((c, Fraction(1, 5)), (a, Fraction(4, 5))),
            ((b, Fraction(1)),),
        )
    )
    instances = [ps, *_repeated_entry_instances(), *symmetric_corpus()[:60], *independent_corpus(20)]
    for inst in instances:
        got = enumerate_prior(inst)
        assert list(got.items()) == list(_reference_prior(inst).items())
        assert all(isinstance(p, Fraction) for p in got.values())


def test_referee_merges_a_type_listed_twice():
    # Listing a type twice in a distribution is the same prior as listing it
    # once with the summed probability, so the referee solves the same LP.
    iid, ind, iid_merged, ind_merged = _repeated_entry_instances()
    for inst, merged in ((iid, iid_merged), (ind, ind_merged)):
        assert enumerate_prior(inst) == enumerate_prior(merged)
        for k in (2, 3):
            scheme, opt = optimal_scheme_bruteforce(inst, k)
            merged_scheme, merged_opt = optimal_scheme_bruteforce(merged, k)
            assert opt == merged_opt
            assert scheme.table == merged_scheme.table
            assert len(scheme.table) == len(enumerate_prior(inst))
            assert persuasiveness_check(scheme, inst).persuasive
            assert abs(expected_utilities(scheme, inst)[0] - opt) < 1e-9


def test_enumerate_prior_bound_guard():
    a = ActionType("a", Fraction(1), Fraction(0))
    b = ActionType("b", Fraction(0), Fraction(1))
    big = IIDInstance(palette=((a, Fraction(1, 4)), (b, Fraction(3, 4))), n=20)
    with pytest.raises(ValueError, match="bound"):
        enumerate_prior(big)
    small = IIDInstance(palette=((a, Fraction(1, 4)), (b, Fraction(3, 4))), n=3)
    with pytest.raises(ValueError, match="bound"):
        enumerate_prior(small, state_bound=7)


def test_bruteforce_fixture_values(tug):
    _, opt2 = optimal_scheme_bruteforce(tug, 2)
    assert abs(opt2 - 2 / 3) < 1e-9
    _, opt3 = optimal_scheme_bruteforce(tug, 3)
    assert abs(opt3 - 2 / 3) < 1e-9
    scheme, trap_opt = optimal_scheme_bruteforce(P.load_fixture("fallback_trap"), 2)
    assert abs(trap_opt - 0.5) < 1e-8
    assert isinstance(scheme, TabularScheme)


def test_bruteforce_scheme_is_persuasive_and_attains_value(tug):
    scheme, opt = optimal_scheme_bruteforce(tug, 2)
    u_s, _ = expected_utilities(scheme, tug)
    assert abs(u_s - opt) < 1e-9
    assert persuasiveness_check(scheme, tug).persuasive


def test_persuasiveness_check_flags_bad_scheme(tug):
    # Always recommending the sender's favorite is informative and disobeyed:
    # conditioned on the signal, some other slot pays the receiver 1/2.
    table = {}
    for state in enumerate_prior(tug):
        slot = next(i for i, t in enumerate(state) if t.id == "sender_pick")
        table[state] = {slot: 1.0}
    scheme = TabularScheme(table=table)
    report = persuasiveness_check(scheme, tug)
    assert not report.persuasive
    assert set(report.signals) == {0, 1, 2}
    for check in report.signals.values():
        assert abs(check.probability - 1 / 3) < 1e-12
        assert abs(check.value - 0.0) < 1e-12
        assert abs(check.best_deviation - 0.5) < 1e-12
        assert not check.persuasive
    u_s, u_r = expected_utilities(scheme, tug)
    assert abs(u_s - 1.0) < 1e-12
    assert abs(u_r - 0.0) < 1e-12


def test_persuasiveness_check_passes_slope_executor(tug):
    ex = SlopeSchemeExecutor(slope_algorithm(tug, 2), 2)
    report = persuasiveness_check(ex, tug)
    assert report.persuasive
    assert all(check.persuasive for check in report.signals.values())
    total = sum(check.probability for check in report.signals.values())
    assert abs(total - 1.0) < 1e-12


@pytest.fixture
def builds(monkeypatch):
    """The instances whose exact prior is built, one entry per build."""
    out = []
    build = exact_oracle._ExactPrior.build
    monkeypatch.setattr(
        exact_oracle._ExactPrior, "build", staticmethod(lambda i: out.append(i) or build(i))
    )
    return out


def test_enumerate_oracle_refuses_a_positive_slope(tug, builds):
    with pytest.raises(ValueError, match=r"^slope must be <= 0 or NEG_INF, got Fraction\(1, 1\)$"):
        enumerate_oracle(tug, 2, slopes=[NEG_INF, Fraction(1)])
    assert builds == []


def test_enumerate_oracle_refuses_an_independent_instance_before_enumerating(builds):
    coins = P.load_fixture("coins_k3")
    with pytest.raises(TypeError, match="^frontier events are defined for symmetric instances only$"):
        enumerate_oracle(coins, 2, [NEG_INF])
    with pytest.raises(TypeError, match="^frontier events are defined for symmetric instances only$"):
        P.segment_probabilities(coins, 2)
    assert builds == []


def test_one_exact_prior_per_instance(builds):
    # The referee, both audits, the frontier-event reference and the public
    # prior all read the exact prior the first of them built, at every k.
    inst = P.load_fixture("tug_of_war")
    for k in range(2, n_slots(inst) + 1):
        scheme, _ = optimal_scheme_bruteforce(inst, k)
        persuasiveness_check(scheme, inst)
        expected_utilities(scheme, inst)
        enumerate_oracle(inst, k, [NEG_INF, Fraction(-1)])
    enumerate_prior(inst)
    coins = P.load_fixture("coins_k3")
    for k in (2, 3):
        scheme, _ = optimal_scheme_bruteforce(coins, k)
        persuasiveness_check(scheme, coins)
        expected_utilities(scheme, coins)
    assert builds == [inst, coins]


def test_a_warm_exact_prior_still_checks_every_bound():
    inst = P.load_fixture("tug_of_war")  # 6 raw combinations
    scheme, _ = optimal_scheme_bruteforce(inst, 2)
    assert persuasiveness_check(scheme, inst).persuasive
    expected_utilities(scheme, inst)
    calls = {
        "enumerate_prior": lambda: enumerate_prior(inst, state_bound=5),
        "optimal_scheme_bruteforce": lambda: optimal_scheme_bruteforce(inst, 2, state_bound=5),
        "persuasiveness_check": lambda: persuasiveness_check(scheme, inst, state_bound=5),
        "expected_utilities": lambda: expected_utilities(scheme, inst, state_bound=5),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="bound"):
            call()


def test_enumerate_prior_returns_a_new_dict_each_call(tug):
    first = enumerate_prior(tug)
    expected = dict(first)
    state = next(iter(first))
    first[state] = Fraction(5)
    first.popitem()
    assert enumerate_prior(tug) == expected
    assert list(enumerate_prior(tug)) == list(expected)


def _wide_fraction_prior() -> ProphetSecretaryInstance:
    """Prophet-secretary prior whose exact state probabilities and
    probability-times-utility products have numerators and denominators
    past 2^53, so the float of a product of floats would differ from the
    float of the exact product on some coefficients."""
    a = ActionType("a", Fraction(999983, 1000003), Fraction(1, 999979))
    b = ActionType("b", Fraction(1, 999961), Fraction(999953, 1000033))
    c = ActionType("c", Fraction(524287, 1048573), Fraction(3, 7))
    d = ActionType("d", Fraction(2, 3), Fraction(1048571, 2097143))
    return ProphetSecretaryInstance(
        dists=(
            ((a, Fraction(999979, 2000003)), (b, Fraction(1000024, 2000003))),
            ((c, Fraction(3, 1000037)), (d, Fraction(1000034, 1000037))),
            ((a, Fraction(7, 999999937)), (d, Fraction(999999930, 999999937))),
        )
    )


# Referee optimum, split rows and a digest of the whole table, per k, on
# `_wide_fraction_prior`; recorded when every coefficient was computed as
# float(Fraction product).
WIDE_REFEREE = {
    2: (
        "0x1.15551f5991ca2p-1",
        {
            ("d", "b", "d"): {0: "0x1.fff30639b22a4p-2", 1: "0x1.00067ce326eaep-1"},
            ("d", "d", "b"): {0: "0x1.fff2a19215937p-2", 1: "0x1.0006af36f5364p-1"},
        },
        "dc0c6da1b23a5b57bade34b4cf7da94507e1d3e956313ae69ff17941a21fa0db",
    ),
    3: (
        "0x1.155522af1b605p-1",
        {
            ("b", "d", "d"): {0: "0x1.2dfeec16b2889p-20", 1: "0x1.ffffda40227d3p-1"},
            ("d", "b", "d"): {1: "0x1.0006d4f625caap-1", 2: "0x1.fff25613b46acp-2"},
            ("d", "d", "b"): {0: "0x1.2dfad1668d86dp-20", 1: "0x1.ffffda40a5d33p-1"},
        },
        "d4a0f8c6c4d1b8468e51759c6c2d54438ba562351ed1647df82b7fa36d91be97",
    ),
}


# The orbit LP's optimum on `_wide_fraction_prior`, per k.
WIDE_ORBIT_OPTIMUM = {2: "0x1.15551f55cfe08p-1", 3: "0x1.1555229d927f8p-1"}


def _orbits(prior: dict, k: int) -> list:
    """[((first k types, other types), exact mass), ...]: the prior's mass per
    G-orbit, each half sorted by id, orbits in order of their ids."""
    mass: dict = {}
    for state, p in prior.items():
        key = tuple(tuple(sorted(half, key=lambda t: t.id)) for half in (state[:k], state[k:]))
        mass[key] = mass.get(key, 0) + p
    return sorted(mass.items(), key=lambda item: [[t.id for t in half] for half in item[0]])


def _table_text(table) -> str:
    return repr(sorted(
        (tuple(t.id for t in state), tuple((i, p.hex()) for i, p in row.items()))
        for state, row in table.items()
    ))


def test_referee_coefficients_are_exact_products_rounded_once(monkeypatch):
    inst = _wide_fraction_prior()
    prior = enumerate_prior(inst)
    assert max(p.denominator for p in prior.values()) > 2**53
    assert max(p.numerator for p in prior.values()) > 2**53
    rounded_twice = sum(
        float(p * (s[i].rho - s[j].rho)) != float(p) * float(s[i].rho - s[j].rho)
        for s, p in prior.items()
        for i in range(3)
        for j in range(3)
    )
    assert rounded_twice > 0
    lps = []
    monkeypatch.setattr(exact_oracle, "solve_lp", lambda lp: lps.append(lp) or solve_lp(lp))
    states = sorted(prior, key=lambda s: tuple(t.id for t in s))
    for k, (opt, split, digest) in WIDE_REFEREE.items():
        # The state-level LP, which independent subsets and the cross-checks use.
        scheme, value = exact_oracle._state_lp(inst, [tuple(range(k))], 10**5)
        # Column si * k + i is the weight of slot i in the si-th state by ids.
        assert lps[-1].objective == tuple(
            float(prior[s] * s[i].xi) for s in states for i in range(k)
        )
        assert [c for c, relation, _ in lps[-1].rows if relation == ">="] == [
            {si * k + i: float(prior[s] * (s[i].rho - s[j].rho)) for si, s in enumerate(states)}
            for i in range(k)
            for j in range(3)
            if j != i
        ]
        assert value.hex() == opt
        rows = {tuple(t.id for t in s): row for s, row in scheme.table.items()}
        assert len(rows) == len(prior)
        got = {ids: {i: p.hex() for i, p in row.items()} for ids, row in rows.items() if len(row) > 1}
        assert got == split
        assert hashlib.sha256(_table_text(scheme.table).encode()).hexdigest() == digest

        # The orbit LP the referee solves: one column per (orbit, distinct
        # type among its first k slots), in the order of `_orbits`.
        value = optimal_scheme_bruteforce(inst, k)[1]
        cells = [(seen, rest, p, t) for (seen, rest), p in _orbits(prior, k) for t in dict.fromkeys(seen)]
        assert lps[-1].objective == tuple(float(p * t.xi) for _, _, p, t in cells)
        assert [list(c) for c, relation, _ in lps[-1].rows if relation == ">="] == [
            [float(p * (k * t.rho - sum(u.rho for u in seen)) / (k - 1)) for seen, _, p, t in cells],
            *([[float(p * ((3 - k) * t.rho - sum(u.rho for u in rest)) / (3 - k))
                for _, rest, p, t in cells]] if k < 3 else []),
        ]
        assert value.hex() == WIDE_ORBIT_OPTIMUM[k]


def test_enumerate_oracle_partitions_probability_at_every_slope():
    # Each realized type set has one correspondence per slope: its segment of
    # that slope, or one unique point.
    for inst in symmetric_corpus()[:40]:
        types = {t.id: t for t in all_types(inst)}
        for k in range(2, n_slots(inst) + 1):
            slopes = probe_slopes(inst, k)
            tables = enumerate_oracle(inst, k, slopes=slopes)
            for s in slopes:
                total = sum(p for (_, at), p in tables.uniques.items() if at == s)
                total += sum(
                    p
                    for (a, b), p in tables.segments.items()
                    if slope_between(types[a], types[b]) == s
                )
                assert total == Fraction(1), (k, s)


def test_orbit_referee_optimum_equals_the_state_level_lp():
    for i, inst in enumerate(symmetric_corpus()):
        for k in range(2, n_slots(inst) + 1):
            _, value = optimal_scheme_bruteforce(inst, k)
            _, state_level = exact_oracle._state_lp(inst, [tuple(range(k))], 10**5)
            assert abs(value - state_level) < 1e-9, (i, k)


def _moved(state, row, perm):
    """The state with slot j holding state[perm[j]], and its row moved along."""
    back = {old: new for new, old in enumerate(perm)}
    return tuple(state[j] for j in perm), {back[i]: p for i, p in row.items()}


def test_orbit_referee_scheme_is_persuasive_symmetric_and_attains_its_value():
    for i, inst in enumerate(symmetric_corpus()[:60]):
        n = n_slots(inst)
        for k in range(2, n + 1):
            scheme, value = optimal_scheme_bruteforce(inst, k)
            report = persuasiveness_check(scheme, inst)
            assert report.persuasive, (i, k)
            assert abs(expected_utilities(scheme, inst)[0] - value) < 1e-9, (i, k)
            assert sorted(report.signals) == list(range(k)), (i, k)
            for check in report.signals.values():
                assert abs(check.probability - 1 / k) < 1e-12, (i, k)
            # A swap and a rotation of the first k slots generate S_k, and of
            # the other n - k slots S_{n-k}.
            ident = list(range(n))
            perms = [
                [1, 0, *ident[2:]],
                [*ident[1:k], 0, *ident[k:]],
                *([[*ident[:k], k + 1, k, *ident[k + 2:]], [*ident[:k], *ident[k + 1:], k]]
                  if n - k >= 2 else []),
            ]
            for state, row in scheme.table.items():
                for perm in perms:
                    moved, moved_row = _moved(state, row, perm)
                    assert scheme.table[moved] == moved_row, (i, k, perm)
