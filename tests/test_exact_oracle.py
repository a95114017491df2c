"""Exact enumeration: priors, brute-force optima, persuasiveness verdicts."""

from __future__ import annotations

from fractions import Fraction

import pytest

import persuade as P
from persuade.exact_oracle import (
    enumerate_count,
    enumerate_oracle,
    enumerate_prior,
    expected_utilities,
    optimal_scheme_bruteforce,
    persuasiveness_check,
)
from persuade.geometry import slope_between
from persuade.model import (
    ActionType,
    IIDInstance,
    ProphetSecretaryInstance,
    all_types,
    n_slots,
)
from persuade.symmetric_schemes import SlopeSchemeExecutor, TabularScheme, slope_algorithm
from corpus import probe_slopes, symmetric_corpus


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


def test_enumerate_oracle_refuses_a_positive_slope(tug):
    with pytest.raises(ValueError):
        enumerate_oracle(tug, 2, slopes=[Fraction(1)])


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
