"""Exact ground truth for small instances.

Everything here enumerates the full state space, so it only runs when the
raw combination count clears a guard.  It exists to validate the scalable
paths: the brute-force LP is the reference optimum for the slope algorithm
and the relaxation-based schemes, the persuasiveness check audits any
executable scheme signal by signal, and ``enumerate_oracle`` is the exact
reference for the analytic frontier-event oracles of ``prob_oracle``.  A
realized frontier depends only on the set of the first k types, so
``enumerate_oracle`` sums the prior's mass per such set and asks
``geometry.point_for_slope`` once per set and query slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Mapping

from .geometry import SegmentTangent, Slope, pareto_frontier, point_for_slope
from .lp_core import CONSTRAINT_TOL, GAIN_TOL, NEGLIGIBLE_TOL, ZERO_TOL, LinearProgram, solve_lp
from .model import (
    DRandomOrderInstance,
    IIDInstance,
    IndependentInstance,
    Instance,
    ProphetSecretaryInstance,
    State,
    _check_k,
    n_slots,
)
from .symmetric_schemes import TabularScheme

__all__ = [
    "OracleTables",
    "PersuasivenessReport",
    "SignalCheck",
    "enumerate_count",
    "enumerate_oracle",
    "enumerate_prior",
    "expected_utilities",
    "optimal_scheme_bruteforce",
    "persuasiveness_check",
]


def _count_terms(instance: Instance) -> tuple[int, list[tuple[int, int]]]:
    """(m, [(size, power), ...]): the raw count is m! * prod(size ** power)."""
    if isinstance(instance, IIDInstance):
        return 0, [(len(instance.palette), instance.n)]
    if isinstance(instance, ProphetSecretaryInstance):
        return len(instance.dists), [(len(d), 1) for d in instance.dists]
    if isinstance(instance, DRandomOrderInstance):
        return len(instance.vectors[0]), [(len(instance.vectors), 1)]
    if isinstance(instance, IndependentInstance):
        return 0, [(len(d), 1) for d in instance.actions]
    raise TypeError(f"not an instance: {instance!r}")


def enumerate_count(instance: Instance) -> int:
    """Raw combination count an exact enumeration would visit."""
    m, terms = _count_terms(instance)
    return math.factorial(m) * math.prod(size**power for size, power in terms)


def enumerate_prior(instance: Instance, state_bound: int = 10**6) -> dict[State, Fraction]:
    """The exact prior over ordered states, as a dict of Fractions.

    States reachable through several histories (different permutations or
    draws) are aggregated.  Raises ValueError when the raw combination
    count exceeds `state_bound` before doing any work.
    """
    # Decided from log10 of the count, which is formed only near the bound:
    # forming it takes seconds for an IID prior with n = 10^9.
    m, terms = _count_terms(instance)
    log_count = math.lgamma(m + 1) / math.log(10)
    log_count += sum(power * math.log10(size) for size, power in terms)
    if log_count > math.log10(max(state_bound, 1)) + 1 or enumerate_count(instance) > state_bound:
        raise ValueError(
            f"exact enumeration would visit about 10^{log_count:.1f} "
            f"combinations, over the bound of {state_bound}"
        )
    prior: dict[State, Fraction] = {}

    def add(state: State, prob: Fraction) -> None:
        if prob > 0:
            prior[state] = prior.get(state, Fraction(0)) + prob

    if isinstance(instance, IIDInstance):
        for combo in product(instance.palette, repeat=instance.n):
            prob = math.prod((q for _, q in combo), start=Fraction(1))
            add(tuple(t for t, _ in combo), prob)
    elif isinstance(instance, ProphetSecretaryInstance):
        n = len(instance.dists)
        perm_prob = Fraction(1, math.factorial(n))
        for perm in permutations(range(n)):
            for combo in product(*(instance.dists[i] for i in perm)):
                prob = perm_prob * math.prod((q for _, q in combo), start=Fraction(1))
                add(tuple(t for t, _ in combo), prob)
    elif isinstance(instance, DRandomOrderInstance):
        n = len(instance.vectors[0])
        perm_prob = Fraction(1, math.factorial(n))
        for vec, qv in zip(instance.vectors, instance.vector_probs):
            for perm in permutations(range(n)):
                add(tuple(vec[i] for i in perm), qv * perm_prob)
    elif isinstance(instance, IndependentInstance):
        for combo in product(*instance.actions):
            prob = math.prod((q for _, q in combo), start=Fraction(1))
            add(tuple(t for t, _ in combo), prob)
    else:
        raise TypeError(f"not an instance: {instance!r}")

    assert sum(prior.values()) == 1
    return prior


@dataclass(frozen=True)
class OracleTables:
    """Exact correspondence probabilities per query slope.

    ``segments`` maps (left id, right id) to the probability that this pair is
    the maximal segment of its slope; ``uniques`` maps (type id, slope) to the
    probability that the type alone is the slope's tangency point.
    """

    slopes: tuple[Slope, ...]
    segments: dict[tuple[str, str], Fraction]
    uniques: dict[tuple[str, Slope], Fraction]


def enumerate_oracle(instance: Instance, k: int, slopes: list[Slope]) -> OracleTables:
    """Exact frontier-event tables of the first k slots at every query slope.

    Sums the prior's mass per realized set of the first k types, builds each
    set's frontier once, and credits its ``point_for_slope`` correspondence
    at every slope (each <= 0 or NEG_INF).
    """
    _check_k(instance, k)
    mass: dict[frozenset, Fraction] = {}
    for state, prob in enumerate_prior(instance).items():
        key = frozenset(state[:k])
        mass[key] = mass.get(key, Fraction(0)) + prob
    segments: dict[tuple[str, str], Fraction] = {}
    uniques: dict[tuple[str, Slope], Fraction] = {}
    for types, prob in mass.items():
        frontier = pareto_frontier(types)
        for s in slopes:
            hit = point_for_slope(frontier, s)
            if isinstance(hit, SegmentTangent):
                key, table = (hit.left.id, hit.right.id), segments
            else:
                key, table = (hit.vertex.id, s), uniques
            table[key] = table.get(key, Fraction(0)) + prob
    return OracleTables(slopes=tuple(sorted(slopes)), segments=segments, uniques=uniques)


def expected_utilities(
    scheme, instance: Instance, state_bound: int = 10**6
) -> tuple[float, float]:
    """Exact expected (sender, receiver) utilities of an executable scheme."""
    prior = enumerate_prior(instance, state_bound)
    u_sender = 0.0
    u_receiver = 0.0
    for state, prob in prior.items():
        q = float(prob)
        for i, p in scheme.recommendation_distribution(state).items():
            u_sender += q * p * float(state[i].xi)
            u_receiver += q * p * float(state[i].rho)
    return u_sender, u_receiver


# --------------------------------------------------------------------------
# Brute-force optimum
# --------------------------------------------------------------------------

def optimal_scheme_bruteforce(
    instance: Instance, k: int, state_bound: int = 10**5
) -> tuple[TabularScheme, float]:
    """Exactly optimal persuasive k-signal scheme by direct LP over all states.

    Signals recommend slots.  On symmetric instances only the first k slots
    need ever be recommended; on independent instances every k-subset of
    actions is tried and the best kept.  Per subset the LP maximizes
    expected sender utility over per-state recommendation rows, subject to
    obedience: conditioned on any signal, the recommended slot's receiver
    utility beats every alternative slot in expectation.
    """
    n = _check_k(instance, k)
    prior = enumerate_prior(instance, state_bound)
    states = sorted(prior, key=lambda s: tuple(t.id for t in s))

    if isinstance(instance, IndependentInstance):
        subsets = list(combinations(range(n), k))
    else:
        subsets = [tuple(range(k))]

    best: tuple[float, dict[State, dict[int, float]]] | None = None
    for signals in subsets:
        col: dict[tuple[int, int], int] = {}
        objective: list[float] = []
        for si, state in enumerate(states):
            for i in signals:
                col[(si, i)] = len(objective)
                objective.append(float(prior[state] * state[i].xi))

        rows: list[tuple[Mapping[int, float], str, float]] = []
        for si in range(len(states)):
            rows.append(({col[(si, i)]: 1.0 for i in signals}, "=", 1.0))
        for i in signals:
            for j in range(n):
                if j == i:
                    continue
                coeffs = {
                    col[(si, i)]: float(prior[state] * (state[i].rho - state[j].rho))
                    for si, state in enumerate(states)
                }
                rows.append((coeffs, ">=", 0.0))

        solution = solve_lp(
            LinearProgram(
                objective=tuple(objective),
                rows=tuple(rows),
                bounds=((0.0, 1.0),) * len(objective),
            )
        )
        if solution.status != "optimal":
            continue
        if best is not None and solution.objective <= best[0] + GAIN_TOL:
            continue
        table: dict[State, dict[int, float]] = {}
        for si, state in enumerate(states):
            row = {i: solution.values[col[(si, i)]] for i in signals}
            total = sum(max(p, 0.0) for p in row.values())
            table[state] = {
                i: max(p, 0.0) / total for i, p in row.items() if p > ZERO_TOL
            }
        best = (solution.objective, table)

    if best is None:
        raise RuntimeError(
            "every subset LP came back infeasible; recommending the "
            "receiver-best slot is always obedient, so this cannot happen"
        )
    return TabularScheme(table=best[1]), best[0]


# --------------------------------------------------------------------------
# Persuasiveness audit
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SignalCheck:
    """Conditional receiver account of one signal."""

    probability: float
    value: float  # expected receiver utility of obeying
    best_deviation: float  # best expected receiver utility of any slot
    deviation_slot: int
    persuasive: bool


@dataclass(frozen=True)
class PersuasivenessReport:
    persuasive: bool
    signals: Mapping[int, SignalCheck]


def persuasiveness_check(
    scheme, instance: Instance, state_bound: int = 10**6
) -> PersuasivenessReport:
    """Audit a scheme's obedience constraints by exact enumeration.

    For every signal the scheme can send, compares the receiver's expected
    utility from obeying against the best deviation to any of the n slots,
    both conditioned on the signal.  Signals with zero probability carry no
    constraint.  The scheme only needs a recommendation_distribution
    method.
    """
    n = n_slots(instance)
    prior = enumerate_prior(instance, state_bound)
    mass: dict[int, float] = {}
    obey: dict[int, float] = {}
    deviate: dict[int, list[float]] = {}
    for state, prob in prior.items():
        q = float(prob)
        for i, p in scheme.recommendation_distribution(state).items():
            if p <= 0.0:
                continue
            w = q * p
            mass[i] = mass.get(i, 0.0) + w
            obey[i] = obey.get(i, 0.0) + w * float(state[i].rho)
            slots = deviate.setdefault(i, [0.0] * n)
            for j in range(n):
                slots[j] += w * float(state[j].rho)

    signals: dict[int, SignalCheck] = {}
    all_ok = True
    for i in sorted(mass):
        m = mass[i]
        if m <= NEGLIGIBLE_TOL:
            continue
        value = obey[i] / m
        per_slot = [v / m for v in deviate[i]]
        best_j = max(range(n), key=lambda j: (per_slot[j], -j))
        best_dev = per_slot[best_j]
        ok = value >= best_dev - CONSTRAINT_TOL
        all_ok = all_ok and ok
        signals[i] = SignalCheck(
            probability=m,
            value=value,
            best_deviation=best_dev,
            deviation_slot=best_j,
            persuasive=ok,
        )
    return PersuasivenessReport(persuasive=all_ok, signals=signals)
