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

On symmetric instances the brute-force LP is solved over the orbits of
G = S_k x S_{n-k} on states (permuting the first k slots, and the other
n - k among themselves): one variable per (orbit, distinct type among the
first k slots) and two obedience rows.  Its optimum is the state-level
LP's, and its scheme, expanded to every state, sends each of the k signals
with probability 1/k.  Independent instances keep the state-level LP over
every k-subset of actions.

Each instance's prior is enumerated once, in integers over one common
denominator, and kept on the instance (`_exact_prior`) for every later
call and every k; each call checks its own guard first.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, permutations, product
from typing import Iterable, Mapping

import numpy as np

from .geometry import SegmentTangent, Slope, _check_slope, pareto_frontier, point_for_slope
from .lp_core import (
    CONSTRAINT_TOL, GAIN_TOL, NEGLIGIBLE_TOL, ZERO_TOL, LinearProgram, RowCoeffs, solve_lp,
)
from .model import (
    ActionType,
    DRandomOrderInstance,
    IIDInstance,
    IndependentInstance,
    Instance,
    ProphetSecretaryInstance,
    State,
    _cached,
    _check_k,
    _merged,
    _prior_table,
    n_slots,
)
from .prob_oracle import _check_query
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


def _product(dists, col: Mapping[str, int]) -> tuple[np.ndarray, list[int], int]:
    """Every draw of independent distributions, in `itertools.product` order:
    (prior-table columns, one row per draw; integer numerators; their common
    denominator, the product of the distributions' denominators).  Entries
    of probability 0 are dropped, and a type listed twice in a distribution
    is one entry (`model._merged`), at its first position, with the summed
    probability, so each state is one row, in the order a draw first
    reaches it."""
    grids, num, den = [], [1], 1
    for dist in dists:
        kept = _merged(tuple((t, q) for t, q in dist if q))
        d = math.lcm(*(q.denominator for _, q in kept))
        grids.append([col[t.id] for t, _ in kept])
        weights = [q.numerator * (d // q.denominator) for _, q in kept]
        num = [x * a for x in num for a in weights]
        den *= d
    cells = chain.from_iterable(product(*grids))
    cols = np.fromiter(cells, dtype=np.min_scalar_type(len(col)), count=len(num) * len(grids))
    return cols.reshape(len(num), len(grids)), num, den


def _first_reached(cols: np.ndarray, num: list[int]) -> tuple[np.ndarray, list[int]]:
    """Merge repeated rows, summing their numerators; rows keep the order in
    which they first occur."""
    rows, first, inverse = np.unique(cols, axis=0, return_index=True, return_inverse=True)
    total = [0] * len(rows)
    for g, x in zip(inverse.ravel().tolist(), num):
        total[g] += x
    keep = np.argsort(first)
    return rows[keep], [total[g] for g in keep.tolist()]


# Rows of `_ExactPrior.cols` turned into states at once: a block of Python
# lists, not one per state of a 10^6-state prior.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class _ExactPrior:
    """One instance's exact prior, state by state, built by `_exact_prior`.

    Row s of ``cols`` is a state as columns of the prior table: slot j holds
    ``types[cols[s, j]]``.  Rows come in the order an enumeration of the
    prior's histories first reaches them.  The state's exact probability is
    ``num[s] / den`` and ``prob[s]`` is that ratio correctly rounded, which
    is ``float`` of the exact `Fraction`.  Kept compact because it stays on
    the instance: about n + 8 bytes per state plus one Python int.
    """

    types: tuple[ActionType, ...]
    cols: np.ndarray
    num: tuple[int, ...]
    den: int
    prob: np.ndarray

    @staticmethod
    def build(instance: Instance) -> "_ExactPrior":
        types = _prior_table(instance).types
        col = {t.id: j for j, t in enumerate(types)}
        if isinstance(instance, IIDInstance):
            cols, num, den = _product((instance.palette,) * instance.n, col)
        elif isinstance(instance, IndependentInstance):
            cols, num, den = _product(instance.actions, col)
        elif isinstance(instance, ProphetSecretaryInstance):
            n = len(instance.dists)
            blocks = [_product([instance.dists[i] for i in perm], col) for perm in permutations(range(n))]
            cols, num = _first_reached(
                np.concatenate([b[0] for b in blocks]), [x for b in blocks for x in b[1]]
            )
            den = blocks[0][2] * math.factorial(n)
        else:
            n = len(instance.vectors[0])
            d = math.lcm(*(q.denominator for q in instance.vector_probs))
            perms = np.fromiter(chain.from_iterable(permutations(range(n))), dtype=np.intp)
            perms = perms.reshape(-1, n)
            drawn = [(vec, qv) for vec, qv in zip(instance.vectors, instance.vector_probs) if qv]
            small = np.min_scalar_type(len(col))
            cols, num = _first_reached(
                np.concatenate([np.array([col[t.id] for t in vec], small)[perms] for vec, _ in drawn]),
                [qv.numerator * (d // qv.denominator) for _, qv in drawn for _ in range(len(perms))],
            )
            den = d * math.factorial(n)
        assert sum(num) == den
        prob = np.fromiter((x / den for x in num), dtype=float, count=len(num))
        for array in (cols, prob):
            array.flags.writeable = False
        return _ExactPrior(types, cols, tuple(num), den, prob)

    def states(self):
        """Yield (state, columns, float probability) for every state, in row
        order, forming the states a block of rows at a time."""
        for start in range(0, len(self.num), _BLOCK_ROWS):
            rows = self.cols[start : start + _BLOCK_ROWS].tolist()
            for row, q in zip(rows, self.prob[start : start + _BLOCK_ROWS].tolist()):
                yield tuple(map(self.types.__getitem__, row)), row, q


def _exact_prior(instance: Instance, state_bound: int) -> _ExactPrior:
    """The instance's exact prior, built on first use and then kept on the
    instance.  Every call first raises ValueError when the raw combination
    count exceeds `state_bound`."""
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
    return _cached(instance, "_exact_prior", _ExactPrior.build)


def enumerate_prior(instance: Instance, state_bound: int = 10**6) -> dict[State, Fraction]:
    """The exact prior over ordered states, as a new dict of Fractions.

    States reachable through several histories (different permutations or
    draws) are aggregated.  Raises ValueError when the raw combination
    count exceeds `state_bound` before doing any work.
    """
    prior = _exact_prior(instance, state_bound)
    return {state: Fraction(x, prior.den) for (state, _, _), x in zip(prior.states(), prior.num)}


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
    at every slope (each <= 0 or NEG_INF).  The instance, k and the slopes
    are checked as the analytic oracles check them, before enumerating.
    """
    types = _check_query(instance, k).types
    for s in slopes:
        _check_slope(s)
    prior = _exact_prior(instance, 10**6)
    mass: dict[frozenset, int] = {}
    for row, x in zip(prior.cols[:, :k].tolist(), prior.num):
        key = frozenset(row)
        mass[key] = mass.get(key, 0) + x
    segments: dict[tuple[str, str], int] = {}
    uniques: dict[tuple[str, Slope], int] = {}
    for cols, x in mass.items():
        frontier = pareto_frontier(types[c] for c in cols)
        for s in slopes:
            hit = point_for_slope(frontier, s)
            if isinstance(hit, SegmentTangent):
                key, table = (hit.left.id, hit.right.id), segments
            else:
                key, table = (hit.vertex.id, s), uniques
            table[key] = table.get(key, 0) + x
    return OracleTables(
        slopes=tuple(sorted(slopes)),
        segments={key: Fraction(x, prior.den) for key, x in segments.items()},
        uniques={key: Fraction(x, prior.den) for key, x in uniques.items()},
    )


def expected_utilities(
    scheme, instance: Instance, state_bound: int = 10**6
) -> tuple[float, float]:
    """Exact expected (sender, receiver) utilities of an executable scheme."""
    prior = _exact_prior(instance, state_bound)
    table = _prior_table(instance)
    xi, rho = table.xi, table.rho
    u_sender = 0.0
    u_receiver = 0.0
    for state, row, q in prior.states():
        for i, p in scheme.recommendation_distribution(state).items():
            u_sender += q * p * xi[row[i]]
            u_receiver += q * p * rho[row[i]]
    return u_sender, u_receiver


# --------------------------------------------------------------------------
# Brute-force optimum
# --------------------------------------------------------------------------

def optimal_scheme_bruteforce(
    instance: Instance, k: int, state_bound: int = 10**5
) -> tuple[TabularScheme, float]:
    """Exactly optimal persuasive k-signal scheme by direct LP over the prior.

    Signals recommend slots.  The LP maximizes expected sender utility
    subject to obedience: conditioned on any signal, the recommended slot's
    receiver utility beats every alternative slot in expectation.  The
    scheme has a recommendation row for every state of the prior.

    On independent instances every k-subset of actions is tried and the best
    kept; per subset the LP has one variable per (state, signal) and one
    obedience row per (signal, other slot).

    On symmetric instances only the first k slots need ever be recommended,
    and the LP is solved over the orbits of G = S_k x S_{n-k}, which permutes
    the first k slots and the other n - k among themselves.  The prior is
    G-invariant, so averaging an optimal solution over G keeps it feasible
    and optimal: some optimal scheme gives each state's slots weights that
    depend only on the state's orbit and the slot's type.  The LP has one
    variable per (orbit, distinct type among its first k slots) and two
    obedience rows, against another signalled slot and against an unseen
    one (only the first when k = n); the optimum is the state-level LP's.
    Each of the k signals then has probability 1/k.

    Each coefficient, an exact probability times a utility or a utility
    difference, is formed as one ratio of integers over the common
    denominators of the prior and of the prior table's utilities, so it is
    the correctly rounded float of the exact product.
    """
    n = _check_k(instance, k)
    if isinstance(instance, IndependentInstance):
        return _state_lp(instance, combinations(range(n), k), state_bound)
    return _orbit_lp(instance, k, state_bound)


def _state_lp(
    instance: Instance, subsets: Iterable[tuple[int, ...]], state_bound: int
) -> tuple[TabularScheme, float]:
    """The best of the state-level LPs that recommend only the slots of one
    subset, over the given subsets.  States are ordered by their type ids."""
    n = n_slots(instance)
    prior = _exact_prior(instance, state_bound)
    table = _prior_table(instance)
    order = np.lexsort(table.id_rank[prior.cols].T[::-1])
    rows = prior.cols[order].tolist()
    states = [tuple(map(table.types.__getitem__, row)) for row in rows]
    num = [prior.num[s] for s in order.tolist()]
    rho = [[table.rho_num[c] for c in row] for row in rows]
    xi = [[table.xi_num[c] for c in row] for row in rows]
    den = prior.den * table.scale

    best: tuple[float, dict[State, dict[int, float]]] | None = None
    for signals in subsets:
        # Column si * len(signals) + p is the weight of signal signals[p] in state si.
        width = len(signals)
        objective = [x * r[i] / den for x, r in zip(num, xi) for i in signals]
        cells = range(len(objective))
        lp_rows: list[tuple[Mapping[int, float], str, float]] = [
            (dict.fromkeys(cells[si * width : (si + 1) * width], 1.0), "=", 1.0)
            for si in range(len(states))
        ]
        for p, i in enumerate(signals):
            for j in range(n):
                if j != i:
                    coeffs = [x * (r[i] - r[j]) / den for x, r in zip(num, rho)]
                    lp_rows.append((dict(zip(cells[p::width], coeffs)), ">=", 0.0))

        solution = solve_lp(
            LinearProgram(
                objective=tuple(objective),
                rows=tuple(lp_rows),
                bounds=((0.0, 1.0),) * len(objective),
            )
        )
        if solution.status != "optimal":
            continue
        if best is not None and solution.objective <= best[0] + GAIN_TOL:
            continue
        scheme: dict[State, dict[int, float]] = {}
        for si, state in enumerate(states):
            row = dict(zip(signals, solution.values[si * width : (si + 1) * width]))
            total = sum(max(p, 0.0) for p in row.values())
            scheme[state] = {
                i: max(p, 0.0) / total for i, p in row.items() if p > ZERO_TOL
            }
        best = (solution.objective, scheme)

    if best is None:
        raise RuntimeError(
            "every subset LP came back infeasible; recommending the "
            "receiver-best slot is always obedient, so this cannot happen"
        )
    return TabularScheme(table=best[1]), best[0]


def _orbit_lp(instance: Instance, k: int, state_bound: int) -> tuple[TabularScheme, float]:
    """The symmetric LP over G-orbits, expanded to a row for every state.

    An orbit is the multiset M of a state's first k prior-table columns and
    the multiset R of the others; orbits are ordered by the id ranks of
    their columns, and within an orbit the variables follow M's distinct
    columns by id rank.  Variable x_{O,t} is the weight of all slots of M
    holding t, so in a state of orbit O a slot holding t gets x_{O,t}/m_t,
    where m_t is t's multiplicity in M.
    """
    n = n_slots(instance)
    prior = _exact_prior(instance, state_bound)
    table = _prior_table(instance)
    ranks = table.id_rank[prior.cols]
    halves = (np.sort(ranks[:, :k], axis=1), np.sort(ranks[:, k:], axis=1))
    keys, orbit_of = np.unique(np.concatenate(halves, axis=1), axis=0, return_inverse=True)
    orbit_of = orbit_of.ravel().tolist()
    mass = [0] * len(keys)
    for o, x in zip(orbit_of, prior.num):
        mass[o] += x
    rho, xi = table.rho_num, table.xi_num
    den = prior.den * table.scale

    # Per orbit, its distinct first-k columns with their multiplicities.
    orbits: list[Counter[int]] = []
    objective: list[float] = []
    signalled: list[float] = []
    unseen: list[float] = []
    lp_rows: list[tuple[RowCoeffs, str, float]] = []
    for row, x in zip(np.argsort(table.id_rank)[keys].tolist(), mass):
        seen, rest = row[:k], row[k:]
        s_m = sum(rho[c] for c in seen)
        s_r = sum(rho[c] for c in rest)
        counts = Counter(seen)
        orbits.append(counts)
        cells = range(len(objective), len(objective) + len(counts))
        lp_rows.append((dict.fromkeys(cells, 1.0), "=", 1.0))
        for c in counts:
            objective.append(x * xi[c] / den)
            signalled.append(x * (k * rho[c] - s_m) / (den * (k - 1)))
            if rest:
                unseen.append(x * ((n - k) * rho[c] - s_r) / (den * (n - k)))
    lp_rows.append((signalled, ">=", 0.0))
    if unseen:
        lp_rows.append((unseen, ">=", 0.0))

    solution = solve_lp(
        LinearProgram(
            objective=tuple(objective),
            rows=tuple(lp_rows),
            bounds=((0.0, 1.0),) * len(objective),
        )
    )
    if solution.status != "optimal":
        raise RuntimeError(
            "the orbit LP came back infeasible; recommending the "
            "receiver-best slot is always obedient, so this cannot happen"
        )
    # Per orbit, the weight of one slot holding each column kept.
    weights: list[dict[int, float]] = []
    values = iter(solution.values)
    for counts in orbits:
        per_slot = {c: next(values) / m for c, m in counts.items()}
        total = sum(m * max(per_slot[c], 0.0) for c, m in counts.items())
        weights.append({c: p / total for c, p in per_slot.items() if p > ZERO_TOL})
    scheme = {
        state: {i: w[c] for i, c in enumerate(row[:k]) if c in w}
        for (state, row, _), w in zip(prior.states(), map(weights.__getitem__, orbit_of))
    }
    return TabularScheme(table=scheme), solution.objective


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
    prior = _exact_prior(instance, state_bound)
    rho_of = _prior_table(instance).rho
    mass: dict[int, float] = {}
    obey: dict[int, float] = {}
    deviate: dict[int, list[float]] = {}
    for state, row, q in prior.states():
        rho = [rho_of[c] for c in row]
        for i, p in scheme.recommendation_distribution(state).items():
            if p <= 0.0:
                continue
            w = q * p
            mass[i] = mass.get(i, 0.0) + w
            obey[i] = obey.get(i, 0.0) + w * rho[i]
            slots = deviate.setdefault(i, [0.0] * n)
            for j in range(n):
                slots[j] += w * rho[j]

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
