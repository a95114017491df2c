"""Frontier-event probability oracles for symmetric instances.

For a symmetric instance observed through its first k slots, the slope
algorithm needs, per tangent slope s:

* ``p_segment(a, b)``: the probability that the segment a-b is the maximal
  slope-s segment of the realized Pareto frontier, and
* ``p_unique(c, s)``: the probability that c alone is the slope-s tangency
  point.

Together these partition the probability space for every slope: each realized
type set has exactly one correspondence. Three conventions make the partition
exact beyond general position:

* the longest-segment rule: realized types on the open segment are allowed,
  on the line but outside the segment forbidden;
* boundary slopes are vertex-only: a horizontal or vertical pair has a weakly
  dominated endpoint, so at s = 0 and s = -inf the correspondence is the
  dominant vertex and on-line ties break by dominance;
* coincident coordinates: a realized duplicate of the query point with a
  larger id is allowed, with a smaller id forbidden, so the lowest realized id
  at each tangency coordinate owns the event.

Both are one event: the required types (the pair, or the point) are among the
first k realized, and every other realized type is allowed. Each call builds a
type table once: the distinct types with exact dense ranks of their points
and of their ids, plus the prior's weights per type - one palette vector for
IID priors, an n x T float mass matrix for prophet-secretary ones, a V x T
integer entry-count matrix for d-random-order ones. At a slope every type gets
one exact key (``xi - s*rho`` over a common denominator; ``(rho, xi)`` at -inf
and ``(xi, rho)`` at 0), and a query's allowed set is a boolean mask read off
the keys' dense ranks: lower rank, or the same point with a larger id, or for
a pair the interior of the open segment.

The probability is an inclusion-exclusion over the subsets of the required
types, all queries of a call at once. Prophet-secretary: the expected product
of the allowed masses of a uniform k-subset of the distributions, by the
normalised recursion f(i, j) = (1 - j/i) f(i-1, j) + (j/i) m_i f(i-1, j-1),
which stays in [0, 1] for any n. IID: its closed form v^k. d-random-order:
exact binomial counts of vector entries, converted to float at the end.
Whether an event can happen is decided exactly, not from the sign of a
float, and such an event is listed even when its float probability
underflows to 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Union

import numpy as np

from .geometry import NEG_INF, Slope, pareto_frontier, slope_between
from .model import (
    ActionType,
    DRandomOrderInstance,
    IIDInstance,
    ProphetSecretaryInstance,
    SymmetricInstance,
    TruncatedSymmetricInstance,
    all_types,
    n_slots,
)

__all__ = [
    "OracleTables",
    "SegmentProb",
    "UniquePointProb",
    "candidate_slopes",
    "enumerate_oracle",
    "p_segment",
    "p_unique",
    "segment_probabilities",
    "subset_product_sum",
    "unique_probabilities",
]


@dataclass(frozen=True)
class SegmentProb:
    a: ActionType
    b: ActionType
    slope: Fraction
    p: float


@dataclass(frozen=True)
class UniquePointProb:
    c: ActionType
    s: Slope
    p: float


def subset_product_sum(values: list[float], r: int) -> float:
    """Sum over all r-subsets A of ``values`` of the product of A's entries.

    The elementary symmetric polynomial e_r, via the standard O(n*r) in-place
    dynamic program (r = 0 gives the empty-product 1).
    """
    n = len(values)
    if not 0 <= r <= n:
        raise ValueError(f"subset_product_sum: r={r} outside [0, {n}]")
    e = [1.0] + [0.0] * r
    count = 0
    for v in values:
        count += 1
        for j in range(min(count, r), 0, -1):
            e[j] += v * e[j - 1]
    return e[r]


# --------------------------------------------------------------------------
# The type table and its per-slope classification
# --------------------------------------------------------------------------

def _dense_rank(keys: list) -> np.ndarray:
    """0 for the smallest key, 1 for the next distinct one, and so on."""
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return np.array([rank[key] for key in keys])


@dataclass(frozen=True)
class _TypeTable:
    """One symmetric prior, type by type (column j is ``types[j]``).

    ``weights`` is the palette's mass vector (IID), the n x T mass matrix
    (prophet-secretary) or the V x T entry-count matrix (d-random-order);
    ``positive`` marks the weights backed by a positive exact probability.
    ``rho_num`` and ``xi_num`` are the utilities times their common
    denominator, so the exact keys are integers, which sort and hash faster
    than Fractions.
    """

    prior: Union[IIDInstance, ProphetSecretaryInstance, DRandomOrderInstance]
    types: tuple[ActionType, ...]
    rho_num: list[int]
    xi_num: list[int]
    point_rank: np.ndarray  # dense rank of (rho, xi): equal exactly for coincident types
    id_rank: np.ndarray  # rank of the id in string order
    weights: np.ndarray
    positive: np.ndarray

    @staticmethod
    def build(instance: SymmetricInstance) -> "_TypeTable":
        prior = instance.base if isinstance(instance, TruncatedSymmetricInstance) else instance
        types = all_types(prior)
        col = {t.id: j for j, t in enumerate(types)}
        if isinstance(prior, DRandomOrderInstance):
            weights = np.zeros((len(prior.vectors), len(types)), dtype=np.int64)
            for v, vec in enumerate(prior.vectors):
                np.add.at(weights[v], [col[t.id] for t in vec], 1)
            positive = weights > 0
        else:
            dists = (prior.palette,) if isinstance(prior, IIDInstance) else prior.dists
            cell = (
                [i for i, d in enumerate(dists) for _ in d],
                [col[t.id] for d in dists for t, _ in d],
            )
            qs = [q for d in dists for _, q in d]
            weights = np.zeros((len(dists), len(types)))
            np.add.at(weights, cell, [q.numerator / q.denominator for q in qs])
            positive = np.zeros(weights.shape, dtype=bool)
            np.logical_or.at(positive, cell, [q.numerator > 0 for q in qs])
            if isinstance(prior, IIDInstance):
                weights, positive = weights[0], positive[0]
        scale = math.lcm(*(c.denominator for t in types for c in (t.rho, t.xi)))
        rho_num = [t.rho.numerator * (scale // t.rho.denominator) for t in types]
        xi_num = [t.xi.numerator * (scale // t.xi.denominator) for t in types]
        return _TypeTable(
            prior,
            types,
            rho_num,
            xi_num,
            _dense_rank(list(zip(rho_num, xi_num))),
            _dense_rank([t.id for t in types]),
            weights,
            positive,
        )

    def ranks(self, s: Slope) -> np.ndarray:
        """Dense ranks of the types' exact slope-s keys xi - s*rho (lexicographic
        (rho, xi) at -inf, (xi, rho) at 0): a lower rank lies strictly below
        the slope-s line through a higher-ranked type."""
        if s is NEG_INF:
            return self.point_rank
        if s == 0:
            return _dense_rank(list(zip(self.xi_num, self.rho_num)))
        p, q = s.numerator, s.denominator
        return _dense_rank([x * q - p * r for r, x in zip(self.rho_num, self.xi_num)])

    def unique_allowed(self, s: Slope, c: np.ndarray) -> np.ndarray:
        """allowed[q, t]: may type t be realized alongside "c[q] alone is the
        slope-s tangency point"?"""
        rank, point, ids, c = self.ranks(s), self.point_rank, self.id_rank, c[:, None]
        return (rank < rank[c]) | (point == point[c]) & (ids > ids[c])

    def pair_allowed(self, s: Fraction, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """allowed[q, t]: may type t be realized alongside "a[q]-b[q] is the
        maximal slope-s segment"? Each a[q] has the lower receiver utility.
        On a line of finite slope the (rho, xi) order of points is their rho
        order, so the open segment is the point ranks strictly between a and b."""
        rank, point, ids = self.ranks(s), self.point_rank, self.id_rank
        a, b = a[:, None], b[:, None]
        on_line = (
            (point == point[a]) & (ids > ids[a])
            | (point == point[b]) & (ids > ids[b])
            | (point > point[a]) & (point < point[b])
        )
        return (rank < rank[a]) | (rank == rank[a]) & on_line


# --------------------------------------------------------------------------
# Analytic oracles
# --------------------------------------------------------------------------

def _mean_k_products(masses: np.ndarray, k: int) -> np.ndarray:
    """Per column of the n x Q matrix ``masses``: the mean, over the k-subsets
    of its n entries, of the subset's product (e_k / C(n, k)), by the
    recursion f(i, j) = (1 - j/i) f(i-1, j) + (j/i) m_i f(i-1, j-1)."""
    f = np.zeros((k + 1, masses.shape[1]))
    f[0] = 1.0
    j = np.arange(1, k + 1)[:, None]
    for i, row in enumerate(masses, 1):
        f[1:] += (j / i) * (row * f[:-1] - f[1:])
    return f[k]


def _event_probs(
    table: _TypeTable, k: int, required: np.ndarray, allowed: np.ndarray
) -> list[float | None]:
    """For each query q: the probability that every type in ``required[q]``
    (one column for a unique point, two for a segment) is among the first k
    realized types and every other one is in ``allowed[q]``; None when that
    cannot happen, decided exactly.
    """
    r = required.shape[1]
    subsets = [s for size in range(r, -1, -1) for s in combinations(range(r), size)]
    signs = np.array([1 if (r - len(s)) % 2 == 0 else -1 for s in subsets])
    prior, w = table.prior, table.weights
    if isinstance(prior, DRandomOrderInstance):
        # The first k entries are a uniform k-subset of the vector; a type may
        # fill several entries. Sum over vectors of P(vector) * #good k-subsets
        # in Python integers over a common denominator, so totals are exact.
        n = len(prior.vectors[0])
        denom = math.lcm(*(q.denominator for q in prior.vector_probs))
        scale = np.array(
            [[q.numerator * (denom // q.denominator)] for q in prior.vector_probs], dtype=object
        )
        ways = np.array([math.comb(m, k) for m in range(n + 1)], dtype=object)
        free = w @ allowed.T  # V x Q
        totals = sum(
            sign * (scale * ways[free + w[:, required[:, list(s)]].sum(axis=2)]).sum(axis=0)
            for s, sign in zip(subsets, signs.tolist())
        ).tolist()
        whole = denom * math.comb(n, k)
        return [min(1.0, t / whole) if t > 0 else None for t in totals]

    if isinstance(prior, IIDInstance):
        # k i.i.d. draws: E[product of allowed masses] is v^k.
        base = allowed @ w
        terms = np.stack([(base + w[required[:, list(s)]].sum(axis=1)) ** k for s in subsets])
        support = table.positive[required].all(axis=1)
    else:
        base = w @ allowed.T  # n x Q
        masses = [base + w[:, required[:, list(s)]].sum(axis=2) for s in subsets]
        terms = _mean_k_products(np.hstack(masses), k).reshape(len(subsets), -1)
        # Distinct distributions must host the required types, and k
        # distributions must be able to draw an allowed or required type.
        hosts = table.positive[:, required]  # n x Q x r
        support = hosts.any(axis=0).all(axis=1) & (hosts.any(axis=2).sum(axis=0) >= r)
        usable = (table.positive.astype(np.int64) @ allowed.T > 0) | hosts.any(axis=2)
        support &= usable.sum(axis=0) >= k
    p = np.clip(signs @ terms, 0.0, 1.0)
    return [x if possible else None for x, possible in zip(p.tolist(), support.tolist())]


def _check_query(instance: SymmetricInstance, k: int, *types: ActionType) -> _TypeTable:
    """Validate k and the queried types; return the instance's type table."""
    n = n_slots(instance)
    if not 2 <= k <= n:
        raise ValueError(f"k={k} outside [2, {n}]")
    table = _TypeTable.build(instance)
    ids = {t.id for t in table.types}
    for t in types:
        if t.id not in ids:
            raise ValueError(f"unknown type id {t.id!r}")
    return table


def _check_slope(s: Slope | int) -> Slope:
    if isinstance(s, int):
        s = Fraction(s)
    if s is not NEG_INF and (not isinstance(s, Fraction) or s > 0):
        raise ValueError(f"p_unique: slope must be <= 0 or NEG_INF, got {s!r}")
    return s


def _segment_events(
    table: _TypeTable, k: int, pairs: list[tuple[int, int, Fraction]]
) -> list[float | None]:
    """``_event_probs`` of "types[a]-types[b] is the maximal slope-s segment"
    for each (a, b, s) with a on the left, classifying once per distinct slope."""
    required = np.array([(a, b) for a, b, _ in pairs], dtype=np.int64).reshape(-1, 2)
    allowed = np.zeros((len(pairs), len(table.types)), dtype=bool)
    by_slope: dict[Fraction, list[int]] = {}
    for q, (_, _, s) in enumerate(pairs):
        by_slope.setdefault(s, []).append(q)
    for s, rows in by_slope.items():
        allowed[rows] = table.pair_allowed(s, required[rows, 0], required[rows, 1])
    return _event_probs(table, k, required, allowed)


def _unique_events(table: _TypeTable, k: int, s: Slope, c: list[int]) -> list[float | None]:
    """``_event_probs`` of "types[c] alone is the slope-s tangency point" for each c."""
    required = np.array(c, dtype=np.int64)[:, None]
    return _event_probs(table, k, required, table.unique_allowed(s, required[:, 0]))


def p_segment(instance: SymmetricInstance, k: int, a: ActionType, b: ActionType) -> float:
    """Probability that a-b is the maximal segment of its slope on the realized frontier.

    Only pairs with a finite negative slope form segments; horizontal,
    vertical, and coincident pairs return 0 (the dominated endpoint can never
    sit on the frontier next to the other).

    The support is exactly that of `segment_probabilities`.  For IID and
    prophet-secretary priors the value may differ from its entry there in
    the last ulp: the batched call evaluates all queries in one BLAS matrix
    product, whose summation order depends on the batch.
    """
    table = _check_query(instance, k, a, b)
    if a.id == b.id:
        raise ValueError("p_segment: a and b must be distinct types")
    s = slope_between(a, b)
    if s is None or s is NEG_INF or s >= 0:
        return 0.0
    if a.rho > b.rho:
        a, b = b, a
    col = [t.id for t in table.types]
    (p,) = _segment_events(table, k, [(col.index(a.id), col.index(b.id), s)])
    return 0.0 if p is None else p


def p_unique(instance: SymmetricInstance, k: int, c: ActionType, s: Slope | int) -> float:
    """Probability that c alone is the slope-s tangency point of the realized frontier.

    The support is exactly that of `unique_probabilities`.  For IID and
    prophet-secretary priors the value may differ from its entry there in
    the last ulp, as for `p_segment`.
    """
    s = _check_slope(s)
    table = _check_query(instance, k, c)
    col = [t.id for t in table.types]
    (p,) = _unique_events(table, k, s, [col.index(c.id)])
    return 0.0 if p is None else p


def segment_probabilities(instance: SymmetricInstance, k: int) -> list[SegmentProb]:
    """All canonical type pairs whose maximal-segment event can happen.

    Pairs are oriented left-to-right (increasing receiver utility) and the
    list is sorted by (slope, left id, right id) for determinism.
    """
    table = _check_query(instance, k)
    types = table.types
    pairs = []
    for i, a in enumerate(types):
        for j in range(i + 1, len(types)):
            s = slope_between(a, types[j])
            if s is None or s is NEG_INF or s >= 0:
                continue
            pairs.append((i, j, s) if a.rho < types[j].rho else (j, i, s))
    out = [
        SegmentProb(types[a], types[b], s, p)
        for (a, b, s), p in zip(pairs, _segment_events(table, k, pairs))
        if p is not None
    ]
    out.sort(key=lambda seg: (seg.slope, seg.a.id, seg.b.id))
    return out


def unique_probabilities(instance: SymmetricInstance, k: int, s: Slope) -> list[UniquePointProb]:
    """All types that can be slope s's sole tangency point, with their probabilities."""
    query = _check_slope(s)
    table = _check_query(instance, k)
    types = table.types
    return [
        UniquePointProb(t, s, p)
        for t, p in zip(types, _unique_events(table, k, query, list(range(len(types)))))
        if p is not None
    ]


def _auxiliary_slopes(finite: list[Fraction]) -> list[Fraction]:
    aux: list[Fraction] = []
    if finite:
        aux.append(finite[0] - 1)
        for lo, hi in zip(finite, finite[1:]):
            aux.append((lo + hi) / 2)
        if finite[-1] < 0:
            aux.append(finite[-1] / 2)
    return aux


def candidate_slopes(instance: SymmetricInstance, k: int) -> list[Slope]:
    """Sorted slope candidates: positive-probability segment slopes, auxiliaries
    strictly between and beyond them, and the boundary slopes 0 and -inf.

    One of these slopes always attains the optimum of the per-slope LPs: the
    tangency correspondence is constant on the open interval between two
    adjacent segment slopes, so probing one interior point per interval covers
    every realizable recommendation rule.
    """
    return _candidates_around(seg.slope for seg in segment_probabilities(instance, k))


def _candidates_around(segment_slopes: Iterable[Fraction]) -> list[Slope]:
    """The candidate slopes of ``candidate_slopes`` for known segment slopes."""
    finite = sorted(set(segment_slopes))
    slopes: set[Slope] = {NEG_INF, Fraction(0)}
    slopes.update(finite)
    slopes.update(_auxiliary_slopes(finite))
    return sorted(slopes, key=lambda s: (0,) if s is NEG_INF else (1, s))


# --------------------------------------------------------------------------
# Enumeration oracle (exact rationals; the test-side ground truth)
# --------------------------------------------------------------------------

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


def enumerate_oracle(
    instance: SymmetricInstance,
    k: int,
    slopes: list[Slope] | None = None,
    state_bound: int = 10**6,
) -> OracleTables:
    """Exhaustive expansion of the generative process into exact event tables.

    Enumerates every (vector, permutation, draw) combination, computes each
    realized frontier once, and attributes its correspondence for every query
    slope by walking the frontier's strictly decreasing segment slopes.
    """
    from .exact_oracle import enumerate_prior  # deferred to avoid an import cycle

    if not 2 <= k <= n_slots(instance):
        raise ValueError(f"k={k} outside [2, {n_slots(instance)}]")
    if slopes is None:
        slopes = candidate_slopes(instance, k)
    ordered = sorted(slopes, key=lambda s: (0,) if s is NEG_INF else (1, s), reverse=True)

    prior = enumerate_prior(instance, state_bound=state_bound)
    segments: dict[tuple[str, str], Fraction] = {}
    uniques: dict[tuple[str, Slope], Fraction] = {}
    for state, prob in prior.items():
        frontier = pareto_frontier(state[:k])
        seg_slopes = [seg.slope for seg in frontier.segments]  # strictly decreasing
        idx = 0
        for s in ordered:  # shallowest first, matching the decreasing walk
            while idx < len(seg_slopes) and seg_slopes[idx] > s:
                idx += 1
            if idx < len(seg_slopes) and seg_slopes[idx] == s:
                seg = frontier.segments[idx]
                key = (seg.left.id, seg.right.id)
                segments[key] = segments.get(key, Fraction(0)) + prob
            else:
                # Strictly between two segment slopes the tangent point is the
                # junction vertex, i.e. the right endpoint of the last segment
                # passed.  Before the first segment it is the sender-best vertex.
                if idx == 0:
                    vertex = frontier.vertices[0]
                else:
                    vertex = frontier.segments[idx - 1].right
                ukey = (vertex.id, s)
                uniques[ukey] = uniques.get(ukey, Fraction(0)) + prob
    return OracleTables(slopes=tuple(ordered[::-1]), segments=segments, uniques=uniques)
