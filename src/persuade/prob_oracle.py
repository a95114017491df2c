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
first k realized, and every other realized type is allowed. Its probability is
an inclusion-exclusion over the subsets of the required types: of
elementary-symmetric sums of per-distribution allowed masses for
prophet-secretary priors (correct also when distributions share types, which
is how IID instances are routed), of exact binomial counts of vector entries
for d-random-order ones, converted to float at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Callable, Iterable

from .geometry import NEG_INF, Slope, line_side, pareto_frontier, slope_between
from .model import (
    ActionType,
    DRandomOrderInstance,
    IIDInstance,
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
# Allowed-type classification
# --------------------------------------------------------------------------

def _same_point(a: ActionType, b: ActionType) -> bool:
    return a.rho == b.rho and a.xi == b.xi


def _allowed_for_pair(a: ActionType, b: ActionType, s: Fraction, d: ActionType) -> bool:
    """May d be realized alongside the event "a-b is the maximal slope-s segment"?"""
    side = line_side(a, s, d)
    if side != 0:
        return side < 0
    if _same_point(d, a):
        return d.id > a.id
    if _same_point(d, b):
        return d.id > b.id
    return a.rho < d.rho < b.rho  # interior of the segment; beyond it would extend the segment


def _allowed_for_unique(c: ActionType, s: Slope, d: ActionType) -> bool:
    """May d be realized alongside the event "c alone corresponds to slope s"?"""
    if _same_point(d, c):
        return d.id > c.id
    if s is NEG_INF:
        return d.rho < c.rho or (d.rho == c.rho and d.xi < c.xi)
    if s == 0:
        return d.xi < c.xi or (d.xi == c.xi and d.rho < c.rho)
    return line_side(c, s, d) < 0


# --------------------------------------------------------------------------
# Analytic oracles
# --------------------------------------------------------------------------

def _event_prob(
    instance: SymmetricInstance,
    k: int,
    required: tuple[ActionType, ...],
    allowed: Callable[[ActionType], bool],
) -> float:
    """Probability that every ``required`` type (one for a unique point, two
    for a segment) is among the first k realized types and every other one
    passes ``allowed``, which is asked once per distinct type id.
    """
    if isinstance(instance, TruncatedSymmetricInstance):
        instance = instance.base
    slot = {t.id: j for j, t in enumerate(required)}
    verdicts: dict[str, bool] = {}

    def free(t: ActionType) -> bool:
        if t.id not in verdicts:
            verdicts[t.id] = allowed(t)
        return verdicts[t.id]

    r = len(required)
    signed = [
        (subset, (r - size) % 2 == 0)
        for size in range(r, -1, -1)
        for subset in combinations(range(r), size)
    ]
    if isinstance(instance, DRandomOrderInstance):
        # The first k entries are a uniform k-subset of the vector; a type may
        # fill several entries. With one entry per required type this is
        # perm(k, r)/perm(n, r) * C(free, k-r)/C(n-r, k-r).
        n = len(instance.vectors[0])
        total = Fraction(0)
        for vec, qv in zip(instance.vectors, instance.vector_probs):
            copies = [0] * r
            count = 0
            for t in vec:
                j = slot.get(t.id)
                if j is not None:
                    copies[j] += 1
                elif free(t):
                    count += 1
            if not all(copies):
                continue
            good = 0
            for subset, plus in signed:
                ways = math.comb(count + sum(copies[j] for j in subset), k)
                good += ways if plus else -ways
            total += qv * Fraction(good, math.comb(n, k))
        return min(1.0, max(0.0, float(total)))

    # Prophet-secretary (IID is n copies of its palette): E[product of the
    # allowed masses of a uniform k-subset of the distributions].
    dists = (instance.palette,) * instance.n if isinstance(instance, IIDInstance) else instance.dists
    n = len(dists)
    base = [0.0] * n
    own = [[0.0] * n for _ in required]
    hosts: list[set[int]] = [set() for _ in required]
    for i, dist in enumerate(dists):
        for t, q in dist:
            j = slot.get(t.id)
            if j is not None:
                own[j][i] += float(q)
                hosts[j].add(i)
            elif free(t):
                base[i] += float(q)
    if r == 2 and len(hosts[0]) == 1 and hosts[0] == hosts[1]:
        return 0.0  # both types live in one distribution only; they never co-realize
    denom = math.comb(n, k)
    total = 0.0
    for subset, plus in signed:
        masses = base
        for j in subset:
            masses = [m + x for m, x in zip(masses, own[j])]
        term = subset_product_sum(masses, k) / denom
        total += term if plus else -term
    return min(1.0, max(0.0, total))


def _check_query(instance: SymmetricInstance, k: int, *types: ActionType) -> tuple[ActionType, ...]:
    """Validate k and the queried types; return all the instance's types."""
    n = n_slots(instance)
    if not 2 <= k <= n:
        raise ValueError(f"k={k} outside [2, {n}]")
    known = all_types(instance)
    ids = {t.id for t in known}
    for t in types:
        if t.id not in ids:
            raise ValueError(f"unknown type id {t.id!r}")
    return known


def _check_slope(s: Slope | int) -> Slope:
    if isinstance(s, int):
        s = Fraction(s)
    if s is not NEG_INF and (not isinstance(s, Fraction) or s > 0):
        raise ValueError(f"p_unique: slope must be <= 0 or NEG_INF, got {s!r}")
    return s


def p_segment(instance: SymmetricInstance, k: int, a: ActionType, b: ActionType) -> float:
    """Probability that a-b is the maximal segment of its slope on the realized frontier.

    Only pairs with a finite negative slope form segments; horizontal,
    vertical, and coincident pairs return 0 (the dominated endpoint can never
    sit on the frontier next to the other).
    """
    _check_query(instance, k, a, b)
    if a.id == b.id:
        raise ValueError("p_segment: a and b must be distinct types")
    s = slope_between(a, b)
    if s is None or s is NEG_INF or s >= 0:
        return 0.0
    if a.rho > b.rho:
        a, b = b, a
    return _event_prob(instance, k, (a, b), partial(_allowed_for_pair, a, b, s))


def p_unique(instance: SymmetricInstance, k: int, c: ActionType, s: Slope | int) -> float:
    """Probability that c alone is the slope-s tangency point of the realized frontier."""
    s = _check_slope(s)
    _check_query(instance, k, c)
    return _event_prob(instance, k, (c,), partial(_allowed_for_unique, c, s))


def segment_probabilities(instance: SymmetricInstance, k: int) -> list[SegmentProb]:
    """All canonical type pairs with positive maximal-segment probability.

    Pairs are oriented left-to-right (increasing receiver utility) and the
    list is sorted by (slope, left id, right id) for determinism.
    """
    types = _check_query(instance, k)
    out: list[SegmentProb] = []
    for i, a in enumerate(types):
        for b in types[i + 1 :]:
            s = slope_between(a, b)
            if s is None or s is NEG_INF or s >= 0:
                continue
            left, right = (a, b) if a.rho < b.rho else (b, a)
            p = _event_prob(instance, k, (left, right), partial(_allowed_for_pair, left, right, s))
            if p > 0.0:
                out.append(SegmentProb(left, right, s, p))
    out.sort(key=lambda seg: (seg.slope, seg.a.id, seg.b.id))
    return out


def unique_probabilities(instance: SymmetricInstance, k: int, s: Slope) -> list[UniquePointProb]:
    """All types with positive probability of being slope s's sole tangency point."""
    query = _check_slope(s)
    out = []
    for t in _check_query(instance, k):
        p = _event_prob(instance, k, (t,), partial(_allowed_for_unique, t, query))
        if p > 0.0:
            out.append(UniquePointProb(t, s, p))
    return out


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
