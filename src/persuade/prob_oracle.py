"""Frontier-event probability oracles for symmetric instances.

For a symmetric instance observed through its first k slots, the slope
algorithm needs, per tangent slope s:

* ``segment_probabilities``: for each pair a-b, the probability that the
  segment a-b is the maximal slope-s segment of the realized Pareto
  frontier, and
* ``unique_probabilities``: for each type c, the probability that c alone is
  the slope-s tangency point.

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
first k realized, and every other realized type is allowed. Each event has
one code path, a batched table: every pair at once for the segments, and
every type at one slope for the unique points (``_unique_row``).
``slope_algorithm`` reads one segment table and two unique rows, at -inf
and at the slope it picks (``symmetric_schemes._slope_sweep`` says why the
segment table carries the sweep between them, and when rounding makes it
read every candidate's row); ``unique_probabilities`` reads one row, at any
slope <= 0.
The slope -inf is ``NEG_INF``, the float ``-math.inf``; any float -inf is
accepted for it.  Both tables read nothing but the instance's prior table
(``model._prior_table``), built once per instance and shared with the
sampler: the distinct types with their utilities as integers over one
common denominator, exact dense ranks of their points and of their ids,
plus the prior's weights per type - one palette vector for IID priors, an
n x T float mass matrix for prophet-secretary ones, a V x T integer
entry-count matrix for d-random-order ones. The segment pairs and their
slopes come from the integer utilities. At a slope every type gets one
exact key (``xi - s*rho`` over the common denominator; ``(rho, xi)`` at
-inf and ``(xi, rho)`` at 0), ranked by ``_slope_ranks``, and a query's
allowed set is a boolean mask read off the keys' dense ranks: lower rank,
or the same point with a larger id, or for a pair the interior of the open
segment.

The exact reference these oracles are tested against,
``exact_oracle.enumerate_oracle``, lives with the other referees and shares
no code with this module.

The probability is an inclusion-exclusion over the subsets of the required
types, all queries of a call at once: one matrix product of the Q x T
allowed mask with the prior's weights, then one prophet-secretary
recursion, IID power or exact integer pass for d-random-order.
Prophet-secretary: the expected product of the allowed masses of a uniform
k-subset of the distributions, by the normalised recursion f(i, j) =
(1 - j/i) f(i-1, j) + (j/i) m_i f(i-1, j-1), which stays in [0, 1] for any
n. IID: its closed form v^k.
d-random-order: exact binomial counts of vector entries, converted to float
at the end.  Whether an event can happen is decided exactly, not from the
sign of a float, and such an event is listed even when its float
probability underflows to 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .geometry import NEG_INF, Slope, _check_slope
from .model import (
    ActionType,
    SymmetricInstance,
    _check_k,
    _dense_rank,
    _prior_table,
    _PriorTable,
    is_symmetric,
)

__all__ = [
    "SegmentProb",
    "UniquePointProb",
    "candidate_slopes",
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
# Per-slope classification of the prior table's types
# --------------------------------------------------------------------------

def _slope_ranks(rho: Sequence, xi: Sequence, s: Slope) -> np.ndarray:
    """Dense ranks of exact slope-s keys xi - s*rho (lexicographic (rho, xi)
    at -inf, (xi, rho) at 0), for utilities given as `Fraction`s or as
    integers over one common denominator: a lower rank lies strictly below
    the slope-s line through a higher-ranked point."""
    if s == NEG_INF:
        return _dense_rank(list(zip(rho, xi)))
    if s == 0:
        return _dense_rank(list(zip(xi, rho)))
    p, q = s.numerator, s.denominator
    return _dense_rank([x * q - p * r for r, x in zip(rho, xi)])


def _pair_allowed(table: _PriorTable, s: Fraction, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """allowed[q, t]: may type t be realized alongside "a[q]-b[q] is the
    maximal slope-s segment"? Each a[q] has the lower receiver utility.
    On a line of finite slope the (rho, xi) order of points is their rho
    order, so the open segment is the point ranks strictly between a and b."""
    rank = _slope_ranks(table.rho_num, table.xi_num, s)
    point, ids = table.point_rank, table.id_rank
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
    step = np.empty((k, masses.shape[1]))  # one buffer for the update, not three
    j = np.arange(1, k + 1)[:, None]
    for i, row in enumerate(masses, 1):
        np.multiply(f[:-1], row, out=step)
        step -= f[1:]
        step *= j / i
        f[1:] += step
    return f[k]


def _event_probs(
    table: _PriorTable, k: int, required: np.ndarray, allowed: np.ndarray
) -> list[float | None]:
    """For each query q: the probability that every type in ``required[q]``
    (one column for a unique point, two for a segment) is among the first k
    realized types and every other one is allowed by q's row of the Q x T
    mask ``allowed``; None when that cannot happen, decided exactly."""
    r = required.shape[1]
    subsets = [s for size in range(r, -1, -1) for s in combinations(range(r), size)]
    signs = np.array([1 if (r - len(s)) % 2 == 0 else -1 for s in subsets])
    w, vector_probs = table.weights, table.vector_probs
    if vector_probs:  # d-random-order
        # The first k entries are a uniform k-subset of the vector; a type may
        # fill several entries. Sum over vectors of P(vector) * #good k-subsets
        # in Python integers over a common denominator, so totals are exact.
        n = int(w[0].sum())  # every vector has n entries
        denom = math.lcm(*(q.denominator for q in vector_probs))
        scale = np.array(
            [[q.numerator * (denom // q.denominator)] for q in vector_probs], dtype=object
        )
        ways = np.array([math.comb(m, k) for m in range(n + 1)], dtype=object)
        free = w @ allowed.T  # V x Q
        totals = sum(
            sign * (scale * ways[free + w[:, required[:, list(s)]].sum(axis=2)]).sum(axis=0)
            for s, sign in zip(subsets, signs.tolist())
        ).tolist()
        whole = denom * math.comb(n, k)
        return [min(1.0, t / whole) if t > 0 else None for t in totals]

    if w.ndim == 1:  # IID
        # k i.i.d. draws: E[product of allowed masses] is v^k.
        base = allowed @ w
        terms = np.stack([(base + w[required[:, list(s)]].sum(axis=1)) ** k for s in subsets])
        support = table.positive[required].all(axis=1)
    else:
        # Columns subset by subset: no temporary as large as the
        # n x (subsets * Q) masses themselves.
        q, base = len(required), w @ allowed.T  # n x Q
        masses = np.empty((len(w), len(subsets) * q))
        for j, s in enumerate(subsets):
            masses[:, j * q : (j + 1) * q] = base + w[:, required[:, list(s)]].sum(axis=2)
        terms = _mean_k_products(masses, k).reshape(len(subsets), -1)
        # Distinct distributions must host the required types, and k
        # distributions must be able to draw an allowed or required type.
        hosts = table.positive[:, required]  # n x Q x r
        support = hosts.any(axis=0).all(axis=1) & (hosts.any(axis=2).sum(axis=0) >= r)
        usable = (table.positive @ allowed.T) | hosts.any(axis=2)  # boolean product: any
        support &= usable.sum(axis=0) >= k
    p = np.clip(signs @ terms, 0.0, 1.0)
    return [x if possible else None for x, possible in zip(p.tolist(), support.tolist())]


def _check_query(instance: SymmetricInstance, k: int) -> _PriorTable:
    """Validate k; return the instance's prior table."""
    if not is_symmetric(instance):
        raise TypeError("frontier events are defined for symmetric instances only")
    _check_k(instance, k)
    return _prior_table(instance)


def segment_probabilities(instance: SymmetricInstance, k: int) -> list[SegmentProb]:
    """All canonical type pairs whose maximal-segment event can happen.

    Pairs are oriented left-to-right (increasing receiver utility) and the
    list is sorted by (slope, left id, right id) for determinism.  A pair
    qualifies when its slope is finite and negative, read off the table's
    integer utilities.  The allowed sets are classified once per distinct
    slope.
    """
    table = _check_query(instance, k)
    types, rho, xi = table.types, table.rho_num, table.xi_num
    pairs = [
        (*((i, j) if rho[i] < rho[j] else (j, i)), Fraction(xi[j] - xi[i], rho[j] - rho[i]))
        for i, j in combinations(range(len(types)), 2)
        if (rho[j] - rho[i]) * (xi[j] - xi[i]) < 0
    ]
    required = np.array([(a, b) for a, b, _ in pairs], dtype=np.int64).reshape(-1, 2)
    allowed = np.zeros((len(pairs), len(types)), dtype=bool)
    by_slope: dict[Fraction, list[int]] = {}
    for q, (_, _, s) in enumerate(pairs):
        by_slope.setdefault(s, []).append(q)
    for s, rows in by_slope.items():
        allowed[rows] = _pair_allowed(table, s, required[rows, 0], required[rows, 1])
    out = [
        SegmentProb(types[a], types[b], s, p)
        for (a, b, s), p in zip(pairs, _event_probs(table, k, required, allowed))
        if p is not None
    ]
    out.sort(key=lambda seg: (seg.slope, seg.a.id, seg.b.id))
    return out


def unique_probabilities(instance: SymmetricInstance, k: int, s: Slope) -> list[UniquePointProb]:
    """All types that can be slope s's sole tangency point, with their probabilities."""
    s = _check_slope(s)
    table = _check_query(instance, k)
    probs = zip(table.types, _unique_row(table, k, s))
    return [UniquePointProb(t, s, p) for t, p in probs if p is not None]


def _unique_row(table: _PriorTable, k: int, s: Slope) -> list[float | None]:
    """Entry c: the probability that type c alone is the slope-s tangency
    point, None when that cannot happen.  Row c of its allowed mask: may
    type t be realized alongside that event?"""
    rank, c = _slope_ranks(table.rho_num, table.xi_num, s), np.arange(len(table.types))[:, None]
    point, ids = table.point_rank, table.id_rank
    return _event_probs(table, k, c, (rank < rank[c]) | (point == point[c]) & (ids > ids[c]))


def candidate_slopes(instance: SymmetricInstance, k: int) -> list[Slope]:
    """Sorted slope candidates: -inf, then every positive-probability segment
    slope.  One of them always attains the optimum of the per-slope LPs.

    Strictly between two adjacent segment slopes no realized frontier has a
    segment, and its tangency point is the one the lower slope's LP
    recommends with every alpha at 1; below every segment slope it is
    -inf's, above every one (0 included) the largest segment slope's.  With
    no segment each realized frontier is one point, recommended at 0 and
    -inf alike.  So no other slope offers a better scheme.
    """
    return [NEG_INF, *sorted({seg.slope for seg in segment_probabilities(instance, k)})]
