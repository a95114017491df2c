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
first k realized, and every other realized type is allowed. A unique point c
is the degenerate segment c-c, so one rule, ``_pair_allowed``, gives every
allowed set. Each event has one code path, a batched table: every pair at
once for the segments, and every type at one slope for the unique points.
``slope_algorithm`` reads one segment table and at most two unique rows, at
-inf and at the slope it picks (``symmetric_schemes._slope_sweep`` says why
the segment table carries the sweep between them, and when rounding makes
it read every candidate's row); ``unique_probabilities`` reads one row, at
any slope <= 0.
The slope -inf is ``NEG_INF``, the float ``-math.inf``; any float -inf is
accepted for it.  Both tables read nothing but the instance's prior table
(``model._prior_table``), built once per instance and shared with the
sampler: the distinct types with their utilities as integers over one
common denominator, exact dense ranks of their points and of their ids,
plus the prior's weights per type - one palette vector for IID priors, an
n x T float mass matrix for prophet-secretary ones, a V x T integer
entry-count matrix for d-random-order ones. The segment pairs, their
slopes and every allowed set come from the integer utilities.  A query's
line runs through its left end a (the query point, for a unique point)
with direction (d_rho, d_xi): b - a for a pair, (q, p) at a slope p/q,
and at 0 and -inf the slopes -1/M and -M, with M so large that the
lexicographic keys, (xi, rho) at 0 and (rho, xi) at -inf, order the
types.  Type t lies below the line when the exact orientation test
(xi_t - xi_a)·d_rho - d_xi·(rho_t - rho_a) < 0 holds, and a query's
allowed set is a boolean mask: below the line, or on it and an end's
point with a larger id, or the interior of a pair's open segment.  The
products are int64 where they cannot overflow and Python integers
otherwise, and one `_pair_allowed` call classifies every pair, T rows at
a time.  The executor ranks types in the same order through
``_slope_ranks``.

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
from itertools import combinations, groupby
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


def _pair_allowed(table: _PriorTable, a: np.ndarray, b: np.ndarray, s: Slope | None = None) -> np.ndarray:
    """allowed[q, t]: may type t be realized alongside "a[q]-b[q] is the
    maximal segment of its slope"? Each a[q] has the lower receiver utility,
    and the line runs through a[q] and b[q] (``s`` None).  With a given
    slope ``s`` every row's line runs through a[q] at slope s, and with
    a[q] = b[q] = c the row is "may t be realized alongside c alone being
    the slope-s tangency point", at any slope <= 0 and at -inf.

    t lies below row q's line when the orientation cross product
    (xi_t - xi_a)·d_rho - d_xi·(rho_t - rho_a) is negative, on the table's
    integer utilities, with the line's direction (d_rho, d_xi) = b - a, or
    (q, p) for s = p/q.  s = 0 is read as the slope -1/M and -inf as -M,
    with M = 2·max|utility numerator| + 1: no two types' order differs
    there from the lexicographic key's, (xi, rho) at 0 and (rho, xi) at
    -inf.  On the line (cross 0) t is allowed when it is an end's point
    with a larger id, or in the interior of the open segment, which on a
    line of finite slope is the points strictly between a and b in (rho,
    xi) order.  The cross products are int64 when they cannot pass 2^63
    (2·max|numerator|·(|d_rho| + |d_xi|) below it), else Python ints in an
    object array; rows go in blocks of T, so no temporary exceeds T x T.
    """
    m = max(map(abs, table.rho_num + table.xi_num))
    if s is not None:  # 0 and -inf as the slopes -1/M and -M
        d = (1, -2 * m - 1) if s == NEG_INF else (2 * m + 1, -1) if s == 0 else (s.denominator, s.numerator)
    dtype = np.int64 if 2 * m * (4 * m if s is None else abs(d[0]) + abs(d[1])) < 2**63 else object
    rho, xi = np.array(table.rho_num, dtype=dtype), np.array(table.xi_num, dtype=dtype)
    d_rho, d_xi = (rho[b] - rho[a], xi[b] - xi[a]) if s is None else (np.full(len(a), v, dtype) for v in d)
    point, ids = table.point_rank, table.id_rank
    allowed = np.empty((len(a), len(rho)), dtype=bool)
    for lo in range(0, len(a), len(rho)):
        q = slice(lo, lo + len(rho))
        qa, qb = a[q, None], b[q, None]
        cross = (xi - xi[qa]) * d_rho[q, None] - d_xi[q, None] * (rho - rho[qa])
        pa, pb = point[qa], point[qb]
        on_line = (point == pa) & (ids > ids[qa]) | (point == pb) & (ids > ids[qb]) | (point > pa) & (point < pb)
        allowed[q] = (cross < 0) | (cross == 0) & on_line
    return allowed


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

    Pairs are oriented left-to-right (increasing receiver utility) and
    listed slope by slope in ascending order, each slope's pairs by (left
    id, right id), for determinism.  A pair qualifies when its slope is
    finite and negative, read off the table's integer utilities.  Every
    pair's allowed set comes from one `_pair_allowed` call; the slopes are
    ordered by their floats, so `Fraction`s are compared only where those
    are equal.
    """
    table = _check_query(instance, k)
    types, rho, xi = table.types, table.rho_num, table.xi_num
    pairs = [
        (i, j) if rho[i] < rho[j] else (j, i)
        for i, j in combinations(range(len(types)), 2)
        if (rho[j] - rho[i]) * (xi[j] - xi[i]) < 0
    ]
    keys = [(Fraction(xi[b] - xi[a], rho[b] - rho[a]), types[a].id, types[b].id) for a, b in pairs]
    required = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    probs = _event_probs(table, k, required, _pair_allowed(table, required[:, 0], required[:, 1]))
    return [
        SegmentProb(types[pairs[q][0]], types[pairs[q][1]], keys[q][0], probs[q])
        for q in sorted(range(len(pairs)), key=lambda q: (float(keys[q][0]), keys[q]))
        if probs[q] is not None
    ]


def unique_probabilities(instance: SymmetricInstance, k: int, s: Slope) -> list[UniquePointProb]:
    """All types that can be slope s's sole tangency point, with their
    probabilities.  A unique point c is the degenerate segment c-c: its
    allowed set is `_pair_allowed`'s with a = b = c at slope s."""
    s = _check_slope(s)
    table = _check_query(instance, k)
    c = np.arange(len(table.types))
    probs = _event_probs(table, k, c[:, None], _pair_allowed(table, c, c, s))
    return [UniquePointProb(t, s, p) for t, p in zip(table.types, probs) if p is not None]


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
    return [NEG_INF, *(s for s, _ in groupby(seg.slope for seg in segment_probabilities(instance, k)))]
