"""Schemes for instances whose actions draw types independently.

With independent actions the optimal k-signal problem reduces to picking
which k actions may ever be recommended and how much recommendation mass
each gets.  The shared-budget relaxation ``f_of_S`` upper-bounds the
optimum for a fixed action set; ``actions_greedy``, ``actions_reduce`` and
``fptas_select`` pick the set; ``expost_scheme`` turns a relaxation
solution into an executable sequential-acceptance scheme whose expected
utilities have closed forms.

The relaxation is a separable concave resource allocation, so no LP is
solved anywhere on this path.  Greedy and fptas score candidate sets by the
relaxation's exact rational value, merged from the per-action value curves
(``g_curve``), so ties are decided exactly, with no tolerance: greedy keeps
the lowest action index, fptas the set found first.  ``f_of_S`` and reduce
take the budgets from the same merge, with tied slopes going to the
non-designated actions in ascending index and to the designated action
last, and ``f_of_S`` reads the per-type acceptance masses off optimal
vectors cached at each curve breakpoint.

The curves are kept on the instance both exact and as integer numerators
over common denominators (``_curves``), so greedy's merges, fptas's grid
and its final scoring compare plain integers, and ``f_of_S`` interpolates
integer masses.  fptas's guesses descend, and an action's knapsack entry
moves only where one of its runs of equal-marginal grid cells starts or
ends, so each guess updates only those entries.

The relaxation is tight only on instances where falling back to the
a-priori receiver-best action can never hurt the receiver.  The sufficient
condition checked here is a designated-quality action whose receiver
utility is deterministic; builders refuse other instances unless forced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby
from typing import Iterable, Mapping, Sequence

import numpy as np

from .lp_core import NEGLIGIBLE_TOL
from .model import (
    IndependentInstance,
    State,
    TypeDist,
    _as_integer,
    _cached,
    _check_family,
    _check_k,
    _merged,
    best_fixed_action_value,
)

__all__ = [
    "ExPostScheme",
    "GiCurve",
    "PreconditionError",
    "RelaxationSolution",
    "actions_greedy",
    "actions_reduce",
    "certified_fallback",
    "expost_scheme",
    "expost_scheme_to_dict",
    "f_of_S",
    "fptas_select",
    "g_curve",
    "independent_scheme",
]


class PreconditionError(RuntimeError):
    """Raised when a scheme builder refuses an instance it cannot certify."""


def certified_fallback(instance: IndependentInstance) -> int | None:
    """Lowest-index action whose receiver utility is deterministically the
    best fixed-action value, or None when no action qualifies.

    Recommending such an action is always obedient: no amount of
    conditioning can move its value, while every alternative's conditional
    value stays at or below the prior best.
    """
    _check_family(instance, False, "certified_fallback")
    rho_e = best_fixed_action_value(instance)
    for i, dist in enumerate(instance.actions):
        if all(t.rho == rho_e for t, q in dist if q > 0):
            return i
    return None


# --------------------------------------------------------------------------
# Per-action value curves
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GiCurve:
    """Concave piecewise-linear value curve of a single action.

    The value at z is the best expected sender utility extractable from the
    action with recommendation mass at most z, keeping the action's
    conditional receiver utility at or above the fixed-action threshold.
    Breakpoints are exact rationals, ascending in z from 0 to 1; each entry
    is (z, value at z, slope to the right).  The final entry sits at z = 1
    with slope 0 as a sentinel.  ``masses`` holds one optimal acceptance
    vector per breakpoint: ``masses[b][j]`` is the mass accepted from the
    distribution's j-th listed type at breakpoint b.  Up to the end of the
    last rising piece the vector spends all of z; past it, on the flat
    tail, it stays at that end's vector.
    """

    breakpoints: tuple[tuple[Fraction, Fraction, Fraction], ...]
    masses: tuple[tuple[Fraction, ...], ...]

    def value(self, z: Fraction | int) -> Fraction:
        z = Fraction(z)
        if not 0 <= z <= 1:
            raise ValueError(f"z={z} outside [0, 1]")
        for bz, bv, bs in reversed(self.breakpoints):
            if bz <= z:
                return bv + bs * (z - bz)
        raise AssertionError("breakpoints do not start at z=0")


def g_curve(dist: TypeDist, rho_e: Fraction) -> GiCurve:
    """Exact value curve of one action against receiver threshold rho_e.

    The curve at z is the optimum of: maximize sum_j x_j xi_j subject to
    0 <= x_j <= q_j, sum_j x_j <= z and sum_j x_j (rho_j - rho_e) >= 0.
    Rather than solving that LP per z, we use its dual: for multipliers
    (y, mu) >= 0 on the mass and quality constraints the dual objective

        z*y + sum_j q_j * max(0, xi_j - y + mu*(rho_j - rho_e))

    is linear in z, the dual optimum sits at a vertex of the multiplier
    space, and there are only O(m^2) vertices (axis hits and pairwise kink
    intersections).  The curve is the exact lower envelope of one line per
    vertex, so every breakpoint and value is a Fraction.  The vertex behind
    each piece is dual optimal along it, which gives the optimal acceptance
    vectors at the breakpoints (``_breakpoint_masses``).
    """
    rho_e = Fraction(rho_e)
    xis = [t.xi for t, _ in dist]
    gammas = [t.rho - rho_e for t, _ in dist]
    qs = [q for _, q in dist]
    zero = Fraction(0)

    candidates: set[tuple[Fraction, Fraction]] = {(zero, zero)}
    for j in range(len(dist)):
        if xis[j] >= 0:
            candidates.add((xis[j], zero))
        if gammas[j] != 0:
            mu = -xis[j] / gammas[j]
            if mu >= 0:
                candidates.add((zero, mu))
    for j, jp in combinations(range(len(dist)), 2):
        if gammas[j] == gammas[jp]:
            continue
        mu = (xis[jp] - xis[j]) / (gammas[j] - gammas[jp])
        y = xis[j] + mu * gammas[j]
        if y >= 0 and mu >= 0:
            candidates.add((y, mu))

    # Each line (slope y, intercept) with the mu of one of its vertices; the
    # intercepts are summed in integers, over one denominator per vertex.
    u = math.lcm(*(v.denominator for v in (*xis, *gammas)))
    scaled = [(xi.numerator * (u // xi.denominator), g.numerator * (u // g.denominator))
              for xi, g in zip(xis, gammas)]
    q_unit = math.lcm(*(q.denominator for q in qs))
    weights = [q.numerator * (q_unit // q.denominator) for q in qs]
    lines: dict[tuple[Fraction, Fraction], Fraction] = {}
    for y, mu in candidates:
        reduced, den = _reduced_values(scaled, u, y, mu)
        total = sum(w * r for w, r in zip(weights, reduced) if r > 0)
        lines[(y, Fraction(total, den * q_unit))] = mu
    breakpoints, mus = _lower_envelope(lines)
    return GiCurve(breakpoints, _breakpoint_masses(breakpoints, mus, scaled, u, qs))


def _reduced_values(
    scaled: Sequence[tuple[int, int]], u: int, y: Fraction, mu: Fraction
) -> tuple[list[int], int]:
    """Each type's reduced value xi_j - y + mu*(rho_j - rho_e) under the dual
    vertex (y, mu), as integers over the returned positive denominator;
    ``scaled`` holds each (xi_j, rho_j - rho_e) as integers over u."""
    scale = y.denominator * mu.denominator
    offset, weight = y.numerator * u * mu.denominator, mu.numerator * y.denominator
    return [xi * scale - offset + g * weight for xi, g in scaled], u * scale


def _lower_envelope(
    lines: Mapping[tuple[Fraction, Fraction], Fraction],
) -> tuple[tuple[tuple[Fraction, Fraction, Fraction], ...], tuple[Fraction, ...]]:
    """Exact lower envelope of lines value(z) = intercept + slope*z on [0, 1].

    ``lines`` maps each (slope, intercept) to a label, its dual vertex's mu.
    Walks the envelope left to right: starting from the line that is lowest
    at z = 0 (ties to the shallower slope, which stays lowest just after a
    tie), repeatedly find the earliest crossing where a shallower line dips
    below the active one.  Slopes must be nonnegative.  Returns the
    breakpoints and the label of the line on each piece, one per breakpoint
    but the sentinel at z = 1.
    """
    best: dict[Fraction, tuple[Fraction, Fraction]] = {}
    for (slope, intercept), label in lines.items():
        if slope < 0:
            raise ValueError("envelope expects nonnegative slopes")
        cur = best.get(slope)
        if cur is None or intercept < cur[0]:
            best[slope] = (intercept, label)
    pool = sorted((slope, intercept, label) for slope, (intercept, label) in best.items())
    one = Fraction(1)

    slope, intercept, label = min(pool, key=lambda li: (li[1], li[0]))
    z = Fraction(0)
    breakpoints: list[tuple[Fraction, Fraction, Fraction]] = []
    labels: list[Fraction] = []
    while True:
        next_z: Fraction | None = None
        next_line: tuple[Fraction, Fraction, Fraction] | None = None
        for s2, i2, l2 in pool:
            if s2 >= slope:
                continue
            cross = (i2 - intercept) / (slope - s2)
            if not z < cross < one:
                continue
            if next_z is None or cross < next_z or (cross == next_z and s2 < next_line[0]):
                next_z, next_line = cross, (s2, i2, l2)
        breakpoints.append((z, intercept + slope * z, slope))
        labels.append(label)
        if next_z is None:
            breakpoints.append((one, intercept + slope, Fraction(0)))
            return tuple(breakpoints), tuple(labels)
        z = next_z
        slope, intercept, label = next_line


def _breakpoint_masses(
    breakpoints: Sequence[tuple[Fraction, Fraction, Fraction]],
    mus: Sequence[Fraction],
    scaled: Sequence[tuple[int, int]],
    u: int,
    qs: Sequence[Fraction],
) -> tuple[tuple[Fraction, ...], ...]:
    """One optimal acceptance vector at each breakpoint, by complementary
    slackness against the dual vertices (y, mu) = (slope, ``mus[p]``) of the
    pieces p on either side; ``scaled`` and u as for ``_reduced_values``.

    At a breakpoint z that ends a rising piece, every optimum spends all of
    z (a cheaper one would also be feasible a little to the left, where the
    curve is lower).  Both neighbouring vertices are dual optimal at z, so a
    type whose reduced value is positive under either is accepted whole,
    one whose reduced value is negative under either is refused, and the
    rest of z goes to the types at zero under both, in listed order.  Two
    distinct vertices have distinct slopes, so those types all sit at the
    one (xi, rho) where their lines cross, and any split of the rest is
    optimal.  At z = 1 only the left vertex exists; the masses sum to one
    there, so every type is accepted whole.  On the flat tail the last
    rising breakpoint's vector stays optimal.
    """
    zero = Fraction(0)
    signs = [_reduced_values(scaled, u, bp[2], mu)[0] for bp, mu in zip(breakpoints, mus)]
    out = [(zero,) * len(qs)]
    for b in range(1, len(breakpoints)):
        if breakpoints[b - 1][2] == 0:
            out.append(out[-1])
            continue
        masses = [zero] * len(qs)
        rest = breakpoints[b][0]
        tied = []
        for j, reduced in enumerate(zip(*signs[b - 1 : b + 1])):
            if max(reduced) > 0:
                masses[j] = qs[j]
                rest -= qs[j]
            elif min(reduced) == 0:
                tied.append(j)
        assert rest >= 0, "accepted types overfill a breakpoint's budget"
        for j in tied:
            masses[j] = min(qs[j], rest)
            rest -= masses[j]
        assert rest == 0, "tied types cannot fill a breakpoint's budget"
        out.append(tuple(masses))
    return tuple(out)


# --------------------------------------------------------------------------
# The shared-budget relaxation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _ValueCurves:
    """Every action's value curve, exact and as integers over common denominators.

    ``exact[i]`` is action i's ``GiCurve``, of its distribution with each
    type id listed once (``model._merged``).  ``breakpoints[i]`` holds its
    breakpoints (z, value, slope) as integer triples (Z, V, S) over the
    instance's common ``denominator`` D: z = Z/D, value V/D, slope S/D.
    ``pieces[i]`` holds the positive-slope pieces as (-S, Z' - Z), steepest
    first, so a merge of several actions' pieces is one sort of integer
    pairs; a curve's positive-slope pieces come before its flat tail, so
    piece p runs from breakpoint p to p + 1.  ``masses[i][b]`` is the
    curve's optimal acceptance vector at breakpoint b, one integer per type
    id of ``type_ids[i]`` over the common ``mass_denominator``.

    The vectors, like the breakpoints, exist in both forms on purpose:
    ``GiCurve.masses`` belongs to one distribution alone, exact, while the
    integer copy shares one denominator across the instance, so ``f_of_S``
    interpolates and sums with no ``Fraction`` arithmetic per call.
    """

    exact: tuple[GiCurve, ...]
    denominator: int
    breakpoints: tuple[tuple[tuple[int, int, int], ...], ...]
    pieces: tuple[tuple[tuple[int, int], ...], ...]
    type_ids: tuple[tuple[str, ...], ...]
    mass_denominator: int
    masses: tuple[tuple[tuple[int, ...], ...], ...]


def _curves(instance: IndependentInstance) -> _ValueCurves:
    """Every action's value curve against the instance's receiver threshold,
    with its integer form, built on first use and then kept on the instance."""

    def build(inst: IndependentInstance) -> _ValueCurves:
        rho_e = best_fixed_action_value(inst)
        dists = [_merged(dist) for dist in inst.actions]
        exact = tuple(g_curve(dist, rho_e) for dist in dists)
        unit = math.lcm(*(c.denominator for g in exact for point in g.breakpoints for c in point))
        breakpoints = tuple(
            tuple(tuple(c.numerator * (unit // c.denominator) for c in p) for p in g.breakpoints)
            for g in exact
        )
        pieces = tuple(
            tuple((-s, z1 - z0) for (z0, _, s), (z1, _, _) in zip(row, row[1:]) if s > 0)
            for row in breakpoints
        )
        type_ids = tuple(tuple(t.id for t, _ in dist) for dist in dists)
        mass_unit = math.lcm(*(x.denominator for g in exact for row in g.masses for x in row))
        masses = tuple(
            tuple(tuple(x.numerator * (mass_unit // x.denominator) for x in row) for row in g.masses)
            for g in exact
        )
        return _ValueCurves(exact, unit, breakpoints, pieces, type_ids, mass_unit, masses)

    return _cached(instance, "_curves", build)


def _fill(pieces: Iterable[tuple[int, int]], budget: int) -> int:
    """Value of filling ``budget`` units of mass with ``pieces``, (negated
    slope, length) pairs in ascending order: the steepest first."""
    value = 0
    for neg_slope, length in pieces:
        if length >= budget:
            return value - neg_slope * budget
        value -= neg_slope * length
        budget -= length
    return value


def _relaxation_numerator(curves: _ValueCurves, actions: Iterable[int]) -> int:
    """The relaxation's value over the distinct ``actions``, times D**2."""
    pieces = sorted(piece for i in actions for piece in curves.pieces[i])
    return _fill(pieces, curves.denominator)


def _relaxation_value(
    instance: IndependentInstance, curves: _ValueCurves, S: Iterable[int]
) -> Fraction:
    """Exact value of the relaxation over S plus the designated action.

    The relaxation maximizes sum_i g_i(z_i) subject to sum_i z_i <= 1 over
    concave curves g_i with g_i(0) = 0, so filling the unit budget with the
    curves' positive-slope pieces in decreasing slope order is optimal.
    Slopes and lengths are integers over D, so the value is an integer
    over D**2.
    """
    value = _relaxation_numerator(curves, {*S, instance.designated})
    return Fraction(value, curves.denominator**2)


def _allocate(
    curves: _ValueCurves, actions: Iterable[int], designated: int
) -> dict[int, tuple[int, int, int, int]]:
    """The relaxation's exact optimal budgets over the distinct ``actions``.

    Fills the unit budget as ``_relaxation_value`` does, with the pieces
    tagged by action: pieces of equal slope go to the non-designated
    actions in ascending index and to the designated action last, and no
    budget goes to a flat piece.  Maps each action to (p, taken, Z, V): its
    budget stops ``taken`` units into its piece p (0 units into piece 0
    when it gets none), and z_i = Z/D, g_i(z_i) = V/D**2.
    """
    unit = curves.denominator
    stops = dict.fromkeys(actions, (0, 0))
    pieces = sorted(
        (neg_slope, i == designated, i, p, length)
        for i in stops
        for p, (neg_slope, length) in enumerate(curves.pieces[i])
    )
    budget = unit
    for _, _, i, p, length in pieces:
        taken = min(length, budget)
        stops[i] = (p, taken)
        budget -= taken
        if budget == 0:
            break
    out = {}
    for i, (p, taken) in stops.items():
        z, v, s = curves.breakpoints[i][p]
        out[i] = (p, taken, z + taken, v * unit + s * taken)
    return out


def _masses(curves: _ValueCurves, i: int, p: int, taken: int) -> tuple[list[int], int]:
    """Action i's optimal acceptance masses, one per type id, when its budget
    stops ``taken`` units into piece p: the cached vectors at the piece's
    ends, interpolated, as integers over the returned denominator."""
    length = curves.breakpoints[i][p + 1][0] - curves.breakpoints[i][p][0]
    lo, hi = curves.masses[i][p], curves.masses[i][p + 1]
    masses = [m0 * length + (m1 - m0) * taken for m0, m1 in zip(lo, hi)]
    return masses, curves.mass_denominator * length


@dataclass(frozen=True)
class RelaxationSolution:
    """Optimum of the shared-budget relaxation over a set of actions.

    One budget z_i per action and one acceptance mass x_ij per action-type
    pair: budgets sum to at most one, each action's acceptances fit inside
    its budget and its type probabilities, and each action's accepted mass
    clears the receiver threshold on average.  The optimum is exact, with
    z_i = sum_j x_ij (the budget is spent, which makes it a meaningful
    arrival probability for scheme building); the fields are its floats.
    """

    actions: tuple[int, ...]
    z: Mapping[int, float]
    x: Mapping[int, Mapping[str, float]]
    per_action: Mapping[int, float]
    objective: float


def f_of_S(instance: IndependentInstance, S: Iterable[int] = ()) -> RelaxationSolution:
    """Solve the shared-budget relaxation over S plus the designated action.

    No LP: the budgets are the steepest-first fill of the value curves'
    pieces (``_allocate``, which also fixes how tied slopes split), and each
    action's acceptance masses interpolate the curve's cached optimal
    vectors at the two breakpoints around its budget, optimal because the
    curve is linear in between and the constraints are linear in (x, z).
    Everything stays in integers until the floats are reported.
    """
    _check_family(instance, False, "f_of_S")
    n = len(instance.actions)
    picked = {instance.designated}
    for i in S:
        j = _as_integer(i)
        if j is None:
            raise ValueError(f"action index {i!r} is not an integer")
        if not 0 <= j < n:
            raise ValueError(f"action index {j} out of range for {n} actions")
        picked.add(j)
    actions = sorted(picked)
    curves = _curves(instance)
    unit = curves.denominator
    spent = _allocate(curves, actions, instance.designated)

    x: dict[int, dict[str, float]] = {}
    z: dict[int, float] = {}
    per_action: dict[int, float] = {}
    for a, (p, taken, z_num, v_num) in spent.items():
        masses, scale = _masses(curves, a, p, taken)
        x[a] = {t: m / scale for t, m in zip(curves.type_ids[a], masses)}
        z[a] = z_num / unit
        per_action[a] = v_num / unit**2
    total = sum(v_num for _, _, _, v_num in spent.values())
    return RelaxationSolution(
        actions=tuple(actions),
        z=z,
        x=x,
        per_action=per_action,
        objective=total / unit**2,
    )


# --------------------------------------------------------------------------
# Action selection
# --------------------------------------------------------------------------

def _validate_k(instance: IndependentInstance, k: int, name: str) -> list[int]:
    """The non-designated actions, after checking the family and k for the
    selector ``name``."""
    _check_family(instance, False, name)
    return [i for i in range(_check_k(instance, k)) if i != instance.designated]


def actions_greedy(instance: IndependentInstance, k: int) -> tuple[int, ...]:
    """Pick k-1 actions by greedy marginal gain of the relaxation value.

    Candidates are compared by their exact relaxation value, an integer over
    one denominator per instance: each round merges a candidate's curve
    pieces into the already chosen set's sorted pieces.  Exact ties go to
    the lowest action index.  The relaxation value is monotone and
    submodular in the action set, so the greedy set is within the classic
    1 - (1 - 1/k)^(k-1) style factor of the best set of its size.
    """
    others = _validate_k(instance, k, "actions_greedy")
    curves = _curves(instance)
    chosen: list[int] = []
    merged = curves.pieces[instance.designated]
    for _ in range(k - 1):
        best_i = best_val = None
        for i in others:
            if i in chosen:
                continue
            val = _fill(sorted(merged + curves.pieces[i]), curves.denominator)
            if best_val is None or val > best_val:
                best_i, best_val = i, val
        chosen.append(best_i)
        merged = tuple(sorted(merged + curves.pieces[best_i]))
    return tuple(chosen)


def actions_reduce(instance: IndependentInstance, k: int) -> tuple[int, ...]:
    """Keep the k-1 actions contributing most to the full relaxation.

    Solves the relaxation once over every non-designated action and keeps
    the largest exact per-action contributions g_i(z_i), ties to the lowest
    index.  Cheap, and still within a (k-1)/(n-1) factor of the full
    relaxation value.
    """
    others = _validate_k(instance, k, "actions_reduce")
    spent = _allocate(_curves(instance), [*others, instance.designated], instance.designated)
    ranked = sorted(others, key=lambda i: (-spent[i][3], i))
    return tuple(sorted(ranked[: k - 1]))


# Largest value-curve grid fptas_select builds per action: levels = ceil(2k/epsilon).
FPTAS_MAX_LEVELS = 10_000

# An action in a guess's knapsack: (action, cells above the guess, their
# scaled curve value, scaled value of the plateau of cells at the guess).
_Entry = tuple[int, int, int, int]


def _guess_knapsack(
    designated: _Entry,
    others: Sequence[_Entry],
    k: int,
    levels: int,
    m: int,
    kappa: tuple[int, int],
) -> tuple[int, ...]:
    """Best at-most-(k-1) subset of `others` for one guessed cell marginal m.

    Values are floored to multiples of kappa = kappa[0] / kappa[1] so the
    state space stays polynomial; sizes stay exact cell counts.  Each packed
    action commits its above-m cells outright, while plateau mass is
    flexible and fills whatever of the `levels` cells remain at m per cell.
    `others` must ascend by action.  Returns the chosen action tuple.

    One layer per pick count maps (rounded above-m value, rounded plateau
    value) to the least (committed cells, chosen actions) reaching it.  Each
    action updates the layers in place from j = k-2 down to 0, so it is
    packed at most once.  Dropped first, with no layer changed: actions with
    more cells than the designated action leaves free, which never fit, and
    all but the k-1 lowest indices sharing one (cells, rounded values)
    signature.  A set holding a later member misses one of those k-1, and
    swapping them keeps the state and the cells while making the sorted
    choice smaller, so no layer's least choice holds a dropped action.
    Together the drops remove about two thirds of the entries of the
    benchmark's seed-1 independent round, most of them by signature.
    """
    kappa_num, kappa_den = kappa
    room = levels - designated[1]
    packable: list[tuple[int, int, int, int]] = []
    group_size: dict[tuple[int, int, int], int] = {}
    for action, cells, p_r, p_o in others:
        if cells > room:
            continue
        signature = (cells, p_r * kappa_den // kappa_num, p_o * kappa_den // kappa_num)
        size = group_size.get(signature, 0)
        if size < k - 1:
            group_size[signature] = size + 1
            packable.append((action, *signature))

    start = (designated[2] * kappa_den // kappa_num, designated[3] * kappa_den // kappa_num)
    layers: list[dict[tuple[int, int], tuple[int, tuple[int, ...]]]] = [{} for _ in range(k)]
    layers[0][start] = (designated[1], ())
    for action, cells, pr_i, po_i in packable:
        for j in range(k - 2, -1, -1):
            nxt = layers[j + 1]
            for (pr, po), (used, chosen) in layers[j].items():
                ncells = used + cells
                if ncells > levels:
                    continue
                key = (pr + pr_i, po + po_i)
                cand = (ncells, chosen + (action,))
                cur = nxt.get(key)
                if cur is None or cand < cur:
                    nxt[key] = cand

    # Value kappa*pr + min(m * free cells, kappa*po), scaled by kappa_den: never negative.
    best_value = -1
    best_chosen: tuple[int, ...] = ()
    for layer in layers:
        for (pr, po), (cells, chosen) in layer.items():
            value = kappa_num * pr + min(m * (levels - cells) * kappa_den, kappa_num * po)
            if value > best_value or (value == best_value and chosen < best_chosen):
                best_value, best_chosen = value, chosen
    return best_chosen


def _grid_runs(curves: _ValueCurves, levels: int) -> list[list[tuple[int, int, int, int, int]]]:
    """Each curve on the grid z = ell/levels, its cells grouped into runs of
    equal marginal value.

    On the piece from breakpoint (Z, V, S) the value at ell/levels, times
    D**2 * levels, is (V*D - S*Z)*levels + S*D*ell, so every grid value is
    an integer made with integer operations only.  One (marginal, first
    cell, cells, value before the run, value after it) per run, marginals
    strictly descending.
    """
    unit = curves.denominator
    out = []
    for rows in curves.breakpoints:
        grid: list[int] = []
        for p, (z, v, s) in enumerate(rows):
            stop = -(-rows[p + 1][0] * levels // unit) if p + 1 < len(rows) else levels + 1
            base, step = (v * unit - s * z) * levels, s * unit
            grid.extend(base + step * ell for ell in range(len(grid), stop))
        runs = []
        start = 0
        for marginal, cells in groupby(b - a for a, b in zip(grid, grid[1:])):
            end = start + len(list(cells))
            runs.append((marginal, start, end - start, grid[start], grid[end]))
            start = end
        assert all(a[0] > b[0] for a, b in zip(runs, runs[1:])), "value curve not concave"
        out.append(runs)
    return out


def fptas_select(instance: IndependentInstance, k: int, epsilon: float) -> tuple[int, ...]:
    """Pick k-1 actions whose relaxation value is within 1-epsilon of the best set.

    Discretizes every action's value curve into equal-width mass particles,
    guesses the marginal value of the last particle the unknown optimum
    packs, and for each guess solves a rounded knapsack over whole
    above-the-guess prefixes, all in exact integers: one DP layer per pick
    count, updated in place, over the actions a winning set can use (see
    ``_guess_knapsack``).  The grid comes from the curves' integer form
    (``_grid_runs``), and the guesses descend, so an action's knapsack entry
    moves only at a guess where one of its runs of equal-marginal cells
    starts and at the guess after it: each guess updates those entries
    alone.  Every guess's winning set is then scored by its exact relaxation
    value; the best one is kept, exact ties going to the earliest guess (the
    largest marginal), and padded with unused lowest-index actions up to
    exactly k-1.
    """
    others = _validate_k(instance, k, "fptas_select")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    delta = Fraction(float(epsilon)) / 2
    levels = math.ceil(k / delta)
    if levels > FPTAS_MAX_LEVELS:
        raise ValueError(
            f"fptas: epsilon={epsilon} at k={k} needs a grid of {levels} levels per "
            f"action, more than the limit of {FPTAS_MAX_LEVELS}; use a larger epsilon"
        )

    curves = _curves(instance)
    participants = others + [instance.designated]
    grid_runs = _grid_runs(curves, levels)
    # The positive runs by marginal, each as (participant position, first
    # cell, cells, value before it, value after it).
    starts: dict[int, list[tuple[int, int, int, int, int]]] = {}
    for pos, i in enumerate(participants):
        for marginal, *run in grid_runs[i]:
            if marginal > 0:
                starts.setdefault(marginal, []).append((pos, *run))
    # Above every marginal an entry has no cell, and g_i(0) = 0.
    entries: list[_Entry] = [(i, 0, 0, 0) for i in participants]
    pr_max = 0
    cap = 2 * k * delta.denominator // delta.numerator

    candidates: list[tuple[int, ...]] = [()]
    ending: list[tuple[int, int, int, int, int]] = []
    for m in sorted(starts, reverse=True):
        moved = []
        for pos, start, cells, _, after in ending:
            entries[pos] = (participants[pos], start + cells, after, 0)
            moved.append(after)
        ending = starts[m]
        for pos, start, cells, before, _ in ending:
            entries[pos] = (participants[pos], start, before, m * cells)
            moved.append(before)
        # p_r only grows as the guess falls; only the runs at m have a plateau.
        pr_max = max(pr_max, *moved)
        p_max = max(pr_max, m * max(cells for _, _, cells, _, _ in ending))
        kappa = (delta.numerator * p_max, 2 * k * delta.denominator)
        # Every p_r <= p_max rounds to at most cap.  An entry not moved here
        # keeps a p_r already counted in pr_max, so only the moved need checking.
        assert all(p_r * kappa[1] // kappa[0] <= cap for p_r in moved)
        chosen = _guess_knapsack(entries[-1], entries[:-1], k, levels, m, kappa)
        candidates.append(tuple(sorted(chosen)))

    # max keeps the first of exactly tied sets.
    designated = (instance.designated,)
    best_set = max(
        dict.fromkeys(candidates), key=lambda S: _relaxation_numerator(curves, S + designated)
    )
    spare = [i for i in others if i not in best_set]
    return tuple(sorted([*best_set, *spare[: k - 1 - len(best_set)]]))


# --------------------------------------------------------------------------
# Executable scheme
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExPostScheme:
    """Sequential-acceptance scheme realizing a relaxation solution.

    Actions are visited in `order`; the action under inspection is
    recommended with a probability depending only on its own realized type
    (an independent coin).  If every coin fails, the fallback action is
    recommended.  Because coins never look across actions, the expected
    utilities factor exactly into the closed forms stored here.

    `persuasiveness_guaranteed` is False when the scheme was forced onto an
    instance without a deterministic receiver-best action; the fallback
    recommendation may then leave the receiver short of the fixed-action
    threshold.
    """

    order: tuple[int, ...]
    accept: Mapping[int, Mapping[str, float]]
    fallback: int
    u_sender: float
    u_receiver: float
    persuasiveness_guaranteed: bool

    def recommendation_distribution(self, state: State) -> dict[int, float]:
        out: dict[int, float] = {}
        reach = 1.0
        for i in self.order:
            p = self.accept[i].get(state[i].id, 0.0)
            if p > 0.0:
                out[i] = out.get(i, 0.0) + reach * p
            reach *= 1.0 - p
        if reach > 0.0:
            out[self.fallback] = out.get(self.fallback, 0.0) + reach
        return out

    def recommend(self, state: State, rng: np.random.Generator) -> int:
        return self._coins([self.accept[i].get(state[i].id, 0.0) for i in self.order], rng)

    def _coins(self, accept: list[float], rng: np.random.Generator) -> int:
        """Flip each inspected action's coin, ``accept`` in `order`."""
        for i, p in zip(self.order, accept):
            if p > 0.0 and rng.random() < p:
                return i
        return self.fallback

    def _bind(self, table):
        """``rec(columns, rng)`` on whole states of the prior table's
        columns, with each action's acceptance probabilities by column."""
        by_col = {i: [a.get(t.id, 0.0) for t in table.types] for i, a in self.accept.items()}
        order = self.order
        return None, lambda cols, rng: self._coins([by_col[i][cols[i]] for i in order], rng)


def expost_scheme(
    instance: IndependentInstance,
    relaxation: RelaxationSolution,
    persuasiveness_guaranteed: bool,
) -> ExPostScheme:
    """Turn a relaxation solution into an executable scheme.

    Actions are ordered by value density (per-action value over budget,
    empty budgets last, ties to the lower index); each is accepted with
    probability x_ij / q_ij on its realized type.  Inspecting denser
    actions first maximizes the closed-form expected sender value among
    orderings of the same solution.

    The fallback is the certified action when one exists: a deterministic
    receiver value cannot be hurt by conditioning on the failed coins, so
    the fallback recommendation stays obedient.  Without a certificate the
    designated action stands in, and obedience is not guaranteed.
    """
    _check_family(instance, False, "expost_scheme")

    def density(i: int) -> float:
        z = relaxation.z[i]
        return relaxation.per_action[i] / z if z > NEGLIGIBLE_TOL else 0.0

    order = tuple(sorted(relaxation.actions, key=lambda i: (-density(i), i)))
    dists = [_merged(dist) for dist in instance.actions]
    accept: dict[int, dict[str, float]] = {}
    for i in relaxation.actions:
        row = {}
        for t, q in dists[i]:
            mass = relaxation.x[i].get(t.id, 0.0)
            row[t.id] = min(mass / float(q), 1.0) if q > 0 else 0.0
        accept[i] = row

    certified = certified_fallback(instance)
    fallback = certified if certified is not None else instance.designated

    u_sender = 0.0
    u_receiver = 0.0
    reach = 1.0
    for i in order:
        u_sender += reach * relaxation.per_action[i]
        u_receiver += reach * sum(
            relaxation.x[i].get(t.id, 0.0) * float(t.rho) for t, _ in dists[i]
        )
        reach *= 1.0 - relaxation.z[i]
    leftover = 1.0 - relaxation.z.get(fallback, 0.0)
    if reach > 0.0 and leftover > 0.0:
        x_row = relaxation.x.get(fallback, {})
        for t, q in dists[fallback]:
            residual = max(float(q) - x_row.get(t.id, 0.0), 0.0)
            u_sender += reach * residual / leftover * float(t.xi)
            u_receiver += reach * residual / leftover * float(t.rho)

    return ExPostScheme(
        order=order,
        accept=accept,
        fallback=fallback,
        u_sender=u_sender,
        u_receiver=u_receiver,
        persuasiveness_guaranteed=persuasiveness_guaranteed,
    )


def independent_scheme(
    instance: IndependentInstance,
    k: int,
    method: str = "greedy",
    epsilon: float | None = None,
    force: bool = False,
) -> ExPostScheme:
    """Select actions, solve the relaxation, and build the executable scheme.

    `method` is one of "greedy", "fptas" (requires `epsilon`) or "reduce".
    Instances without a verified deterministic receiver-best action are
    refused unless `force` is set, because the fallback recommendation can
    then break persuasiveness; forced schemes carry
    persuasiveness_guaranteed=False.
    """
    _check_family(instance, False, "independent_scheme")
    verified = certified_fallback(instance) is not None
    if not verified and not force:
        raise PreconditionError(
            "no action has deterministic receiver utility equal to the best "
            "fixed-action value, so the scheme's fallback cannot be "
            "certified persuasive"
        )
    if method == "greedy":
        S = actions_greedy(instance, k)
    elif method == "reduce":
        S = actions_reduce(instance, k)
    elif method == "fptas":
        if epsilon is None:
            raise ValueError("method 'fptas' requires epsilon")
        S = fptas_select(instance, k, epsilon)
    else:
        raise ValueError(f"unknown method {method!r}")
    relaxation = f_of_S(instance, S)
    return expost_scheme(instance, relaxation, persuasiveness_guaranteed=verified)


def expost_scheme_to_dict(scheme: ExPostScheme) -> dict:
    out = {
        "method": "independent",
        "order": list(scheme.order),
        "accept": {
            str(i): {tid: float(p) for tid, p in sorted(row.items())}
            for i, row in scheme.accept.items()
        },
        "fallback": scheme.fallback,
        "u_sender_lb": scheme.u_sender,
    }
    if not scheme.persuasiveness_guaranteed:
        out["warning"] = "persuasiveness not guaranteed"
    return out
