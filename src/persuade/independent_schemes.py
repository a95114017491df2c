"""Schemes for instances whose actions draw types independently.

With independent actions the optimal k-signal problem reduces to picking
which k actions may ever be recommended and how much recommendation mass
each gets.  The shared-budget relaxation ``f_of_S`` upper-bounds the
optimum for a fixed action set; ``actions_greedy``, ``actions_reduce`` and
``fptas_select`` pick the set; ``expost_scheme`` turns a relaxation
solution into an executable sequential-acceptance scheme whose expected
utilities have closed forms.

Greedy and fptas score candidate sets by the relaxation's exact rational
value, merged from the per-action value curves (``g_curve``) without an LP,
so ties are decided exactly, with no tolerance: greedy keeps the lowest
action index, fptas the set found first.  ``f_of_S`` solves the
relaxation as an LP only for the chosen set (and, for reduce, the full
set), because the scheme needs its per-type acceptance masses.

The relaxation is tight only on instances where falling back to the
a-priori receiver-best action can never hurt the receiver.  The sufficient
condition checked here is a designated-quality action whose receiver
utility is deterministic; builders refuse other instances unless forced.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .lp_core import LinearProgram, solve_lp
from .model import (
    IndependentInstance,
    State,
    TypeDist,
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
    if not isinstance(instance, IndependentInstance):
        raise TypeError("certified_fallback requires an independent instance")
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
    with slope 0 as a sentinel.
    """

    breakpoints: tuple[tuple[Fraction, Fraction, Fraction], ...]

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
    vertex, so every breakpoint and value is a Fraction.
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

    lines: set[tuple[Fraction, Fraction]] = set()
    for y, mu in candidates:
        intercept = sum(
            (q * max(zero, xi - y + mu * g) for q, xi, g in zip(qs, xis, gammas)),
            zero,
        )
        lines.add((y, intercept))
    return GiCurve(_lower_envelope(lines))


def _lower_envelope(
    lines: Iterable[tuple[Fraction, Fraction]],
) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    """Exact lower envelope of lines value(z) = intercept + slope*z on [0, 1].

    Walks the envelope left to right: starting from the line that is lowest
    at z = 0 (ties to the shallower slope, which stays lowest just after a
    tie), repeatedly find the earliest crossing where a shallower line dips
    below the active one.  Slopes must be nonnegative.
    """
    best: dict[Fraction, Fraction] = {}
    for slope, intercept in lines:
        if slope < 0:
            raise ValueError("envelope expects nonnegative slopes")
        cur = best.get(slope)
        if cur is None or intercept < cur:
            best[slope] = intercept
    pool = sorted(best.items())
    one = Fraction(1)

    slope, intercept = min(pool, key=lambda li: (li[1], li[0]))
    z = Fraction(0)
    breakpoints: list[tuple[Fraction, Fraction, Fraction]] = []
    while True:
        next_z: Fraction | None = None
        next_line: tuple[Fraction, Fraction] | None = None
        for s2, i2 in pool:
            if s2 >= slope:
                continue
            cross = (i2 - intercept) / (slope - s2)
            if not z < cross < one:
                continue
            if next_z is None or cross < next_z or (cross == next_z and s2 < next_line[0]):
                next_z, next_line = cross, (s2, i2)
        if next_z is None:
            breakpoints.append((z, intercept + slope * z, slope))
            breakpoints.append((one, intercept + slope, Fraction(0)))
            return tuple(breakpoints)
        breakpoints.append((z, intercept + slope * z, slope))
        z = next_z
        slope, intercept = next_line


# --------------------------------------------------------------------------
# The shared-budget relaxation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RelaxationSolution:
    """Optimum of the shared-budget relaxation over a set of actions.

    One budget z_i per action and one acceptance mass x_ij per action-type
    pair: budgets sum to at most one, each action's acceptances fit inside
    its budget and its type probabilities, and each action's accepted mass
    clears the receiver threshold on average.  After solving, z_i is
    tightened to sum_j x_ij, which the objective cannot see but which makes
    the budgets meaningful arrival probabilities for scheme building.
    """

    actions: tuple[int, ...]
    z: Mapping[int, float]
    x: Mapping[int, Mapping[str, float]]
    per_action: Mapping[int, float]
    objective: float


def f_of_S(instance: IndependentInstance, S: Iterable[int] = ()) -> RelaxationSolution:
    """Solve the shared-budget relaxation over S plus the designated action."""
    if not isinstance(instance, IndependentInstance):
        raise TypeError("f_of_S requires an independent instance")
    n = len(instance.actions)
    actions = sorted(set(S) | {instance.designated})
    for i in actions:
        if not 0 <= i < n:
            raise ValueError(f"action index {i} out of range for {n} actions")
    rho_e = best_fixed_action_value(instance)

    z_col = {a: idx for idx, a in enumerate(actions)}
    x_col: dict[tuple[int, str], int] = {}
    objective: list[float] = [0.0] * len(actions)
    bounds: list[tuple[float, float]] = [(0.0, 1.0)] * len(actions)
    for a in actions:
        for t, q in instance.actions[a]:
            x_col[(a, t.id)] = len(objective)
            objective.append(float(t.xi))
            bounds.append((0.0, float(q)))

    rows: list[tuple[Mapping[int, float], str, float]] = []
    rows.append(({z_col[a]: 1.0 for a in actions}, "<=", 1.0))
    for a in actions:
        fit = {x_col[(a, t.id)]: 1.0 for t, _ in instance.actions[a]}
        fit[z_col[a]] = -1.0
        rows.append((fit, "<=", 0.0))
        quality = {
            x_col[(a, t.id)]: float(t.rho - rho_e) for t, _ in instance.actions[a]
        }
        rows.append((quality, ">=", 0.0))

    solution = solve_lp(
        LinearProgram(objective=tuple(objective), rows=tuple(rows), bounds=tuple(bounds))
    )
    if solution.status != "optimal":
        raise RuntimeError(
            f"relaxation LP unexpectedly {solution.status}; the zero scheme is feasible"
        )

    x: dict[int, dict[str, float]] = {}
    z: dict[int, float] = {}
    per_action: dict[int, float] = {}
    for a in actions:
        row = {}
        for t, q in instance.actions[a]:
            row[t.id] = min(max(solution.values[x_col[(a, t.id)]], 0.0), float(q))
        x[a] = row
        z[a] = sum(row.values())
        per_action[a] = sum(
            row[t.id] * float(t.xi) for t, _ in instance.actions[a]
        )
    return RelaxationSolution(
        actions=tuple(actions),
        z=z,
        x=x,
        per_action=per_action,
        objective=solution.objective,
    )


# --------------------------------------------------------------------------
# Action selection
# --------------------------------------------------------------------------

def _validate_k(instance: IndependentInstance, k: int) -> list[int]:
    n = len(instance.actions)
    if not 2 <= k <= n:
        raise ValueError(f"k={k} outside [2, {n}]")
    return [i for i in range(n) if i != instance.designated]


def _curves(instance: IndependentInstance) -> list[GiCurve]:
    """Every action's value curve against the instance's receiver threshold."""
    rho_e = best_fixed_action_value(instance)
    return [g_curve(dist, rho_e) for dist in instance.actions]


def _relaxation_value(
    instance: IndependentInstance, curves: Sequence[GiCurve], S: Iterable[int]
) -> Fraction:
    """Exact value of the relaxation over S plus the designated action.

    The relaxation maximizes sum_i g_i(z_i) subject to sum_i z_i <= 1 over
    concave curves g_i with g_i(0) = 0, so filling the unit budget with the
    curves' positive-slope pieces in decreasing slope order is optimal.
    """
    pieces = sorted(
        (
            (slope, z1 - z0)
            for i in {*S, instance.designated}
            for (z0, _, slope), (z1, _, _) in zip(curves[i].breakpoints, curves[i].breakpoints[1:])
            if slope > 0
        ),
        reverse=True,
    )
    value, budget = Fraction(0), Fraction(1)
    for slope, length in pieces:
        if length >= budget:
            return value + slope * budget
        value += slope * length
        budget -= length
    return value


def actions_greedy(instance: IndependentInstance, k: int) -> tuple[int, ...]:
    """Pick k-1 actions by greedy marginal gain of the relaxation value.

    Candidates are compared by their exact rational relaxation value, so
    exact ties go to the lowest action index.  The relaxation value is
    monotone and submodular in the action set, so the greedy set is within
    the classic 1 - (1 - 1/k)^(k-1) style factor of the best set of its size.
    """
    others = _validate_k(instance, k)
    curves = _curves(instance)
    chosen: list[int] = []
    for _ in range(k - 1):
        best_i = best_val = None
        for i in others:
            if i in chosen:
                continue
            val = _relaxation_value(instance, curves, chosen + [i])
            if best_val is None or val > best_val:
                best_i, best_val = i, val
        chosen.append(best_i)
    return tuple(chosen)


def actions_reduce(instance: IndependentInstance, k: int) -> tuple[int, ...]:
    """Keep the k-1 actions contributing most to the full relaxation.

    Solves the relaxation once over every non-designated action and keeps
    the largest per-action contributions, ties to the lowest index.  Cheap,
    and still within a (k-1)/(n-1) factor of the full relaxation value.
    """
    others = _validate_k(instance, k)
    relax = f_of_S(instance, others)
    ranked = sorted(others, key=lambda i: (-relax.per_action[i], i))
    return tuple(sorted(ranked[: k - 1]))


# Largest value-curve grid fptas_select builds per action: levels = ceil(2k/epsilon).
FPTAS_MAX_LEVELS = 10_000


@dataclass(frozen=True)
class _PackEntry:
    action: int
    cells: int  # grid cells whose marginal is strictly above the guess
    p_r: int  # scaled curve value collected by those cells
    p_o: int  # scaled value of the plateau of cells exactly at the guess


def _guess_knapsack(
    designated: _PackEntry,
    others: Sequence[_PackEntry],
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
    Returns the chosen action tuple.
    """
    kappa_num, kappa_den = kappa

    def rounded(p: int) -> int:
        return p * kappa_den // kappa_num

    # state: (actions chosen, rounded above-m value, rounded plateau value)
    # mapped to the fewest committed cells reaching it, plus the choice set.
    start = (0, rounded(designated.p_r), rounded(designated.p_o))
    states: dict[tuple[int, int, int], tuple[int, tuple[int, ...]]] = {
        start: (designated.cells, ())
    }
    for entry in others:
        pr_i, po_i = rounded(entry.p_r), rounded(entry.p_o)
        merged = dict(states)
        for (j, pr, po), (cells, chosen) in states.items():
            if j >= k - 1:
                continue
            ncells = cells + entry.cells
            if ncells > levels:
                continue
            nstate = (j + 1, pr + pr_i, po + po_i)
            cand = (ncells, chosen + (entry.action,))
            cur = merged.get(nstate)
            if cur is None or cand < cur:
                merged[nstate] = cand
        states = merged

    # Value kappa*pr + min(m * free cells, kappa*po), scaled by kappa_den.
    best_value = None
    best_chosen: tuple[int, ...] = ()
    for (j, pr, po), (cells, chosen) in states.items():
        value = kappa_num * pr + min(m * (levels - cells) * kappa_den, kappa_num * po)
        if best_value is None or value > best_value or (value == best_value and chosen < best_chosen):
            best_value, best_chosen = value, chosen
    return best_chosen


def _grid_prefixes(curves: Sequence[GiCurve], levels: int) -> list[list[int]]:
    """Each curve's values at z = ell/levels for ell = 0..levels, as integers
    over one common denominator shared by all curves.

    On the piece starting at breakpoint (bz, bv, bs) the value is
    (bv - bs*bz) + (bs/levels)*ell, so scaling both coefficients of every
    piece to integers makes every grid value an integer.
    """
    lines = [
        [(bz, bv - bs * bz, bs / levels) for bz, bv, bs in curve.breakpoints] for curve in curves
    ]
    scale = math.lcm(*(c.denominator for rows in lines for _, a, b in rows for c in (a, b)))
    prefixes: list[list[int]] = []
    for rows in lines:
        pref: list[int] = []
        for p, (_, a, b) in enumerate(rows):
            stop = math.ceil(rows[p + 1][0] * levels) if p + 1 < len(rows) else levels + 1
            a, b = int(a * scale), int(b * scale)
            pref.extend(a + b * ell for ell in range(len(pref), stop))
        prefixes.append(pref)
    return prefixes


def fptas_select(instance: IndependentInstance, k: int, epsilon: float) -> tuple[int, ...]:
    """Pick k-1 actions whose relaxation value is within 1-epsilon of the best set.

    Discretizes every action's value curve into equal-width mass particles,
    guesses the marginal value of the last particle the unknown optimum
    packs, and for each guess solves a rounded knapsack over whole
    above-the-guess prefixes, all in exact integers.  Every guess's winning
    set is then scored by its exact relaxation value; the best one is kept,
    exact ties going to the earliest guess (the largest marginal), and
    padded with unused lowest-index actions up to exactly k-1.
    """
    others = _validate_k(instance, k)
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
    prefix = _grid_prefixes(curves, levels)
    # Negated per-cell marginals, non-decreasing on a concave curve, for bisection.
    neg_marginals = [[pref[ell] - pref[ell + 1] for ell in range(levels)] for pref in prefix]
    for neg in neg_marginals:
        assert all(a <= b for a, b in zip(neg, neg[1:])), "value curve not concave"

    guesses = sorted({-v for neg in neg_marginals for v in neg if v < 0}, reverse=True)
    cap = 2 * k * delta.denominator // delta.numerator

    candidates: list[tuple[int, ...]] = [()]
    for m in guesses:
        entries: dict[int, _PackEntry] = {}
        for i in participants:
            neg = neg_marginals[i]
            above = bisect_left(neg, -m)
            plateau = bisect_right(neg, -m, above) - above
            entries[i] = _PackEntry(action=i, cells=above, p_r=prefix[i][above], p_o=m * plateau)
        p_max = max(max(e.p_r, e.p_o) for e in entries.values())
        kappa = (delta.numerator * p_max, 2 * k * delta.denominator)
        assert all(e.p_r * kappa[1] // kappa[0] <= cap for e in entries.values())
        chosen = _guess_knapsack(
            entries[instance.designated],
            [entries[i] for i in others],
            k,
            levels,
            m,
            kappa,
        )
        candidates.append(tuple(sorted(chosen)))

    best_set: tuple[int, ...] = ()
    best_val = None
    for S in dict.fromkeys(candidates):
        val = _relaxation_value(instance, curves, S)
        if best_val is None or val > best_val:
            best_val, best_set = val, S

    padded = list(best_set)
    for i in others:
        if len(padded) >= k - 1:
            break
        if i not in padded:
            padded.append(i)
    return tuple(sorted(padded))


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
        for i in self.order:
            p = self.accept[i].get(state[i].id, 0.0)
            if p > 0.0 and rng.random() < p:
                return i
        return self.fallback


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
    def density(i: int) -> float:
        z = relaxation.z[i]
        return relaxation.per_action[i] / z if z > 1e-15 else 0.0

    order = tuple(sorted(relaxation.actions, key=lambda i: (-density(i), i)))
    accept: dict[int, dict[str, float]] = {}
    for i in relaxation.actions:
        row = {}
        for t, q in instance.actions[i]:
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
            relaxation.x[i].get(t.id, 0.0) * float(t.rho) for t, _ in instance.actions[i]
        )
        reach *= 1.0 - relaxation.z[i]
    leftover = 1.0 - relaxation.z.get(fallback, 0.0)
    if reach > 0.0 and leftover > 0.0:
        x_row = relaxation.x.get(fallback, {})
        for t, q in instance.actions[fallback]:
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
    if not isinstance(instance, IndependentInstance):
        raise TypeError("independent_scheme requires an independent instance")
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
