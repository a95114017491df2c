"""Signaling schemes for symmetric instances.

The central routine is ``slope_algorithm``: at -inf and at every slope a
realized frontier segment can have (no other tangent slope does better) it
solves the per-slope scheme LP in closed form and keeps the best feasible
answer, its sums telescoped from slope to slope over the segment events
the oracle reads off the instance's prior table.
The returned scheme is compact (a slope and one recommendation weight per
same-slope segment); execution recommends the realized frontier's tangency
point, found per state from the oracle's exact slope keys, ranked once per
type, so it runs on state spaces far too large to tabulate.

Also here: the imitation wrapper that turns the optimal n-signal scheme
into a persuasive k-signal scheme, and the sampling-based bicriteria scheme
that trades exact persuasiveness for epsilon slack.  Its sample, counted in
every order of each state, is a d-random-order prior over the sampled type
multisets, so the same sweep solves it at a lowered receiver threshold and
no LP is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .geometry import NEG_INF, Slope
from .lp_core import BICRITERIA_MARGIN, CONSTRAINT_TOL, GAIN_TOL, SlopeLpResult, _slope_lp, _slope_sums
from .model import (
    SAMPLER_MAX_SAMPLES,
    DRandomOrderInstance,
    State,
    SymmetricInstance,
    best_fixed_action_value,
    format_rational,
    parse_rational,
    _PriorTable,
    _check_count,
    _check_family,
    _check_integer,
    _check_k,
    _dense_rank,
    _prior_table,
    _state_sampler,
)
from .prob_oracle import SegmentProb, _slope_ranks, _unique_row, segment_probabilities

__all__ = [
    "BicriteriaResult",
    "SlopeScheme",
    "SlopeSchemeExecutor",
    "TabularScheme",
    "bicriteria_scheme",
    "imitation_scheme",
    "slope_algorithm",
    "slope_scheme_from_dict",
    "slope_scheme_to_dict",
]


# --------------------------------------------------------------------------
# The slope algorithm
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeScheme:
    """Optimal direct persuasive scheme for a symmetric instance, in compact form.

    ``alpha`` maps a same-slope segment, keyed by (low-rho endpoint id,
    high-rho endpoint id), to the probability of recommending the low-rho
    (higher-xi) endpoint when that segment is the realized tangent.
    """

    s_star: Slope
    alpha: Mapping[tuple[str, str], float]
    u_sender: float
    u_receiver: float


def slope_algorithm(instance: SymmetricInstance, k: int) -> SlopeScheme:
    """Compute an optimal direct persuasive scheme with k signals.

    Evaluates the closed-form scheme LP at -inf and at every segment slope
    and keeps the feasible one with the best sender utility; ties keep the
    earliest candidate in ascending slope order.  Any other slope recommends
    what one of these does with its alphas at 0 or 1 (`candidate_slopes`),
    so it cannot do better.  The candidate at -inf (recommend the
    receiver-best realized type) is always feasible, so the sweep cannot
    come back empty.

    One segment table and two unique rows serve the whole sweep
    (`_slope_sweep`; every candidate's row only when rounding puts the
    receiver threshold on s*'s boundary), and the reported scheme is
    `solve_slope_lp`'s closed form at s* on the same floats, bit-identical
    to what a slope-by-slope sweep reports at s*.
    """
    _check_family(instance, True, "slope_algorithm")
    return _slope_sweep(instance, k, float(best_fixed_action_value(instance)))


def _slope_sweep(instance: SymmetricInstance, k: int, rho_e: float) -> SlopeScheme:
    """`slope_algorithm`'s sweep with the receiver's threshold ``rho_e``
    (there the best fixed action's value; `bicriteria_scheme` lowers it).

    Strictly between two adjacent candidate slopes no realized frontier has
    a segment, so the tangency point just above one candidate is the one
    just below the next: what a segment slope recommends with every alpha
    at 0 is what the candidate before it recommends with every alpha at 1.
    So the sums telescope.  X = (E[xi], E[rho]) at alpha = 1 starts at -inf's
    unique row, and each segment slope, in ascending order, moves it by
    sum p·(xi_a - xi_b, rho_a - rho_b) over its segments a-b; the receiver
    value the slope's alphas can add back is sum p·(rho_b - rho_a).  These
    running sums pick s*, and the scheme reported is s*'s closed form on its
    own unique row (a second row, the first again when s* = -inf), so its
    floats are those a slope-by-slope sweep gives at s*.
    """
    # Candidates in ascending order: -inf, then the segments' slopes, as
    # `segment_probabilities` sorts them.
    by_slope: dict[Slope, list[SegmentProb]] = {NEG_INF: []}
    for seg in segment_probabilities(instance, k):
        by_slope.setdefault(seg.slope, []).append(seg)
    table = _prior_table(instance)

    def running() -> Iterator[SlopeLpResult | None]:
        sender, receiver, _ = _slope_sums([], _unique_row(table, k, NEG_INF), table.xi, table.rho)
        for s, segs in by_slope.items():
            available = sum(seg.p * float(seg.b.rho - seg.a.rho) for seg in segs)
            sender += sum(seg.p * float(seg.a.xi - seg.b.xi) for seg in segs)
            receiver -= available
            yield _slope_lp(sender, receiver, available, len(segs), rho_e, s)

    def direct(s: Slope) -> SlopeLpResult | None:
        segs = by_slope[s]
        sums = _slope_sums(segs, _unique_row(table, k, s), table.xi, table.rho)
        return _slope_lp(*sums, len(segs), rho_e, s)

    best_s, _ = _best(by_slope, running())
    best = direct(best_s)
    if best is None:
        # A receiver threshold within rounding of s*'s alpha = 0 value (about
        # 1e-14 off; bicriteria's epsilon can put it there) is met by the
        # running sums and missed on s*'s own row: sweep slope by slope.
        best_s, best = _best(by_slope, map(direct, by_slope))
    alpha = {(seg.a.id, seg.b.id): a for seg, a in zip(by_slope[best_s], best.alphas)}
    assert best.u_receiver >= rho_e - CONSTRAINT_TOL
    return SlopeScheme(s_star=best_s, alpha=alpha, u_sender=best.u_sender, u_receiver=best.u_receiver)


def _best(slopes: Iterable[Slope], results: Iterable[SlopeLpResult | None]):
    """The slope of the first feasible result that no later one beats by
    more than ``GAIN_TOL``, and that result."""
    best_s, best = None, None
    for s, res in zip(slopes, results):
        if res is not None and (best is None or res.u_sender > best.u_sender + GAIN_TOL):
            best_s, best = s, res
    if best is None:
        raise AssertionError(
            "no candidate slope gave a feasible LP; the -inf candidate should always be feasible"
        )
    return best_s, best


class _Tangency:
    """A slope scheme's recommendation rule on states given as lists of
    columns of one type list: column c's type has utilities ``rho[c]`` and
    ``xi[c]`` (`Fraction`s, or integers over one common denominator) and
    id ``ids[c]``.

    ``low[c]`` ranks column c first by its exact slope-s* key (its
    `_slope_ranks` rank), then by the lowest point (rho, xi), then by the
    lowest id; ``high[c]`` by the key, the highest point, the lowest id.
    Over a state's columns the maximum ``low`` is the low-rho endpoint of
    the realized tangent and the maximum ``high`` its high-rho endpoint:
    among coincident points the lowest id stands for them, as in
    `pareto_frontier`, and on a line of finite slope the (rho, xi) order of
    points is their rho order.
    """

    __slots__ = ("scheme", "low", "high", "ids")

    def __init__(self, scheme: SlopeScheme, rho: list, xi: list, ids: list[str]) -> None:
        rank = _slope_ranks(rho, xi, scheme.s_star)
        point, ident = _dense_rank(list(zip(rho, xi))), _dense_rank(ids)
        points, names = int(point.max()) + 1, int(ident.max()) + 1
        keys = list(zip(rank.tolist(), point.tolist(), ident.tolist()))
        self.scheme = scheme
        self.low = [(r * points + points - 1 - p) * names + names - 1 - i for r, p, i in keys]
        self.high = [(r * points + p) * names + names - 1 - i for r, p, i in keys]
        self.ids = ids

    def points(self, head: Sequence[int]) -> list[tuple[int, float]]:
        """The recommended columns of a state's first k columns, with weights."""
        left = max(head, key=self.low.__getitem__)
        right = max(head, key=self.high.__getitem__)
        if left == right:
            return [(left, 1.0)]
        key = (self.ids[left], self.ids[right])
        alpha = self.scheme.alpha.get(key)
        if alpha is None:
            raise RuntimeError(
                f"realized segment {key} at slope {self.scheme.s_star} is missing "
                "from the scheme; the probability oracle and the frontier disagree"
            )
        return [(left, alpha), (right, 1.0 - alpha)]

    def distribution(self, head: Sequence[int]) -> dict[int, float]:
        """Each recommended column's weight split evenly over the slots holding it."""
        out: dict[int, float] = {}
        for point, w in self.points(head):
            if w <= 0.0:
                continue
            slots = [i for i, c in enumerate(head) if c == point]
            for slot in slots:
                out[slot] = w / len(slots)
        return out


@dataclass(frozen=True)
class SlopeSchemeExecutor:
    """Runs a SlopeScheme on realized states.

    Per state the executor finds the point of the first k types' Pareto
    frontier tangent at the scheme's slope s* without building the
    frontier: it maximises the exact slope-s* key of each type, ranked by
    the oracle's own rule (`prob_oracle._slope_ranks`: xi - s*·rho for
    finite s* < 0, (xi, rho) at s* = 0, (rho, xi) at s* = -inf).  Two or
    more distinct maximising points form the tangent segment, which
    recommends its low-rho endpoint with the stored alpha weight and its
    high-rho endpoint otherwise; a single maximising point is recommended
    outright.  Among coincident points the lowest id stands for them, as in
    `pareto_frontier`.  When several of the first k slots hold the
    recommended type, the slot is drawn uniformly among them, which keeps
    the scheme symmetric.

    A sampled state is a row of prior-table columns, and the rule
    (`_Tangency`) runs on such rows with one integer key per column and
    endpoint, so a state costs two `max` calls over k ints.  `estimate`
    binds the executor to the instance's table once (`_bind`, ranked on the
    table's integer utilities) and draws only the first k columns of each
    state.
    `recommend` and `recommendation_distribution` take `ActionType` states:
    they map each type to a column among the types seen so far, ranked
    again when a state brings a new one, and run the same rule.
    ``k`` must be an integer of at least 1; a numpy integer is stored as an
    `int`.
    """

    scheme: SlopeScheme
    k: int
    _seen: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _ranked: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _check_count(self.k, "k"))

    def _columns(self, state: State) -> tuple[list[int], _Tangency]:
        """The columns of the state's first k types among the types seen so
        far, and the rule over those types."""
        if len(state) < self.k:
            raise ValueError(f"state has {len(state)} slots, scheme needs {self.k}")
        head, ranked = state[: self.k], self._ranked
        if ranked:
            try:
                return [ranked[0][t.id] for t in head], ranked[1]
            except KeyError:  # a type not seen yet: rank every type seen so far again
                pass
        seen = self._seen
        seen.update((t.id, t) for t in head)
        rho, xi, ids = [t.rho for t in seen.values()], [t.xi for t in seen.values()], list(seen)
        rule = _Tangency(self.scheme, rho, xi, ids)
        ranked[:] = [{tid: c for c, tid in enumerate(ids)}, rule]
        return [ranked[0][t.id] for t in head], rule

    def recommendation_distribution(self, state: State) -> dict[int, float]:
        head, rule = self._columns(state)
        return rule.distribution(head)

    def recommend(self, state: State, rng: np.random.Generator) -> int:
        return _sample_slot(self.recommendation_distribution(state), rng)

    def _bind(self, table: _PriorTable):
        """The first-k column count and ``rec(columns, rng)`` on the table."""
        ids = [t.id for t in table.types]
        distribution = _Tangency(self.scheme, table.rho_num, table.xi_num, ids).distribution
        return self.k, lambda head, rng: _sample_slot(distribution(head), rng)


def _sample_slot(dist: Mapping[int, float], rng: np.random.Generator) -> int:
    u = rng.random()
    acc = 0.0
    slots = sorted(dist)
    for slot in slots:
        acc += dist[slot]
        if u < acc:
            return slot
    return slots[-1]


def slope_scheme_to_dict(scheme: SlopeScheme) -> dict:
    entries = [
        {"a": a, "b": b, "alpha": alpha}
        for (a, b), alpha in sorted(scheme.alpha.items())
    ]
    s_star = "-inf" if scheme.s_star == NEG_INF else format_rational(scheme.s_star)
    return {
        "method": "slope",
        "s_star": s_star,
        "alpha": entries,
        "u_sender": scheme.u_sender,
        "u_receiver": scheme.u_receiver,
    }


def slope_scheme_from_dict(data: dict) -> SlopeScheme:
    raw = data["s_star"]
    s_star: Slope = NEG_INF if raw == "-inf" else parse_rational(raw)
    alpha = {(e["a"], e["b"]): float(e["alpha"]) for e in data["alpha"]}
    return SlopeScheme(
        s_star=s_star,
        alpha=alpha,
        u_sender=float(data["u_sender"]),
        u_receiver=float(data["u_receiver"]),
    )


# --------------------------------------------------------------------------
# Imitation: k signals riding on the optimal n-signal scheme
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ImitationExecutor:
    """Forward the n-signal recommendation when it lands in the first k slots,
    otherwise recommend one of the first k slots uniformly at random."""

    base: SlopeSchemeExecutor
    k: int

    def recommendation_distribution(self, state: State) -> dict[int, float]:
        base_dist = self.base.recommendation_distribution(state)
        out = {i: 0.0 for i in range(self.k)}
        spread = 0.0
        for slot, p in base_dist.items():
            if slot < self.k:
                out[slot] += p
            else:
                spread += p
        for i in range(self.k):
            out[i] += spread / self.k
        return {i: p for i, p in out.items() if p > 0.0}

    def recommend(self, state: State, rng: np.random.Generator) -> int:
        slot = self.base.recommend(state, rng)
        if slot < self.k:
            return slot
        return int(rng.integers(self.k))


def imitation_scheme(instance: SymmetricInstance, k: int) -> ImitationExecutor:
    """Persuasive k-signal scheme built on the optimal n-signal scheme.

    Its sender utility is at least k/n times the n-signal optimum: with
    probability k/n the optimal recommendation already lies in the first k
    slots and is forwarded unchanged.
    """
    _check_family(instance, True, "imitation_scheme")
    n = _check_k(instance, k)
    base = slope_algorithm(instance, n)
    return ImitationExecutor(base=SlopeSchemeExecutor(base, n), k=k)


# --------------------------------------------------------------------------
# Tabular schemes (brute-force output and the bicriteria scheme)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TabularScheme:
    """An explicit state-to-recommendation table.

    ``fallback_slots`` enables a deterministic symmetric fallback for states
    missing from the table (used by sampling-based schemes): recommend
    uniformly among the listed slots holding the receiver-best type.  Such a
    scheme, fitted on the first k = len(fallback_slots) slots, may be keyed
    by k-slot states: a state missing from the table is looked up by its
    first k slots before it falls back.  With fallback disabled, unknown
    states are an error.
    """

    table: Mapping[State, Mapping[int, float]]
    fallback_slots: tuple[int, ...] | None = None

    def recommendation_distribution(self, state: State) -> dict[int, float]:
        dist = self.table.get(state)
        if dist is None and self.fallback_slots is not None:
            dist = self.table.get(state[: len(self.fallback_slots)])
        if dist is not None:
            return dict(dist)
        if self.fallback_slots is None:
            raise KeyError(f"state not covered by the scheme: {state!r}")
        best = max((state[i] for i in self.fallback_slots), key=lambda t: (t.rho, t.xi))
        slots = [i for i in self.fallback_slots if state[i].rho == best.rho and state[i].xi == best.xi]
        return {i: 1.0 / len(slots) for i in slots}

    def recommend(self, state: State, rng: np.random.Generator) -> int:
        return _sample_slot(self.recommendation_distribution(state), rng)


# --------------------------------------------------------------------------
# Bicriteria scheme on a sampled empirical distribution
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BicriteriaResult:
    """Scheme plus its metrics on the symmetrized sample it was fitted to:
    the sample with every state counted in each of its orders."""

    scheme: TabularScheme
    u_sender: float
    u_receiver: float
    max_regret: float
    samples: int
    epsilon: float


def bicriteria_scheme(
    instance: SymmetricInstance,
    k: int,
    epsilon: float,
    samples: int,
    rng: np.random.Generator | int | None = None,
) -> BicriteriaResult:
    """Epsilon-persuasive, approximately optimal scheme from sampled states.

    Draws an empirical sample of the first k slots of each state and
    maximizes empirical sender utility subject to relaxed persuasiveness:
    per recommended slot, the receiver's conditional regret against any
    other of the k slots is at most epsilon.  The prior is symmetric, so
    given a state's type multiset every order is equally likely, and the
    sample is counted in every order of each state.  That symmetrized
    sample is a d-random-order prior over the sampled multisets with
    n = k, on which every slot pair's regret row is the same row: regret
    k(rho_e - u_receiver)/(k - 1), with rho_e the sample's per-slot
    receiver mean.  So the fit is the slope algorithm's closed form on that
    prior at receiver threshold rho_e - (k - 1)·eps/k, with eps reduced by
    ``BICRITERIA_MARGIN``.  The reported metrics are that solution's, on
    the symmetrized sample.

    The returned table is keyed by the sampled k-slot states, each row the
    found slope scheme's recommendation on that state, split uniformly
    among slots holding the recommended type, so the scheme is symmetric by
    construction.  A state whose first k slots were not sampled in that
    order takes the fallback: the receiver-best type.  An int ``rng`` seeds
    a generator; a negative one is taken modulo 2^64, as `estimate` takes
    every seed.  ``samples`` must be an integer in [1,
    ``SAMPLER_MAX_SAMPLES``], checked before ``rng``, and an ``rng`` that
    is not a generator must be an integer; a bool or a float is refused.

    The sample is counted in the prior table's representation: a state is
    the tuple of its slots' table columns, as the sampler draws it, and a
    multiset is those columns sorted by id.  `State` tuples are formed only
    for the returned table's keys.
    """
    _check_family(instance, True, "bicriteria_scheme")
    samples = _check_count(samples, "samples", SAMPLER_MAX_SAMPLES)
    if rng is not None and not isinstance(rng, np.random.Generator):
        rng = _check_integer(rng, "rng")
        if rng < 0:
            rng %= 2**64
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    table = _prior_table(instance)
    for t in table.types:
        if not (-1 <= t.rho <= 1 and -1 <= t.xi <= 1):
            raise ValueError(
                f"type {t.id} has utilities outside [-1, 1]; the bicriteria "
                "guarantee is stated for that scaling"
            )
    _check_k(instance, k)
    rng = np.random.default_rng(rng)

    draw = _state_sampler(instance, k)
    counts: dict[tuple[int, ...], int] = {}  # states as prior-table columns
    for _ in range(samples):
        state = tuple(draw(rng))
        counts[state] = counts.get(state, 0) + 1

    # The symmetrized sample: a d-random-order prior over the sampled multisets.
    types, id_rank = table.types, table.id_rank.tolist()
    multisets: dict[tuple[int, ...], int] = {}
    for state, count in counts.items():
        key = tuple(sorted(state, key=id_rank.__getitem__))
        multisets[key] = multisets.get(key, 0) + count
    sample = DRandomOrderInstance(
        vectors=tuple(tuple(map(types.__getitem__, key)) for key in multisets),
        vector_probs=tuple(Fraction(count, samples) for count in multisets.values()),
    )
    rho_e = float(best_fixed_action_value(sample))
    eps_lp = max(epsilon - BICRITERIA_MARGIN, 0.0)
    found = _slope_sweep(sample, k, rho_e - (k - 1) * eps_lp / k)

    rule = _Tangency(found, table.rho_num, table.xi_num, [t.id for t in types])
    scheme = TabularScheme(
        table={tuple(map(types.__getitem__, state)): rule.distribution(state) for state in counts},
        fallback_slots=tuple(range(k)),
    )
    return BicriteriaResult(
        scheme=scheme,
        u_sender=found.u_sender,
        u_receiver=found.u_receiver,
        max_regret=max(0.0, k * (rho_e - found.u_receiver) / (k - 1)),
        samples=samples,
        epsilon=epsilon,
    )
