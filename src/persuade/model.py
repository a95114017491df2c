"""Instance model: action types, scenario instances, exact priors, JSON interchange.

Utilities and input probabilities are exact `fractions.Fraction` values so that
slope grouping and tie detection downstream can rely on exact comparisons.
Derived quantities (oracle probabilities, LP solutions) are floats.

Each instance's prior is read through one private table (`_prior_table`),
built on first use and kept on the instance: the oracle's exact ranks and
per-type weights, each type's utilities as integers over one common
denominator and as floats (the float view every float reader shares, equal
to `float` of the exact rationals), and the float CDFs from which
`_state_sampler` draws a state by inverting each slot's CDF at one uniform:
the generator calls the stream needs, then one lookup (a numpy
`searchsorted` or count, or a Python `bisect_right` per kept slot on small
prophet-secretary draws).  It consumes the generator exactly as one
`rng.choice` per slot would, so a seed always gives the same states.  A
sampled state is a row of the table's columns; `sample_state` maps it to
the `ActionType`s those columns stand for.

Instance fields never change after construction.  The table is not a field
(==, hash and repr ignore it); all of it is safe for concurrent reads.

The per-instance rules every entry point shares live here too: the family
check (`_check_family`: "<name> requires a symmetric instance" or "an
independent instance", a `TypeError`), the integer rule (`_check_integer`),
the signal count (`_check_k`) and a positive count such as a sample count
(`_check_count`).
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, Union

import numpy as np

__all__ = [
    "ActionType",
    "DRandomOrderInstance",
    "IIDInstance",
    "IndependentInstance",
    "Instance",
    "InstanceFormatError",
    "ProphetSecretaryInstance",
    "State",
    "SymmetricInstance",
    "all_types",
    "best_fixed_action_value",
    "fixture_names",
    "format_rational",
    "instance_from_dict",
    "instance_to_dict",
    "load_fixture",
    "load_instance",
    "n_slots",
    "parse_rational",
    "sample_state",
    "save_instance",
]


class InstanceFormatError(ValueError):
    """Raised when an instance document or constructor argument is malformed."""


def parse_rational(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int, a "p/q" string, or a Fraction."""
    if isinstance(value, bool):
        raise InstanceFormatError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceFormatError(f"not a rational: {value!r}") from exc
    raise InstanceFormatError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> int | str:
    """Format a rational for JSON: integers stay integers, otherwise "p/q"."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class ActionType:
    """One possible realization of an action: receiver utility rho, sender utility xi.

    Within an instance an id names one (rho, xi) pair, which several
    distributions may share; two distinct ids may also share the same
    (rho, xi) pair, so all set logic downstream is keyed by id.
    """

    id: str
    rho: Fraction
    xi: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.rho, Fraction) or not isinstance(self.xi, Fraction):
            raise InstanceFormatError(f"type {self.id!r}: utilities must be exact rationals")

    def __hash__(self) -> int:
        # Equal types share an id, so hashing the id alone is consistent with
        # equality and spares State-keyed dicts two Fraction hashes per type.
        return hash(self.id)


# A realized state assigns one type to every slot (symmetric) or action (independent).
State = tuple[ActionType, ...]

# (type, probability) pairs forming one discrete distribution.
TypeDist = tuple[tuple[ActionType, Fraction], ...]


def _check_distribution(dist: TypeDist, where: str) -> None:
    total = Fraction(0)
    for t, q in dist:
        if not isinstance(q, Fraction):
            raise InstanceFormatError(f"{where}: probability of {t.id!r} is not an exact rational")
        if q < 0:
            raise InstanceFormatError(f"{where}: negative probability for {t.id!r}")
        total += q
    if total != 1:
        raise InstanceFormatError(f"{where}: probabilities sum to {total}, expected 1")


def _merged(dist: TypeDist) -> TypeDist:
    """The distribution with one entry per type id, in first-listed order; an
    id listed more than once (with identical utilities) gets its summed
    probability."""
    merged: dict[str, tuple] = {}
    for t, q in dist:
        merged[t.id] = (t, merged[t.id][1] + q) if t.id in merged else (t, q)
    return tuple(merged.values())


@dataclass(frozen=True)
class IIDInstance:
    """n slots drawn independently from one shared palette of types."""

    palette: TypeDist
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InstanceFormatError("iid: n must be at least 1")
        if not self.palette:
            raise InstanceFormatError("iid: empty palette")
        _check_distribution(self.palette, "iid palette")
        _check_unique_ids(t for t, _ in self.palette)


@dataclass(frozen=True)
class ProphetSecretaryInstance:
    """n independent draws, one per distribution, observed in uniformly random order."""

    dists: tuple[TypeDist, ...]

    def __post_init__(self) -> None:
        if not self.dists:
            raise InstanceFormatError("prophet_secretary: no distributions")
        for i, dist in enumerate(self.dists):
            if not dist:
                raise InstanceFormatError(f"prophet_secretary: distribution {i} is empty")
            _check_distribution(dist, f"prophet_secretary distribution {i}")
        _check_unique_ids(t for dist in self.dists for t, _ in dist)


@dataclass(frozen=True)
class DRandomOrderInstance:
    """One of d fixed type vectors is drawn, then its entries are uniformly permuted."""

    vectors: tuple[tuple[ActionType, ...], ...]
    vector_probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.vectors:
            raise InstanceFormatError("d_random_order: no vectors")
        if len(self.vectors) != len(self.vector_probs):
            raise InstanceFormatError("d_random_order: vectors and vector_probs length mismatch")
        n = len(self.vectors[0])
        if n < 1:
            raise InstanceFormatError("d_random_order: empty vector")
        for j, vec in enumerate(self.vectors):
            if len(vec) != n:
                raise InstanceFormatError(f"d_random_order: vector {j} has length {len(vec)}, expected {n}")
        total = Fraction(0)
        for j, q in enumerate(self.vector_probs):
            if not isinstance(q, Fraction):
                raise InstanceFormatError(f"d_random_order: vector_probs[{j}] is not an exact rational")
            if q < 0:
                raise InstanceFormatError(f"d_random_order: vector_probs[{j}] is negative")
            total += q
        if total != 1:
            raise InstanceFormatError(f"d_random_order: vector_probs sum to {total}, expected 1")
        _check_unique_ids(t for vec in self.vectors for t in vec)


@dataclass(frozen=True)
class IndependentInstance:
    """n actions with independent type draws; signals recommend actions directly.

    `designated` is the index of the a-priori receiver-optimal action: the one
    maximizing expected receiver utility, ties broken by maximal expected sender
    utility, then by lowest index.
    """

    actions: tuple[TypeDist, ...]
    designated: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.actions:
            raise InstanceFormatError("independent: no actions")
        for i, dist in enumerate(self.actions):
            if not dist:
                raise InstanceFormatError(f"independent: action {i} has no types")
            _check_distribution(dist, f"independent action {i}")
        _check_unique_ids(t for dist in self.actions for t, _ in dist)
        best = max(
            range(len(self.actions)),
            key=lambda i: (
                sum(q * t.rho for t, q in self.actions[i]),
                sum(q * t.xi for t, q in self.actions[i]),
                -i,
            ),
        )
        object.__setattr__(self, "designated", best)


SymmetricInstance = Union[IIDInstance, ProphetSecretaryInstance, DRandomOrderInstance]
Instance = Union[SymmetricInstance, IndependentInstance]


def _check_unique_ids(types) -> None:
    seen: dict[str, ActionType] = {}
    for t in types:
        prev = seen.get(t.id)
        if prev is not None and prev != t:
            raise InstanceFormatError(f"duplicate type id {t.id!r} with conflicting utilities")
        seen[t.id] = t


def n_slots(instance: Instance) -> int:
    """Number of actions (equivalently observable slots) of an instance."""
    if isinstance(instance, IIDInstance):
        return instance.n
    if isinstance(instance, ProphetSecretaryInstance):
        return len(instance.dists)
    if isinstance(instance, DRandomOrderInstance):
        return len(instance.vectors[0])
    if isinstance(instance, IndependentInstance):
        return len(instance.actions)
    raise TypeError(f"not an instance: {instance!r}")


def is_symmetric(instance: Instance) -> bool:
    return not isinstance(instance, IndependentInstance)


def _check_family(instance: Instance, symmetric: bool, name: str) -> None:
    """Refuse an instance of the other family: ``name`` serves symmetric
    instances when ``symmetric`` is true, independent ones otherwise."""
    if is_symmetric(instance) != symmetric:
        raise TypeError(f"{name} requires {'a symmetric' if symmetric else 'an independent'} instance")


def _as_integer(value) -> int | None:
    """``value`` as an int, or None for a bool or a value that is not an
    integer (a float, even an integral one); numpy integers are accepted."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def _check_integer(value, name: str) -> int:
    """``value`` as an int, after refusing what `_as_integer` refuses."""
    result = _as_integer(value)
    if result is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return result


def _check_k(instance: Instance, k: int) -> int:
    """n, after checking that k is an integer and k signals fit: 2 <= k <= n."""
    _check_integer(k, "k")
    n = n_slots(instance)
    if not 2 <= k <= n:
        raise ValueError(f"k={k} outside [2, {n}]")
    return n


def all_types(instance: Instance) -> tuple[ActionType, ...]:
    """Every distinct type of the instance, in deterministic declaration order.

    A type object may back several distributions (shared supports are legal);
    it is listed once, at its first occurrence.
    """
    return _prior_table(instance).types


def best_fixed_action_value(instance: Instance) -> Fraction:
    """Expected receiver utility of the best fixed action, computed exactly.

    For symmetric instances every slot has the same marginal law, so this is
    the per-slot expectation; for independent instances it is the maximum over
    actions. A receiver who ignores all signals can always secure this value,
    which is why persuasive schemes must match it.  Computed on first use
    and then kept on the instance.
    """
    return _cached(instance, "_best_fixed_action_value", _best_fixed_value)


def _best_fixed_value(instance: Instance) -> Fraction:
    if isinstance(instance, IIDInstance):
        return sum((q * t.rho for t, q in instance.palette), Fraction(0))
    if isinstance(instance, ProphetSecretaryInstance):
        n = len(instance.dists)
        total = sum((q * t.rho for dist in instance.dists for t, q in dist), Fraction(0))
        return total / n
    if isinstance(instance, DRandomOrderInstance):
        total = Fraction(0)
        n = len(instance.vectors[0])
        for vec, qv in zip(instance.vectors, instance.vector_probs):
            total += qv * sum((t.rho for t in vec), Fraction(0)) / n
        return total
    if isinstance(instance, IndependentInstance):
        return max(sum((q * t.rho for t, q in dist), Fraction(0)) for dist in instance.actions)
    raise TypeError(f"not an instance: {instance!r}")


# --------------------------------------------------------------------------
# The prior table and sampling
# --------------------------------------------------------------------------

def _dense_rank(keys: list) -> np.ndarray:
    """0 for the smallest key, 1 for the next distinct one, and so on."""
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return np.array([rank[key] for key in keys])


def _cached(instance: Instance, name: str, build: Callable):
    """``build(instance)``, computed on first use and kept in the instance's
    ``__dict__`` under ``name`` as `functools.cached_property` keeps values:
    not a field, so constructors, ==, hash and repr ignore it."""
    cache = vars(instance)
    if name not in cache:
        cache[name] = build(instance)
    return cache[name]


@dataclass(frozen=True)
class _PriorTable:
    """One instance's prior, type by type (column j is ``types[j]``).

    ``weights`` is the palette's mass vector (IID), the n x T mass matrix
    (prophet-secretary, independent) or the V x T entry-count matrix
    (d-random-order); ``positive`` marks weights backed by a positive exact
    probability.  ``rho_num``/``xi_num`` are the utilities over their common
    denominator ``scale``, so exact keys are integers; ``rho``/``xi`` are
    the float view, ``rho_num[j] / scale``, the correctly rounded float of
    the exact utility (equal to ``float(types[j].rho)``).  ``cdfs`` has one
    CDF row per listed distribution (d-random-order: one, over the
    vectors), formed as `Generator.choice` forms it from ``p`` and padded
    with 2.0, above every uniform draw; row i's outcomes, as columns, start
    at ``outcomes[offsets[i]]`` (d-random-order: row v of ``outcomes`` holds
    vector v's columns).  The arrays are read-only, because every caller
    shares them.
    """

    types: tuple[ActionType, ...]
    rho_num: tuple[int, ...]
    xi_num: tuple[int, ...]
    scale: int
    rho: tuple[float, ...]
    xi: tuple[float, ...]
    point_rank: np.ndarray  # dense rank of (rho, xi): equal exactly for coincident types
    id_rank: np.ndarray  # rank of the id in string order
    weights: np.ndarray
    positive: np.ndarray
    vector_probs: tuple[Fraction, ...]  # d-random-order only, else empty
    outcomes: np.ndarray
    offsets: np.ndarray
    cdfs: np.ndarray

    @staticmethod
    def build(prior: Instance) -> "_PriorTable":
        dro = isinstance(prior, DRandomOrderInstance)
        if dro:  # the sampler's one distribution is over the vectors
            dists = (tuple(zip(prior.vectors, prior.vector_probs)),)
        elif isinstance(prior, IIDInstance):
            dists = (prior.palette,)
        elif isinstance(prior, ProphetSecretaryInstance):
            dists = prior.dists
        elif isinstance(prior, IndependentInstance):
            dists = prior.actions
        else:
            raise TypeError(f"not an instance: {prior!r}")
        listed = [t for vec in prior.vectors for t in vec] if dro else [t for d in dists for t, _ in d]
        types = tuple({t.id: t for t in listed}.values())
        col = {t.id: j for j, t in enumerate(types)}
        if dro:
            outcomes = np.array([[col[t.id] for t in vec] for vec in prior.vectors])
            weights = np.zeros((len(prior.vectors), len(types)), dtype=np.int64)
            np.add.at(weights, (np.arange(len(outcomes))[:, None], outcomes), 1)
            positive = weights > 0
        else:
            outcomes = np.array([col[t.id] for d in dists for t, _ in d])
            cell = ([i for i, d in enumerate(dists) for _ in d], outcomes)
            qs = [q for d in dists for _, q in d]
            weights = np.zeros((len(dists), len(types)))
            np.add.at(weights, cell, [q.numerator / q.denominator for q in qs])
            positive = np.zeros(weights.shape, dtype=bool)
            np.logical_or.at(positive, cell, [q.numerator > 0 for q in qs])
            if isinstance(prior, IIDInstance):
                weights, positive = weights[0], positive[0]
        sizes = [len(d) for d in dists]
        cdfs = np.full((len(dists), max(sizes)), 2.0)
        for i, d in enumerate(dists):
            p = np.array([q.numerator / q.denominator for _, q in d])
            p /= p.sum()
            cdf = p.cumsum()
            cdfs[i, : sizes[i]] = cdf / cdf[-1]
        scale = math.lcm(*(c.denominator for t in types for c in (t.rho, t.xi)))
        rho_num = tuple(t.rho.numerator * (scale // t.rho.denominator) for t in types)
        xi_num = tuple(t.xi.numerator * (scale // t.xi.denominator) for t in types)
        table = _PriorTable(
            types,
            rho_num,
            xi_num,
            scale,
            tuple(r / scale for r in rho_num),  # int / int rounds the exact ratio once
            tuple(x / scale for x in xi_num),
            _dense_rank(list(zip(rho_num, xi_num))),
            _dense_rank([t.id for t in types]),
            weights,
            positive,
            prior.vector_probs if dro else (),
            outcomes,
            np.cumsum([0] + sizes[:-1]),
            cdfs,
        )
        for array in (table.point_rank, table.id_rank, weights, positive, outcomes, table.offsets, cdfs):
            array.flags.writeable = False
        return table


def _prior_table(instance: Instance) -> _PriorTable:
    """The instance's prior table, built on first use and then kept on the
    instance."""
    return _cached(instance, "_prior_table", _PriorTable.build)


# Most slots one draw may generate: a draw holds a few arrays of that length, so
# drawing whole states of an IID prior with n = 10^9 is refused instead of
# asking numpy for gigabytes.
SAMPLER_MAX_SLOTS = 10**7
# Most states one `estimate` or `bicriteria_scheme` call may draw, checked
# before the first: at tens of thousands a second, 10^12 would take days.
SAMPLER_MAX_SAMPLES = 10**8


def _check_count(value, name: str, most: int | None = None) -> int:
    """``value`` as an int, after checking that it is an integer of at least
    1 and at most ``most``, if given: a sample count is checked with
    ``most=SAMPLER_MAX_SAMPLES``."""
    value = _check_integer(value, name)
    if value < 1:
        raise ValueError(f"{name} must be at least 1")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}, got {value}")
    return value


# Bounds of the prophet-secretary bisect draw: on a prior of at most
# _BISECT_MAX_ROWS slots, a draw keeping at most _BISECT_MAX_SLOTS shuffles a
# list of the rows and bisects each kept slot's CDF in Python.  Past either
# bound numpy's count over the kept rows is cheaper, since the list shuffle
# costs more per slot than `permutation(n)` and a bisect more per kept slot
# than the vectorised count (measured crossovers: about n = 300 at k = 10,
# and k = 40-48 at n = 200).
_BISECT_MAX_ROWS = 256
_BISECT_MAX_SLOTS = 32


def _state_sampler(
    instance: Instance, slots: int | None = None, *, whole_stream: bool = False
) -> Callable[[np.random.Generator], list[int]]:
    """Return a function drawing one state from a generator, off the
    instance's prior table, as the list of its slots' table columns
    (``_prior_table(instance).types[c]`` is the type in a slot holding
    column c).  Two threads making an instance's first call at once may
    both build the table: harmless, since the tables are equal.

    Each state holds the first ``slots`` slots (all n by default).  A
    permutation prior draws its whole random order and keeps the first
    ``slots`` slots, which leaves each kept slot's marginal law that of the
    full instance; an independent prior draws every slot and keeps the
    first ``slots``.  So these states are the first ``slots`` columns of the
    full draw, and the generator ends where the full draw leaves it.  IID
    slots are independent, so only the kept ones are drawn, unless
    ``whole_stream`` asks for all n slots' uniforms as the full draw takes
    them.

    The stream contract: each draw consumes the generator exactly as one
    `rng.choice(len(d), p=d)` per drawn slot in slot order would.
    Prophet-secretary takes `permutation(n)` and then one uniform per slot,
    IID and independent priors one uniform per slot, d-random-order one
    uniform for the vector and then the permutation.  So a seed gives the
    same states as a per-slot `choice` sampler.

    Past those generator calls a draw pays for one lookup, and everything
    it reads is fixed when the sampler is built.  A slot's column is the
    count of its CDF's entries <= u, which is `choice`'s
    ``searchsorted(u, "right")``:

    * IID: one ``searchsorted`` of the kept uniforms on the palette's CDF;
    * independent: one comparison of the kept uniforms with the first
      ``slots`` CDF rows, a sum per row and a gather;
    * prophet-secretary with n <= ``_BISECT_MAX_ROWS`` and ``slots <=
      _BISECT_MAX_SLOTS``: `rng.shuffle` of a list of the instance's rows
      (`_sampler_rows`), which makes the swaps of `permutation(n)`'s
      shuffle, then one `bisect_right` per kept slot; past either bound the
      permutation's rows are counted in numpy as independent rows are;
    * d-random-order: `bisect_right` for the vector, then `rng.shuffle` of
      a copy of its columns, both read off `_sampler_rows`.
    """
    n = n_slots(instance)
    slots = n if slots is None else slots
    if slots > n:
        raise ValueError(f"state has {n} slots, scheme needs {slots}")
    drawn = slots if isinstance(instance, IIDInstance) and not whole_stream else n
    if drawn > SAMPLER_MAX_SLOTS:
        raise ValueError(
            f"cannot sample states of {drawn} slots, more than the "
            f"sampler's limit of {SAMPLER_MAX_SLOTS}"
        )
    table = _prior_table(instance)
    outcomes, offsets, cdfs = table.outcomes, table.offsets, table.cdfs
    if isinstance(instance, DRandomOrderInstance):
        # bisect_right is searchsorted(u, "right") on the CDF row, and
        # shuffling a copy of the vector's columns makes the swaps of
        # permutation(n)'s shuffle, so it equals the vector read in that order.
        cdf, vectors = _sampler_rows(instance)[0]

        def draw(rng: np.random.Generator) -> list[int]:
            state = vectors[bisect_right(cdf, rng.random())].copy()
            rng.shuffle(state)
            del state[slots:]
            return state

        return draw
    if isinstance(instance, IIDInstance):
        cdf = cdfs[0]

        def draw(rng: np.random.Generator) -> list[int]:
            return outcomes[cdf.searchsorted(rng.random(drawn)[:slots], "right")].tolist()

        return draw
    if isinstance(instance, IndependentInstance):
        kept_cdfs, kept_offsets = cdfs[:slots], offsets[:slots]

        def draw(rng: np.random.Generator) -> list[int]:
            u = rng.random(n)[:slots]  # a row's entries <= u count as its searchsorted(u, "right")
            return outcomes[kept_offsets + (kept_cdfs <= u[:, None]).sum(axis=1)].tolist()

        return draw
    if n <= _BISECT_MAX_ROWS and slots <= _BISECT_MAX_SLOTS:
        # Shuffling a list of the rows makes the swaps of permutation(n)'s
        # shuffle, and bisect_right is searchsorted(u, "right") on a row's CDF.
        rows = _sampler_rows(instance)

        def draw(rng: np.random.Generator) -> list[int]:
            order = list(rows)
            rng.shuffle(order)
            u = rng.random(n)[:slots].tolist()
            return [cols[bisect_right(cdf, x)] for (cdf, cols), x in zip(order, u)]

        return draw

    def draw(rng: np.random.Generator) -> list[int]:
        rows = rng.permutation(n)[:slots]
        u = rng.random(n)[:slots]
        # take() gathers the rows faster than cdfs[rows] does.
        return outcomes[offsets[rows] + (cdfs.take(rows, axis=0) <= u[:, None]).sum(axis=1)].tolist()

    return draw


def _sampler_rows(instance: Instance) -> tuple[tuple[tuple[float, ...], tuple], ...]:
    """Per listed distribution, its CDF and its outcomes' columns as tuples
    sized to its support: the prior table's rows in the form a per-slot
    `bisect_right` reads.  A d-random-order prior's one row is over its
    vectors, each outcome the list of a vector's columns (the draw shuffles
    a copy).  Built on first use and then kept on the instance, so every
    sampler shares them."""

    def build(instance: Instance) -> tuple:
        table = _prior_table(instance)
        columns = table.outcomes.tolist()
        ends = table.offsets.tolist()[1:] + [len(columns)]
        return tuple(
            (tuple(cdf[: end - start]), tuple(columns[start:end]))
            for cdf, start, end in zip(table.cdfs.tolist(), table.offsets.tolist(), ends)
        )

    return _cached(instance, "_sampler_rows", build)


def sample_state(instance: Instance, rng: np.random.Generator) -> State:
    """Draw one state from the instance's prior using the supplied generator.

    Sampling converts exact probabilities to floats; exact computations should
    use `persuade.exact_oracle.enumerate_prior` instead.  The sampler draws a
    row of prior-table columns, mapped here to their types; loops over many
    states should build the sampler once (`_state_sampler`) and keep the
    columns, as `estimate` does.  The stream, and so the states drawn, is
    the same.
    """
    types = _prior_table(instance).types
    return tuple(map(types.__getitem__, _state_sampler(instance)(rng)))


# --------------------------------------------------------------------------
# JSON interchange
# --------------------------------------------------------------------------

def _type_from_dict(obj: dict, where: str, want_q: bool) -> tuple[ActionType, Fraction | None]:
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where}: expected a type object, got {obj!r}")
    try:
        tid = obj["id"]
        rho = parse_rational(obj["rho"])
        xi = parse_rational(obj["xi"])
    except KeyError as exc:
        raise InstanceFormatError(f"{where}: missing field {exc.args[0]!r}") from exc
    if not isinstance(tid, str) or not tid:
        raise InstanceFormatError(f"{where}: type id must be a non-empty string")
    q: Fraction | None = None
    if want_q:
        if "q" not in obj:
            raise InstanceFormatError(f"{where}: missing probability 'q'")
        q = parse_rational(obj["q"])
    return ActionType(id=tid, rho=rho, xi=xi), q


def _type_to_dict(t: ActionType, q: Fraction | None = None) -> dict:
    obj: dict = {"id": t.id, "rho": format_rational(t.rho), "xi": format_rational(t.xi)}
    if q is not None:
        obj["q"] = format_rational(q)
    return obj


def instance_from_dict(doc: dict) -> Instance:
    """Build an instance from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"instance document must be an object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind == "iid":
        n = doc.get("n")
        if isinstance(n, bool) or not isinstance(n, int):
            raise InstanceFormatError("iid: 'n' must be an integer")
        palette = tuple(
            _type_from_dict(o, "iid palette", want_q=True) for o in doc.get("palette", [])
        )
        return IIDInstance(palette=tuple((t, q) for t, q in palette), n=n)
    if kind == "prophet_secretary":
        dists = []
        for i, raw in enumerate(doc.get("dists", [])):
            dists.append(
                tuple((t, q) for t, q in (_type_from_dict(o, f"dist {i}", want_q=True) for o in raw))
            )
        return ProphetSecretaryInstance(dists=tuple(dists))
    if kind == "d_random_order":
        vectors = []
        for j, raw in enumerate(doc.get("vectors", [])):
            vectors.append(tuple(_type_from_dict(o, f"vector {j}", want_q=False)[0] for o in raw))
        probs = tuple(parse_rational(v) for v in doc.get("vector_probs", []))
        return DRandomOrderInstance(vectors=tuple(vectors), vector_probs=probs)
    if kind == "independent":
        actions = []
        for i, raw in enumerate(doc.get("actions", [])):
            actions.append(
                tuple((t, q) for t, q in (_type_from_dict(o, f"action {i}", want_q=True) for o in raw))
            )
        return IndependentInstance(actions=tuple(actions))
    raise InstanceFormatError(f"unknown instance kind: {kind!r}")


def instance_to_dict(instance: Instance) -> dict:
    """Serialize an instance to a JSON-ready document (exact round trip)."""
    if isinstance(instance, IIDInstance):
        return {
            "kind": "iid",
            "n": instance.n,
            "palette": [_type_to_dict(t, q) for t, q in instance.palette],
        }
    if isinstance(instance, ProphetSecretaryInstance):
        return {
            "kind": "prophet_secretary",
            "dists": [[_type_to_dict(t, q) for t, q in dist] for dist in instance.dists],
        }
    if isinstance(instance, DRandomOrderInstance):
        return {
            "kind": "d_random_order",
            "vectors": [[_type_to_dict(t) for t in vec] for vec in instance.vectors],
            "vector_probs": [format_rational(q) for q in instance.vector_probs],
        }
    if isinstance(instance, IndependentInstance):
        return {
            "kind": "independent",
            "actions": [[_type_to_dict(t, q) for t, q in dist] for dist in instance.actions],
        }
    raise TypeError(f"not an instance: {instance!r}")


def load_instance(source: str | Path | dict) -> Instance:
    """Load an instance from a JSON file path or an already-parsed document."""
    if isinstance(source, dict):
        return instance_from_dict(source)
    path = Path(source)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: invalid JSON: {exc}") from exc
    return instance_from_dict(doc)


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2) + "\n")


def fixture_names() -> tuple[str, ...]:
    """Names of the example instances shipped with the package."""
    root = resources.files(__package__) / "fixtures"
    return tuple(
        sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))
    )


def load_fixture(name: str) -> Instance:
    """Load a shipped example instance by name; see fixture_names()."""
    path = resources.files(__package__) / "fixtures" / f"{name}.json"
    try:
        text = path.read_text()
    except FileNotFoundError:
        known = ", ".join(fixture_names())
        raise InstanceFormatError(f"no fixture named {name!r}; shipped fixtures: {known}")
    return instance_from_dict(json.loads(text))
