"""Seeded instance generators shared by the unit and acceptance suites."""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np

from persuade.geometry import NEG_INF
from persuade.lp_core import LinearProgram, solve_lp
from persuade.model import (
    ActionType,
    DRandomOrderInstance,
    IIDInstance,
    IndependentInstance,
    ProphetSecretaryInstance,
    _merged,
    best_fixed_action_value,
)
from persuade.prob_oracle import segment_probabilities

SYMMETRIC_SEED = 20240817
INDEPENDENT_SEED = 20240818


def frac(rng: np.random.Generator, lo: int = 0, hi: int = 12, den: int = 12) -> Fraction:
    return Fraction(int(rng.integers(lo, hi + 1)), den)


def random_types(
    rng: np.random.Generator, count: int, first_id: int, dup_chance: float = 0.35
) -> list[ActionType]:
    """Random type points; reuses coordinates now and then to exercise tie rules."""
    out: list[ActionType] = []
    for j in range(count):
        if out and rng.random() < dup_chance:
            src = out[int(rng.integers(len(out)))]
            out.append(ActionType(f"t{first_id + j}", src.rho, src.xi))
        else:
            out.append(ActionType(f"t{first_id + j}", frac(rng), frac(rng)))
    return out


def random_dist(rng: np.random.Generator, types: list[ActionType]):
    raws = [int(x) for x in rng.integers(1, 5, size=len(types))]
    total = sum(raws)
    return tuple((t, Fraction(x, total)) for t, x in zip(types, raws))


def random_symmetric(rng: np.random.Generator):
    """One random symmetric instance: iid, prophet-secretary or d-random-order.

    Sizes stay small enough (n <= 5, d <= 3, supports <= 4) that the
    brute-force oracle remains cheap at every k.
    """
    kind = int(rng.integers(3))
    if kind == 0:
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        return IIDInstance(palette=random_dist(rng, random_types(rng, m, 0)), n=n)
    if kind == 1:
        if rng.random() < 0.2:
            n, m_hi = 5, 2
        else:
            n, m_hi = int(rng.integers(2, 5)), 3
        tid = 0
        dists = []
        for _ in range(n):
            m = int(rng.integers(1, m_hi + 1))
            dists.append(random_dist(rng, random_types(rng, m, tid)))
            tid += m
        return ProphetSecretaryInstance(dists=tuple(dists))
    d = int(rng.integers(1, 4))
    n = int(rng.integers(2, 6))
    tid = 0
    vectors = []
    for _ in range(d):
        vectors.append(tuple(random_types(rng, n, tid)))
        tid += n
    raws = [int(x) for x in rng.integers(1, 5, size=d)]
    total = sum(raws)
    return DRandomOrderInstance(
        vectors=tuple(vectors),
        vector_probs=tuple(Fraction(x, total) for x in raws),
    )


def shared_type_priors(rng: np.random.Generator, count: int) -> list:
    """Priors that reuse type ids: prophet-secretary distributions sharing
    some of their types (e.g. over {a, b}, {b, c} and {a, c}), and
    d-random-order vectors holding a type in several entries."""
    out = []
    for _ in range(count):
        pool = random_types(rng, int(rng.integers(3, 5)), 0)
        dists = []
        for _ in range(int(rng.integers(3, 5))):
            picks = sorted(rng.choice(len(pool), size=2, replace=False))
            dists.append(random_dist(rng, [pool[j] for j in picks]))
        out.append(ProphetSecretaryInstance(dists=tuple(dists)))
        n = int(rng.integers(3, 6))
        vectors = tuple(
            tuple(pool[int(j)] for j in rng.integers(len(pool), size=n))
            for _ in range(int(rng.integers(1, 3)))
        )
        weights = [Fraction(int(w)) for w in rng.integers(1, 4, size=len(vectors))]
        out.append(DRandomOrderInstance(
            vectors=vectors, vector_probs=tuple(w / sum(weights) for w in weights)
        ))
    return out


def symmetric_corpus(count: int = 200, seed: int = SYMMETRIC_SEED) -> list:
    rng = np.random.default_rng(seed)
    return [random_symmetric(rng) for _ in range(count)]


def probe_slopes(instance, k: int) -> list:
    """Slopes at which the oracle tests query the frontier-event tables,
    sorted: -inf, every segment slope, one probe inside each open interval
    between adjacent segment slopes and beyond them, and 0.  The slope
    sweep needs only -inf and the segment slopes; the probes and 0 keep the
    oracles checked between and beyond them."""
    finite = sorted({seg.slope for seg in segment_probabilities(instance, k)})
    slopes = {Fraction(0), *finite}
    if finite:
        slopes.update([finite[0] - 1, finite[-1] / 2])
        slopes.update((lo + hi) / 2 for lo, hi in zip(finite, finite[1:]))
    return [NEG_INF, *sorted(slopes)]


def random_best_fixed_deterministic(rng: np.random.Generator, n: int) -> IndependentInstance:
    """Independent instance whose best fixed action is deterministic.

    One anchor action pays the best fixed receiver value with certainty, every
    other action stays at or below it in expectation, and all utilities live
    in [0, 1] so a cascading fallback never costs the sender.
    """
    anchor = int(rng.integers(n))
    rho_e = Fraction(int(rng.integers(3, 10)), 12)
    m_hi = 2 if n >= 7 else 3
    actions = []
    tid = 0
    for i in range(n):
        if i == anchor:
            xi = Fraction(int(rng.integers(0, 5)), 8)
            actions.append(((ActionType(f"t{tid}", rho_e, xi), Fraction(1)),))
            tid += 1
            continue
        m = int(rng.integers(1, m_hi + 1))
        raws = [int(x) for x in rng.integers(1, 5, size=m)]
        qs = [Fraction(x, sum(raws)) for x in raws]
        while True:
            rhos = [Fraction(int(rng.integers(0, 13)), 12) for _ in range(m)]
            if sum(q * r for q, r in zip(qs, rhos)) <= rho_e:
                break
        actions.append(
            tuple(
                (ActionType(f"t{tid + j}", rhos[j], Fraction(int(rng.integers(0, 9)), 8)), qs[j])
                for j in range(m)
            )
        )
        tid += m
    return IndependentInstance(actions=tuple(actions))


def independent_corpus(count: int = 100, seed: int = INDEPENDENT_SEED) -> list[IndependentInstance]:
    rng = np.random.default_rng(seed)
    return [random_best_fixed_deterministic(rng, int(rng.integers(3, 9))) for _ in range(count)]



def relaxation_lp(inst: IndependentInstance, S) -> LinearProgram:
    """The shared-budget relaxation over S plus the designated action as the
    LP that f_of_S solved on HiGHS before it read its optimum off the value
    curves: one budget column per action, then one acceptance column per
    (action, type id).  The tests keep it as f_of_S's reference."""
    actions = sorted({*S, inst.designated})
    rho_e = best_fixed_action_value(inst)
    dists = {a: _merged(inst.actions[a]) for a in actions}
    z_col = {a: idx for idx, a in enumerate(actions)}
    x_col = {}
    objective = [0.0] * len(actions)
    bounds = [(0.0, 1.0)] * len(actions)
    for a in actions:
        for t, q in dists[a]:
            x_col[(a, t.id)] = len(objective)
            objective.append(float(t.xi))
            bounds.append((0.0, float(q)))
    rows = [({z_col[a]: 1.0 for a in actions}, "<=", 1.0)]
    for a in actions:
        fit = {x_col[(a, t.id)]: 1.0 for t, _ in dists[a]}
        fit[z_col[a]] = -1.0
        rows.append((fit, "<=", 0.0))
        rows.append(({x_col[(a, t.id)]: float(t.rho - rho_e) for t, _ in dists[a]}, ">=", 0.0))
    return LinearProgram(objective=tuple(objective), rows=tuple(rows), bounds=tuple(bounds))


def reference_relaxation(inst: IndependentInstance, S) -> tuple[float, dict[int, float]]:
    """``relaxation_lp`` solved on HiGHS: its objective and each action's
    contribution sum_j xi_j x_ij, in the LP's own optimal solution."""
    actions = sorted({*S, inst.designated})
    solution = solve_lp(relaxation_lp(inst, S))
    assert solution.status == "optimal"
    values = iter(solution.values[len(actions):])
    per_action = {
        a: sum(float(t.xi) * next(values) for t, _ in _merged(inst.actions[a])) for a in actions
    }
    return solution.objective, per_action

def perfbench(name: str):
    """The benchmark harness's module ``perfbench/<name>.py``: `gen` writes
    the workloads' instance documents from a seed, and `instances.load`
    reads them, including prophet-secretary ones whose distributions share
    type ids, which `instance_from_dict` refuses."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# No bundled fixture is a prophet-secretary prior, so the golden tests use this one.
PROPHET_SECRETARY_DOC = {"kind": "prophet_secretary", "dists": [
    [{"id": "a", "rho": "1/2", "xi": 1, "q": "1/2"}, {"id": "b", "rho": 1, "xi": 0, "q": "1/2"}],
    [{"id": "c", "rho": "3/4", "xi": "1/2", "q": "1/3"}, {"id": "d", "rho": 0, "xi": 1, "q": "2/3"}],
    [{"id": "e", "rho": "1/4", "xi": "3/4", "q": 1}],
    [{"id": "f", "rho": 1, "xi": "1/4", "q": "1/4"}, {"id": "g", "rho": "1/3", "xi": "1/3", "q": "3/4"}],
]}


def big_prophet_secretary(seed: int = 20240819) -> ProphetSecretaryInstance:
    """Eight two-type distributions: too many states to enumerate exactly."""
    rng = np.random.default_rng(seed)
    tid = 0
    dists = []
    for _ in range(8):
        raws = [int(x) for x in rng.integers(1, 5, size=2)]
        qs = [Fraction(x, sum(raws)) for x in raws]
        dists.append(
            tuple(
                (
                    ActionType(
                        f"t{tid + j}",
                        Fraction(int(rng.integers(0, 13)), 12),
                        Fraction(int(rng.integers(0, 13)), 12),
                    ),
                    qs[j],
                )
                for j in range(2)
            )
        )
        tid += 2
    return ProphetSecretaryInstance(dists=tuple(dists))
