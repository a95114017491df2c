"""Seeded input generators for the benchmark workloads.

Every generator returns plain instance documents (the JSON shape the
package reads), built from `random.Random(seed)` alone.  Nothing here
imports the package or the test suite, so neither a change to the program
nor an edit to `tests/corpus.py` can shift the inputs of a given seed.

Utilities and probabilities are exact rationals written as "p/q" strings.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

# The sizes below are the workload definitions; README.md lists them.
LARGE_PS = {"n": 200, "pool": 14, "slopes": 35, "k": 10, "samples": 200}
LARGE_IID = {"n": 80, "palette": 10, "slopes": 19, "k": 8, "samples": 200}
LARGE_DRO = {"n": 20, "d": 2, "slopes": (59, 63), "k": 5, "samples": 2000}
CORPUS_SIM_SAMPLES = 8000
# Bicriteria runs at fixed (shape index, k), one per prior family.
CORPUS_BICRITERIA = {"runs": ((2, 2), (2, 3), (10, 2), (10, 3), (17, 2), (17, 3)),
                     "epsilon": 0.05, "samples": 3000}
INDEP_LARGE = ({"n": 30, "k": 3}, {"n": 40, "k": 4}, {"n": 50, "k": 3},
               {"n": 60, "k": 3}, {"n": 70, "k": 2}, {"n": 80, "k": 2})
INDEP_SMALL = ((4, 2), (4, 3), (5, 2), (5, 4), (6, 3), (6, 5), (7, 2), (7, 4))  # (n, k)
INDEP_SIM_SAMPLES = 250

# Fixed inputs that fail today (see README.md, "Known faults").  They do not
# depend on the seed, so every round fails them the same way.
OVERFLOW_IID = {
    "doc": {
        "kind": "iid",
        "n": 1200,
        "palette": [
            {"id": "hi", "rho": 1, "xi": "1/4", "q": "1/2"},
            {"id": "lo", "rho": 0, "xi": 1, "q": "1/2"},
        ],
    },
    "k": 600,
}
FPTAS_FAULT = {
    "doc": json.loads((HERE / "inputs" / "fptas_fault.json").read_text()),
    "k": (4, 5),
    "epsilon": 0.1,  # the set falls below 1-epsilon for epsilon < 0.103
}

# Copies of the package's bundled small fixtures, with the k each is
# simulated at, so that the corpus simulation does not move when a
# fixture file is edited.
SIM_FIXTURES = (("ratio_iid", 2), ("tug_of_war", 2), ("tight_random_order", 2))


def rat(value: Fraction) -> int | str:
    value = Fraction(value)
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _grid(rng: random.Random, den: int) -> Fraction:
    return Fraction(rng.randint(0, den), den)


def _weights(rng: random.Random, m: int, hi: int = 4) -> list[Fraction]:
    raws = [rng.randint(1, hi) for _ in range(m)]
    return [Fraction(r, sum(raws)) for r in raws]


def _type(tid: str, rho: Fraction, xi: Fraction, q: Fraction | None = None) -> dict:
    out = {"id": tid, "rho": rat(rho), "xi": rat(xi)}
    if q is not None:
        out["q"] = rat(q)
    return out


def fixture_doc(name: str) -> dict:
    return json.loads((HERE / "inputs" / f"{name}.json").read_text())


# --------------------------------------------------------------------------
# symmetric-large
# --------------------------------------------------------------------------

def negative_slopes(points, k: int | None = None) -> int:
    """Distinct negative slopes among pairs of integer grid points (rho, xi).

    With `k`, a pair counts only when at least k-2 other points lie strictly
    below its line, so that k slots can realise it as a frontier segment.
    The slope sweep evaluates about two candidates per distinct slope, so
    fixing this count fixes the length of the sweep.
    """
    out = set()
    for i, (ra, xa) in enumerate(points):
        for j in range(i + 1, len(points)):
            (r0, x0), (r1, x1) = sorted((points[i], points[j]))
            if r0 == r1 or x1 >= x0:
                continue
            if k is not None:
                below = sum(1 for r, x in points if (x - x0) * (r1 - r0) < (x1 - x0) * (r - r0))
                if below < k - 2:
                    continue
            out.add(Fraction(x1 - x0, r1 - r0))
    return len(out)


def _points(rng: random.Random, count: int, hi: int) -> list[tuple[int, int]]:
    return [(rng.randint(0, hi), rng.randint(0, hi)) for _ in range(count)]


def _points_with_slopes(rng: random.Random, count: int, hi: int, target: int):
    while True:
        pts = _points(rng, count, hi)
        if negative_slopes(pts) == target:
            return pts


def smoke_prophet_secretary(rng: random.Random) -> dict:
    """Built like the Tier-1 smoke instance: n distributions over one pool of
    distinct types on a 1/24 grid, each distribution holding 1-3 pool types.

    Pool types are shared across distributions, so a type id repeats in the
    document with the same utilities.
    """
    pts = _points_with_slopes(rng, LARGE_PS["pool"], 25, LARGE_PS["slopes"])
    pool = [(f"p{i}", Fraction(r, 24), Fraction(x, 24)) for i, (r, x) in enumerate(pts)]
    dists = []
    for _ in range(LARGE_PS["n"]):
        m = rng.randint(1, 3)
        picks = rng.sample(range(len(pool)), m)
        dists.append([_type(*pool[p], q) for p, q in zip(picks, _weights(rng, m))])
    return {"kind": "prophet_secretary", "dists": dists}


def large_iid(rng: random.Random) -> dict:
    pts = _points_with_slopes(rng, LARGE_IID["palette"], 24, LARGE_IID["slopes"])
    palette = [
        _type(f"c{j}", Fraction(r, 24), Fraction(x, 24), q)
        for j, ((r, x), q) in enumerate(zip(pts, _weights(rng, len(pts))))
    ]
    return {"kind": "iid", "n": LARGE_IID["n"], "palette": palette}


def large_dro(rng: random.Random) -> dict:
    n, d, k = LARGE_DRO["n"], LARGE_DRO["d"], LARGE_DRO["k"]
    vectors = []
    for j in range(d):
        lo, hi = LARGE_DRO["slopes"]
        while True:
            pts = _points(rng, n, 24)
            if lo <= negative_slopes(pts, k) <= hi:
                break
        vectors.append([_type(f"v{j}_{i}", Fraction(r, 24), Fraction(x, 24))
                        for i, (r, x) in enumerate(pts)])
    return {
        "kind": "d_random_order",
        "vectors": vectors,
        "vector_probs": [rat(q) for q in _weights(rng, d)],
    }


def symmetric_large(seed: int) -> list[dict]:
    rng = random.Random(f"symmetric-large/{seed}")
    cases = []
    for name, make, size in (("prophet_secretary", smoke_prophet_secretary, LARGE_PS),
                             ("iid", large_iid, LARGE_IID),
                             ("d_random_order", large_dro, LARGE_DRO)):
        cases.append({"name": name, "doc": make(rng), "k": size["k"], "samples": size["samples"],
                      "sim_seed": rng.randrange(2**31), "mc_seed": rng.randrange(2**31)})
    return cases


# --------------------------------------------------------------------------
# symmetric-corpus: many small symmetric instances (n <= 5)
# --------------------------------------------------------------------------

def _small_types(rng: random.Random, count: int, first: int) -> list[tuple]:
    """Grid points on twelfths; repeats coordinates now and then (under a new
    id) so the tie-breaking rules get exercised."""
    out: list[tuple] = []
    for j in range(count):
        if out and rng.random() < 0.35:
            _, rho, xi = rng.choice(out)
        else:
            rho, xi = _grid(rng, 12), _grid(rng, 12)
        out.append((f"t{first + j}", rho, xi))
    return out


# The corpus make-up, fixed so every seed brings the same amount of work:
# ("iid", n, palette size), ("prophet_secretary", support sizes),
# ("d_random_order", d, n).  Contents are drawn from the seed.
CORPUS_SHAPES = (
    ("iid", 2, 4), ("iid", 3, 2), ("iid", 3, 4), ("iid", 4, 2),
    ("iid", 4, 3), ("iid", 4, 4), ("iid", 5, 2), ("iid", 5, 3),
    ("prophet_secretary", (3, 3)), ("prophet_secretary", (2, 3, 1)),
    ("prophet_secretary", (3, 3, 3)), ("prophet_secretary", (2, 2, 3, 1)),
    ("prophet_secretary", (3, 1, 2, 3)), ("prophet_secretary", (1, 3, 3, 2)),
    ("prophet_secretary", (1, 2, 1, 1, 2)),
    ("d_random_order", 2, 2), ("d_random_order", 1, 3), ("d_random_order", 3, 3),
    ("d_random_order", 2, 4), ("d_random_order", 3, 4), ("d_random_order", 1, 5),
    ("d_random_order", 2, 5),
)


def small_symmetric(rng: random.Random, shape: tuple) -> dict:
    kind = shape[0]
    if kind == "iid":
        _, n, m = shape
        types = _small_types(rng, m, 0)
        palette = [_type(*t, q) for t, q in zip(types, _weights(rng, m))]
        return {"kind": "iid", "n": n, "palette": palette}
    if kind == "prophet_secretary":
        dists, tid = [], 0
        for m in shape[1]:
            types = _small_types(rng, m, tid)
            dists.append([_type(*t, q) for t, q in zip(types, _weights(rng, m))])
            tid += m
        return {"kind": "prophet_secretary", "dists": dists}
    _, d, n = shape
    vectors = [[_type(*t) for t in _small_types(rng, n, j * n)] for j in range(d)]
    return {
        "kind": "d_random_order",
        "vectors": vectors,
        "vector_probs": [rat(q) for q in _weights(rng, d)],
    }


def doc_slots(doc: dict) -> int:
    kind = doc["kind"]
    if kind == "iid":
        return doc["n"]
    if kind == "prophet_secretary":
        return len(doc["dists"])
    if kind == "d_random_order":
        return len(doc["vectors"][0])
    return len(doc["actions"])


def symmetric_corpus(seed: int) -> dict:
    rng = random.Random(f"symmetric-corpus/{seed}")
    instances = [small_symmetric(rng, shape) for shape in CORPUS_SHAPES]
    sims = []
    for name, k in SIM_FIXTURES:
        sims.append({"name": name, "doc": fixture_doc(name), "k": k, "seed": rng.randrange(2**31)})
    bicriteria = [{"instance": idx, "k": k, "seed": rng.randrange(2**31)}
                  for idx, k in CORPUS_BICRITERIA["runs"]]
    return {"instances": instances, "sims": sims, "bicriteria": bicriteria}


# --------------------------------------------------------------------------
# independent
# --------------------------------------------------------------------------

def certified_independent(rng: random.Random, supports: list[int], rare: bool) -> dict:
    """Independent instance with a certified fallback.

    `supports` gives the number of types of each action but the anchor.
    One anchor action, at a random index, pays the best fixed receiver value
    rho_e with certainty; every other action's expected receiver value stays
    strictly below rho_e, so the anchor is also the designated action.
    With `rare` set, high-value types carry little mass, so a few actions
    cannot fill the relaxation's budget and the choice of actions matters.
    """
    n = len(supports) + 1
    anchor = rng.randrange(n)
    rho_e = Fraction(rng.randint(3, 9), 12)
    sizes = iter(supports)
    actions, tid = [], 0
    for i in range(n):
        if i == anchor:
            actions.append([_type(f"t{tid}", rho_e, Fraction(rng.randint(0, 4), 8), Fraction(1))])
            tid += 1
            continue
        m = next(sizes)
        qs = _weights(rng, m, hi=12 if rare else 4)
        while True:
            rhos = [Fraction(rng.randint(0, 12), 12) for _ in range(m)]
            if sum(q * r for q, r in zip(qs, rhos)) < rho_e:
                break
        actions.append([
            _type(f"t{tid + j}", rhos[j], Fraction(rng.randint(0, 8), 8), qs[j])
            for j in range(m)
        ])
        tid += m
    return {"kind": "independent", "actions": actions}


def _supports(rng: random.Random, count: int, top: int) -> list[int]:
    """Support sizes cycling through 1..top, in a seeded order."""
    sizes = [1 + i % top for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def independent(seed: int) -> dict:
    rng = random.Random(f"independent/{seed}")
    large = [
        {"doc": certified_independent(rng, _supports(rng, size["n"] - 1, 5), rare=True),
         "k": size["k"], "seed": rng.randrange(2**31)}
        for size in INDEP_LARGE
    ]
    small = [
        {"doc": certified_independent(rng, _supports(rng, n - 1, 2 if n >= 6 else 3), rare=False),
         "k": k}
        for n, k in INDEP_SMALL
    ]
    return {"large": large, "small": small}


def documents(workload: str, inputs) -> list[dict]:
    """Every instance document a workload's round loads, the faults included."""
    if workload == "symmetric-large":
        return [case["doc"] for case in inputs] + [OVERFLOW_IID["doc"]]
    if workload == "symmetric-corpus":
        return inputs["instances"] + [sim["doc"] for sim in inputs["sims"]]
    return [c["doc"] for c in inputs["large"] + inputs["small"]] + [FPTAS_FAULT["doc"]]


WORKLOAD_INPUTS = {
    "symmetric-large": symmetric_large,
    "symmetric-corpus": symmetric_corpus,
    "independent": independent,
}
