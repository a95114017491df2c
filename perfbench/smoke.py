"""Traced breakdown of the Tier-1 smoke solve, for comparison with the
ROADMAP baseline (prophet-secretary, n=200, 20 distinct types, k=10).

    python3 perfbench/smoke.py

Builds the instance with the same recipe and seed as
`test_smoke_large_instance_runtime` (restated here, so that an edit to the
tests does not move it), times one untraced solve, then one traced solve,
and prints the per-layer table.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import persuade as P  # noqa: E402

from tracing import Tracer  # noqa: E402


def smoke_instance():
    rng = np.random.default_rng(20240821)
    pool = [
        P.ActionType(f"p{i}", Fraction(int(rng.integers(0, 26)), 24),
                     Fraction(int(rng.integers(0, 26)), 24))
        for i in range(20)
    ]
    dists = []
    for _ in range(200):
        m = int(rng.integers(1, 4))
        picks = rng.choice(20, size=m, replace=False)
        raws = [int(x) for x in rng.integers(1, 5, size=m)]
        dists.append(tuple((pool[int(p)], Fraction(w, sum(raws))) for p, w in zip(picks, raws)))
    return P.ProphetSecretaryInstance(dists=tuple(dists))


def main() -> None:
    inst = smoke_instance()
    t0 = perf_counter()
    plain = P.slope_algorithm(inst, 10)
    untraced = perf_counter() - t0
    tracer = Tracer()
    with tracer:
        t0 = perf_counter()
        traced = P.slope_algorithm(inst, 10)
        traced_s = perf_counter() - t0
    assert traced.u_sender == plain.u_sender
    print(f"untraced {untraced:.2f} s, traced {traced_s:.2f} s, u_sender {plain.u_sender:.6f}")
    for name, value in sorted(tracer.table().items()):
        print(f"{name:52} {value:>12.6g}")


if __name__ == "__main__":
    main()
