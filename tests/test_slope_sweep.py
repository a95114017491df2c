"""The slope sweep at scale: one segment table and two unique rows per
solve, the sums telescoped from slope to slope.

Checked against the sweep run one slope at a time through the public
oracle and LP, against pinned outputs on the benchmark's large instances,
against a memory bound and a count of unique rows, and against the LP
duality certificate min_s D(s) = u_sender that holds at any n without a
referee.
"""

from __future__ import annotations

import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from persuade import prob_oracle, symmetric_schemes
from persuade.cli import _round12
from persuade.exact_oracle import optimal_scheme_bruteforce
from persuade.geometry import NEG_INF
from persuade.lp_core import GAIN_TOL, solve_slope_lp
from persuade.model import (
    ActionType, IIDInstance, ProphetSecretaryInstance, best_fixed_action_value, n_slots,
)
from persuade.prob_oracle import candidate_slopes, segment_probabilities, unique_probabilities
from persuade.symmetric_schemes import (
    SlopeScheme, bicriteria_scheme, slope_algorithm, slope_scheme_to_dict,
)
from corpus import perfbench, shared_type_priors, symmetric_corpus

GOLDEN = Path(__file__).parent / "golden" / "slope_large.json"
load = perfbench("instances").load


def per_slope_scheme(inst, k: int, rho_e=None) -> SlopeScheme:
    """`slope_algorithm` one slope at a time: one `unique_probabilities` and
    one `solve_slope_lp` call per candidate slope, at the receiver threshold
    ``rho_e`` (by default the best fixed action's value)."""
    by_slope: dict = {}
    for seg in segment_probabilities(inst, k):
        by_slope.setdefault(seg.slope, []).append(seg)
    rho_e = best_fixed_action_value(inst) if rho_e is None else rho_e
    best_s, best = None, None
    for s in candidate_slopes(inst, k):
        res = solve_slope_lp(by_slope.get(s, []), unique_probabilities(inst, k, s), rho_e, s)
        if res is not None and (best is None or res.u_sender > best.u_sender + GAIN_TOL):
            best_s, best = s, res
    alpha = {(seg.a.id, seg.b.id): a for seg, a in zip(by_slope.get(best_s, []), best.alphas)}
    return SlopeScheme(best_s, alpha, best.u_sender, best.u_receiver)


def test_batched_sweep_equals_the_per_slope_sweep_bit_for_bit():
    instances = symmetric_corpus(60) + shared_type_priors(np.random.default_rng(7), 4)
    cases = [(inst, range(2, n_slots(inst) + 1)) for inst in instances]
    # The grid priors have hundreds of segment slopes: the running sums cross
    # them all, and the tie rule sees the most near-equal candidates.
    grids = [uniform_grid_iid(60), many_type_prophet_secretary(40, 30, seed=11)]
    cases += [(inst, (2, 5, 10)) for inst in grids]
    for inst, ks in cases:
        for k in ks:
            assert slope_algorithm(inst, k) == per_slope_scheme(inst, k)


@pytest.mark.parametrize("case", json.loads(GOLDEN.read_text())["cases"],
                         ids=lambda case: case["name"])
def test_large_slope_schemes_are_pinned_across_releases(case):
    # The benchmark's symmetric-large instances of seed 1, at k = 2 and the
    # benchmark's k; the schemes were recorded by the per-slope sweep and are
    # rounded as the CLI prints them.
    inst = load(case["doc"])
    for k, expected in case["schemes"].items():
        assert _round12(slope_scheme_to_dict(slope_algorithm(inst, int(k)))) == expected


def test_optimal_slope_is_minus_infinity_or_a_segment_slope():
    # The sweep's candidates: a slope strictly between segment slopes, or
    # beyond them, is dominated by one of these.
    cases = [(inst, range(2, n_slots(inst) + 1)) for inst in symmetric_corpus(200)]
    for seed in (1, 2, 3):
        for case in perfbench("gen").symmetric_large(seed):
            inst = load(case["doc"])
            n = n_slots(inst)
            cases.append((inst, sorted({2, 5, case["k"], n // 2, n})))
    for inst, ks in cases:
        for k in ks:
            s_star = slope_algorithm(inst, k).s_star
            assert s_star is NEG_INF or s_star in {
                seg.slope for seg in segment_probabilities(inst, k)
            }, (inst, k, s_star)


def many_type_prophet_secretary(n: int, count: int, seed: int) -> ProphetSecretaryInstance:
    """n distributions, each over 3 of ``count`` distinct grid points."""
    rng = np.random.default_rng(seed)
    points: set[tuple[int, int]] = set()
    while len(points) < count:
        points.add((int(rng.integers(97)), int(rng.integers(97))))
    types = [ActionType(f"t{j}", Fraction(r, 96), Fraction(x, 96))
             for j, (r, x) in enumerate(sorted(points))]
    dists = []
    for _ in range(n):
        raws = [int(x) for x in rng.integers(1, 5, size=3)]
        picks = rng.choice(count, size=3, replace=False)
        dists.append(tuple((types[j], Fraction(w, sum(raws))) for j, w in zip(picks, raws)))
    return ProphetSecretaryInstance(dists=tuple(dists))


# The cell budget the slope sweep keeps to: 2**20 float64 cells, 8 MiB.
BUDGET_CELLS = 1 << 20


def test_unique_table_works_in_blocks_within_its_cell_budget():
    # A unique row per candidate slope would take four budgets here; the
    # sweep builds two rows (at -inf and at s*), so a solve from a fresh
    # instance peaks within twice the budget and reports the per-slope scheme.
    n, count, k = 100, 56, 2
    inst = many_type_prophet_secretary(n, count, seed=11)
    budget = BUDGET_CELLS * 8  # bytes of float64
    slopes = len(candidate_slopes(inst, k))
    assert n * 2 * slopes * count >= 4 * BUDGET_CELLS  # a row per slope would not fit

    fresh = many_type_prophet_secretary(n, count, seed=11)  # no cached prior table
    tracemalloc.start()
    try:
        scheme = slope_algorithm(fresh, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * budget
    assert scheme == per_slope_scheme(inst, k)


def uniform_grid_iid(count: int, n: int = 40, seed: int = 3) -> IIDInstance:
    """An IID prior over ``count`` distinct points of the 0.001 grid on the
    unit square, each with mass 1/count."""
    rng = np.random.default_rng(seed)
    grid = rng.choice(1001 * 1001, size=count, replace=False)
    palette = tuple(
        (ActionType(f"t{j}", Fraction(int(g) // 1001, 1000), Fraction(int(g) % 1001, 1000)),
         Fraction(1, count))
        for j, g in enumerate(grid)
    )
    return IIDInstance(palette=palette, n=n)


def test_slope_solve_over_2000_candidate_slopes_peaks_under_8_mib():
    # 100 IID types have about T^2/4 = 2 500 candidate slopes; the sweep
    # holds the segment table and two unique rows, not a row per slope.
    inst, k = uniform_grid_iid(100), 10
    tracemalloc.start()
    try:
        slope_algorithm(inst, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(candidate_slopes(inst, k)) > 2000
    assert peak < BUDGET_CELLS * 8


def test_a_solve_and_a_bicriteria_fit_each_build_at_most_two_unique_rows(monkeypatch):
    # The row at -inf starts the running sums, and s*'s own row gives the
    # report; no other slope's row is built, however many candidates there are.
    slopes, row = [], prob_oracle._unique_row

    def counted(table, k, s):
        slopes.append(s)
        return row(table, k, s)

    monkeypatch.setattr(prob_oracle, "_unique_row", counted)
    monkeypatch.setattr(symmetric_schemes, "_unique_row", counted)
    inst = uniform_grid_iid(30)
    scheme = slope_algorithm(inst, 3)
    assert len(candidate_slopes(inst, 3)) > 100
    assert slopes == [NEG_INF, scheme.s_star]
    slopes.clear()
    bicriteria_scheme(inst, 3, 0.05, 2000, 1)
    assert len(slopes) == 2 and slopes[0] == NEG_INF


def test_a_threshold_within_rounding_of_a_boundary_takes_the_per_slope_sweep(monkeypatch):
    # At this epsilon the fit's receiver threshold lies within rounding of
    # s*'s alpha = 0 receiver value: the running sums meet it and s*'s own
    # row misses it.  The sweep then goes slope by slope and reports what
    # the per-slope sweep reports (the pinned values are the fit's before the
    # sums were telescoped).
    fits, slopes, row, sweep = [], [], prob_oracle._unique_row, symmetric_schemes._slope_sweep
    monkeypatch.setattr(symmetric_schemes, "_unique_row",
                        lambda table, k, s: slopes.append(s) or row(table, k, s))
    monkeypatch.setattr(symmetric_schemes, "_slope_sweep", lambda *args: fits.append(args) or sweep(*args))
    fit = bicriteria_scheme(symmetric_corpus(60)[11], 2, 0.016509979999999525, 1000, 1)
    assert len(slopes) > 2
    assert (fit.u_sender.hex(), fit.u_receiver.hex()) == ("0x1.67ef9d958afa8p-1", "0x1.1b4395d6ec608p-1")
    ((sample, k, threshold),) = fits
    assert sweep(sample, k, threshold) == per_slope_scheme(sample, k, threshold)


def duality_bound(inst, k: int) -> float:
    """min over s in {0} and the segment slopes of the Lagrangian bound
    D(s) = E[xi - s*rho at the slope-s tangency point] + s*rho_e, read off
    the public oracle tables.  Every D(s) with s <= 0 bounds the sender's
    optimum from above; the convex piecewise-linear D attains its minimum at
    one of these slopes, where it equals the optimum."""
    rho_e = best_fixed_action_value(inst)
    by_slope: dict = {Fraction(0): []}
    for seg in segment_probabilities(inst, k):
        by_slope.setdefault(seg.slope, []).append(seg)
    bounds = []
    for s, segs in by_slope.items():
        d = sum(u.p * float(u.c.xi - s * u.c.rho) for u in unique_probabilities(inst, k, s))
        d += sum(seg.p * float(seg.a.xi - s * seg.a.rho) for seg in segs)
        bounds.append(d + float(s * rho_e))
    return min(bounds)


def test_duality_certificate_on_the_corpus():
    for i, inst in enumerate(symmetric_corpus(200)):
        for k in range(2, n_slots(inst) + 1):
            bound = duality_bound(inst, k)
            assert abs(bound - slope_algorithm(inst, k).u_sender) <= 1e-11, (i, k)
            if i < 40:  # weak duality against the referee
                assert bound >= optimal_scheme_bruteforce(inst, k)[1] - 1e-9, (i, k)


@pytest.mark.parametrize("seed", range(1, 11))
def test_duality_certificate_on_large_instances(seed):
    for case in perfbench("gen").symmetric_large(seed):
        inst = load(case["doc"])
        n = n_slots(inst)
        for k in sorted({2, 5, n // 2, n}):
            bound = duality_bound(inst, k)
            assert abs(bound - slope_algorithm(inst, k).u_sender) <= 1e-11, (case["name"], k)
