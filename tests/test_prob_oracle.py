"""Correspondence probabilities: frozen values, invariants, exact enumeration."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import persuade as P
from persuade.exact_oracle import enumerate_oracle
from persuade.geometry import NEG_INF
from persuade.model import (
    ActionType,
    DRandomOrderInstance,
    IIDInstance,
    ProphetSecretaryInstance,
    _prior_table,
    n_slots,
)
from persuade.prob_oracle import (
    _pair_allowed,
    candidate_slopes,
    segment_probabilities,
    subset_product_sum,
    unique_probabilities,
)
from persuade.symmetric_schemes import slope_algorithm
from corpus import perfbench, probe_slopes, random_symmetric, shared_type_priors, symmetric_corpus
from test_exact_oracle import _wide_fraction_prior
from test_slope_sweep import uniform_grid_iid


@pytest.fixture(scope="module")
def tug():
    return P.load_fixture("tug_of_war")


def test_candidate_slopes_frozen(tug):
    inst = tug
    got = candidate_slopes(inst, 2)
    assert got[0] is NEG_INF
    assert got[1:] == [Fraction(-1)]


def test_segment_probability_frozen(tug):
    inst = tug
    for k, want in [(2, 1 / 3), (3, 1.0)]:
        segs = {(s.a.id, s.b.id): s.p for s in segment_probabilities(inst, k)}
        assert abs(segs[("sender_pick", "receiver_pick")] - want) < 1e-12


def test_unique_probabilities_frozen(tug):
    inst = tug

    def uniques(s):
        return {u.c.id: u.p for u in unique_probabilities(inst, 2, s)}

    at_minus_one = uniques(Fraction(-1))
    assert abs(at_minus_one["sender_pick"] - 1 / 3) < 1e-12
    assert abs(at_minus_one["receiver_pick"] - 1 / 3) < 1e-12
    assert at_minus_one.get("dud", 0.0) == 0.0
    # At slope 0 the sender-best vertex owns the state unless the segment is flat.
    assert abs(uniques(0)["sender_pick"] - 2 / 3) < 1e-12
    assert abs(uniques(NEG_INF)["receiver_pick"] - 2 / 3) < 1e-12


def test_segment_probabilities_table(tug):
    inst = tug
    segs = [s for s in segment_probabilities(inst, 2) if s.p > 0]
    assert len(segs) == 1
    assert (segs[0].a.id, segs[0].b.id) == ("sender_pick", "receiver_pick")
    assert segs[0].slope == Fraction(-1)


def test_subset_product_sum_matches_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(1, 7))
        weights = [float(x) for x in rng.random(m)]
        for r in range(m + 1):
            from itertools import combinations

            brute = sum(
                float(np.prod([weights[i] for i in combo]))
                for combo in combinations(range(m), r)
            )
            assert abs(subset_product_sum(weights, r) - brute) < 1e-9


def test_partition_invariant_random_instances():
    rng = np.random.default_rng(41)
    for _ in range(25):
        inst = random_symmetric(rng)
        n = n_slots(inst)
        for k in range(2, n + 1):
            segs = segment_probabilities(inst, k)
            by_slope: dict = {}
            for s in segs:
                by_slope[s.slope] = by_slope.get(s.slope, 0.0) + s.p
            for s in probe_slopes(inst, k):
                total = by_slope.get(s, 0.0)
                total += sum(u.p for u in unique_probabilities(inst, k, s))
                assert abs(total - 1.0) < 1e-9, (type(inst).__name__, k, s, total)


def test_analytic_matches_enumeration():
    rng = np.random.default_rng(42)
    cases = [(random_symmetric(rng), 1e-9) for _ in range(25)]
    # Reused type ids pin the inclusion-exclusion over required types.
    cases += [(inst, 1e-12) for inst in shared_type_priors(np.random.default_rng(43), 12)]
    for inst, tol in cases:
        n = n_slots(inst)
        for k in range(2, n + 1):
            slopes = probe_slopes(inst, k)
            tables = enumerate_oracle(inst, k, slopes=slopes)
            analytic = {(s.a.id, s.b.id): s.p for s in segment_probabilities(inst, k)}
            exact = {key: float(v) for key, v in tables.segments.items()}
            for key in set(analytic) | set(exact):
                assert abs(analytic.get(key, 0.0) - exact.get(key, 0.0)) < tol, key
            for s in slopes:
                uniq = {u.c.id: u.p for u in unique_probabilities(inst, k, s)}
                exact_u = {tid: float(v) for (tid, sl), v in tables.uniques.items() if sl == s}
                for tid in set(uniq) | set(exact_u):
                    assert abs(uniq.get(tid, 0.0) - exact_u.get(tid, 0.0)) < tol, (tid, s)


def test_kind_cross_check():
    # The same distribution expressed through different instance kinds must
    # produce the same oracle tables: the IID closed form v^k against the
    # prophet-secretary recursion over n copies of the palette.
    from corpus import random_dist, random_types

    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 5, 12, 40):
        m = int(rng.integers(1, 5))
        palette = random_dist(rng, random_types(rng, m, 0))
        iid = IIDInstance(palette=palette, n=n)
        ps = ProphetSecretaryInstance(dists=(palette,) * n)
        for k in sorted({2, n // 2 + 1, n}):
            seg_iid = {(s.a.id, s.b.id): s.p for s in segment_probabilities(iid, k)}
            seg_ps = {(s.a.id, s.b.id): s.p for s in segment_probabilities(ps, k)}
            assert set(seg_iid) == set(seg_ps)
            for key, p in seg_iid.items():
                assert abs(p - seg_ps[key]) < 1e-12
            for s in probe_slopes(iid, k):
                u_iid = {u.c.id: u.p for u in unique_probabilities(iid, k, s)}
                u_ps = {u.c.id: u.p for u in unique_probabilities(ps, k, s)}
                assert set(u_iid) == set(u_ps), (n, k, s)
                for tid, p in u_iid.items():
                    assert abs(p - u_ps[tid]) < 1e-12, (n, k, s, tid)


def test_partition_invariant_large_n():
    # C(1200, 600) overflows a float; the IID closed form and the normalised
    # prophet-secretary recursion stay in [0, 1].
    from corpus import random_dist, random_types

    rng = np.random.default_rng(45)
    pool = random_types(rng, 5, 0)
    iid = IIDInstance(palette=random_dist(rng, pool[:4]), n=1200)
    ps = ProphetSecretaryInstance(dists=tuple(
        random_dist(rng, [pool[int(j)] for j in sorted(rng.choice(5, size=2, replace=False))])
        for _ in range(300)
    ))
    for inst, k in ((iid, 600), (ps, 150)):
        by_slope: dict = {}
        for seg in segment_probabilities(inst, k):
            by_slope[seg.slope] = by_slope.get(seg.slope, 0.0) + seg.p
        for s in probe_slopes(inst, k):
            total = by_slope.get(s, 0.0) + sum(u.p for u in unique_probabilities(inst, k, s))
            assert abs(total - 1.0) < 1e-9, (type(inst).__name__, s, total)


def test_support_is_exact_below_float_range():
    # The a-b segment needs a and b, each of mass 1e-200, drawn together: its
    # probability 1e-400 underflows to 0.0, yet the state (a, b) occurs and
    # the executor must find its segment in the scheme.
    from persuade.model import ActionType
    from persuade.symmetric_schemes import SlopeSchemeExecutor, slope_algorithm

    def pt(name, rho, xi):
        return ActionType(name, Fraction(rho), Fraction(xi))

    u, v, a, b, c = pt("u", 0, 2), pt("v", 2, 0), pt("a", 0, 1), pt("b", 1, 0), pt("c", 0, 0)
    eps = Fraction(1, 10**200)
    inst = ProphetSecretaryInstance(dists=(
        ((u, Fraction(1, 2)), (a, eps), (c, Fraction(1, 2) - eps)),
        ((v, Fraction(1, 2)), (b, eps), (c, Fraction(1, 2) - eps)),
    ))
    dist = SlopeSchemeExecutor(slope_algorithm(inst, 2), 2).recommendation_distribution((a, b))
    assert abs(sum(dist.values()) - 1.0) < 1e-12
    segs = {(s.a.id, s.b.id): s.p for s in segment_probabilities(inst, 2)}
    assert segs[("a", "b")] == 0.0


def test_point_mass_prophet_equals_single_vector():
    rng = np.random.default_rng(19)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        from corpus import random_types

        vec = tuple(random_types(rng, n, 0))
        dro = DRandomOrderInstance(vectors=(vec,), vector_probs=(Fraction(1),))
        ps = ProphetSecretaryInstance(dists=tuple(((t, Fraction(1)),) for t in vec))
        for k in range(2, n + 1):
            seg_d = {(s.a.id, s.b.id): s.p for s in segment_probabilities(dro, k)}
            seg_p = {(s.a.id, s.b.id): s.p for s in segment_probabilities(ps, k)}
            assert set(seg_d) == set(seg_p)
            for key, p in seg_d.items():
                assert abs(p - seg_p[key]) < 1e-12


@pytest.mark.parametrize("name", ["tug_of_war", "ratio_iid", "tight_random_order"])
def test_one_type_table_per_oracle_call(monkeypatch, name):
    # One prior table per instance: the oracle entry points, the slope solve,
    # the sampler and the bicriteria fit all read the table the first of them
    # built.  The fit builds one more, for the empirical prior of its sample.
    from persuade import model
    from persuade.simulate import estimate
    from persuade.symmetric_schemes import SlopeSchemeExecutor, bicriteria_scheme

    inst = P.load_fixture(name)
    builds = []
    build = model._PriorTable.build
    monkeypatch.setattr(
        model._PriorTable, "build", staticmethod(lambda i: builds.append(i) or build(i))
    )
    scheme = slope_algorithm(inst, 2)
    segment_probabilities(inst, 2)
    unique_probabilities(inst, 2, Fraction(-1))
    candidate_slopes(inst, 2)
    estimate(SlopeSchemeExecutor(scheme, 2), inst, 50, seed=1)
    model.sample_state(inst, np.random.default_rng(1))
    model._state_sampler(inst, 2)(np.random.default_rng(1))
    bicriteria_scheme(inst, 2, 0.1, 50, 1)
    assert [b is inst for b in builds] == [True, False]
    assert isinstance(builds[1], model.DRandomOrderInstance)


# --------------------------------------------------------------------------
# Allowed sets: the orientation test against the per-slope rank rule
# --------------------------------------------------------------------------

def rank_rule_allowed(table, s, a, b) -> np.ndarray:
    """The allowed masks by the per-slope rank rule: every type's exact
    slope-s key (xi - s*rho on the table's integer utilities; (rho, xi) at
    -inf, (xi, rho) at 0) is densely ranked, and t is allowed for row q
    when its key ranks below the line's (a[q]'s), or equal and t is an
    end's point with a larger id or strictly between a[q] and b[q] in
    (rho, xi) order."""
    def dense(keys):
        rank = {key: r for r, key in enumerate(sorted(set(keys)))}
        return np.array([rank[key] for key in keys])

    rho, xi = table.rho_num, table.xi_num
    if s == NEG_INF:
        rank = dense(list(zip(rho, xi)))
    elif s == 0:
        rank = dense(list(zip(xi, rho)))
    else:
        rank = dense([x * s.denominator - s.numerator * r for r, x in zip(rho, xi)])
    point, ids = dense(list(zip(rho, xi))), dense([t.id for t in table.types])
    line, pa, pb = rank[a][:, None], point[a][:, None], point[b][:, None]
    on_line = (
        (point == pa) & (ids > ids[a][:, None])
        | (point == pb) & (ids > ids[b][:, None])
        | (point > pa) & (point < pb)
    )
    return (rank < line) | (rank == line) & on_line


def assert_masks_match_the_rank_rule(inst) -> None:
    """Every segment row, and the unique rows at -inf, at 0, at every
    segment slope and between them, equal boolean for boolean.  The masks
    read the prior table only, so they are the same at every k."""
    table = _prior_table(inst)
    types = table.types
    pairs = [
        (i, j) if t.rho < u.rho else (j, i)
        for (i, t), (j, u) in combinations(enumerate(types), 2)
        if (u.rho - t.rho) * (u.xi - t.xi) < 0
    ]
    a, b = (np.array([p[e] for p in pairs], dtype=np.int64) for e in (0, 1))
    slopes = [(types[j].xi - types[i].xi) / (types[j].rho - types[i].rho) for i, j in pairs]
    got = _pair_allowed(table, a, b)
    by_slope: dict = {}
    for q, s in enumerate(slopes):
        by_slope.setdefault(s, []).append(q)
    for s, rows in by_slope.items():
        assert (got[rows] == rank_rule_allowed(table, s, a[rows], b[rows])).all(), (inst, s)
    finite = sorted(by_slope)
    c = np.arange(len(types))
    for s in [NEG_INF, Fraction(0), *finite, *((lo + hi) / 2 for lo, hi in zip(finite, finite[1:]))]:
        assert (_pair_allowed(table, c, c, s) == rank_rule_allowed(table, s, c, c)).all(), (inst, s)


def points_iid(points) -> IIDInstance:
    """An IID prior over the given (rho, xi) points, ids t0, t1, ..."""
    palette = tuple(
        (ActionType(f"t{j}", Fraction(r), Fraction(x)), Fraction(1, len(points)))
        for j, (r, x) in enumerate(points)
    )
    return IIDInstance(palette=palette, n=2)


def test_masks_match_the_rank_rule_on_the_corpora():
    for inst in symmetric_corpus():
        assert_masks_match_the_rank_rule(inst)
    for inst in shared_type_priors(np.random.default_rng(43), 12):
        assert_masks_match_the_rank_rule(inst)
    assert_masks_match_the_rank_rule(uniform_grid_iid(60))


@pytest.mark.parametrize("seed", range(1, 11))
def test_masks_match_the_rank_rule_on_large_instances(seed):
    for case in perfbench("gen").symmetric_large(seed):
        assert_masks_match_the_rank_rule(perfbench("instances").load(case["doc"]))


@pytest.mark.parametrize("top", [2**30 - 1, 2**30, 2**40], ids=["int64", "object", "past-int64"])
def test_masks_match_the_rank_rule_at_the_int64_bound(top):
    # Numerators of magnitude 2^30 - 1 keep every cross product of a
    # segment row inside int64; at 2^30 they are Python ints, and at 2^40
    # int64 products would wrap.  Collinear triples, shared coordinates and
    # coincident points sit at the extremes.
    h = top // 2
    inst = points_iid([
        (-top, top), (top, -top), (0, 0), (-top, top), (h, -h), (-h, h),
        (top, top), (top, 0), (0, top), (-top, -top), (-top, 0), (0, -top), (1, top - 1),
    ])
    assert_masks_match_the_rank_rule(inst)


def test_masks_match_the_rank_rule_on_wide_fractions():
    # 126-bit numerators over the common denominator: the object path.
    inst = _wide_fraction_prior()
    assert max(map(abs, _prior_table(inst).rho_num + _prior_table(inst).xi_num)) > 2**120
    assert_masks_match_the_rank_rule(inst)


def test_masks_break_boundary_ties_lexicographically():
    # Equal receiver utilities, equal sender utilities, coincident points
    # and collinear runs on lines of slope -1, 0 and -inf: at 0 and -inf
    # the secondary key decides what the primary one leaves equal.
    inst = points_iid([
        (0, 3), (0, 1), (0, 3), (1, 3), (2, 3), (2, 1), (1, 2), (3, 0), (2, 1), (3, 3), (0, 0), (3, 1),
    ])
    assert_masks_match_the_rank_rule(inst)


def test_unique_rows_at_extreme_slopes(tug):
    # Slope keys far beyond int64: the oracle answers as it did by ranks.
    third, two_thirds = float.fromhex("0x1.5555555555555p-2"), float.fromhex("0x1.5555555555555p-1")
    steep = [(u.c.id, u.p) for u in unique_probabilities(tug, 2, Fraction(-10**30, 7))]
    flat = [(u.c.id, u.p) for u in unique_probabilities(tug, 2, Fraction(-3, 10**40))]
    assert steep == [("sender_pick", third), ("receiver_pick", two_thirds)]
    assert flat == [("sender_pick", two_thirds), ("receiver_pick", third)]
