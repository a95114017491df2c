"""Metamorphic relations of the slope algorithm: input changes with a known
effect on the optimal scheme, checked without a referee, so at any n."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persuade.geometry import NEG_INF
from persuade.model import (
    ActionType,
    DRandomOrderInstance,
    IIDInstance,
    ProphetSecretaryInstance,
    n_slots,
)
from persuade.prob_oracle import segment_probabilities
from persuade.symmetric_schemes import slope_algorithm
from corpus import random_symmetric

FEW = settings(derandomize=True, max_examples=20, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
RATES = st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2)])
SHIFTS = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(2)])


def map_types(inst, f):
    """The instance with every type t replaced by f(t)."""
    if isinstance(inst, IIDInstance):
        return IIDInstance(palette=tuple((f(t), q) for t, q in inst.palette), n=inst.n)
    if isinstance(inst, ProphetSecretaryInstance):
        return ProphetSecretaryInstance(
            dists=tuple(tuple((f(t), q) for t, q in d) for d in inst.dists)
        )
    return DRandomOrderInstance(
        vectors=tuple(tuple(f(t) for t in v) for v in inst.vectors),
        vector_probs=inst.vector_probs,
    )


def shuffled(inst, rnd):
    """The same prior with its distributions listed in another order: the
    palette (IID), the distributions (prophet-secretary), or the vectors and
    the entries within each (d-random-order)."""
    if isinstance(inst, IIDInstance):
        return IIDInstance(palette=tuple(rnd.sample(inst.palette, len(inst.palette))), n=inst.n)
    if isinstance(inst, ProphetSecretaryInstance):
        return ProphetSecretaryInstance(dists=tuple(rnd.sample(inst.dists, len(inst.dists))))
    pairs = rnd.sample(list(zip(inst.vectors, inst.vector_probs)), len(inst.vectors))
    return DRandomOrderInstance(
        vectors=tuple(tuple(rnd.sample(v, len(v))) for v, _ in pairs),
        vector_probs=tuple(q for _, q in pairs),
    )


@FEW
@given(points=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(1, 4)),
                       min_size=1, max_size=5),
       n=st.integers(2, 6), k=st.integers(2, 6))
@example(points=[(3, 9, 2), (8, 4, 1), (12, 0, 1), (5, 5, 3), (5, 5, 1)], n=200, k=7)
def test_iid_is_prophet_secretary_with_equal_distributions(points, n, k):
    k = min(k, n)
    total = sum(w for _, _, w in points)
    palette = tuple(
        (ActionType(f"t{j}", Fraction(r, 12), Fraction(x, 12)), Fraction(w, total))
        for j, (r, x, w) in enumerate(points)
    )
    iid = slope_algorithm(IIDInstance(palette=palette, n=n), k)
    ps = slope_algorithm(ProphetSecretaryInstance(dists=(palette,) * n), k)
    assert iid.s_star == ps.s_star
    assert iid.u_sender == pytest.approx(ps.u_sender, abs=1e-12)


@FEW
@given(seed=SEEDS, a=RATES, b=SHIFTS, c=RATES, d=SHIFTS, k=st.integers(2, 5))
def test_affine_utilities_scale_the_optimal_slope(seed, a, b, c, d, k):
    # xi -> a*xi + b and rho -> c*rho + d (a, c > 0) keep every frontier event
    # and scale every segment slope by a/c.
    inst = random_symmetric(np.random.default_rng(seed))
    k = min(k, n_slots(inst))
    mapped = map_types(inst, lambda t: ActionType(t.id, c * t.rho + d, a * t.xi + b))
    old, new = slope_algorithm(inst, k), slope_algorithm(mapped, k)
    assert new.u_sender == pytest.approx(float(a) * old.u_sender + float(b), abs=1e-9)
    lowest = min((seg.slope for seg in segment_probabilities(inst, k)), default=None)
    if old.s_star is not NEG_INF and lowest is not None and old.s_star < lowest:
        # One probe stands for the open interval below every segment slope.
        assert new.s_star is not NEG_INF and new.s_star < lowest * a / c
    else:
        assert new.s_star == (NEG_INF if old.s_star is NEG_INF else old.s_star * a / c)


@FEW
@given(seed=SEEDS, k=st.integers(2, 5), rnd=st.randoms(use_true_random=False))
def test_reordering_the_distributions_changes_nothing(seed, k, rnd):
    inst = random_symmetric(np.random.default_rng(seed))
    k = min(k, n_slots(inst))
    old, new = slope_algorithm(inst, k), slope_algorithm(shuffled(inst, rnd), k)
    assert new.s_star == old.s_star
    assert new.u_sender == pytest.approx(old.u_sender, abs=1e-12)
