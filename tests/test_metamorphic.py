"""Metamorphic relations of the slope algorithm and of the independent
relaxation: input changes with a known effect on the optimum, checked
without a referee, so at any n."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from persuade.geometry import NEG_INF
from persuade.model import (
    ActionType,
    DRandomOrderInstance,
    IIDInstance,
    IndependentInstance,
    ProphetSecretaryInstance,
    n_slots,
)
from persuade.independent_schemes import _curves, _relaxation_value
from persuade.symmetric_schemes import slope_algorithm
from corpus import random_best_fixed_deterministic, random_symmetric

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
@given(points=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=2, max_size=6),
       k=st.integers(2, 6))
@example(points=[((7 * j) % 13, (5 * j + 3) % 13) for j in range(30)], k=8)
def test_point_mass_prophet_secretary_is_one_vector_random_order(points, k):
    types = [ActionType(f"t{j}", Fraction(r, 12), Fraction(x, 12))
             for j, (r, x) in enumerate(points)]
    k = min(k, len(types))
    ps = slope_algorithm(
        ProphetSecretaryInstance(dists=tuple(((t, Fraction(1)),) for t in types)), k
    )
    dro = slope_algorithm(
        DRandomOrderInstance(vectors=(tuple(types),), vector_probs=(Fraction(1),)), k
    )
    assert ps.s_star == dro.s_star
    assert ps.u_sender == pytest.approx(dro.u_sender, abs=1e-12)


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
    assert new.s_star == (NEG_INF if old.s_star is NEG_INF else old.s_star * a / c)


@FEW
@given(seed=SEEDS, k=st.integers(2, 5), rnd=st.randoms(use_true_random=False))
def test_reordering_the_distributions_changes_nothing(seed, k, rnd):
    inst = random_symmetric(np.random.default_rng(seed))
    k = min(k, n_slots(inst))
    old, new = slope_algorithm(inst, k), slope_algorithm(shuffled(inst, rnd), k)
    assert new.s_star == old.s_star
    assert new.u_sender == pytest.approx(old.u_sender, abs=1e-12)


@FEW
@given(seed=SEEDS, rnd=st.randoms(use_true_random=False))
def test_permuting_independent_actions_keeps_the_relaxation_value(seed, rnd):
    rng = np.random.default_rng(seed)
    inst = random_best_fixed_deterministic(rng, int(rng.integers(3, 9)))
    n = len(inst.actions)
    perm = rnd.sample(range(n), n)  # action j of the permuted instance is action perm[j]
    permuted = IndependentInstance(actions=tuple(inst.actions[i] for i in perm))
    where = {i: j for j, i in enumerate(perm)}
    # A tie for the designated action goes to the lowest index, which a
    # permutation may move to another tied action.
    assume(where[inst.designated] == permuted.designated)
    old, new = _curves(inst), _curves(permuted)
    for size in range(n + 1):
        S = rnd.sample(range(n), size)
        assert (_relaxation_value(permuted, new, [where[i] for i in S])
                == _relaxation_value(inst, old, S))
