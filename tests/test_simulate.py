"""Monte Carlo estimation: reproducibility, accuracy, failure reporting."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import persuade as P
from persuade.simulate import estimate
from persuade.symmetric_schemes import SlopeSchemeExecutor, slope_algorithm


@pytest.fixture(scope="module")
def tug_executor():
    inst = P.load_fixture("tug_of_war")
    return SlopeSchemeExecutor(slope_algorithm(inst, 2), 2), inst


def test_same_seed_same_report(tug_executor):
    ex, inst = tug_executor
    a = estimate(ex, inst, samples=5000, seed=42)
    b = estimate(ex, inst, samples=5000, seed=42)
    assert a == b
    c = estimate(ex, inst, samples=5000, seed=43)
    assert c != a


def test_every_seed_has_its_own_stream(tug_executor):
    # The Philox key is exact unsigned 64-bit: a negative seed is taken modulo
    # 2^64 instead of collapsing to key 0 behind a cast warning, and seeds at
    # or above 2^63 keep their low bits.
    ex, inst = tug_executor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [estimate(ex, inst, samples=2000, seed=s) for s in (0, -1, 2**63, 2**63 + 1)]
    assert len({repr(r) for r in reports}) == 4


def test_estimates_track_exact_values(tug_executor):
    ex, inst = tug_executor
    exact_s, exact_r = P.expected_utilities(ex, inst)
    rep = estimate(ex, inst, samples=20000, seed=11)
    assert rep.samples == 20000
    assert rep.sender_stderr > 0 and rep.receiver_stderr > 0
    assert abs(rep.sender_mean - exact_s) < 4 * rep.sender_stderr
    assert abs(rep.receiver_mean - exact_r) < 4 * rep.receiver_stderr


def test_signal_stats_consistency(tug_executor):
    ex, inst = tug_executor
    rep = estimate(ex, inst, samples=8000, seed=3)
    assert sum(s.count for s in rep.signals.values()) == 8000
    assert abs(sum(s.frequency for s in rep.signals.values()) - 1.0) < 1e-12
    for stats in rep.signals.values():
        assert 0.0 <= stats.receiver_mean <= 1.0
        assert stats.count > 0


def test_sample_validation(tug_executor):
    ex, inst = tug_executor
    with pytest.raises(ValueError):
        estimate(ex, inst, samples=0, seed=1)


class _Exploding:
    def recommend(self, state, rng):
        raise RuntimeError("boom")


def test_scheme_failure_is_reported_with_state():
    inst = P.load_fixture("tug_of_war")
    with pytest.raises(RuntimeError, match="scheme failed on state"):
        estimate(_Exploding(), inst, samples=10, seed=0)
