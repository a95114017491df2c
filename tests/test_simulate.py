"""Monte Carlo estimation: reproducibility, accuracy, failure reporting."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import persuade as P
from persuade.model import n_slots
from persuade.simulate import estimate
from persuade.symmetric_schemes import SlopeSchemeExecutor, slope_algorithm
from corpus import PROPHET_SECRETARY_DOC, big_prophet_secretary


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
    # Unchecked, True ran one sample, and 2.5 or "5" samples and a 1.5 seed
    # failed with unrelated TypeErrors.
    for samples, seed, refusal in (
        (True, 0, "samples must be an integer, got True"),
        (2.5, 0, "samples must be an integer, got 2.5"),
        (5.0, 0, "samples must be an integer, got 5.0"),
        ("5", 0, "samples must be an integer, got '5'"),
        (5, 1.5, "seed must be an integer, got 1.5"),
        (5, False, "seed must be an integer, got False"),
    ):
        with pytest.raises(ValueError) as refused:
            estimate(ex, inst, samples, seed)
        assert str(refused.value) == refusal
    report = estimate(ex, inst, np.int64(50), np.int64(-1))
    assert type(report.samples) is int
    assert report == estimate(ex, inst, 50, -1)


class _Public:
    """Runs a scheme through its public ``recommend`` on whole states."""

    def __init__(self, scheme) -> None:
        self.scheme = scheme

    def recommend(self, state, rng):
        return self.scheme.recommend(state, rng)


@pytest.mark.parametrize("name", ["ratio_iid", "tight_random_order", "tug_of_war"])
def test_first_k_columns_keep_the_whole_state_stream(name):
    # estimate hands the slope executor only the first k columns of each
    # state.  Its report equals the public method's on whole states, which
    # shows that every state still consumes the stream of all n slots (for
    # an IID prior, n uniforms, not the k that bicriteria_scheme draws).
    inst = P.load_fixture(name)
    ex = SlopeSchemeExecutor(slope_algorithm(inst, 2), 2)
    for seed in (0, 5):
        assert estimate(ex, inst, 3000, seed) == estimate(_Public(ex), inst, 3000, seed)


def test_an_executor_wider_than_the_state_is_refused(tug_executor):
    ex, inst = tug_executor
    with pytest.raises(ValueError, match="scheme needs 4"):
        estimate(SlopeSchemeExecutor(ex.scheme, 4), inst, samples=10, seed=0)


def test_an_executor_k_that_is_not_a_positive_integer_is_refused(tug_executor):
    # Unchecked, k = 0 failed in estimate as "scheme failed on state ()" and
    # k = 2.0 with a slicing TypeError.
    ex, inst = tug_executor
    for k, refusal in (
        (0, "k must be at least 1"),
        (2.0, "k must be an integer, got 2.0"),
        (True, "k must be an integer, got True"),
    ):
        with pytest.raises(ValueError) as refused:
            SlopeSchemeExecutor(ex.scheme, k)
        assert str(refused.value) == refusal
    numpy_k = SlopeSchemeExecutor(ex.scheme, np.int64(2))
    assert type(numpy_k.k) is int
    assert estimate(numpy_k, inst, 200, 1) == estimate(ex, inst, 200, 1)


class _Exploding:
    def recommend(self, state, rng):
        raise RuntimeError("boom")


def test_scheme_failure_is_reported_with_state():
    inst = P.load_fixture("tug_of_war")
    with pytest.raises(RuntimeError, match="scheme failed on state"):
        estimate(_Exploding(), inst, samples=10, seed=0)


# --------------------------------------------------------------------------
# Reports pinned bit for bit
# --------------------------------------------------------------------------

ESTIMATE_GOLDEN = Path(__file__).parent / "golden" / "estimate.json"
ESTIMATE_SEEDS = (3, -1, 2**64 + 3)
ESTIMATE_SAMPLES = 4100  # crosses the first 4 096-sample chunk boundary


class _Foreign:
    """A duck-typed scheme with only ``recommend(state, rng)``: it reads
    every slot's type and draws from the generator on some states."""

    def __init__(self, k: int) -> None:
        self.k = k

    def recommend(self, state, rng):
        if rng.random() < 0.3:
            return int(rng.integers(len(state)))
        return max(range(self.k), key=lambda i: (state[i].xi, state[i].id))


# Symmetric priors with their k; each runs every symmetric scheme kind.
_SYMMETRIC_PRIORS = {
    "ratio_iid": (lambda: P.load_fixture("ratio_iid"), 2),
    "tight_random_order": (lambda: P.load_fixture("tight_random_order"), 2),
    "tug_of_war": (lambda: P.load_fixture("tug_of_war"), 2),
    "prophet_secretary": (lambda: P.load_instance(PROPHET_SECRETARY_DOC), 2),
    "big_prophet_secretary": (big_prophet_secretary, 3),
}
ESTIMATE_CASES = [f"{name}/{kind}" for name in _SYMMETRIC_PRIORS
                  for kind in ("slope", "imitation", "bicriteria", "foreign")]
ESTIMATE_CASES += ["coins_k3/greedy", "coins_k3/foreign"]


def _estimate_cases() -> dict:
    """Case name -> (instance, scheme): every scheme kind of the package and a
    foreign one, on each symmetric prior family and an independent prior.
    The bicriteria tables are fitted on 30 states at k = n, so the
    simulations meet both states in the table and states left to the
    fallback."""
    cases = {}
    for name, (load, k) in _SYMMETRIC_PRIORS.items():
        inst = load()
        cases[f"{name}/slope"] = inst, SlopeSchemeExecutor(slope_algorithm(inst, k), k)
        cases[f"{name}/imitation"] = inst, P.imitation_scheme(inst, k)
        cases[f"{name}/bicriteria"] = inst, P.bicriteria_scheme(inst, n_slots(inst), 0.1, 30, 5).scheme
        cases[f"{name}/foreign"] = inst, _Foreign(k)
    coins = P.load_fixture("coins_k3")
    cases["coins_k3/greedy"] = coins, P.independent_scheme(coins, 2, method="greedy", force=True)
    cases["coins_k3/foreign"] = coins, _Foreign(2)
    return cases


def _hex_report(report) -> dict:
    """Every field of a report, floats as `float.hex`."""
    def stats(s):
        return {"count": s.count, "frequency": s.frequency.hex(),
                "receiver_mean": s.receiver_mean.hex(), "receiver_stderr": s.receiver_stderr.hex()}

    return {
        "samples": report.samples,
        **{f: getattr(report, f).hex()
           for f in ("sender_mean", "sender_stderr", "receiver_mean", "receiver_stderr")},
        "signals": {str(i): stats(s) for i, s in report.signals.items()},
    }


@pytest.fixture(scope="module")
def estimate_cases():
    return _estimate_cases()


@pytest.mark.parametrize("case", ESTIMATE_CASES)
def test_estimate_is_pinned_bit_for_bit(estimate_cases, case):
    # The expected reports were recorded by an earlier release; a change to
    # the sampler's stream, to a scheme's use of the generator or to the
    # order of the sums shows up here in the last bit.
    inst, scheme = estimate_cases[case]
    expected = json.loads(ESTIMATE_GOLDEN.read_text())[case]
    for seed in ESTIMATE_SEEDS:
        report = estimate(scheme, inst, ESTIMATE_SAMPLES, seed)
        assert _hex_report(report) == expected[str(seed)], seed
