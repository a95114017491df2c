"""Monte Carlo estimates of a scheme's performance.

Sampling uses counter-based Philox streams keyed by (seed mod 2^64, chunk
index) as exact unsigned 64-bit integers, so each seed modulo 2^64 has its
own streams: every chunk of samples owns an independent stream and the
per-chunk sums are merged in chunk order, so the same seed gives the same
report bit for bit.  `estimate` builds the instance's state sampler once
per call (float CDFs kept on the instance; per state, the generator calls
of the stream and one CDF lookup); each state consumes its chunk's stream
exactly as one `rng.choice` per slot did, so reports are also unchanged
from versions that sampled slot by slot.

A sampled state is a row of the instance's prior-table columns, from the
sampler to the sums: the slope executor and the ex-post scheme bind to the
table once per call (their private ``_bind``), and a slot's utilities are
the table's float view, the same correctly rounded floats as the exact
rationals.  Any other scheme's ``recommend(state, rng)`` gets the columns
mapped to their `ActionType`s.  The stream contract is unchanged, so the
reports are too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model import SAMPLER_MAX_SAMPLES, Instance, _check_count, _check_integer, _prior_table, _state_sampler

__all__ = ["SignalStats", "SimReport", "estimate"]

_CHUNK = 4096
_MASK64 = 2**64 - 1


@dataclass(frozen=True)
class SignalStats:
    """Frequency of one signal and the receiver value conditioned on it."""

    count: int
    frequency: float
    receiver_mean: float
    receiver_stderr: float


@dataclass(frozen=True)
class SimReport:
    samples: int
    sender_mean: float
    sender_stderr: float
    receiver_mean: float
    receiver_stderr: float
    signals: Mapping[int, SignalStats]


class _Sums:
    """Plain accumulators; one instance per chunk, merged in chunk order."""

    __slots__ = ("n", "xi", "xi2", "rho", "rho2", "per_signal")

    def __init__(self) -> None:
        self.n = 0
        self.xi = 0.0
        self.xi2 = 0.0
        self.rho = 0.0
        self.rho2 = 0.0
        self.per_signal: dict[int, list[float]] = {}

    def merge(self, other: "_Sums") -> None:
        self.n += other.n
        self.xi += other.xi
        self.xi2 += other.xi2
        self.rho += other.rho
        self.rho2 += other.rho2
        for sig, (cnt, s1, s2) in other.per_signal.items():
            mine = self.per_signal.setdefault(sig, [0, 0.0, 0.0])
            mine[0] += cnt
            mine[1] += s1
            mine[2] += s2


def _run_chunk(rec, draw, types, xis, rhos, seed: int, chunk_index: int, count: int) -> _Sums:
    key = np.array([seed & _MASK64, chunk_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    sums = _Sums()
    for _ in range(count):
        cols = draw(rng)
        try:
            slot = rec(cols, rng)
        except Exception as exc:
            ids = tuple(types[c].id for c in cols)
            raise RuntimeError(f"scheme failed on state {ids}") from exc
        xi = xis[cols[slot]]
        rho = rhos[cols[slot]]
        sums.n += 1
        sums.xi += xi
        sums.xi2 += xi * xi
        sums.rho += rho
        sums.rho2 += rho * rho
        per = sums.per_signal.setdefault(slot, [0, 0.0, 0.0])
        per[0] += 1
        per[1] += rho
        per[2] += rho * rho
    return sums


def _bind(scheme, table):
    """(slots, rec): how many leading columns the scheme reads (None: all)
    and ``rec(columns, rng)``, its recommendation on a row of the table's
    columns."""
    bind = getattr(scheme, "_bind", None)
    if bind is not None:
        return bind(table)
    types = table.types
    return None, lambda cols, rng: scheme.recommend(tuple(map(types.__getitem__, cols)), rng)


def _mean_stderr(n: int, s1: float, s2: float) -> tuple[float, float]:
    if n == 0:
        return 0.0, 0.0
    mean = s1 / n
    if n == 1:
        return mean, 0.0
    var = max((s2 - n * mean * mean) / (n - 1), 0.0)
    return mean, math.sqrt(var / n)


def estimate(
    scheme,
    instance: Instance,
    samples: int,
    seed: int,
) -> SimReport:
    """Estimate scheme utilities by simulation.

    The scheme only needs a ``recommend(state, rng)`` method.  Given the
    same seed the report is identical bit for bit.  A scheme that reads only
    the first k slots is given only those, drawn from the full state's
    stream (IID priors: all n slots' uniforms), so its report does not
    depend on what it leaves unread.  ``samples`` must be an integer in
    [1, ``SAMPLER_MAX_SAMPLES``], checked first, and ``seed`` an integer; a
    bool or a float, even an integral one, is refused.
    """
    samples, seed = _check_count(samples, "samples", SAMPLER_MAX_SAMPLES), _check_integer(seed, "seed")
    table = _prior_table(instance)
    slots, rec = _bind(scheme, table)
    draw = _state_sampler(instance, slots, whole_stream=True)
    total = _Sums()
    for index, start in enumerate(range(0, samples, _CHUNK)):
        count = min(_CHUNK, samples - start)
        total.merge(_run_chunk(rec, draw, table.types, table.xi, table.rho, seed, index, count))

    sender_mean, sender_stderr = _mean_stderr(total.n, total.xi, total.xi2)
    receiver_mean, receiver_stderr = _mean_stderr(total.n, total.rho, total.rho2)
    signals = {}
    for sig in sorted(total.per_signal):
        cnt, s1, s2 = total.per_signal[sig]
        mean, stderr = _mean_stderr(cnt, s1, s2)
        signals[sig] = SignalStats(
            count=cnt,
            frequency=cnt / total.n,
            receiver_mean=mean,
            receiver_stderr=stderr,
        )
    return SimReport(
        samples=total.n,
        sender_mean=sender_mean,
        sender_stderr=sender_stderr,
        receiver_mean=receiver_mean,
        receiver_stderr=receiver_stderr,
        signals=signals,
    )
