"""Machine-speed calibration, so that timings mean the same on a busy host.

The benchmark shares a few cores of a host with other jobs, and the speed
one core gives a single Python thread drifts by a factor of up to two over
seconds to minutes.  A run of the program alone cannot tell that drift from
a change in the program, so every timed call is measured against a fixed
calibration kernel sampled before, during and after it.

`kernel()` is benchmark code that never calls the package: exact rational
arithmetic on small objects, a float dynamic program, tuple-keyed dict
updates and two small HiGHS solves, roughly the program's own mix.  While
a `Speedometer` is entered, a wall-clock timer (SIGALRM) runs the kernel
every `INTERVAL_S` seconds, also in the middle of a long call; the kernel's
own time is taken out of the call's.  A call's program time is then scaled
by

    REFERENCE_S / (mean kernel time over the samples from the last one
                   before the call to the first one after it, widened
                   by WIDEN samples on each side)

so a timing reads in seconds of a machine on which the kernel takes
`REFERENCE_S`; README.md gives the figures.  A program that does twice the
work still reads twice the time: only the host's speed is taken out.
"""

from __future__ import annotations

import signal
import statistics
import warnings
from fractions import Fraction
from time import perf_counter

import numpy as np
from scipy.optimize import linprog

REFERENCE_S = 0.02  # kernel time on the reference machine (README.md)
INTERVAL_S = 0.15  # wall time between the end of one kernel sample and the next
WIDEN = 2  # samples added on each side of a call's own, to smooth the kernel's noise


class _Point:
    __slots__ = ("id", "rho", "xi")

    def __init__(self, ident: str, rho: Fraction, xi: Fraction) -> None:
        self.id, self.rho, self.xi = ident, rho, xi


_POINTS = [_Point(f"t{i}", Fraction(i * 7 % 25, 24), Fraction(i * 11 % 25, 24)) for i in range(40)]
_SLOPES = [Fraction(-j, 7) for j in range(1, 4)]
_VALUES = [(i * 37 % 100) / 101.0 for i in range(60)]
_LP_ROWS = np.random.default_rng(12345).random((4, 6))


def _side(anchor: _Point, slope: Fraction, point: _Point) -> int:
    value = anchor.xi + slope * (point.rho - anchor.rho)
    return 0 if point.xi == value else (1 if point.xi > value else -1)


def kernel() -> float:
    """Fixed work of the program's kind; returns a checksum."""
    total = 0.0
    for slope in _SLOPES:
        for anchor in _POINTS[:10]:
            for point in _POINTS:
                total += _side(anchor, slope, point)
    for _ in range(3):
        e = [1.0] + [0.0] * 10
        for count, v in enumerate(_VALUES, 1):
            for j in range(min(count, 10), 0, -1):
                e[j] += v * e[j - 1]
        total += e[10]
    acc = Fraction(0)
    seen: dict[tuple[str, int], float] = {}
    for i in range(1, 300):
        value = Fraction(i % 11 + 1, i % 13 + 2) * Fraction(i % 7 + 3, 24) - Fraction(i % 5, i + 1)
        if value > acc / 3:
            acc += value
        key = (_POINTS[i % 40].id, i % 9)
        seen[key] = seen.get(key, 0.0) + _VALUES[i % 60]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for row in range(2):
            lp = linprog(-np.arange(1.0, 7.0), A_ub=1.0 + _LP_ROWS[row:row + 3], b_ub=np.ones(3),
                         bounds=(0, 1), method="highs")
            total += lp.fun
    return total + float(acc) + len(seen)


class Speedometer:
    """Times calls against kernel samples taken on a wall-clock timer.

    Use as a context manager; `start()` before a call, `stop(mark)` after
    it, `record(kind, lap)` to count the call, and `take()` at the end of a
    round for the round's seconds per kind, scaled and raw.  With
    `calibrate=False` no kernel runs and the scaled seconds equal the raw
    ones.  The timer's handler only appends to `samples` and adds to
    `kernel_s`; everything else runs in the main flow.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.samples: list[float] = []  # kernel seconds, in order
        self.kernel_s = 0.0  # total time spent in the kernel
        self.pending: list[tuple[str, float, int, int]] = []  # (kind, seconds, first, last)
        self.scaled: dict[str, float] = {}
        self.raw: dict[str, float] = {}
        self._previous = None
        self._sampling = False

    def __enter__(self) -> Speedometer:
        if self.calibrate:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.calibrate:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def sample(self) -> None:
        if self._sampling:  # the timer fired inside a sample taken by take()
            return
        self._sampling = True
        t0 = perf_counter()
        kernel()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        self.kernel_s += elapsed
        self._sampling = False

    def start(self) -> tuple[float, float, int]:
        return perf_counter(), self.kernel_s, len(self.samples)

    def stop(self, mark: tuple[float, float, int]) -> tuple[float, int, int]:
        """A call's lap: its program time (the kernel's time taken out) and
        the indices of the samples before and after it."""
        t0, kernel0, first = mark
        return perf_counter() - t0 - (self.kernel_s - kernel0), first - 1, len(self.samples)

    def record(self, kind: str, lap: tuple[float, int, int]) -> None:
        self.pending.append((kind, *lap))
        self._resolve()

    def _resolve(self) -> None:
        """Scale each pending call whose window of samples is complete."""
        waiting = []
        for kind, seconds, first, last in self.pending:
            if not self.calibrate:
                factor = 1.0
            elif last + WIDEN < len(self.samples):
                window = self.samples[max(first - WIDEN, 0):last + WIDEN + 1]
                factor = REFERENCE_S / statistics.fmean(window)
            else:
                waiting.append((kind, seconds, first, last))
                continue
            self.scaled[kind] = self.scaled.get(kind, 0.0) + seconds * factor
            self.raw[kind] = self.raw.get(kind, 0.0) + seconds
        self.pending = waiting

    def take(self) -> tuple[dict[str, float], dict[str, float]]:
        """Close the round; return its (scaled, raw) seconds per kind and reset."""
        while self.pending:
            self.sample()
            self._resolve()
        scaled, raw = self.scaled, self.raw
        self.scaled, self.raw = {}, {}
        return scaled, raw
