"""Timing units of work in multiples of fixed reference kernels.

The machine the benchmark was built on is a shared virtual machine whose
speed drifts by 2x within seconds and between minutes. Raw wall times are
not steady enough to gate a change, so every timed unit is also reported
in reference units: its wall time divided by the mean time of a small fixed
kernel sampled while it ran.

There are two kernels, because a slow phase does not slow all code alike.
``interp`` is interpreted Python (tuple indexing, float comparisons, dict
updates); its time moved one for one with n=200 games, but it slowed more
than closed-form counting, which is an interpreted loop around long
big-integer arithmetic. ``bigint`` is that arithmetic (long multiplication
and division in C). A unit names the kernels that match its work.

Both kernels are sampled after every unit and, for a unit run in this
process, every ``TICK_S`` seconds of wall time from a SIGALRM handler whose
own time is taken out of the unit's time.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections.abc import Callable
from contextlib import contextmanager

TICK_S = 0.02
_BETWEEN_UNITS = 9  # kernel runs per sample between units; the median is kept

_ROW = tuple(i * 0.001 for i in range(256))
_BIG = 7 ** 12000  # about 1,100 digits of 30 bits
_MID = 7 ** 600  # about 56 digits: long multiplication and division


def _interp() -> int:
    # Allocates a single container, so that a sample taken inside a unit
    # never sets off a garbage collection of the unit's objects.
    memo = dict.fromkeys(range(128), 0)
    best = 0.0
    for r in range(2):
        for i in range(256):
            v = _ROW[i] - _ROW[255 - i]
            if v > best:
                best = v
            memo[(i & 15) * 8 + (r & 7)] += 1
    return len(memo)


def _bigint() -> int:
    return (_BIG * _MID).bit_length() + (_BIG // _MID).bit_length()


KERNELS = {"interp": _interp, "bigint": _bigint}


def _time(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def sample(repeats: int = 1) -> dict[str, float]:
    """Seconds per run of each kernel (the median of `repeats` runs)."""
    return {name: statistics.median(_time(k) for _ in range(repeats))
            for name, k in KERNELS.items()}


class Unit:
    """A timed unit: `seconds` of wall time, the kernel samples taken around
    and inside it (`speeds`), and how they are averaged."""

    seconds: float
    speeds: list[dict[str, float]]
    average: Callable[..., float]

    def ref(self, *kernels: str) -> float:
        """The unit's length in runs of `kernels` (default ``interp``), one
        after the other."""
        kernels = kernels or ("interp",)
        return self.seconds / self.average(
            sum(s[k] for k in kernels) for s in self.speeds)


class Speed:
    """The kernel samples of one process, and a timer for units of work."""

    def __init__(self) -> None:
        self.samples = [sample(_BETWEEN_UNITS)]

    @contextmanager
    def unit(self, tick: bool = True, average=statistics.fmean):
        """Time the block. With `tick`, also sample the kernels inside it.
        `average` combines the samples: the mean, or the median where the
        samples compete with the unit's own worker processes, so that a
        sample preempted by a worker is an outlier of the unit's making."""
        unit = Unit()
        unit.average = average
        inside: list[dict[str, float]] = []

        def on_tick(signum, frame):
            inside.append(sample())

        previous = self.samples[-1]
        if tick:
            old = signal.signal(signal.SIGALRM, on_tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            yield unit
        finally:
            elapsed = time.perf_counter() - start
            if tick:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        after = sample(_BETWEEN_UNITS)
        self.samples += inside + [after]
        unit.seconds = elapsed - sum(sum(s.values()) for s in inside)
        unit.speeds = [previous, *inside, after]
