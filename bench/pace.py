"""Timings rescaled to a reference machine speed.

The benchmark runs on shared hosts whose speed drifts: on the
calibration machine, a 2-vCPU VM, a fixed pure-Python loop takes 1× to
2× its quiet time from one tenth of a second to the next, as neighbours
come and go, and the mix of quiet and contended time drifts over
minutes.  A raw median latency follows that mix, so the medians of ten
runs of the same code spread by 9% to 44%.

:class:`Pace` interleaves a fixed calibration loop with the measured
operations and rescales each operation's time by how fast the loop ran
just before and just after it::

    rescaled = seconds × REFERENCE_ROUND_S / (loop seconds per round)

The loop groups, joins, absorbs and retracts sets of int tuples, the
kind of work the engines' batch kernels do, and does not touch the
program, so a change to the program cannot speed it up or slow it down.
Contention does not slow all code alike: on the calibration machine a
contended phase slowed the batch workloads by 1.45× to 1.65× against a
quiet one, this loop by 1.6×, and a loop of dict updates in bytecode by
1.7×.  The loop runs with the garbage collector off, so the heap the
program left behind does not change its time.  A rescaled time reads as
the time the operation would take in a quiet phase of the calibration
machine; the raw times are printed beside it.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

#: Rounds of one calibration: about 10 ms in a quiet phase of the
#: calibration machine, 16 ms in a contended one.
ROUNDS = 14
#: Seconds per round in a quiet phase of the calibration machine (Intel
#: Xeon VM, Python 3.11.7); rescaled times are expressed at this speed.
REFERENCE_ROUND_S = 7.5e-4

#: The tuples each round groups and joins; int hashes do not depend on
#: PYTHONHASHSEED, so every run iterates them in the same order.
_BASE = frozenset((i, (i * 31) % 211) for i in range(2000))


def _loop(rounds: int) -> int:
    total: set[tuple[int, int]] = set()
    for _ in range(rounds):
        groups: dict[int, list[int]] = {}
        for a, b in _BASE:
            groups.setdefault(a % 97, []).append(b)
        fresh = {(x, y) for x, ys in groups.items() for y in ys[:20]}
        total.update(fresh)
        total.difference_update({t for t in fresh if t[1] & 1})
    return len(total)


def calibrate(rounds: int = ROUNDS) -> float:
    """Seconds per round of the calibration loop, now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _loop(rounds)
        return (perf_counter() - start) / rounds
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Calibrations interleaved with operations.

    Call :meth:`calibrate` before the first operation and after each
    operation (or each group of operations); :meth:`mark` an operation
    just before timing it.  :meth:`rescale` then divides each time by
    the mean of the calibrations on either side of it.
    """

    def __init__(self, rounds: int = ROUNDS):
        self.rounds = rounds
        #: Seconds per round of each calibration, in order.
        self.samples: list[float] = []

    def calibrate(self) -> None:
        self.samples.append(calibrate(self.rounds))

    def mark(self) -> int:
        """The bracket of the operation about to run: the index of the
        calibration before it."""
        if not self.samples:
            raise RuntimeError("calibrate before the first operation")
        return len(self.samples) - 1

    def rescale(self, seconds: float, bracket: int) -> float:
        """``seconds`` measured in ``bracket``, at the reference speed."""
        around = self.samples[bracket:bracket + 2]
        return seconds * REFERENCE_ROUND_S / statistics.fmean(around)

    def slowdown(self) -> float:
        """Median calibration time over the reference: about 1 in a
        quiet phase of the calibration machine, 1.6 in a contended one."""
        return statistics.median(self.samples) / REFERENCE_ROUND_S
