"""How fast the machine runs Python code right now, sampled during a pass.

A shared virtual machine changes speed by tens of percent from one minute
to the next, and within a minute, while its load stays the same; the CPU
time of a fixed piece of work changes with it, so neither wall time nor CPU
time of a tune repeats from run to run.  :class:`SpeedProbe` measures that
speed while the tune runs: every ``PERIOD_S`` seconds a timer signal
interrupts the main thread, which runs a fixed pure-Python loop
(:func:`reference_loop`) and records the thread CPU time the loop took.
Dividing a pass's seconds by the mean loop time over the same interval gives
a length that does not depend on how fast the machine was.

The loop runs on the thread that runs the tune, so it sees the same core
and the same slowdown; thread CPU time leaves out the time the thread waited
for a core.  Pool workers are not interrupted: the interval timer is not
inherited across ``fork``.
"""

from __future__ import annotations

import signal
import statistics
import time

__all__ = ["SpeedProbe", "reference_loop"]

#: seconds of wall time between two reference loops
PERIOD_S = 0.1
#: iterations of one reference loop: about 1.3 ms of CPU on a 2-vCPU x86 VM
LOOP_ITERATIONS = 4000


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic, a dict, a list, calls."""
    acc = 0
    table: dict[int, int] = {}
    items: list[int] = []
    for i in range(LOOP_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 255] = table.get(acc & 255, 0) + 1
        if i & 7 == 0:
            items.append(acc)
    return acc + len(table) + len(items)


class SpeedProbe:
    """Times the reference loop every ``PERIOD_S`` seconds inside a ``with`` block."""

    def __init__(self) -> None:
        #: thread CPU seconds of each reference loop, in the order run
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.thread_time()
        reference_loop()
        self.samples.append(time.thread_time() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def loop_s(self) -> float:
        """Mean thread CPU seconds of one reference loop over the block."""
        return statistics.fmean(self.samples)
