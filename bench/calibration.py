"""A fixed calibration loop that gauges the machine's speed of the moment.

On a shared host the speed of this benchmark's machine changes by up to
about 1.8x, in phases that last from seconds to minutes, and every kind of
Python work slows together: a job's latency divided by the time of this
loop, run around and during the job, varies several times less than the
latency itself.  The harness therefore reports every job time at the
reference speed: the raw time scaled by REFERENCE_S over the loop's median
time around and during the job.  Nothing in the loop touches lietool, so a
change to lietool moves the scaled times exactly as it moves the raw ones.

    python3 bench/calibration.py      # the loop's time on this machine
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The loop's time on the reference machine (2-core Xeon VM at 2.1 GHz,
# Python 3.11) in its fast phase (its slow phase takes 4.2-4.7 ms): the unit
# that every reported time is scaled to.
REFERENCE_S = 0.0025

ROUNDS = 15000


def _loop(rounds: int) -> Fraction:
    """Dict updates and small-Fraction sums, the staples of lietool's exact
    layers, on a fixed input."""
    table: dict[int, int] = {}
    total = Fraction(0)
    for i in range(rounds):
        key = i % 97
        table[key] = table.get(key, 0) + i
        if i % 50 == 0:
            total += Fraction(i, 7)
    return total


def measure(rounds: int = ROUNDS) -> float:
    """Seconds the loop takes now, per ROUNDS rounds.  Wall time, so that
    the loop also slows when other processes take the CPU from this one."""
    start = time.perf_counter()
    _loop(rounds)
    return (time.perf_counter() - start) * ROUNDS / rounds


def scale(*gauges: float) -> float:
    """Factor that brings a time measured while the loop took `gauges` to
    the reference speed."""
    return REFERENCE_S / statistics.median(gauges)


class Probe:
    """Runs a short loop every INTERVAL_S of wall time during a timed call.

    A job of a few seconds spans several of the machine's speed phases, so
    the loop's times just before and after it do not tell its speed.  While
    armed, a SIGALRM handler on the main thread runs ROUNDS // 8 rounds of
    the loop and records their time, scaled to ROUNDS rounds; `disarm`
    returns those times and the wall time the handler took, which the caller
    takes off the call's latency.  While a call waits for a thread pool the
    handler seldom gets to run, so such a call is gauged mostly before and
    after its pool phase; the median over the loop's times discards the few
    that a pool thread lengthened by taking the GIL.
    """

    INTERVAL_S = 0.05
    ROUNDS = ROUNDS // 8

    def __init__(self):
        self.armed = False
        self.times: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._handler)

    def _handler(self, signum, frame) -> None:
        if not self.armed:
            return
        start = time.perf_counter()
        self.times.append(measure(self.ROUNDS))
        self.spent += time.perf_counter() - start

    def arm(self) -> None:
        self.times, self.spent, self.armed = [], 0.0, True
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def disarm(self) -> tuple[list[float], float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.armed = False
        return self.times, self.spent


if __name__ == "__main__":
    measure()
    times = sorted(measure() for _ in range(400))
    print(f"fastest {times[0]:.5f} s, median {times[len(times) // 2]:.5f} s "
          f"(REFERENCE_S = {REFERENCE_S})")
