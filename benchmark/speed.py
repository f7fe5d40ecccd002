"""Host-speed reference: scales measured times to one fixed CPU speed.

The benchmark's host is a virtual machine on a shared host, and the speed
at which it runs Python moves between two levels, 1.5 to 1.7 times apart,
staying at one for under a second at some times and for tens of seconds
at others: a fixed computation reads either near its fastest time or
1.5 to 1.7 times that, in CPU time as much as in wall time. A 20-s run can fall wholly in
the slow state, so no statistic over one run's samples removes it.

A ``Probe`` therefore times a small fixed reference computation between
operations, at most ``GAP_S`` apart, and scales each operation's wall
time by ``nominal / r``, where ``r`` is the mean of the reference times
taken just before and just after the operation and ``nominal`` is the
reference's time on an uncontended core of the development host. A
scaled time reads as the operation's time at that speed. Neither
reference shares code with amalgsep, so a change to the library cannot
move them:

- ``python_reference``, pure Python over a multiplication table the
  benchmark builds itself, for work inside one interpreter;
- ``spawn_reference``, the start of a bare interpreter, for work done by
  fresh processes (cli-cold). Process start-up slows with the host more
  than pure Python does, and this reference follows it more closely.
"""

from __future__ import annotations

import bisect
import os
import subprocess
import sys
import time

import groups as gr

# The references' times on an uncontended core of the development host
# (Python 3.11.7): the fastest of many samples.
PYTHON_REFERENCE_S = 1.35e-3
SPAWN_REFERENCE_S = 8.7e-3
# At most this long between two reference samples during timed work.
GAP_S = 0.05

_TABLE = gr.table_by_name("Z3xZ9")


def _table_work() -> int:
    n = len(_TABLE)
    return sum(len(gr.generated(_TABLE, [x, y])) for x in range(n) for y in range(0, n, 2))


def python_reference() -> float:
    """Seconds of a fixed pure-Python computation of about 1.4 ms. A first,
    untimed pass warms the caches that the measured work used."""
    _table_work()
    t0 = time.perf_counter()
    _table_work()
    return time.perf_counter() - t0


def spawn_reference() -> float:
    """Seconds to start and end an interpreter that runs nothing."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU, so that
    the reference samples the core the measured work runs on. The highest
    one: the first CPU also serves the kernel's own housekeeping."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Probe:
    """Reference samples taken between timed operations."""

    def __init__(self, reference=python_reference, nominal_s: float = PYTHON_REFERENCE_S):
        self.reference = reference
        self.nominal_s = nominal_s
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        self.starts.append(time.perf_counter())
        self.times.append(self.reference())

    def due(self) -> None:
        """Sample when the last sample is older than ``GAP_S``."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= GAP_S:
            self.sample()

    def factor(self, start: float, seconds: float) -> float:
        """Reference speed over host speed, for the interval of ``seconds``
        begun at ``start``. Needs one sample taken before ``start`` and one
        after the interval ended."""
        i = bisect.bisect_right(self.starts, start)
        j = bisect.bisect_left(self.starts, start + seconds, lo=i)
        if i == 0 or j == len(self.starts):
            raise ValueError("no reference sample on both sides of the interval")
        return self.nominal_s / ((self.times[i - 1] + self.times[j]) / 2)

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` of work begun at ``start``, at reference speed."""
        return seconds * self.factor(start, seconds)
