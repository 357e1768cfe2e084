"""Reference-speed time: host-speed probes sampled while work runs.

The benchmark runs on a few cores of a shared host whose speed drifts
by tens of percent within a second (a fixed pure-Python loop timed in
7.5 s windows ranged from 44.6 to 71.3 ms within a minute and a half,
and single 2 ms probes a second apart differ by up to 40%).  No run
length averages that out, so every time this benchmark reports is read
from a :class:`RefClock` instead of the wall clock:

* while the clock is ``sampling()``, an interval timer interrupts the
  work every ``every_s`` seconds and runs a *probe*, a fixed piece of
  pure-Python work that imports nothing; the clock stops while the
  probe runs;
* each stretch of wall time between two probes is scaled by
  ``REFERENCE_PROBE_S / probe``, the probe measured at its start.

A reading is therefore the time the work would have taken on a host
where the probe takes ``REFERENCE_PROBE_S`` - "reference seconds".
The program under test never runs the probe, so making the program
faster or slower moves the readings as it moves wall time; only the
host's own speed is divided out.  Each run's result file keeps the
probe times, so the drift itself stays visible.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import Iterator, List

clock = time.perf_counter

#: Probe time, in wall seconds, that defines one reference second: the
#: probe took from 0.24 to about 1.2 ms on the 2-vCPU Xeon host the
#: benchmark was written on, depending on the hour.
REFERENCE_PROBE_S = 0.0005
#: Steps of one probe round, and rounds per probe (their median is the
#: probe, so one interrupted round does not skew it).
PROBE_STEPS = 600
PROBE_ROUNDS = 3

_KEYS = tuple("k%d" % i for i in range(512))


class _Cell:
    __slots__ = ("number", "key")

    def __init__(self, number: int, key: str) -> None:
        self.number = number
        self.key = key


def _probe_round() -> float:
    """Object, attribute, dict and list work, then a sort.

    Typical interpreter work rather than a tight arithmetic loop: with
    another process contending for the core, an arithmetic loop slowed
    by less than the stream workloads did (it left 6-10% of their
    slowdown in the readings), this mix by about as much (1-3% left).
    """
    began = clock()
    table = {}
    for i in range(PROBE_STEPS):
        key = _KEYS[i * 37 % 512]
        cell = _Cell(i, key)
        table[key] = (cell.number, cell.key, [i])
        table[key][2].append(cell.number)
    sorted(table.values())
    return clock() - began


def probe_seconds() -> float:
    """Wall time of one probe: the median of ``PROBE_ROUNDS`` rounds."""
    return statistics.median(_probe_round() for _ in range(PROBE_ROUNDS))


class RefClock:
    """A clock that reads reference seconds and stops during probes."""

    def __init__(self, every_s: float = 0.025) -> None:
        self.every_s = every_s
        #: Wall time of every probe, in order.
        self.probes: List[float] = []
        self._busy = False
        #: Bumped by every probe, so ``now()`` can tell it raced one.
        self._generation = 0
        probe_seconds()  # warm the loop up before the first real probe
        self._ref = 0.0
        self._scale = 1.0
        self._mark = clock()
        self.probe()

    def now(self) -> float:
        while True:
            generation = self._generation
            value = self._ref + (clock() - self._mark) * self._scale
            if generation == self._generation:
                return value

    def probe(self) -> None:
        if self._busy:  # a timer signal that arrived during a probe
            return
        self._busy = True
        self._ref += (clock() - self._mark) * self._scale
        seconds = probe_seconds()
        self.probes.append(seconds)
        self._scale = REFERENCE_PROBE_S / seconds
        self._mark = clock()
        self._generation += 1
        self._busy = False

    @contextlib.contextmanager
    def sampling(self) -> Iterator["RefClock"]:
        """Probe every ``every_s`` wall seconds until the block ends."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def wait_until(self, due: float) -> None:
        """Return once ``now()`` has reached ``due`` (sleep, then spin)."""
        while True:
            left = (due - self.now()) / self._scale
            if left <= 0:
                return
            if left > 0.002:
                time.sleep(left - 0.001)

    def speed(self) -> float:
        """Median host speed over the probes, 1.0 = reference speed."""
        return REFERENCE_PROBE_S / statistics.median(self.probes)
