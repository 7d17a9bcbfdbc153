"""Correct timings for the host's speed, which drifts while a run measures.

On a shared host the same pass can take 1.7 times as long from one second
to the next, because other tenants' load comes and goes.  `SpeedProbe`
samples the host's speed during a timed interval: every 10 ms a timer
signal runs a fixed piece of pure-Python work (`probe_work`, about 0.2 ms)
that uses no `sieveval` code, so no change to the program can alter it.
Each stretch of time between two probes is scaled by how fast the probe at
its end ran relative to `REFERENCE_PROBE_S`.  The result, `seconds`, is the
interval's wall time minus the probes' own time, expressed at the speed at
which one probe takes `REFERENCE_PROBE_S`; `wall_seconds` is the same
interval unscaled, and `probe_seconds` the probes' own time.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.01
# Time of one `probe_work` call, back to back, on an uncontended 2-core
# Intel Xeon host.
REFERENCE_PROBE_S = 0.00025

_FRACTIONS = tuple(Fraction(i + 1, i % 5 + 2) for i in range(10))
_SETS = tuple(frozenset(range(i, i + 24, 1 + i % 3)) for i in range(16))


def probe_work() -> tuple:
    """Fixed exact arithmetic and set algebra, the two kinds of work sieveval does."""
    total = Fraction(0)
    for a in _FRACTIONS:
        for b in _FRACTIONS[::2]:
            total += a * b
    sizes = 0
    for s in _SETS:
        for t in _SETS[::3]:
            sizes += len(s & t) + len(s | t)
    return total, sizes


class SpeedProbe:
    """Times one interval at a time; `start()`, the work, then `stop()`."""

    def __init__(self):
        self.seconds = self.wall_seconds = self.probe_seconds = 0.0
        self._last = 0.0
        self._running = False

    def _probe(self) -> None:
        start = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        stretch = start - self._last
        self.wall_seconds += stretch
        self.probe_seconds += end - start
        self.seconds += stretch * REFERENCE_PROBE_S / (end - start)
        self._last = end

    def _on_signal(self, signum, frame) -> None:
        if self._running:  # a signal raised just before stop() may land after it
            self._probe()

    def start(self) -> None:
        self.seconds = self.wall_seconds = self.probe_seconds = 0.0
        signal.signal(signal.SIGALRM, self._on_signal)
        self._last = time.perf_counter()
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """End the interval; the final probe prices the stretch since the last."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._running = False
        self._probe()
        return self.seconds
