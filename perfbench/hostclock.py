"""Host-speed calibration for timings taken on shared virtual CPUs.

On 2-vCPU KVM guests the same pure-Python loop can run at speeds up to
1.6x apart, the host switching between them every few seconds.  Process
CPU time equals wall time and steal time does not move, so no clock hides
the drift, and even 20-second windows differ by about 25%.  The program's
own work slows by about the factor a pair of fixed loops (arithmetic, and
object/dict/list churn) slows by when timed next to it: over 2-second
windows of paper-cold queries, the geometric mean of the two loops'
slowdowns tracked the queries' with an exponent of 0.96.

:class:`HostClock` therefore probes those loops about ten times a second
while work runs, and converts each measured interval to *calibrated*
seconds: the raw interval divided by the host slowdown the probes saw
around it (the median over a window of +-1 s).  A calibrated second is a
second of the host at the reference speed below.

The probe runs in the program's interpreter, so it shares its heap and
garbage collector.  It runs with the collector off, so that a collection
the program's garbage is due for never lands inside a probe and moves
the divisor; its own objects are freed by reference counting.  Whether a
known change to the program reads the same calibrated as raw is checked
by ``calibration_check.py``.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
from time import perf_counter

#: Probe durations, in seconds, at the reference host speed; calibrated
#: times are expressed at it.  The fast state of a 2-vCPU KVM guest reads
#: a slowdown of about 0.85 against them.
ARITH_REFERENCE = 0.00042
CHURN_REFERENCE = 0.00070

#: Minimum wall time between probes during a timed phase.
PROBE_INTERVAL = 0.1
#: Half-width of the window whose probes calibrate one interval.
WINDOW = 1.0


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _arith_loop():
    started = perf_counter()
    total = 0
    for index in range(10000):
        total += index
    return perf_counter() - started


def _churn_loop():
    started = perf_counter()
    table = {}
    out = []
    for index in range(2000):
        item = _Item(index & 127, index)
        table[item.key] = item
        out.append(item.value)
        if index in table:
            out.pop()
    sorted(out[-200:], reverse=True)
    return perf_counter() - started


def _probe_pair():
    """Seconds of the arithmetic and the churn loop, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _arith_loop(), _churn_loop()
    finally:
        if enabled:
            gc.enable()


def probe_ms():
    """Duration of one probe pair, in milliseconds (diagnostic)."""
    return sum(_probe_pair()) * 1e3


class HostClock:
    """Probes host speed and converts raw intervals to calibrated seconds."""

    def __init__(self):
        self._times = []
        self._factors = []
        self._last = float("-inf")
        self.probe_seconds = 0.0

    def probe(self):
        """Time the probe pair once; returns the host slowdown factor."""
        started = perf_counter()
        arith, churn = _probe_pair()
        factor = math.sqrt(
            (arith / ARITH_REFERENCE) * (churn / CHURN_REFERENCE)
        )
        self._times.append(started)
        self._factors.append(factor)
        self._last = perf_counter()
        self.probe_seconds += self._last - started
        return factor

    def probe_burst(self, count=3):
        for _ in range(count):
            self.probe()

    def maybe_probe(self):
        """Probe if the last probe is older than :data:`PROBE_INTERVAL`."""
        if perf_counter() - self._last >= PROBE_INTERVAL:
            self.probe()

    def factor(self, start, end):
        """Median slowdown seen within ``WINDOW`` of ``[start, end]``.

        Callers probe at most :data:`PROBE_INTERVAL` before every
        interval they time, so the window always holds a probe.
        """
        low = bisect.bisect_left(self._times, start - WINDOW)
        high = bisect.bisect_right(self._times, end + WINDOW)
        return statistics.median(self._factors[low:high])

    def calibrate(self, start, end):
        """Calibrated seconds for the raw interval ``[start, end]``."""
        return (end - start) / self.factor(start, end)
