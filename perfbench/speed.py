"""A reference kernel timed between verdicts, to take the host's speed out.

The benchmark runs on a few cores of a shared host.  Other tenants slow it
by 25-70% for seconds to minutes at a time, with no steal time: the process
keeps its CPU and runs slower on it (shared caches and memory bandwidth).
CPU time slows exactly as wall time does, so it does not help.

A ``Speedometer`` times a fixed slice of stdlib-only work -- exact fraction
arithmetic and a walk over a 3,000-entry stretch of a shuffled
300,000-entry table with a dict build, the kind of work sweedler does --
every ``EVERY_S`` seconds between verdicts.  The slice never calls
sweedler.  ``scale(t0, t1)`` is the nominal slice time over the median
slice time near an interval, and a time multiplied by it reads as it would
on a host where a slice takes ``NOMINAL_S``.

The slice runs straight after the program's work, with caches as the
program left them.  That follows the host best (a slice timed a second
time, with warm caches, left several times as much spread across runs on
``doubling``, and as much on ``laws``), but the program's own traffic reaches the slice a little: after
50 ms of integer work a slice took 13% longer than after 50 ms of memory
traffic.  A change that alters what the program leaves in the caches can
move the correction by about that much, so a claimed gain should also hold
on the raw times in the notes.

The collector is paused while a slice runs, so the program's heap does not
reach the slice through a collection, and the table is a tuple of ints,
which the collector stops tracking after its first pass.
"""

from __future__ import annotations

import bisect
import gc
import random
import resource
import statistics
import time
from fractions import Fraction

# the unit of the correction: about a slice on the 2-core host (Xeon, 2.1 GHz,
# Python 3.11.7) when no other tenant slows it
NOMINAL_S = 1.0e-3
EVERY_S = 0.05
WINDOW_S = 0.5  # slices this close to a verdict describe its speed
SETUP_WINDOW_S = 0.1  # a set-up has slices of its own just before and after
MIN_SLICES = 5
TABLE = 300_000
WALK = 3_000


def peak_resident_bytes():
    """The process's peak resident memory so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _fractions():
    x = Fraction(1, 3)
    terms = {}
    for i in range(60):
        x = x * Fraction(i % 5 + 2, i % 3 + 1) - Fraction(x.numerator % 11,
                                                          x.denominator % 13 + 1)
        terms[(i % 7, i)] = x
    return min(terms.items())


class Speedometer:
    def __init__(self):
        rng = random.Random(0)
        # built before any set-up, while the process is at its peak so far,
        # so the peak grows by the table's size: its ints and a list as long
        # as the tuple that replaces it
        before = peak_resident_bytes()
        # allocated in order, then shuffled: the walk chases pointers across
        # the whole table
        table = [10**12 + i for i in range(TABLE)]
        self.table_bytes = peak_resident_bytes() - before
        rng.shuffle(table)
        self.table = tuple(table)
        del table
        self.pos = 0
        self.times, self.slices = [], []
        self.last = float("-inf")
        for _ in range(20):
            self._slice()  # warm-up, not recorded

    def _slice(self):
        _fractions()
        _fractions()
        i = self.pos
        self.pos = (i + WALK) % (TABLE - WALK)
        seen = {}
        for n in self.table[i:i + WALK]:
            seen[n] = n % 97
        return len(seen)

    def sample(self):
        """Time one slice, if none ran in the last EVERY_S seconds."""
        clock = time.perf_counter
        t0 = clock()
        if t0 - self.last < EVERY_S:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            self._slice()
            t1 = clock()
        finally:
            if enabled:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.slices.append(t1 - t0)
        self.last = t1

    def force(self, n):
        """Time n slices now, whenever the last one ran."""
        for _ in range(n):
            self.last = float("-inf")
            self.sample()

    def scale(self, t0, t1, window=WINDOW_S):
        """NOMINAL_S over the median slice near [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - window)
        hi = bisect.bisect_right(self.times, t1 + window)
        if hi - lo < MIN_SLICES:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SLICES // 2, len(self.times) - MIN_SLICES))
            hi = lo + MIN_SLICES
        return NOMINAL_S / statistics.median(self.slices[lo:hi])

    def summary(self):
        q1, q2, q3 = statistics.quantiles(self.slices, n=4)
        return {"table_mb": self.table_bytes / 2**20, "slices": len(self.slices), "slice_ms_median": q2 * 1e3,
                "slice_ms_q1": q1 * 1e3, "slice_ms_q3": q3 * 1e3,
                "slice_ms_min": min(self.slices) * 1e3,
                "slice_ms_max": max(self.slices) * 1e3}
