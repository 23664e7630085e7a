"""Machine-speed probe for timing on a shared host.

On a shared 2-core host the interpreter's speed drifts by 15-35% within a
minute (other tenants, frequency changes), and the drift moves every wall
time with it.  The probe runs a fixed pure-Python reference loop every
PERIOD_S seconds from a SIGALRM handler, in the benchmark's one thread, and
records how long it took.  `seconds(start, end)` turns a wall interval into
reference seconds: the wall time minus the probe's own time, divided by how
much slower than REF_NOMINAL_S the reference ran during that interval.  The
program never sees the probe; a change to the program moves reference
seconds exactly as it moves wall seconds at a steady machine speed.
"""

import bisect
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.25
# Reference loop time on an unloaded 2-core x86-64 host with Python 3.11.
REF_NOMINAL_S = 0.0045


def reference_work():
    x, acc = 1, []
    for i in range(16000):
        x = (x * 48271 + i) % 2147483647
        acc.append((x, i))
    return len(acc)


class SpeedProbe:
    def __init__(self):
        self.ends = []  # perf_counter at the end of each sample
        self.durations = []
        self._spent = [0.0]  # running total of probe time, aligned with ends
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        reference_work()
        end = perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)
        self._spent.append(self._spent[-1] + end - start)

    def __enter__(self):
        reference_work()  # warm the loop before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, start, end):
        """Median reference time in [start, end] over REF_NOMINAL_S; the
        nearest samples stand in when the interval holds fewer than three."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        if hi - lo < 3:
            lo, hi = max(0, lo - 2), min(len(self.ends), hi + 2)
        window = self.durations[lo:hi]
        return statistics.median(window) / REF_NOMINAL_S if window else 1.0

    def seconds(self, start, end):
        """Reference seconds for the wall interval [start, end]."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        own = self._spent[hi] - self._spent[lo]
        return (end - start - own) / self.slowdown(start, end)
