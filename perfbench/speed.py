"""Machine-speed probe: the yardstick that end-to-end times are scaled by.

The benchmark runs on a few cores of a shared host whose execution speed
drifts: the same ops take up to 1.8 times as long in a slow phase as in a
fast one, and phases last from seconds to minutes, longer than one run.
Wall-clock metrics of identical runs therefore differ by more than the
regressions they are meant to catch.

:func:`probe` is a fixed loop of the kind of work normloc does in pure
Python (``Fraction`` arithmetic, small integer tuples, dict updates,
sorting) that calls no normloc code, so no change to the package changes
its time.  A :class:`Speed` object times it between the steps it measures
(ops, or the inputs built in set-up), once ``every_ns`` of wall time has
passed, and scales each op's time, and each stretch of set-up time between
two samples, by ``NOMINAL_NS`` over the median probe time of the window of
``WINDOW`` samples taken around it.
A scaled time is the time on the nominal machine, one on which the probe
takes ``NOMINAL_NS``; the host's drift cancels, the program's speed does
not.
"""

import gc
import statistics
import time
from fractions import Fraction

# median probe time on the machine the bounds were measured on (2 vCPUs of
# an Intel Xeon, Python 3.11.7), so scaled values read close to raw ones
NOMINAL_NS = 330_000
WARMUP = 50
# probe samples per window; a window spans WINDOW * every_ns of wall time
WINDOW = 8


def probe():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 40):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 3)
        key = tuple(j * i % 7 for j in range(8))
        seen[key] = seen.get(key, 0) + 1
    return sorted(seen.items()), acc


class Speed:
    """Probe samples taken at a fixed rate of wall time."""

    def __init__(self, every_ns):
        self.every_ns = every_ns
        self.samples = []
        # wall time between samples, without the probe's, and its mark
        self.stretches = []
        for _ in range(WARMUP):
            probe()
        self.last = time.perf_counter_ns()

    def sample(self, times=1):
        # the collector's pauses grow with the caller's heap, which is not
        # the host's speed
        enabled = gc.isenabled()
        gc.disable()
        for _ in range(times):
            t0 = time.perf_counter_ns()
            probe()
            self.samples.append(time.perf_counter_ns() - t0)
        if enabled:
            gc.enable()
        self.last = time.perf_counter_ns()

    def mark(self):
        """Position of an op starting now among the samples."""
        return len(self.samples)

    def tick(self, force=False):
        """Sample if every_ns has passed since the last sample (or force)."""
        stretch = time.perf_counter_ns() - self.last
        if force or stretch >= self.every_ns:
            self.stretches.append((stretch, self.mark()))
            self.sample()

    def factor(self, lo=0, hi=None):
        """NOMINAL_NS over the median of samples[lo:hi]."""
        return NOMINAL_NS / statistics.median(self.samples[lo:hi])

    def scale(self, walls, marks):
        """Each wall time in nominal time, by the window it started in."""
        if not self.samples:
            self.sample()
        last = max(len(self.samples) - WINDOW, 0)
        factors = {}
        scaled = []
        for wall, mark in zip(walls, marks):
            lo = min(mark // WINDOW * WINDOW, last)
            if lo not in factors:
                factors[lo] = self.factor(lo, lo + WINDOW)
            scaled.append(wall * factors[lo])
        return scaled

    def stretches_since(self, i):
        """Raw and nominal ns of the stretches from the i-th on."""
        walls, marks = zip(*self.stretches[i:])
        return sum(walls), sum(self.scale(walls, marks))
