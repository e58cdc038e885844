"""Machine speed, read from a fixed probe that runs every quarter second.

On the shared 2-core machine the baseline was taken on, the speed of the
whole machine drifted. The same deterministic pass ran 1.5 to 1.9 times
slower in spells that lasted from seconds to ten minutes, on either CPU, and
the machine reported no steal time. A wall time from a slow spell cannot be
compared with one from a fast spell.

The benchmark therefore runs a fixed probe every PROBE_GAP_S, from a timer
signal, so also in the middle of a solve. The probe does interpreted
dictionary updates, small complex SVDs and one 200x200 SVD; none of it is
geoprec code. A timed interval is cut at the probes that ran inside it; the
probes' own time is left out, and each piece is scaled by REFERENCE_PROBE_S ÷
(mean time of the probes on either side of it). The result reads in seconds
at the speed at which the probe takes REFERENCE_PROBE_S. Over 30 passes of
the polysys workload in one process, with probes between solves only, the
spread of the pass time (interquartile range ÷ median) was 0.31 on the wall
clock and 0.024 after scaling.
"""

import bisect
import contextlib
import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_PROBE_S = 0.017  # the probe's time on that machine in a fast spell
PROBE_GAP_S = 0.25


def probe_seconds():
    small = np.eye(40) + 0.01 * np.arange(1600.0).reshape(40, 40) + 0j
    large = np.eye(200) + 1e-4 * np.arange(40000.0).reshape(200, 200)
    t0 = perf_counter()
    for _ in range(40):
        np.linalg.svd(small)
        d = {}
        for i in range(600):
            d[i % 7, i % 11] = d.get((i % 7, i % 11), 0) + 0.5 * i
    np.linalg.svd(large)
    return perf_counter() - t0


class Speed:
    """Probe samples of one run, and intervals scaled by them."""

    def __init__(self):
        self.starts = []  # time each probe started, increasing
        self.ends = []  # time each probe ended
        self.seconds = []  # the probe's measured time
        self._busy = False
        self.listener = None  # called with (start, end) of each probe

    def probe(self):
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        try:
            t0 = perf_counter()
            s = probe_seconds()
            self.starts.append(t0)
            self.ends.append(perf_counter())
            self.seconds.append(s)
            if self.listener is not None:
                self.listener(t0, self.ends[-1])
        finally:
            self._busy = False

    @contextlib.contextmanager
    def probing(self):
        """Probe every PROBE_GAP_S while the block runs, wherever it is.

        The handler runs between two Python bytecodes of the main thread, so
        a probe waits for a long call into a C library to return.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_GAP_S, PROBE_GAP_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _pieces(self, start, seconds):
        """(length, mean probe time on either side) of each piece of an interval.

        A probe lies wholly inside or wholly outside an interval, because
        both run on the main thread.
        """
        end = start + seconds
        k = bisect.bisect_right(self.ends, start)  # first probe after start
        t = start
        while True:
            inside = k < len(self.starts) and self.starts[k] < end
            stop = self.starts[k] if inside else end
            near = [self.seconds[j] for j in (k - 1, k) if 0 <= j < len(self.seconds)]
            yield stop - t, statistics.fmean(near)
            if not inside:
                return
            t = self.ends[k]
            k += 1

    def scaled(self, start, seconds):
        """``seconds`` starting at ``start``, without probes, at the reference speed."""
        return sum(length * REFERENCE_PROBE_S / p for length, p in self._pieces(start, seconds))

    def unprobed(self, start, seconds):
        """``seconds`` starting at ``start``, without the probes that ran inside."""
        return sum(length for length, _ in self._pieces(start, seconds))
