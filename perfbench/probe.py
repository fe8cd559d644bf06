"""Host-speed probe: rescale measured seconds to a reference host speed.

On a shared host the same call runs up to 1.6 times slower within tens
of seconds, most likely because other tenants load the core's caches and
its sibling hyperthread. A fixed loop of interpreted Python slows down by
about as much as the program does. So ``run.py`` reports a time ``t``
measured while the loop took ``k`` as ``t * REF_KERNEL_S / k``: the seconds
the same work would take on a host where one loop takes ``REF_KERNEL_S``.
A faster or slower program still shows in full; the host's speed at the
time mostly does not.

``Sampler`` times the loop every ``PERIOD_S`` of wall time from inside the
measured process, through ``SIGALRM``, and takes the median; ``burst``
times it a few times in a row, for work too short to sample. The loop
touches no state of the program, so it cannot change its results; its time
is subtracted from the measured call.
"""

from __future__ import annotations

import signal
import statistics
import time

# loop time that defines the reference speed (about its time on an
# unloaded 2-vCPU x86 host)
REF_KERNEL_S = 2.5e-4
PERIOD_S = 0.1


def kernel():
    total = 0.0
    for i in range(4000):
        total += i * 0.5
    return total


def time_kernel():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def burst(count=25):
    """Median loop time over ``count`` runs in a row, after a warm-up."""
    kernel()
    return statistics.median(time_kernel() for _ in range(count))


def rescale(seconds, kernel_s):
    """``seconds`` measured at kernel time ``kernel_s``, at reference speed."""
    return seconds * REF_KERNEL_S / kernel_s


class Sampler:
    """Times the loop every ``PERIOD_S`` while the ``with`` block runs."""

    def __init__(self):
        self.times = []
        self._previous = None

    def _tick(self, signum, frame):
        self.times.append(time_kernel())

    def __enter__(self):
        kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def spent(self):
        return sum(self.times)

    def kernel_s(self):
        """Median loop time; a burst if the block was too short to sample."""
        return statistics.median(self.times) if self.times else burst()
