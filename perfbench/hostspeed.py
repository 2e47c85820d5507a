"""Sample the host's CPU speed while a timed region runs.

On a shared machine the same serial work can take 50% longer for minutes
at a time: other tenants load the physical cores, no steal time is
reported, and process CPU time grows with wall time. A :class:`SpeedProbe`
runs a small fixed kernel from a ``SIGALRM`` handler every ``INTERVAL``
seconds and records how long it took. The kernel is numpy alone,
independent of the library, so a change to the library moves the timed
region's seconds and not the probe's.

:meth:`SpeedProbe.adjust` expresses a measured time at the reference
speed: it takes out the probe's own share and divides by the slowdown, the
kernel's median time over ``REFERENCE_S``. The correction is partial, but
on the 2-vCPU Xeon host the benchmark was sized on it cut the spread
(interquartile range over median) of paper-scale run times from 0.25 to
0.11 over five contended runs and from 0.13 to 0.09 over eight quieter
ones. Kernels that also read a few MB from memory tracked the runs worse,
so this one stays within the first cache levels.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Seconds between probes.
INTERVAL = 0.04
#: The kernel's median time on that host when it is not contended:
#: adjusted times are seconds at that speed.
REFERENCE_S = 36e-6


class SpeedProbe:
    """Context manager sampling the kernel while its blocks run.

    Samples and time accumulate over every ``with`` block until
    :meth:`reset`, so one probe can cover several set-up rounds.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.random(4000)
        self._matrix = rng.random((60, 60))
        self._previous = None
        self.reset()

    def reset(self) -> None:
        #: Kernel seconds, one per sample.
        self.samples: list[float] = []
        #: Seconds spent in the handler, and seconds probed in total.
        self.overhead_s = 0.0
        self.elapsed_s = 0.0

    def _kernel(self) -> None:
        np.sort(self._values)
        self._matrix @ self._matrix

    def _sample(self, _signum, _frame) -> None:
        entered = time.perf_counter()
        # The first pass refills the caches the timed work evicted; only the
        # second is timed.
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        done = time.perf_counter()
        self.samples.append(done - t0)
        self.overhead_s += done - entered

    def __enter__(self) -> "SpeedProbe":
        self._entered = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.elapsed_s += time.perf_counter() - self._entered

    def slowdown(self) -> float:
        """The kernel's median time over ``REFERENCE_S`` (1.0 unsampled)."""
        return statistics.median(self.samples) / REFERENCE_S if self.samples else 1.0

    def adjust(self, seconds: float) -> float:
        """*seconds* measured inside the probed blocks, at reference speed."""
        share = self.overhead_s / self.elapsed_s if self.elapsed_s else 0.0
        return seconds * (1.0 - share) / self.slowdown()
