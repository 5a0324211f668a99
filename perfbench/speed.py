"""Machine-speed sampling during a job.

The benchmark runs on shared machines whose cores change speed by up to 1.5x
from one second to the next, as other tenants load the same physical cores.
No run length averages that away. While a job runs, ``SpeedSampler`` fires a
timer every ``INTERVAL_S`` and times a tiny fixed interpreter loop on the
job's own core and thread. The job's wall time, scaled by the mean probe speed
over the job relative to ``NOMINAL_PROBE_S``, gives its time in *reference
seconds*: the seconds it would have taken at the speed where the probe takes
exactly ``NOMINAL_PROBE_S``.

The same correction applies to ``setup_s``: the fresh interpreter samples its
own speed while it imports fairsynth. The probe costs about 0.1 % of the
measured time. The timer's signal is handled between bytecodes, so a sample
that falls inside a long native call is taken when that call returns.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
NOMINAL_PROBE_S = 10e-6


def _spin() -> int:
    total = 0
    for i in range(300):
        total += i & 7
    return total


def probe_seconds() -> float:
    """Second of two runs of a small interpreter loop: the first warms the
    caches the job may have evicted."""
    _spin()
    start = time.perf_counter()
    _spin()
    return time.perf_counter() - start


class SpeedSampler:
    """Context manager: ``samples`` holds the probe times taken inside it."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe_seconds())

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor from wall seconds to reference seconds: the mean probe speed
        relative to the nominal one, or 1 when no sample was taken."""
        if not self.samples:
            return 1.0
        return sum(NOMINAL_PROBE_S / s for s in self.samples) / len(self.samples)
