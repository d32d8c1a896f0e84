"""Host-speed-normalised timing.

The benchmark's host is a shared VM whose vCPUs run at full speed at some
moments and at up to half speed at others, for periods from a fraction of
a second to minutes, as other tenants load the physical cores. Medians
over a run cannot remove swings that last as long as the run, so every
timed section is also timed against the host's speed at that moment.

While a section runs, an interval timer interrupts it every SAMPLE_S
seconds and times a fixed kernel of pure-Python dict work and SHA-256
hashing, which does not depend on the program under test. One sample is
also taken just before and just after the section. The section's
normalised time is its own time (kernel time excluded) times
REFERENCE_S ÷ kernel time, averaged over the samples: the seconds the
section would have taken at the speed at which the kernel takes
REFERENCE_S, about its time on an unloaded vCPU of the 2.0 GHz Xeon the
benchmark was tuned on. The raw time is kept alongside.
"""

from __future__ import annotations

import hashlib
import signal
import time
from contextlib import contextmanager

SAMPLE_S = 0.01
REFERENCE_S = 60e-6


def _kernel() -> bytes:
    counts: dict[int, int] = {}
    for i in range(300):
        counts[i % 37] = counts.get(i % 37, 0) + i
    digest = str(counts[0]).encode()
    for _ in range(20):
        digest = hashlib.sha256(digest).digest()
    return digest


class HostClock:
    """Accumulates the raw and normalised seconds of the sections run
    under ``section()``; sections must not nest."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.seconds = 0.0
        self.samples = 0
        self._kernel_s: list[float] = []

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        _kernel()
        self._kernel_s.append(time.perf_counter() - start)

    @contextmanager
    def section(self):
        self._kernel_s = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        interrupts = self._kernel_s[1:]
        self._sample()
        own_s = elapsed - sum(interrupts)
        speed = sum(REFERENCE_S / s for s in self._kernel_s) / len(self._kernel_s)
        self.raw_s += own_s
        self.seconds += own_s * speed
        self.samples += len(self._kernel_s)


def timed(fn, *args):
    """``fn(*args)`` under a fresh HostClock; returns (result, clock)."""
    clock = HostClock()
    with clock.section():
        result = fn(*args)
    return result, clock
