"""Times in reference seconds: wall time corrected for the host's speed.

The benchmark runs on shared hosts whose speed drifts: the same work takes
up to twice as long in some phases as in others, in CPU time as well as in
wall time, and a phase can last from under a second to minutes. A `Meter`
samples that speed all through a measured process: every INTERVAL_S of wall
time a SIGALRM handler times one pass of `kernel()`, a fixed piece of work
that imports nothing from the program. Readings of `Meter.wall()` leave out
the time spent in the handler. After the run, `Meter.reference(t0, t1)`
turns the span between two readings into reference seconds: each stretch of
it is scaled by REFERENCE_S over the kernel time sampled nearest to it.
Speed phases can flip within a tenth of a second, so a sample stands for
its own stretch only; the errors of single samples average out over the
many stretches a measured time spans. A reference second is the time the
same work would take on a host where the kernel takes REFERENCE_S, about its
time on the 2-vCPU reference machine (see README.md).
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
REFERENCE_S = 0.5e-3

_Z = np.linspace(0.1, 3.0, 15) + 0.05j


def kernel() -> float:
    """Fixed work like most of the program's: interpreted loops over small
    complex arrays and over scalars and dict lookups. (A vector part over
    1025-point arrays was left out: its time moved by up to 20% from one
    process to the next on the same host.)"""
    acc = 0.0
    z = _Z
    for i in range(24):
        w = np.sqrt(z * z - (0.3 + 0.01 * i))
        r = (w - z) / (w + z)
        acc += float(np.sum(r.imag * np.exp(-w.real)))
        d = {"a": i, "b": acc}
        for j in range(20):
            acc += math.sin(j * 0.1) * d["a"] * 1e-9
    return acc


class Meter:
    """Samples the host's speed with SIGALRM between start() and stop();
    see the module docstring. Only one Meter may run in a process."""

    def __init__(self):
        self.ticks = []              # wall() reading at each sample
        self.samples = []            # kernel time of each sample, seconds
        self._paused = 0.0           # wall time spent in the handler
        self._count = 0              # bumped by every tick, so readers can retry
        self._running = False
        self._table = None           # (edges, cumulative reference seconds)

    def start(self):
        kernel()                     # warm: the first pass pays for lookups
        self._sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._running = True
        return self

    def stop(self):
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False
            self._sample()

    def _sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.ticks.append(t0 - self._paused)
        self.samples.append(t1 - t0)
        self._paused += t1 - t0

    def _tick(self, signum, frame):
        self._sample()
        self._count += 1

    def _read(self, value):
        # a tick may land between the reads of one reading: retry it then
        while True:
            count = self._count
            v = value()
            if count == self._count:
                return v

    def wall(self) -> float:
        """Wall seconds since an arbitrary origin, handler time left out."""
        return self._read(lambda: time.perf_counter() - self._paused)

    def paused(self) -> float:
        """Wall seconds spent sampling so far."""
        return self._read(lambda: self._paused)

    def median_scale(self) -> float:
        """Reference seconds per wall second over all samples so far."""
        return self._read(lambda: REFERENCE_S / statistics.median(self.samples))

    def reference(self, t0, t1):
        """Reference seconds between wall() readings t0 and t1 (numbers or
        arrays); call after stop()."""
        if self._table is None:
            ticks = np.asarray(self.ticks)
            # each sample's speed holds from midway after the previous
            # sample to midway before the next; the first and last extend an
            # hour out, past any run
            edges = np.concatenate(([ticks[0] - 3600.0],
                                    0.5 * (ticks[1:] + ticks[:-1]),
                                    [ticks[-1] + 3600.0]))
            total = np.concatenate(([0.0],
                                    np.cumsum(np.diff(edges) * REFERENCE_S /
                                              np.asarray(self.samples))))
            self._table = edges, total
        edges, total = self._table
        return np.interp(t1, edges, total) - np.interp(t0, edges, total)
