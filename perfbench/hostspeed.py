"""Scaling measured times to a reference host speed.

Other tenants of a shared host can slow its CPU by half or more, in spells
of seconds to minutes, so one run can read 60% slower than the next with the
same code.  A ``SpeedProbe`` times a fixed pure-Python kernel every
``PROBE_S`` seconds from a SIGALRM handler, so that samples fall inside long
ops as well as between them.  An interval's time, minus the probe's own
time inside it, is scaled by ``K_REF_S`` over the mean kernel time measured
in and around it.  ``K_REF_S`` is the kernel's time on an idle 2.1 GHz
x86-64 host running CPython 3.11, so scaled times are seconds on such a
host, and they no longer move with the load other tenants put on it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from typing import Dict, List

K_REF_S = 0.0030
PROBE_S = 0.1


def calibration_kernel():
    """Fixed work in the library's mix: Fraction and complex arithmetic and
    dict updates.  It never calls pfdimers, so a change there cannot move it."""
    x = Fraction(0)
    for i in range(1, 500):
        x += Fraction(i, i + 1) * Fraction(i + 2, 3)
    row = [complex(i, -i) for i in range(64)]
    z = 0j
    for _ in range(50):
        for c in range(64):
            z += row[c] * (1.0 + 0.5j) - row[c - 1]
    d: Dict[int, int] = {}
    for i in range(4000):
        d[i * 7 % 1013] = d.get(i * 7 % 1013, 0) + 1
    return x, z, len(d)


class SpeedProbe:
    """Context manager sampling the kernel time while the body runs."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, *signal_args) -> None:
        t0 = time.perf_counter()
        calibration_kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def own_time(self, t0: float, t1: float) -> float:
        """Time the probe itself spent inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.durations[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] without the probe's time, at reference speed."""
        lo = bisect.bisect_left(self.starts, t0 - PROBE_S)
        hi = bisect.bisect_right(self.starts, t1 + PROBE_S)
        near = self.durations[lo:hi] or [self.durations[max(lo - 1, 0)]]
        return (t1 - t0 - self.own_time(t0, t1)) * K_REF_S / statistics.fmean(near)
