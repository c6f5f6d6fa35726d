"""Scaling of measured times to a fixed reference machine speed.

The benchmark's reference box is a shared 2-vCPU virtual machine whose speed
drifts by up to about 20% over tens of seconds: a fixed loop's 20-second
means ranged over 14.5-18.5 ms, and this shows in CPU time as well as wall
time, so neither longer runs nor minima make raw seconds from runs minutes
apart comparable at the 5-10% level.  Every timed interval is therefore
bracketed by a fixed calibration kernel of the same kind of work as the
library's (exact elimination over Fractions with ``oracle.rank``), and
scaled by ``REFERENCE_S / kernel time``.  The speed switches between two
levels about 1.7x apart within a second or so, so a long op also gets kernel
samples from inside it (see Sampler).  A scaled time reads as seconds on a
machine where the kernel takes REFERENCE_S; raw times are printed too.
"""

from __future__ import annotations

import signal
import time
from typing import List

import oracle

# About the kernel's time on the 2-core box of the first baseline, when busy.
REFERENCE_S = 0.001
# Process CPU seconds between two kernel samples taken inside an op.
INTERVAL_S = 0.1

_MATRIX = [
    [-1, 2, 7, -9, 5, -2, -8],
    [-4, -6, 2, 6, -2, 3, 8],
    [-6, 9, -2, -9, -3, 4, -1],
    [-4, 3, -4, -7, -5, 5, -5],
    [-5, -9, -9, -3, -3, -4, -4],
    [0, 1, -3, 8, -3, -4, -3],
    [3, 0, -9, 2, 4, -4, -5],
]


def kernel_seconds() -> float:
    """Fastest of three timings of the calibration kernel (noise only adds)."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        oracle.rank(_MATRIX)
        oracle.rank(_MATRIX)
        samples.append(time.perf_counter() - t0)
    return min(samples)


class Sampler:
    """Kernel timings around and, once armed, inside the ops of a pass.

    Armed (``with sampler:``), SIGPROF takes a sample every INTERVAL_S of
    process CPU time, so an op of a second or more is scaled by the speed
    during it and not only at its ends.  ``spent`` accumulates the time the
    samples took, for the caller to subtract from the op that contained them.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self._busy = False

    def take(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def scale_since(self, first: int) -> float:
        """Factor to reference seconds from the samples taken since index ``first``."""
        recent = self.samples[first:]
        return REFERENCE_S * len(recent) / sum(recent)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, lambda signum, frame: self.take())
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)


def scale(before: float, after: float) -> float:
    """Factor turning a time measured between two kernel timings into reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
