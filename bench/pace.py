"""Machine-speed sampler: rescales measured times to a nominal machine speed.

On a shared host the same fixed work runs faster in some minutes than in
others, by more than the gain a change to the program is expected to show.
This sampler measures the machine's speed while the program runs: a
``SIGALRM`` interval timer interrupts the run every ``period`` seconds, and
the handler times one chunk of fixed reference work, a miniature of the
program's quadrature (a Python loop over cells, then a batch of small numpy
array operations on their nodes).  No thread or process is started.

The handler's own time is counted in ``stolen``, so a caller subtracts it
from the calls it times.  ``scale()`` is the factor that takes a time
measured during the sampled span to the time it would have taken at the
nominal speed, at which one reference chunk takes ``NOMINAL_CHUNK_S``.
Samples are uniform in time, and work done in a span is the time integral
of speed, so the machine's mean slowness over the span is the harmonic mean
of the chunk times.  The reference work is fixed in this file, so no change
to the program moves it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Median chunk time on the 2-core Intel Xeon host where the seed baseline
# was taken.  It only fixes the unit: every rescaled time is in seconds at
# this speed.
NOMINAL_CHUNK_S = 0.0035

_CELLS = 48
_NODES = np.linspace(-0.9, 0.9, 5)
_WEIGHTS = np.array([5.0, 8.0, 5.0, 8.0, 5.0]) / 31.0


def reference_chunk() -> float:
    """Fixed work: classify a lattice of cells, then evaluate a log-singular
    integrand on the nodes of the kept ones, eight times over."""
    total = 0.0
    for sweep in range(8):
        bounds, coeffs = [], []
        for i in range(_CELLS):
            x0 = -1.0 + (i % 8) * 0.25
            y0 = -1.0 + (i // 8) * 0.25 + 0.01 * sweep
            x1, y1 = x0 + 0.25, y0 + 0.25
            far = math.hypot(0.5 * (x0 + x1), 0.5 * (y0 + y1))
            if far < 1.2:
                bounds.append((x0, x1, y0, y1))
                coeffs.append(1.0 if far < 0.8 else 0.5)
        nb = np.asarray(bounds)
        xm = 0.5 * (nb[:, 0] + nb[:, 1])
        ym = 0.5 * (nb[:, 2] + nb[:, 3])
        hx = 0.5 * (nb[:, 1] - nb[:, 0])
        pts = (xm[:, None] + hx[:, None] * _NODES[None, :]) + 1j * (
            ym[:, None] + hx[:, None] * _NODES[::-1][None, :])
        f = np.log(np.abs(pts - 0.3 + 0.1j)) * np.exp(-pts.real) + pts * pts.conj()
        vals = (f @ _WEIGHTS) * hx * hx
        for i, c in enumerate(coeffs):
            total += c * float(np.max(np.abs(f[i] - vals[i]))) + abs(vals[i])
    return total


class Pace:
    def __init__(self, period: float = 0.2):
        self.period = period
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_chunk()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.stolen += dt

    def start(self) -> None:
        reference_chunk()  # warm up before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def slowness(self) -> float:
        """Harmonic mean of the chunk times, in seconds per chunk."""
        return statistics.harmonic_mean(self.samples)

    def scale(self) -> float:
        return NOMINAL_CHUNK_S / self.slowness()
