"""Host-speed sampler: times a fixed reference kernel every few milliseconds
while the program runs, so that timings can be scaled to one host speed.

On a shared host the speed of this process drifts by 20-50% over seconds
to minutes, as other tenants load the machine.  A request's wall time then
says as much about the neighbours as about the program.  The sampler
interrupts the running program every ``PERIOD_S`` with ``SIGALRM`` and times
:func:`kernel` in the handler, so the kernel runs on the same CPU, at the
same moments and under the same contention as the program.  The time the
handler takes is subtracted from whatever was being timed, and each timed
interval is multiplied by
``(KERNEL_NOMINAL_S / median(kernel times)) ** ELASTICITY``, over the
kernel calls made during the interval or, for a short one, the
``MIN_SAMPLES`` calls nearest to it: about the time the work would have
taken on a host where one kernel call takes ``KERNEL_NOMINAL_S``.  The
speed drifts within a run too, so a run-wide factor would leave each
request's share of the drift in it; a median over fewer calls is itself
too noisy.

The kernel is a fixed mix of two parts.  A tight integer loop slows down
somewhat less than the program when the host is loaded, and a part that
multiplies short polynomials of ``Fraction`` and formats the result through
a dict and JSON slows down more; with about two thirds of the kernel's time
in the loop they track the program's own slowdown.  On a 2-vCPU shared VM,
over 30 s stretches of 4-minute runs that timed the two parts alternately,
the quartile spread of the unscaled request rate was 34% on
``cli-interactive`` and 12% on ``free-highorder``; scaled by the loop
alone, 5-6% and 2-3%; by the other part alone, 10-16% and 7-11%; by their
geometric mean weighted 0.7 to 0.3, under 2% on both.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.01
MIN_SAMPLES = 200
KERNEL_ITERATIONS = 1600
KERNEL_NOMINAL_S = 3.0e-4
# How much the program slows when the kernel slows: minus the log-log
# slope of the unscaled request rate on the run's median kernel time.  On
# the seed program, over two sets of ten runs per workload, it was 0.70 and
# 0.77 on free-highorder, 0.87 and 1.25 on cli-interactive, 0.65 and 0.88
# on verify-all.
ELASTICITY = 0.75

_MASK = (1 << 127) - 1


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def kernel(n: int = KERNEL_ITERATIONS) -> str:
    """The reference work; its result is fixed and of no interest."""
    x = 1
    for i in range(n):
        x = (x * 0x9E3779B97F4A7C15 + i) & _MASK
    a = [Fraction(k + 1, 2 * k + 3) for k in range(5)]
    b = [Fraction(3 - k, k + x % 5 + 2) for k in range(5)]
    terms = {str(i): c for i, c in enumerate(_poly_mul(a, b))}
    return json.dumps([f"{k}:{v}" for k, v in sorted(terms.items(), key=lambda kv: kv[1])])


class Sampler:
    """Collects kernel times while running; ``busy`` is the total time
    spent in the handler, to be subtracted from the caller's timings."""

    def __init__(self):
        self.at: list[float] = []  # start of each kernel call, increasing
        self.samples: list[float] = []
        self.busy = 0.0
        self._inside = False

    def _handler(self, signum, frame) -> None:
        if self._inside:  # a tick that came while the last one ran
            return
        self._inside = True
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.at.append(t0)
        self.samples.append(dt)
        self.busy += dt
        self._inside = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """Factor that takes a wall time measured from ``t0`` to ``t1`` to
        the nominal host speed, from the kernel calls made in that interval,
        widened to the ``MIN_SAMPLES`` calls nearest to it."""
        n = len(self.at)
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        short = MIN_SAMPLES - (hi - lo)
        if short > 0:
            lo, hi = lo - (short + 1) // 2, hi + short // 2
            if lo < 0:
                lo, hi = 0, hi - lo
            if hi > n:
                lo, hi = max(0, lo - (hi - n)), n
        return (KERNEL_NOMINAL_S / statistics.median(self.samples[lo:hi])) ** ELASTICITY
