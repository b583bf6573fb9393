"""Host-speed normalisation of measured wall times.

On a shared host the speed of one core drifts by up to 1.7x within tens of
seconds with other load on the host, and the two cores drift independently
of each other.  A wall time alone then says more about the neighbours than
about the program.  `SpeedProbe` measures the host's speed
in the measured thread itself, while the program runs: every `PERIOD_S` a
SIGALRM handler runs a fixed pure-Python reference kernel and records how
long it took.  `scaled()` converts a wall interval into *nominal seconds*:
each stretch of program time between two probes is multiplied by
`NOMINAL_KERNEL_S / d`, where `d` is the median duration of the nearest
probes.  A nominal second is a second on a host that runs the kernel in
exactly `NOMINAL_KERNEL_S`; on a quiet 2.1 GHz Xeon vCPU it takes
0.75-1.0 ms.

The probe's own time is excluded from the result.  The kernel is pure
Python and touches neither numpy nor the package, so a change to the
program cannot change the yardstick, and the probe can start before the
package is imported, which lets it time a fresh process's set-up.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.04
KERNEL_ITERS = 5000
NOMINAL_KERNEL_S = 0.001
WINDOW = 5                     # probes whose median speed scales one stretch


def _kernel():
    """Integer and float arithmetic, tuple allocation and dict stores: the
    interpreter work the package does between its numpy calls."""
    acc = 0
    x = 0.0
    table = {}
    for i in range(KERNEL_ITERS):
        acc += i * i
        x += i * 0.5
        table[i & 63] = (i, x)
    return acc, x, len(table)


class SpeedProbe:
    """Periodic reference-kernel timings in the calling (main) thread."""

    def __init__(self):
        self.samples = []          # (start, end) of each kernel run, perf_counter
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        _kernel()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self):
        for _ in range(3):         # warm the kernel before it is a yardstick
            _kernel()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, t0, t1):
        """Nominal seconds of program time between perf_counter readings t0 and t1."""
        inside = [s for s in self.samples if s[0] >= t0 and s[1] <= t1]
        if len(inside) < WINDOW:
            raise ValueError(f"{len(inside)} speed probes in {t1 - t0:.3f} s; "
                             f"at least {WINDOW} are needed")
        durations = [end - start for start, end in inside]
        half = WINDOW // 2
        total = 0.0
        previous_end = t0
        for i, (start, end) in enumerate(inside):
            lo = min(max(0, i - half), len(inside) - WINDOW)
            speed = statistics.median(durations[lo:lo + WINDOW])
            total += (start - previous_end) * NOMINAL_KERNEL_S / speed
            previous_end = end
        total += (t1 - previous_end) * NOMINAL_KERNEL_S / speed
        return total

    def kernel_s(self, t0, t1):
        """Median kernel duration between t0 and t1 (wall seconds)."""
        return statistics.median(e - s for s, e in self.samples if s >= t0 and e <= t1)
