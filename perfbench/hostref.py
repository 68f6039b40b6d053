"""How fast the shared host runs, sampled inside the benchmark's own process.

On a shared host the same pass of pure-Python work can take half as long
again for minutes at a time, because other tenants load the machine; raw
times of runs made minutes apart then spread as wide as the benchmark's
regression bounds.  ``HostClock`` interrupts the benchmark every ``PERIOD_S`` with
SIGALRM and, in the signal handler, times a fixed reference load: a
fraction-free integer elimination written here, the same kind of
interpreter work as the package's exact rank, and nothing from the package.
The time spent in the handler is paused time and is subtracted from the
operation it interrupted.  ``scale`` reports a pass whose samples average
``t_ref`` as ``pass_s * REF_QUIET_S / t_ref``: seconds on a host where the
reference takes ``REF_QUIET_S``.

The handler runs on the benchmark's own core between bytecodes, never
beside the package, so the package's own load does not slow the
reference.  Long calls into C (LAPACK) defer the signal until they return.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.25
# The reference's time when the host is quiet (its fastest samples on a
# 2-vCPU x86-64 host); only ratios to it matter, so it is fixed once.
REF_QUIET_S = 0.0035

_N = 40
# A dense matrix with entries in [-3, 3] from a fixed linear congruential
# sequence; its entries grow to many machine words during elimination.
_SEQ = [(1103515245 * k + 12345) % 2**31 for k in range(1, _N * _N + 1)]
_MATRIX = [[_SEQ[i * _N + j] % 7 - 3 for j in range(_N)] for i in range(_N)]


def _eliminate(rows: list[list[int]]) -> None:
    """Fraction-free (Bareiss) elimination with Python integers."""
    a = [row[:] for row in rows]
    n, prev = len(a), 1
    for k in range(n - 1):
        if a[k][k] == 0:
            continue
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]


def reference_s() -> float:
    """Seconds taken by one run of the reference load."""
    start = time.perf_counter()
    _eliminate(_MATRIX)
    return time.perf_counter() - start


class HostClock:
    """Samples the reference on a timer while started.

    ``samples`` holds every reference time taken; ``paused_s`` is the total
    time spent in the handler, for operations to subtract.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.paused_s = 0.0

    def _handler(self, signum, frame):
        start = time.perf_counter()
        took = reference_s()
        self.samples.append(took)
        self.paused_s += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # A signal already pending must not fall back to the default action,
        # which ends the process.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def sample(self, count: int) -> list[float]:
        """Take ``count`` samples now, outside any timed operation."""
        taken = [reference_s() for _ in range(count)]
        self.samples += taken
        return taken


def scale(seconds: float, refs: list[float]) -> float:
    """``seconds`` measured while the reference took ``refs``, on a quiet host."""
    return seconds * REF_QUIET_S / statistics.fmean(refs)


CLOCK = HostClock()
