"""A fixed reference kernel that tracks how fast this machine runs Python right now.

On a shared host the CPU speed a process gets changes in spells of a
tenth of a second to a minute, by up to about 1.9 times. While the ops
run, a ``Sampler`` times one call of the kernel every ``INTERVAL_S`` of
wall time from a SIGALRM handler, also in the middle of a long op. The
loop takes the sampler's own time out of each op time and divides what
is left by the kernel times measured during and around the op. Op
times are then given in reference seconds: seconds on a machine where
one kernel call takes ``REFERENCE_S``. The kernel lives in the
benchmark, not in the package, so a change to the package moves op
times and never the kernel.

The kernel does what the package's hot loops do: it walks coalition
bitmasks over rows of float payoffs, compares them, and builds
frozensets of member ids.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

# Scale of reference seconds: about the kernel's time on a 2-CPU x86-64
# VM running Python 3.11, between its slow and fast spells.
REFERENCE_S = 0.002
INTERVAL_S = 0.05
NEIGHBOURS = 2  # samples taken on each side of an op that also set its speed

_N = 8
_rng = random.Random(20251012)
_ROWS = [tuple(_rng.uniform(-100.0, -20.0) for _ in range(_N)) for _ in range(1 << _N)]
_IDS = tuple(range(3, 3 + _N))
_ACTIONS = tuple(_rng.randrange(1 << _N) for _ in range(12))


def _members(c: int) -> frozenset:
    return frozenset(_IDS[k] for k in range(_N) if c >> k & 1)


def kernel() -> int:
    found = 0
    for x in _ACTIONS:
        base = _ROWS[x]
        improving = []
        for c in range(1, 1 << _N):
            target = _ROWS[x ^ c]
            m = c
            ok = True
            while m:
                b = (m & -m).bit_length() - 1
                if target[b] <= base[b] * 1.0001:
                    ok = False
                    break
                m &= m - 1
            if ok or c & 7 == 7:
                improving.append(c)
        found += len(frozenset(_members(c) for c in improving))
    return found


def measure() -> float:
    """Seconds one kernel call takes now.

    The garbage collector is off meanwhile, so the kernel time does not
    depend on how many objects the package holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, kernel_s: float) -> float:
    """Wall seconds in reference seconds, at the given kernel time."""
    return seconds * REFERENCE_S / kernel_s


class Sampler:
    """Times the kernel every ``INTERVAL_S`` of wall time while it is entered.

    It samples once on entry and once on exit too, so every op timed
    inside has a sample before and after it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, kernel seconds)
        self._busy = False
        self._old = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        started = time.perf_counter()
        seconds = measure()
        self.samples.append((started, time.perf_counter(), seconds))
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def stolen(self, first: int, started: float, ended: float) -> float:
        """Seconds the sampler took between ``started`` and ``ended``, looking from sample ``first`` on."""
        return sum(e - s for s, e, _ in self.samples[first:] if s >= started and e <= ended)

    def kernel_times(self, spans) -> list[float]:
        """For each (start, end) span, the median kernel time of the samples during it and its neighbours."""
        starts = [s for s, _, _ in self.samples]
        times = []
        for started, ended in spans:
            lo = max(bisect.bisect_left(starts, started) - NEIGHBOURS, 0)
            hi = bisect.bisect_right(starts, ended) + NEIGHBOURS
            times.append(statistics.median(k for _, _, k in self.samples[lo:hi]))
        return times
