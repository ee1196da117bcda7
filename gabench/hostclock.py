"""Wall time corrected for contention on a shared host.

On a VM that shares its cores with other tenants the same Python code runs
up to two or three times slower for minutes at a time, with no steal time:
the core itself is busy elsewhere, so CPU time grows with wall time. The
HostClock measures that slowdown while the program runs. A SIGALRM timer
interrupts the process every PERIOD_S seconds, runs a fixed probe once to
warm the caches the program just used, and times a second run (interpreter
and small numpy work that does not touch qcevolve; about 45 us on an idle
core). Over any interval, the mean probe time against the uncontended probe
time PROBE_REF_S gives the slowdown, and

    corrected = (wall time - sampling time) * PROBE_REF_S / mean probe time

is the interval's wall time at the reference speed. The probe does not
depend on the program, so a faster program reads faster, and a slower host
reads the same.
"""
from __future__ import annotations

import signal
from array import array
from bisect import bisect_left
from time import perf_counter

import numpy as np

PERIOD_S = 0.01
MIN_SAMPLES = 8  # an interval with fewer samples borrows its nearest ones
# the fastest timed probe in the timer handler on the reference machine
# (Xeon, 2.1 GHz, Python 3.11). It only sets the scale: a corrected time is
# close to the wall time an uncontended core would take.
PROBE_REF_S = 45e-6

_SMALL = np.full(4, 0.5 + 0.5j)
_MATRIX = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_KEYS = [f"k{i}" for i in range(16)]


def _add(a: int, b: int = 1) -> int:
    return a + b


def probe() -> int:
    """Fixed work in the mix the program does: dict and list traffic,
    Python calls, and numpy calls on arrays of a few elements."""
    table: dict[str, int] = {}
    items = []
    for i in range(60):
        key = _KEYS[i & 15]
        table[key] = table.get(key, 0) + i
        items.append((key, i))
    items.sort(key=lambda item: item[1] % 7)
    x = 0
    for i in range(100):
        x = _add(x, i) if i & 1 else _add(x)
    v = _SMALL
    for _ in range(6):
        v = (_MATRIX @ v.reshape(2, 2)).reshape(4) * 0.5 + _SMALL
    return len(table) + len(items) + x + int(abs(v[0]) > 1)


class HostClock:
    """Samples the probe on a timer while installed (one per process).
    Sampling takes about 2 % of the process's time."""

    def __init__(self):
        self.at = array("d")  # sample start times
        self.took = array("d")  # timed probe durations
        self.spent = array("d")  # whole sample durations, warm-up included
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        probe()  # warm-up: the program has just evicted the probe's caches
        t1 = perf_counter()
        probe()
        t2 = perf_counter()
        self.at.append(t0)
        self.took.append(t2 - t1)
        self.spent.append(t2 - t0)

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1) would take at the probe's reference
        speed. Uses the samples inside it, or the nearest few when it holds
        fewer than MIN_SAMPLES."""
        lo, hi = bisect_left(self.at, t0), bisect_left(self.at, t1)
        inside = sum(self.spent[lo:hi])
        if hi - lo < MIN_SAMPLES:
            mid = (lo + hi) // 2
            lo, hi = max(0, mid - MIN_SAMPLES // 2), min(len(self.at), mid + MIN_SAMPLES // 2)
        if hi <= lo:
            raise RuntimeError("no probe samples: the timer never fired")
        mean = sum(self.took[lo:hi]) / (hi - lo)
        return (t1 - t0 - inside) * PROBE_REF_S / mean
