"""A clock that runs at the speed of a fixed reference kernel.

On a shared machine the speed of a core can change by a factor of two within
seconds, while the process keeps the core.  Because the benchmark's process
is not descheduled, its CPU time rises with its wall time and cannot absorb
that change.  This clock does absorb it.  A timer signal interrupts the
program every ``PERIOD`` seconds and runs a small pure-Python kernel.  The
clock advances by the elapsed time outside the handler, scaled by
(``REF_S`` / mean kernel time of the last ``WINDOW`` ticks) **
``SENSITIVITY``.  A reading is therefore in reference seconds.  It is the
time the same work takes when the kernel runs in ``REF_S``, i.e. at a fixed
machine speed.  The
kernel is independent of mtc, so a change to mtc cannot move it.
"""

from __future__ import annotations

import collections
import signal
import time

PERIOD = 0.005
WINDOW = 20
REF_S = 6e-5
# Under contention the kernel's time moves more than mtc's.  On a shared
# 2-vCPU machine, two-minute samples of log(mtc time) against log(kernel
# time) gave slopes from 0.66 to 0.86 (correlation 0.93 to 0.98) on module
# sweeps and on coherence.
SENSITIVITY = 0.75


def _kernel() -> float:
    # dict, tuple and int churn, like the interpreter-bound parts of mtc
    table = {}
    acc = 0.0
    for i in range(60):
        table[(i % 7, i % 5)] = tuple(int(x) for x in (i, i + 1))
        acc += len(table) * 0.5
    return acc


class ReferenceClock:
    """Call the instance for the current reading.  ``start`` and ``stop``
    install and remove the timer; the clock stands still while stopped.
    One running instance per process."""

    def __init__(self):
        self._samples = collections.deque(maxlen=WINDOW)
        self._acc = 0.0
        self._last = 0.0
        self._factor = 1.0
        self._previous = None
        self._running = False
        self.ticks = 0
        self.raw_s = 0.0  # perf_counter seconds counted, handler excluded

    def start(self) -> None:
        for _ in range(WINDOW):
            t0 = time.perf_counter()
            _kernel()
            self._samples.append(time.perf_counter() - t0)
        self._update_factor()
        self._last = time.perf_counter()
        self._running = True
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._advance(time.perf_counter())
        self._running = False

    def _update_factor(self) -> None:
        mean = sum(self._samples) / len(self._samples)
        self._factor = (REF_S / mean) ** SENSITIVITY

    def _advance(self, now: float) -> None:
        self._acc += (now - self._last) * self._factor
        self.raw_s += now - self._last
        self._last = now

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._advance(t0)
        _kernel()
        self._samples.append(time.perf_counter() - t0)
        self._update_factor()
        self.ticks += 1
        self._last = time.perf_counter()

    def __call__(self) -> float:
        if not self._running:
            return self._acc
        while True:  # a tick between the reads would mix two states
            ticks = self.ticks
            value = self._acc + (time.perf_counter() - self._last) * self._factor
            if ticks == self.ticks:
                return value
