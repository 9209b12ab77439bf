"""Host-speed calibration.

On a shared host the same code runs ±10–15% apart from one pass to the
next, depending on what the neighbours do, and the host's speed moves
within a second.  So the calibration loop is sampled *during* each
timed pass: a timer signal runs one short spin every
:data:`INTERVAL_S`, and the pass time is rescaled by how slow the spins
ran meanwhile.  The result is in *reference seconds*: the time the pass
would have taken on a host where one spin takes :data:`REFERENCE_S`.
Timing the loop only before and after a pass tracked the host worse
than not calibrating at all, because the speed had changed by the time
the pass ran.

Apart from its one ``itertools.repeat`` iterator, the spin allocates
nothing: every integer it makes stays inside CPython's cache of small
ints and the iterator yields the same ``None`` object, so it stays out of
the allocator and the garbage collector the program under test uses, and
it touches no program object.
"""

from __future__ import annotations

import signal
import time
from itertools import repeat

#: Loop trips per spin; one spin takes about 60 µs on the recording host.
SPIN_TRIPS = 1000
#: Timer period between spins (so the spins cost about 0.6% of a pass).
INTERVAL_S = 0.01
#: Mean spin time on the recording host (x86-64, 2 vCPUs, CPython 3.11).
REFERENCE_S = 6.0e-5


def _spin(trips: int) -> None:
    x = 1
    for _ in repeat(None, trips):
        x = (x * 3 + 1) & 0x3F


class HostSpeed:
    """Context manager sampling the spin while the body runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        _spin(SPIN_TRIPS)
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample(signal.SIGALRM, None)

    @property
    def spin_s(self) -> float:
        """Mean spin time over the body."""
        return sum(self.samples) / len(self.samples)

    @property
    def spent_s(self) -> float:
        """Host time the spins themselves took."""
        return sum(self.samples)

    @property
    def factor(self) -> float:
        """Multiply host seconds of the body by this to get reference seconds."""
        return REFERENCE_S / self.spin_s
