"""Host-speed probe: times measured on a shared host, scaled to one speed.

The benchmark host gives its process a share of cores it shares with
others, and its speed moves between a fast and a slow phase about 1.5x
apart, in CPU time as well as in wall time. A run cannot average over a
phase that outlasts it, so raw host times of the same code spread by
more than any useful bound.

``HostSpeed`` measures the host's speed while the workload runs. A
SIGALRM interval timer interrupts the workload every ``PERIOD_S``; the
handler runs a fixed pure-Python probe and records how long it took. The
probe's own time is kept out of every measured duration: ``clock()`` is
host time minus the time spent in probes. ``scale()`` then rescales
each measured duration by the median probe time around it, to what it
would have taken on a host where the probe takes ``REFERENCE_S``. A slower phase
stretches the probe and the workload alike, so the scaled time stays
put; a slower program stretches only the workload, so it shows.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

#: Interval between probes, in host seconds.
PERIOD_S = 0.01
#: The probe time every scaled duration is expressed against: about the
#: probe's time in the fast phase of a 2-core Intel Xeon container.
REFERENCE_S = 200e-6
#: Probes a speed estimate rests on: the median of this many, about half
#: a second of them. One probe is itself noisy; the median of half a
#: second of them follows the host's phases and little else.
WINDOW = 51


def probe() -> int:
    """Fixed interpreter work: integer arithmetic and dict stores."""
    total = 0
    table = {}
    for i in range(1500):
        total += i * 3 % 7
        table[i & 255] = total
    return total


class HostSpeed:
    """Probe the host's speed in the background of the timed code."""

    def __init__(self) -> None:
        self.stolen = 0.0
        self.ticks: list[float] = []
        self.probe_s: list[float] = []
        self._previous = None
        self._busy = False

    def _tick(self) -> None:
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        probe()
        took = time.perf_counter() - start
        if enabled:
            gc.enable()
        # Ticks are stamped on the probe-free clock, like every duration.
        self.ticks.append(start - self.stolen)
        self.probe_s.append(took)
        self.stolen += time.perf_counter() - start

    def _handler(self, signum, frame) -> None:
        # A signal that lands while a probe runs would nest a second
        # probe inside the first and count its time twice.
        if not self._busy:
            self._busy = True
            try:
                self._tick()
            finally:
                self._busy = False

    def clock(self) -> float:
        """Host seconds, less the time spent in probes so far.

        A probe that interrupts between reading the host clock and
        reading ``stolen`` would be subtracted without being inside the
        interval; re-reading until ``stolen`` is unchanged rules it out.
        """
        while True:
            stolen = self.stolen
            now = time.perf_counter()
            if stolen == self.stolen:
                return now - stolen

    def sample(self, count: int) -> None:
        """Probe ``count`` times now, in the foreground."""
        for _ in range(count):
            self._tick()

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scale(self, start, seconds) -> np.ndarray:
        """Durations rescaled to a host whose probe takes REFERENCE_S.

        ``start`` and ``seconds`` are arrays on the ``clock()`` time
        base. A duration that holds at least WINDOW probes is scaled by
        their median; a shorter one by the median of the WINDOW probes
        centred on its middle.
        """
        start = np.asarray(start, dtype=float)
        seconds = np.asarray(seconds, dtype=float)
        count = len(self.probe_s)  # the handler may append meanwhile
        if count < WINDOW:
            raise RuntimeError(f"only {count} host-speed probes; at least "
                               f"{WINDOW} are needed")
        ticks = np.asarray(self.ticks[:count])
        probes = np.asarray(self.probe_s[:count])
        half = WINDOW // 2
        centred = np.median(np.lib.stride_tricks.sliding_window_view(
            np.pad(probes, half, mode="edge"), WINDOW), axis=1)
        nearest = np.clip(np.searchsorted(ticks, start + seconds / 2),
                          0, count - 1)
        speed = centred[nearest]
        lo = np.searchsorted(ticks, start)
        hi = np.searchsorted(ticks, start + seconds)
        for i in np.flatnonzero(hi - lo >= WINDOW):
            speed[i] = np.median(probes[lo[i]:hi[i]])
        return seconds * (REFERENCE_S / speed)
