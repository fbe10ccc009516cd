"""A minimal discrete-event engine.

Deterministic: events at equal times fire in scheduling order. Used by
cluster-level scenarios (periodic workload ticks, failure injections,
recovery sweeps) where wall-clock-style ordering matters; the fleet model
uses fixed time-stepping instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from repro import context
from repro.errors import SimulationError
from repro.obs.instruments import engine_instruments
from repro.sim.clock import SimClock


@dataclass(order=True)
class _ScheduledEvent:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    done: bool = field(default=False, compare=False)


class Engine:
    """Event loop over a :class:`SimClock`.

    Cancelled events are dropped lazily: :meth:`cancel` only flags the
    event, and the heap sheds dead entries when they reach the top or when
    more than half of it (and at least :data:`COMPACT_MIN`) is dead. A live
    counter keeps ``len(engine)`` O(1) — it used to be an O(n) scan, which
    made progress checks quadratic in long scenarios.
    """

    COMPACT_MIN = 16

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock or SimClock()
        self._heap: list[_ScheduledEvent] = []
        self._seq = 0
        self._live = 0
        self._instr = engine_instruments()
        # Bound once at construction, like every instrumentation site:
        # with timeseries disabled the per-event cost is one `is None`.
        ctx = context.current()
        self._ts = ctx.timeseries
        self._faults = ctx.faults

    def __len__(self) -> int:
        """Live (scheduled, not cancelled) events — O(1)."""
        return self._live

    def schedule_at(self, when: float,
                    callback: Callable[[], None]) -> _ScheduledEvent:
        """Schedule ``callback`` at absolute time ``when``."""
        if when < self.clock.now:
            raise SimulationError(
                f"cannot schedule at {when}; clock is at {self.clock.now}")
        self._seq += 1
        event = _ScheduledEvent(time=when, seq=self._seq, callback=callback)
        heapq.heappush(self._heap, event)
        self._live += 1
        self._instr.queue_depth.set(self._live)
        return event

    def schedule_in(self, delay: float,
                    callback: Callable[[], None]) -> _ScheduledEvent:
        """Schedule ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        return self.schedule_at(self.clock.now + delay, callback)

    def schedule_every(self, interval: float, callback: Callable[[], None],
                       until: float | None = None) -> None:
        """Re-scheduling periodic callback, optionally bounded by ``until``."""
        if interval <= 0:
            raise SimulationError(
                f"interval must be positive, got {interval!r}")

        def tick() -> None:
            callback()
            next_time = self.clock.now + interval
            if until is None or next_time <= until:
                self.schedule_at(next_time, tick)

        self.schedule_in(interval, tick)

    def cancel(self, event: _ScheduledEvent) -> None:
        """Cancel a scheduled event (idempotent; no-op after it fired)."""
        if event.cancelled or event.done:
            return
        event.cancelled = True
        self._live -= 1
        self._instr.events_cancelled.inc()
        self._instr.queue_depth.set(self._live)
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap when it is mostly dead weight."""
        dead = len(self._heap) - self._live
        if dead >= self.COMPACT_MIN and dead > self._live:
            self._heap = [e for e in self._heap if not e.cancelled]
            heapq.heapify(self._heap)

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            event.done = True
            self._live -= 1
            self.clock.advance_to(event.time)
            self._instr.events_executed.inc()
            self._instr.queue_depth.set(self._live)
            if self._ts is not None:
                # Offer this instant to the periodic sampler; its
                # cadence gate decides whether a snapshot is taken.
                self._ts.maybe_sample(self.clock.now)
            if self._faults is not None:
                # Crash *between* events: the popped event is charged
                # (done, clock advanced) but its callback never ran —
                # the discrete-event analogue of power loss.
                self._faults.crash_if("engine.step", time=self.clock.now)
            event.callback()
            return True
        return False

    def run_until(self, when: float) -> None:
        """Run all events scheduled at or before ``when``; clock ends at ``when``."""
        while self._heap:
            head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                continue
            if head.time > when:
                break
            self.step()
        self.clock.advance_to(max(self.clock.now, when))

    def run(self, max_events: int = 1_000_000) -> int:
        """Drain the queue; returns events executed."""
        executed = 0
        while self.step():
            executed += 1
            if executed >= max_events:
                raise SimulationError(
                    f"engine exceeded {max_events} events; runaway schedule?")
        return executed
