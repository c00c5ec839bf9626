"""A minimal discrete-event simulation engine.

A :class:`Simulator` owns a virtual clock and a priority queue of
events; callbacks scheduled with :meth:`Simulator.schedule` run in
timestamp order (FIFO among equal timestamps, guaranteed by a
monotonic sequence number).  There is no real time involved — a minute
of simulated load runs in milliseconds to seconds of wall clock, which
is what makes the paper's saturation sweeps tractable on one machine.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import SaturationError, SimulationError

Callback = Callable[[], None]


@dataclass(order=True)
class Event:
    """One scheduled callback; ordering is (time, sequence)."""

    time: float
    sequence: int
    callback: Callback = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """Virtual-time event loop."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Event] = []
        self._sequence = itertools.count()
        self.processed = 0

    def schedule(self, delay: float, callback: Callback) -> Event:
        """Run *callback* at ``now + delay``; returns a cancellable handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        event = Event(self.now + delay, next(self._sequence), callback)
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, callback: Callback) -> Event:
        return self.schedule(time - self.now, callback)

    def step(self) -> bool:
        """Process the next event; False when the queue is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = event.time
            event.callback()
            self.processed += 1
            return True
        return False

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Process events up to *end_time* (inclusive); returns the count.

        Raises :class:`SaturationError` once *max_events* have run.
        """
        executed = 0
        while self._heap:
            head = self._heap[0]
            if head.time > end_time:
                break
            if not self.step():
                break
            executed += 1
            if max_events is not None and executed >= max_events:
                raise SaturationError(
                    f"event budget exhausted ({max_events}) before t={end_time}; "
                    "the simulated system is likely deeply saturated"
                )
        self.now = max(self.now, end_time)
        return executed

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until no events remain; :class:`SaturationError` past
        *max_events*."""
        executed = 0
        while self.step():
            executed += 1
            if max_events is not None and executed >= max_events:
                raise SaturationError(f"event budget exhausted ({max_events})")
        return executed

    @property
    def pending(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)
