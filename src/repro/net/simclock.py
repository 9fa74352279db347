"""Discrete-event simulation clock.

Events are callbacks scheduled at absolute times; :meth:`SimClock.run`
dispatches them in time order (FIFO among equal times). All simulated
components (network links, servers, scripted clients) share one clock, so
measured latencies are deterministic and independent of wall-clock noise.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable

from repro.errors import NetworkError


class SimClock:
    """A priority queue of timed callbacks."""

    def __init__(self) -> None:
        #: Current simulated time in seconds: read anywhere, written here.
        self.now = 0.0
        self._sequence = itertools.count()
        self._queue: list[tuple[float, int, Callable[[], None]]] = []

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run *callback* at ``now + delay`` (delay >= 0)."""
        if delay < 0:
            raise NetworkError(f"cannot schedule into the past (delay={delay})")
        heappush(self._queue, (self.now + delay, next(self._sequence), callback))

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run *callback* at absolute simulated *time* (>= now)."""
        self.schedule(time - self.now, callback)

    @property
    def pending(self) -> int:
        """Number of events not yet dispatched."""
        return len(self._queue)

    def step(self) -> bool:
        """Dispatch the next event; False when the queue is empty."""
        if not self._queue:
            return False
        self.now, _, callback = heappop(self._queue)
        callback()
        return True

    def run(self, max_events: int = 1_000_000) -> int:
        """Dispatch until idle; returns the number of events processed.

        *max_events* guards against runaway feedback loops (an event that
        always schedules another).
        """
        count = 0
        while self.step():
            count += 1
            if count >= max_events:
                raise NetworkError(f"simulation exceeded {max_events} events")
        return count

    def run_until(self, time: float, max_events: int = 1_000_000) -> int:
        """Dispatch events with timestamps <= *time*; advance now to *time*."""
        count = 0
        while self._queue and self._queue[0][0] <= time:
            self.step()
            count += 1
            if count >= max_events:
                raise NetworkError(f"simulation exceeded {max_events} events")
        self.now = max(self.now, time)
        return count
