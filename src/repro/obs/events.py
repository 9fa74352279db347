"""Flight recorder: a bounded ring buffer of structured events.

Metrics say *how much*; the flight recorder says *what happened, in what
order*. Components emit events at decision points — a journal
checkpoint, a room emptying, a propagation fan-out, a prefetch eviction
— and the :class:`EventLog` keeps the most recent ``capacity`` of them,
evicting oldest first, so an always-on recorder cannot grow without
bound.

Each event carries a name, a severity (:data:`DEBUG` .. :data:`ERROR`),
free-form key/value fields and a timestamp from the injectable clock. An
event that belongs to a delivery trace says so in its own fields
(``dtrace.slo_breach`` carries its ``trace_id``). Subscribers registered with
:meth:`EventLog.subscribe` see every event as it is emitted — the live
telemetry channel hangs off this hook.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Any, Callable, Iterator

#: Severity levels, ordered. Comparisons use the numeric rank.
DEBUG = "DEBUG"
INFO = "INFO"
WARN = "WARN"
ERROR = "ERROR"

SEVERITIES: tuple[str, ...] = (DEBUG, INFO, WARN, ERROR)
_SEVERITY_RANK: dict[str, int] = {name: rank for rank, name in enumerate(SEVERITIES)}


def severity_rank(severity: str) -> int:
    """Numeric rank of a severity name (raises on unknown names)."""
    try:
        return _SEVERITY_RANK[severity]
    except KeyError:
        raise ValueError(f"unknown severity {severity!r}; expected one of {SEVERITIES}")


class Event:
    """One recorded occurrence; immutable once emitted."""

    __slots__ = ("seq", "name", "severity", "at", "fields")

    def __init__(
        self, seq: int, name: str, severity: str, at: float, fields: dict[str, Any]
    ) -> None:
        self.seq = seq
        self.name = name
        self.severity = severity
        self.at = at
        self.fields = fields

    def to_dict(self) -> dict[str, Any]:
        """Deterministic serializable form (fields emitted sorted)."""
        return {
            "seq": self.seq,
            "name": self.name,
            "severity": self.severity,
            "at": self.at,
            "fields": {key: self.fields[key] for key in sorted(self.fields)},
        }

    def render(self) -> str:
        """One-line human form: ``[  1.500] WARN  net.drop  node=c1``."""
        fields = " ".join(f"{key}={self.fields[key]}" for key in sorted(self.fields))
        return f"[{self.at:9.3f}] {self.severity:<5} {self.name}" + (
            f"  {fields}" if fields else ""
        )

    def __repr__(self) -> str:
        return f"Event({self.name!r}, {self.severity}, at={self.at:.6f})"


class EventLog:
    """Bounded ring buffer of :class:`Event` with live subscribers.

    Parameters
    ----------
    capacity:
        Events retained; the oldest is evicted when a new one arrives at
        capacity (flight-recorder semantics — the recent past survives).
    clock:
        Zero-argument callable supplying timestamps when ``emit`` is not
        given an explicit ``at``. Inject a simulated clock for
        determinism.
    """

    def __init__(
        self, capacity: int = 1024, clock: Callable[[], float] | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError("EventLog capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock if clock is not None else time.perf_counter
        self._events: deque[Event] = deque(maxlen=capacity)
        self._seq = itertools.count(1)
        self._subscribers: list[Callable[[Event], None]] = []

    def emit(
        self,
        name: str,
        severity: str = INFO,
        at: float | None = None,
        **fields: Any,
    ) -> Event:
        """Record one event and fan it out to subscribers.

        Pass ``at`` to override the clock (events replayed from another
        timeline keep their original stamps).
        """
        severity_rank(severity)  # validate early; bad severities are bugs
        event = Event(
            seq=next(self._seq),
            name=name,
            severity=severity,
            at=at if at is not None else self._clock(),
            fields=fields,
        )
        self._events.append(event)
        for subscriber in tuple(self._subscribers):
            subscriber(event)
        return event

    def subscribe(self, subscriber: Callable[[Event], None]) -> Callable[[Event], None]:
        """Call *subscriber* with every subsequent event; returns it."""
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Callable[[Event], None]) -> None:
        if subscriber in self._subscribers:
            self._subscribers.remove(subscriber)

    # ----- reading the recorder --------------------------------------------------

    @property
    def events(self) -> tuple[Event, ...]:
        """Retained events, oldest first."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(tuple(self._events))

    def tail(self, count: int) -> tuple[Event, ...]:
        """The newest *count* retained events, oldest first."""
        if count <= 0:
            return ()
        return tuple(self._events)[-count:]

    def filter(
        self, name: str | None = None, min_severity: str = DEBUG
    ) -> tuple[Event, ...]:
        """Retained events matching a name prefix and a severity floor."""
        floor = severity_rank(min_severity)
        return tuple(
            event
            for event in self._events
            if _SEVERITY_RANK[event.severity] >= floor
            and (name is None or event.name.startswith(name))
        )

    def clear(self) -> None:
        self._events.clear()

    def __repr__(self) -> str:
        return f"EventLog({len(self._events)}/{self.capacity} events)"

