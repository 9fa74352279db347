"""The telemetry monitor channel (the paper's machinery, watching itself).

A monitor session receives metric-diff snapshots (``TELEMETRY``) and
flight-recorder events (``TELEMETRY_EVENT``), pushed when its host — the
single interaction server, or a cluster gateway — says so: after its own
activity, because a scheduled tick would keep the simulated clock alive
forever.
"""

from __future__ import annotations

from typing import Any, Callable

from repro import obs
from repro.server.protocol import MessageKind
from repro.server.session import Session
from repro.util.ids import IdGenerator


class TelemetryChannel:
    """Monitor sessions of one host and what is owed to them."""

    def __init__(
        self,
        host_id: str,
        now: Callable[[], float],
        send: Callable[[str, str, dict[str, Any]], None],
    ) -> None:
        self._ids = IdGenerator(namespace=host_id)
        self._now = now
        self._send = send
        self._registry = obs.get_registry()
        self._events = obs.get_event_log()
        self.monitors: dict[str, Session] = {}
        self.pending_events: list[dict[str, Any]] = []
        self.baseline: dict[str, Any] | None = None
        self._last_push_at: float | None = None
        #: minimum clock seconds between unforced pushes (0 = every one).
        self.interval: float = 0.0

    def connect(self, viewer_id: str, node_id: str) -> Session:
        session = Session(
            session_id=self._ids.next("monitor"),
            viewer_id=viewer_id,
            node_id=node_id,
            kind="monitor",
        )
        if not self.monitors:
            # Lazy subscribe: a host without monitors costs the recorder
            # nothing, and a dead host accumulates no pending events.
            self._events.subscribe(self._on_event)
            self.baseline = self._registry.snapshot()
        self.monitors[session.session_id] = session
        return session

    def disconnect(self, session_id: str) -> Session | None:
        """Drop one monitor (``None`` if unknown); the last one out
        takes the event-log hook, the backlog and the baseline along."""
        monitor = self.monitors.pop(session_id, None)
        if not self.monitors:
            self._events.unsubscribe(self._on_event)
            self.pending_events.clear()
            self.baseline = None
        return monitor

    def _on_event(self, event: Any) -> None:
        self.pending_events.append(event.to_dict())

    def push(self, force: bool = True) -> int:
        """Send one metric-diff snapshot + buffered events to every
        monitor; returns how many there are. With ``force=False`` the
        ``interval`` throttle applies."""
        if not self.monitors:
            return 0
        now = self._now()
        if not force and self._last_push_at is not None:
            if now - self._last_push_at < self.interval:
                return 0
        self._last_push_at = now
        current = self._registry.snapshot()
        delta = obs.diff(self.baseline or {}, current)
        self.baseline = current
        events, self.pending_events = self.pending_events, []
        for monitor in self.monitors.values():
            self._send(
                monitor.node_id,
                MessageKind.TELEMETRY,
                {"session_id": monitor.session_id, "at": now, "diff": delta},
            )
            for event in events:
                self._send(
                    monitor.node_id,
                    MessageKind.TELEMETRY_EVENT,
                    {"session_id": monitor.session_id, "event": event},
                )
        return len(self.monitors)
