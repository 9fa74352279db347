"""The telemetry monitor channel (the paper's machinery, watching itself).

A monitor session receives metric-diff snapshots (``TELEMETRY``) and
flight-recorder events (``TELEMETRY_EVENT``), pushed when its host — the
single interaction server, or a cluster gateway — says so: after its own
activity, because a scheduled tick would keep the simulated clock alive
forever. The channel answers its own protocol: a host hands it its
:attr:`~TelemetryChannel.KINDS` first and serves only what it leaves.
"""

from __future__ import annotations

from typing import Any, Callable

from repro import obs
from repro.server.protocol import PROTOCOL, MessageKind
from repro.server.session import Session
from repro.util.ids import IdGenerator

#: Seconds between pushes, as a ``MONITOR_ACK`` tells a monitor: a host
#: pushes after every one of its activities.
PUSH_INTERVAL_S = 0.0


class TelemetryChannel:
    """Monitor sessions of one host and what is owed to them."""

    #: the kinds :meth:`answer` may claim: a host asks about no other.
    KINDS = frozenset({MessageKind.MONITOR, MessageKind.LEAVE})

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

    def answer(self, sender: str, kind: str, payload: dict[str, Any]) -> bool:
        """Serve one message if it is the channel's: a ``MONITOR`` opens a
        monitor session for *sender* and acks it, a ``LEAVE`` naming one
        of its sessions closes it. ``False``: the host's to serve."""
        if kind == MessageKind.MONITOR:
            PROTOCOL[kind].require(payload)
            if not self.monitors:
                # Lazy subscribe: a host without monitors costs the recorder
                # nothing, and a dead host accumulates no pending events.
                self._events.subscribe(self._on_event)
                self.baseline = self._registry.snapshot()
            session = Session(self._ids.next("monitor"), payload["viewer_id"], sender)
            self.monitors[session.session_id] = session
            ack = {"session_id": session.session_id, "interval": PUSH_INTERVAL_S}
            self._send(sender, MessageKind.MONITOR_ACK, ack)
            return True
        if kind != MessageKind.LEAVE or self.monitors.pop(payload.get("session_id"), None) is None:
            return False  # not the channel's: a room session's LEAVE, say
        if not self.monitors:
            # The last one out takes the event-log hook, the backlog and
            # the baseline along.
            self._events.unsubscribe(self._on_event)
            self.pending_events.clear()
            self.baseline = None
        return True

    def close(self) -> None:
        """The host is done: leave the event log and drop the host's clock
        and send steps (a host's own method holds the host)."""
        self._events.unsubscribe(self._on_event)
        self._now = self._send = None

    def _on_event(self, event: Any) -> None:
        self.pending_events.append(event.to_dict())

    def push(self) -> int:
        """Send one metric-diff snapshot + buffered events to every
        monitor; returns how many there are."""
        if not self.monitors:
            return 0
        now = self._now()
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
