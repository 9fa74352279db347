"""A telemetry monitor: the conferencing machinery watching itself.

A :class:`TelemetryMonitor` attaches to the simulated network like any
client, registers with the interaction server as a ``monitor`` session,
and receives the server's metric-diff snapshots (``TELEMETRY``) and
flight-recorder events (``TELEMETRY_EVENT``) as ordinary ``repro.net``
messages — same links, same byte accounting, same clock as the
consultation it is observing. :meth:`render` folds everything received
so far into one :func:`repro.obs.dashboard.render_dashboard` panel.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import ClientError
from repro.net.codec import StringInterner, encode_message
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.obs.dashboard import render_dashboard
from repro.server.protocol import MessageKind


def _merge_histogram(into: dict[str, Any], delta: dict[str, Any]) -> dict[str, Any]:
    """Accumulate one interval histogram into a running total."""
    if not into:
        return dict(delta)
    bounds = into.get("bounds") or delta.get("bounds") or []
    a = into.get("bucket_counts") or [0] * (len(bounds) + 1)
    b = delta.get("bucket_counts") or [0] * (len(bounds) + 1)
    buckets = [x + y for x, y in zip(a, b)]
    count = into.get("count", 0) + delta.get("count", 0)
    total = into.get("total", 0.0) + delta.get("total", 0.0)

    def percentile(fraction: float) -> float | None:
        if count <= 0:
            return None
        rank = max(1, int(fraction * count + 0.999999))
        cumulative = 0
        for index, bucket_count in enumerate(buckets):
            cumulative += bucket_count
            if cumulative >= rank:
                if index < len(bounds):
                    return bounds[index]
                break
        return _max_of(into, delta)

    return {
        "count": count,
        "total": total,
        "mean": (total / count) if count else None,
        "min": _min_of(into, delta),
        "max": _max_of(into, delta),
        "p50": percentile(0.50),
        "p90": percentile(0.90),
        "p99": percentile(0.99),
        "bounds": list(bounds),
        "bucket_counts": buckets,
    }


def _min_of(a: dict[str, Any], b: dict[str, Any]) -> float | None:
    values = [v for v in (a.get("min"), b.get("min")) if v is not None]
    return min(values) if values else None


def _max_of(a: dict[str, Any], b: dict[str, Any]) -> float | None:
    values = [v for v in (a.get("max"), b.get("max")) if v is not None]
    return max(values) if values else None


class TelemetryMonitor:
    """Receives the server's telemetry pushes over the simulated network."""

    def __init__(self, viewer_id: str = "monitor", network: SimulatedNetwork | None = None) -> None:
        self.viewer_id = viewer_id
        self.node_id = f"monitor-{viewer_id}"
        self.network = network
        self.session_id: str | None = None
        self.interval: float | None = None
        self._wire_table = StringInterner()  # per-connection uplink table
        #: TELEMETRY payloads in arrival order (each holds one diff).
        self.snapshots: list[dict[str, Any]] = []
        #: Event dicts in arrival order (the flight recorder's wire form).
        self.events: list[dict[str, Any]] = []

    # ----- requests ------------------------------------------------------------------

    def connect(self) -> None:
        """Register with the server as a monitor session."""
        self._wire_table.reset()  # new logical connection, fresh table
        self._send(MessageKind.MONITOR, {"viewer_id": self.viewer_id})

    def disconnect(self) -> None:
        if self.session_id is None:
            raise ClientError(f"monitor {self.viewer_id!r} has no session")
        self._send(MessageKind.LEAVE, {"session_id": self.session_id})
        self.session_id = None

    def _send(self, kind: str, payload: dict[str, Any]) -> None:
        if self.network is None:
            raise ClientError("monitor is not attached to a network")
        frame = encode_message(kind, payload, interner=self._wire_table)
        self.network.send(
            self.node_id,
            self.network.hub_for(self.node_id),
            kind,
            payload=payload,
            frame=frame,
        )

    def on_gateway_failover(self, new_gateway: str) -> None:
        """Directory callback: our gateway died along with our monitor
        session — open a fresh one on the surviving gateway."""
        self.session_id = None
        self.connect()

    # ----- responses ------------------------------------------------------------------

    #: server message kind -> the method that takes its payload.
    _HANDLERS = {
        MessageKind.MONITOR_ACK: "_on_monitor_ack",
        MessageKind.TELEMETRY: "_on_telemetry",
        MessageKind.TELEMETRY_EVENT: "_on_telemetry_event",
        MessageKind.ERROR: "_on_error",
    }

    def receive(self, message: Message) -> None:
        handler = self._HANDLERS.get(message.kind)
        if handler is None:
            raise ClientError(f"unexpected message kind {message.kind!r}")
        getattr(self, handler)(message.payload or {})

    def _on_monitor_ack(self, payload: dict[str, Any]) -> None:
        self.session_id = payload["session_id"]
        self.interval = payload.get("interval")

    def _on_telemetry(self, payload: dict[str, Any]) -> None:
        self.snapshots.append(payload)

    def _on_telemetry_event(self, payload: dict[str, Any]) -> None:
        self.events.append(payload.get("event", {}))

    def _on_error(self, payload: dict[str, Any]) -> None:
        raise ClientError(f"server error: {payload}")

    # ----- aggregation ----------------------------------------------------------------

    def combined(self) -> dict[str, Any]:
        """All received diffs folded into one snapshot-shaped dict.

        Counter deltas sum, gauges keep their latest level, interval
        histograms accumulate bucket-wise (percentiles recomputed over
        the merged buckets).
        """
        counters: dict[str, Any] = {}
        gauges: dict[str, Any] = {}
        histograms: dict[str, dict[str, Any]] = {}
        for snapshot in self.snapshots:
            delta = snapshot.get("diff", {})
            for name, value in delta.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            gauges.update(delta.get("gauges", {}))
            for name, summary in delta.get("histograms", {}).items():
                histograms[name] = _merge_histogram(histograms.get(name, {}), summary)
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def warn_events(self) -> list[dict[str, Any]]:
        """Received events at WARN severity or above."""
        return [e for e in self.events if e.get("severity") in ("WARN", "ERROR")]

    def render(
        self,
        title: str | None = None,
        include: Sequence[str] | None = None,
        exclude: Sequence[str] = (),
        max_events: int = 20,
    ) -> str:
        """Dashboard panel over everything received so far."""
        return render_dashboard(
            self.combined(),
            self.events,
            title=title if title is not None else f"monitor {self.viewer_id}",
            include=include,
            exclude=exclude,
            max_events=max_events,
        )
