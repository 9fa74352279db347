"""The client/server message vocabulary, the protocol table and
wire-size accounting.

What a client message kind *is* — which server method handles it, which
payload fields it carries, whether it mutates room state, which
admission lane it queues in — is written down once, as a row of
:data:`PROTOCOL`. Every other place that used to keep its own list of
kinds (the server dispatch, the client's replay log, admission lanes,
the replication op names, the traced kinds) reads it off the rows.

The simulated network charges links by declared byte size, so every
payload crossing the wire is sized by :func:`encoded_size` — the length
of its canonical binary encoding (:mod:`repro.net.codec`: varints,
interned strings, raw blob bytes). This keeps benchmark E9's
bytes-on-wire numbers honest. :func:`json_encoded_size` preserves the
pre-codec JSON sizing as the comparison baseline benchmark E13 measures
the codec against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ProtocolError
from repro.net.codec import value_size


class MessageKind:
    """Protocol message kinds (client->server and server->client)."""

    # client -> server
    JOIN = "join"
    LEAVE = "leave"
    CHOICE = "choice"
    OPERATION = "operation"
    FREEZE = "freeze"
    RELEASE = "release"
    FETCH_PAYLOAD = "fetch_payload"
    ANNOTATE = "annotate"
    MONITOR = "monitor"
    SUBSCRIBE = "subscribe"
    UNSUBSCRIBE = "unsubscribe"

    # server -> client
    JOIN_ACK = "join_ack"
    PRESENTATION_UPDATE = "presentation_update"
    PEER_EVENT = "peer_event"
    PAYLOAD = "payload"
    BROADCAST = "broadcast"
    ERROR = "error"
    MONITOR_ACK = "monitor_ack"
    TELEMETRY = "telemetry"
    TELEMETRY_EVENT = "telemetry_event"
    SUBSCRIBE_ACK = "subscribe_ack"
    RETRY_AFTER = "retry_after"

    # server <-> server (the repro.cluster tier): gateway-to-shard message
    # forwarding, primary-to-replica log shipping, and liveness/failover.
    ROUTE = "route"
    REPLICATE = "replicate"
    ACK = "ack"
    HEARTBEAT = "heartbeat"
    PROMOTE = "promote"

    # gateway tier <-> directory (repro.cluster.gatewaytier): route-cache
    # population, slow-path lookups, and failover invalidation.
    ROUTE_REPORT = "route_report"
    ROUTE_LOOKUP = "route_lookup"
    ROUTE_INFO = "route_info"
    ROUTE_INVALIDATE = "route_invalidate"

    CLIENT_KINDS: tuple[str, ...]  # one per PROTOCOL row, filled in below
    SERVER_KINDS = (
        JOIN_ACK, PRESENTATION_UPDATE, PEER_EVENT, PAYLOAD, BROADCAST, ERROR,
        MONITOR_ACK, TELEMETRY, TELEMETRY_EVENT, SUBSCRIBE_ACK, RETRY_AFTER,
    )
    CLUSTER_KINDS = (ROUTE, REPLICATE, ACK, HEARTBEAT, PROMOTE)
    GATEWAY_KINDS = (ROUTE_REPORT, ROUTE_LOOKUP, ROUTE_INFO, ROUTE_INVALIDATE)


#: admission lanes, in strictly decreasing priority (repro.cluster.admission)
LANE_CONTROL = "control"
LANE_JOIN = "join"
LANE_DATA = "data"


@dataclass(frozen=True)
class KindSpec:
    """One client→server message kind."""

    kind: str
    #: ``InteractionServer`` method name — looked up on the instance at
    #: dispatch time, so a subclass or a tracer patching the class is seen.
    handler: str
    #: payload fields passed positionally; a message without one is
    #: rejected before any handler runs.
    required: tuple[str, ...]
    #: payload field -> handler keyword, passed only when present (the
    #: default lives once, on the handler's signature).
    optional: dict[str, str] = field(default_factory=dict)
    #: LEAVE rides the control lane: dropping one leaks the session.
    lane: str = LANE_DATA
    #: name in the replication log; ``None`` = changes no room state
    #: (reads, monitor traffic), so it is neither logged nor replayed.
    op: str | None = None
    #: fans a change out to the room: the actor roots a delivery trace.
    traced: bool = False

    @property
    def opens_session(self) -> bool:
        """JOIN and MONITOR address no session yet; their handler is
        told the sending node instead."""
        return "session_id" not in self.required

    def require(self, payload: dict[str, Any]) -> None:
        """Refuse a message without one of its required fields, naming
        kind and field (not whatever a handler would trip over)."""
        for name in self.required:
            if name not in payload:
                raise ProtocolError(
                    f"{self.kind!r} message lacks required field {name!r}"
                )

    def bind(self, payload: dict[str, Any]) -> tuple[list[Any], dict[str, Any]]:
        """The handler's arguments, taken out of *payload*."""
        self.require(payload)
        args = [payload[name] for name in self.required]
        kwargs = {
            keyword: payload[name]
            for name, keyword in self.optional.items()
            if name in payload
        }
        return args, kwargs


_ON_COMPONENT = ("session_id", "component")
_ROWS = (
    KindSpec(MessageKind.JOIN, "_on_join", ("viewer_id", "doc_id"), lane=LANE_JOIN, op="join"),
    KindSpec(
        MessageKind.LEAVE, "disconnect_session", ("session_id",), lane=LANE_CONTROL, op="leave"
    ),
    KindSpec(
        MessageKind.CHOICE, "handle_choice", (*_ON_COMPONENT, "value"),
        {"scope": "scope"}, op="choice", traced=True,
    ),
    KindSpec(
        MessageKind.OPERATION, "handle_operation", (*_ON_COMPONENT, "operation"),
        {"global": "global_importance"}, op="operation", traced=True,
    ),
    KindSpec(MessageKind.FREEZE, "handle_freeze", _ON_COMPONENT, op="freeze", traced=True),
    KindSpec(MessageKind.RELEASE, "handle_release", _ON_COMPONENT, op="release", traced=True),
    # Three shapes — a blob by reference, a zoomed region of one, one
    # presentation alternative: the handler picks by which fields came.
    KindSpec(
        MessageKind.FETCH_PAYLOAD, "_on_fetch_payload", ("session_id",),
        {name: name for name in ("media_ref", "rect", "factor", "component", "value")},
    ),
    KindSpec(
        MessageKind.ANNOTATE, "handle_annotation", _ON_COMPONENT,
        {"annotation": "annotation"}, op="annotation", traced=True,
    ),
    # Answered by its host's telemetry channel before any dispatch; the
    # handler refuses it on a server that has none.
    KindSpec(MessageKind.MONITOR, "_on_monitor", ("viewer_id",), lane=LANE_CONTROL),
    # Interest is room state: a promoted replica must keep filtering
    # exactly where the dead primary left off, so subscription changes
    # ship through the same op log as everything else.
    KindSpec(
        MessageKind.SUBSCRIBE, "handle_subscribe", ("session_id",),
        {"components": "components", "replace": "replace"}, op="subscribe",
    ),
    KindSpec(
        MessageKind.UNSUBSCRIBE, "handle_unsubscribe", ("session_id",),
        {"components": "components", "all": "all_components"}, op="unsubscribe",
    ),
)
#: The protocol table: client message kind -> its row.
PROTOCOL: dict[str, KindSpec] = {row.kind: row for row in _ROWS}
MessageKind.CLIENT_KINDS = tuple(PROTOCOL)


def error_body(error: str, detail: str, kind: str, request: dict[str, Any]) -> dict[str, Any]:
    """An ``ERROR``'s body: what went wrong and which request it refuses —
    its kind and, for a JOIN, its document, so the client can end the
    pending join it answers."""
    body = {"error": error, "detail": detail, "kind": kind}
    if kind == MessageKind.JOIN:
        body["doc_id"] = request.get("doc_id")
    return body


def encoded_size(payload: Any) -> int:
    """Bytes this payload would occupy on the wire.

    The length of the payload's canonical binary encoding (embedded
    ``bytes`` values are framed raw, not base64). A send site never
    needs it: a :class:`~repro.net.codec.Frame` carries its own wire
    size. It serves the accounting of what is *not* sent.
    """
    return value_size(payload)


def json_encoded_size(payload: Any) -> int:
    """Wire size under the pre-codec JSON framing (the E13 baseline)."""
    return _sizeof(payload)


def _sizeof(value: Any) -> int:
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, dict):
        overhead = 2 + max(0, len(value) - 1)  # braces + commas
        return overhead + sum(_sizeof(k) + 1 + _sizeof(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        overhead = 2 + max(0, len(value) - 1)
        return overhead + sum(_sizeof(item) for item in value)
    return len(json.dumps(value, default=str))
