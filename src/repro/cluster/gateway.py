"""Gateway routing core: route table, ROUTE envelopes, routing retry.

Clients keep the exact protocol they speak to a single
``InteractionServer``. Behind a gateway, every client message is wrapped
in a ``ROUTE`` envelope and forwarded to the shard owning the target
room: ``JOIN`` routes by document id through the consistent-hash ring,
everything else by the session→shard table learned from ``JOIN_ACK``
responses; shard responses are unwrapped and handed to the client link.
An op whose shard is momentarily unroutable is parked and retried with
backoff, re-resolving the route on every attempt.

:class:`Gateway` is this data-plane core plus the telemetry monitor
channel. The deployable node is its subclass
:class:`~repro.cluster.gatewaytier.GatewayNode`, which attaches to the
network and talks to the :class:`~repro.cluster.gatewaytier
.GatewayDirectory` — the one place shard registration, failure
detection and ``PROMOTE`` live.
"""

from __future__ import annotations

from typing import Any

from repro import obs
from repro.errors import ClusterError
from repro.cluster.ring import HashRing
from repro.cluster.wire import encode_shardbound, shardbound_wrapper
from repro.net.codec import Frame, StringInterner, encode_message, stamp_frame
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.obs.dtrace import HOP_GATEWAY_ROUTE, get_dtrace
from repro.server.protocol import MessageKind
from repro.server.session import Session
from repro.util.backoff import seeded_jitter
from repro.util.ids import IdGenerator


class Gateway:
    """Routes client traffic to the shards that own the rooms."""

    #: Routing retry budget: capped exponential backoff from *base* to
    #: *max* seconds, a typed ERROR to the client after *attempts* tries.
    route_retry_base_s = 0.25
    route_retry_attempts = 6
    route_retry_max_s = 4.0

    def __init__(self, network: SimulatedNetwork, ring: HashRing, node_id: str) -> None:
        self.node_id = node_id
        self.network = network
        self.ring = ring
        self._ids = IdGenerator(namespace=node_id)
        self._shards: set[str] = set()
        self._dead: set[str] = set()
        self._session_route: dict[str, str] = {}  # session -> shard
        self._session_key: dict[str, str] = {}    # session -> sharding key (doc)
        # Per-shard dynamic string tables for ROUTE envelope headers: the
        # gateway↔shard path is a reliable in-order channel, so repeated
        # client node ids compress to references after their first frame.
        self._shard_tables: dict[str, StringInterner] = {}
        registry = obs.get_registry()
        self._registry = registry
        self._events = obs.get_event_log()
        self._dtrace = get_dtrace()
        self._m_routed_messages = registry.counter("gateway.routed_messages")
        self._f_routed_bytes = registry.counter_family(
            "gateway.routed_bytes", ("shard", "direction")
        )
        self._m_route_errors = registry.counter("gateway.route_errors")
        self._m_route_retries = registry.counter("gateway.route_retries")
        self._m_zombies_fenced = registry.counter("gateway.zombies_fenced")
        self._g_sessions = registry.gauge_family(
            "gateway.sessions_routed", ("gateway",)
        ).labels(node_id)
        self._g_sessions.set(0)
        # Telemetry monitors (same channel the single server offers).
        self._monitors: dict[str, Session] = {}
        self._pending_events: list[dict[str, Any]] = []
        self._telemetry_baseline: dict[str, Any] | None = None
        self._last_telemetry_at: float | None = None
        self.telemetry_interval: float = 0.0

    # ----- topology ---------------------------------------------------------------

    @property
    def live_shards(self) -> tuple[str, ...]:
        return tuple(sorted(self._shards - self._dead))

    @property
    def dead_shards(self) -> tuple[str, ...]:
        return tuple(sorted(self._dead))

    def shard_of_session(self, session_id: str) -> str | None:
        return self._session_route.get(session_id)

    # ----- network glue -----------------------------------------------------------

    def receive(self, message: Message) -> None:
        payload = message.payload or {}
        kind = message.kind
        if message.sender in self._dead:
            # Zombie fencing: a shard declared dead stays dead. A slow
            # frame from before the declaration (or a partitioned shard
            # that kept running) must not poison the routing table or
            # resurrect itself via a late heartbeat.
            self._m_zombies_fenced.inc()
            self._emit(
                "gateway.zombie_fenced", severity="WARN",
                shard=message.sender, kind=kind,
            )
            return
        try:
            if kind == MessageKind.ROUTE:
                self._forward_to_client(message.sender, payload)
            elif kind == MessageKind.MONITOR:
                self._connect_monitor(payload["viewer_id"], message.sender)
            elif kind == MessageKind.LEAVE and payload.get("session_id") in self._monitors:
                self._disconnect_monitor(payload["session_id"])
            elif kind in MessageKind.CLIENT_KINDS:
                self._route_client(message.sender, kind, payload, frame=message.frame)
            else:
                raise ClusterError(f"unexpected message kind {kind!r} at gateway")
        except Exception as exc:
            self._m_route_errors.inc()
            if (
                self.network.has_node(message.sender)
                and message.sender not in self._shards
                and message.sender != self.node_id
            ):
                body = {"error": type(exc).__name__, "detail": str(exc)}
                self._send_framed(message.sender, MessageKind.ERROR, body)
            else:
                raise
        finally:
            self.push_telemetry(force=False)

    def _route_client(
        self,
        sender_node: str,
        kind: str,
        payload: dict[str, Any],
        attempt: int = 0,
        frame: Frame | None = None,
    ) -> None:
        if kind == MessageKind.JOIN:
            shard = self.ring.owner(payload["doc_id"])
        else:
            session_id = payload.get("session_id")
            shard = self._session_route.get(session_id)
            if shard is None:
                # Unknown session: retrying cannot help, error out now.
                raise ClusterError(f"no shard owns session {session_id!r}")
        if shard in self._dead or not self.network.has_node(shard):
            # The shard may only be *temporarily* unroutable: crashed but
            # not yet swept by the detector, mid-failover before the ring
            # re-homes the key. Park the op and retry with backoff — the
            # route is re-resolved on every attempt, so a completed
            # failover picks up the promoted shard transparently.
            self._retry_route(sender_node, kind, payload, attempt, frame)
            return
        # The envelope embeds the client's already-encoded frame as
        # opaque bytes — routing re-serializes nothing.
        wrapper = shardbound_wrapper(sender_node, kind, payload)
        envelope = encode_shardbound(
            wrapper, inner=frame, interner=self._shard_tables.get(shard)
        )
        ctx = self._dtrace.current()
        if ctx is not None:
            # Carry the uplink's trace context on the ROUTE envelope so
            # the shard can chain its queueing span to the same trace.
            envelope = stamp_frame(envelope, (ctx,))
        size = envelope.size_bytes
        self.network.send(
            self.node_id, shard, MessageKind.ROUTE,
            payload=wrapper, size_bytes=size, frame=envelope,
        )
        self._m_routed_messages.inc()
        self._f_routed_bytes.labels(shard, "to_shard").inc(size)
        if kind == MessageKind.LEAVE:
            self._forget_route(payload.get("session_id"))

    def _retry_route(
        self,
        sender_node: str,
        kind: str,
        payload: dict[str, Any],
        attempt: int,
        frame: Frame | None = None,
    ) -> None:
        if attempt >= self.route_retry_attempts:
            self._m_route_errors.inc()
            self._emit(
                "gateway.route_gave_up", severity="ERROR",
                node=sender_node, kind=kind, attempts=attempt,
            )
            if self.network.has_node(sender_node):
                body = {
                    "error": "ClusterError",
                    "detail": f"no live shard for {kind!r} after {attempt} retries",
                }
                self._send_framed(sender_node, MessageKind.ERROR, body)
            return
        delay = self._route_retry_delay(sender_node, kind, attempt)
        self._m_route_retries.inc()
        self._emit(
            "gateway.route_retry", node=sender_node, kind=kind,
            attempt=attempt + 1, delay=delay,
        )
        self.network.clock.schedule(
            delay,
            lambda: self._route_retry_tick(
                sender_node, kind, payload, attempt + 1, frame
            ),
        )

    def _route_retry_delay(self, sender_node: str, kind: str, attempt: int) -> float:
        """Capped exponential backoff with deterministic per-op jitter.

        Uncapped ``base * 2**attempt`` punishes late attempts far past
        any failover duration, and identical delays make every op parked
        by the same shard death retry in one synchronized stampede. The
        cap bounds the wait; the jitter (up to +50%, hashed from the
        op's identity, never random) spreads the stampede while keeping
        every run of the simulation bit-reproducible.
        """
        delay = min(self.route_retry_base_s * (2.0**attempt), self.route_retry_max_s)
        return delay * (1.0 + 0.5 * seeded_jitter(self.node_id, sender_node, kind, attempt))

    def _route_retry_tick(
        self,
        sender_node: str,
        kind: str,
        payload: dict[str, Any],
        attempt: int,
        frame: Frame | None = None,
    ) -> None:
        # Outside receive()'s try block now (we're a clock callback): an
        # exception here would kill the whole simulation, so route errors
        # turn into client-facing ERROR frames the same way.
        try:
            self._route_client(sender_node, kind, payload, attempt=attempt, frame=frame)
        except Exception as exc:
            self._m_route_errors.inc()
            if self.network.has_node(sender_node):
                body = {"error": type(exc).__name__, "detail": str(exc)}
                self._send_framed(sender_node, MessageKind.ERROR, body)

    def on_delivery_failed(self, error: Any) -> None:
        """The reliable layer gave up on one of the gateway's frames.

        Shard-bound ROUTE envelopes get one more chance through the
        routing retry path — by the time the transport retry budget is
        exhausted, failover has usually re-homed the session to a live
        shard, so re-resolving the route recovers the op. Client-bound
        traffic is dropped with a WARN (the client is gone or hopeless).
        """
        self._emit(
            "gateway.delivery_failed", severity="WARN",
            recipient=error.recipient, kind=error.kind, reason=error.reason,
        )
        wrapper = error.payload
        if (
            error.kind == MessageKind.ROUTE
            and isinstance(wrapper, dict)
            and "sender" in wrapper
        ):
            self._route_retry_tick(
                wrapper["sender"], wrapper["kind"], wrapper["payload"], attempt=0
            )

    def _forward_to_client(self, shard_id: str, wrapper: dict[str, Any]) -> None:
        to = wrapper["to"]
        kind = wrapper["kind"]
        inner = wrapper["payload"]
        size = wrapper["size"]
        # The shard rides its already-encoded inner frame inside the
        # envelope; forwarding hands the same frame to the client link.
        inner_frame = wrapper.get("frame")
        dtrace = self._dtrace
        if dtrace.enabled and inner_frame is not None:
            ctx = dtrace.current()
            if ctx is not None:
                # In-band forward: the ROUTE envelope carried the trace
                # context, chain the client-bound frame to it.
                before = inner_frame.size_bytes
                inner_frame = stamp_frame(inner_frame, (ctx,))
                size += inner_frame.size_bytes - before
            elif inner_frame.trace:
                # The shard's batcher flushed this frame outside any
                # inbound scope: the envelope is unstamped but the inner
                # frame kept its member contexts. Record the backbone leg
                # here and advance each chain past the gateway.
                now = self.network.clock.now
                advanced = tuple(
                    dtrace.record_hop(
                        c, HOP_GATEWAY_ROUTE, self.node_id, c.sent_at_s, now,
                        shard=shard_id,
                    )
                    if c.trace_id
                    else c
                    for c in inner_frame.trace
                )
                before = inner_frame.size_bytes
                inner_frame = stamp_frame(inner_frame, advanced)
                size += inner_frame.size_bytes - before
        if kind == MessageKind.JOIN_ACK:
            self._learn_route(inner["session_id"], inner["doc_id"], shard_id)
        if not self.network.has_node(to):
            self._emit(
                "gateway.client_gone", severity="WARN", node=to, kind=kind
            )
            return
        self.network.send(
            self.node_id, to, kind, payload=inner, size_bytes=size, frame=inner_frame
        )
        self._m_routed_messages.inc()
        self._f_routed_bytes.labels(shard_id, "to_client").inc(size)

    # ----- route table ------------------------------------------------------------

    def _learn_route(self, session_id: str, doc_id: str, shard_id: str) -> None:
        """Record the session→shard route sniffed off a ``JOIN_ACK``."""
        self._session_route[session_id] = shard_id
        self._session_key[session_id] = doc_id
        self._g_sessions.set(len(self._session_route))

    def _forget_route(self, session_id: str | None) -> None:
        """Drop the route of a departed session (``LEAVE`` forwarded)."""
        self._session_route.pop(session_id, None)
        self._session_key.pop(session_id, None)
        self._g_sessions.set(len(self._session_route))

    # ----- telemetry monitors ------------------------------------------------------

    def _connect_monitor(self, viewer_id: str, node_id: str) -> Session:
        session = Session(
            session_id=self._ids.next("monitor"),
            viewer_id=viewer_id,
            node_id=node_id,
            kind="monitor",
        )
        if not self._monitors:
            self._events.subscribe(self._on_event)
            self._telemetry_baseline = self._registry.snapshot()
        self._monitors[session.session_id] = session
        self._send_framed(
            node_id,
            MessageKind.MONITOR_ACK,
            {"session_id": session.session_id, "interval": self.telemetry_interval},
        )
        return session

    def _disconnect_monitor(self, session_id: str) -> None:
        self._monitors.pop(session_id, None)
        if not self._monitors:
            self._events.unsubscribe(self._on_event)
            self._pending_events.clear()
            self._telemetry_baseline = None

    @property
    def monitor_ids(self) -> tuple[str, ...]:
        return tuple(self._monitors)

    def _on_event(self, event: Any) -> None:
        self._pending_events.append(event.to_dict())

    def push_telemetry(self, force: bool = True) -> int:
        """Push one metric-diff + buffered events to every monitor."""
        if not self._monitors:
            return 0
        now = self.network.clock.now
        if not force and self._last_telemetry_at is not None:
            if now - self._last_telemetry_at < self.telemetry_interval:
                return 0
        self._last_telemetry_at = now
        current = self._registry.snapshot()
        delta = obs.diff(self._telemetry_baseline or {}, current)
        self._telemetry_baseline = current
        events, self._pending_events = self._pending_events, []
        for monitor in self._monitors.values():
            if not self.network.has_node(monitor.node_id):
                continue
            body = {"session_id": monitor.session_id, "at": now, "diff": delta}
            self._send_framed(monitor.node_id, MessageKind.TELEMETRY, body)
            for event in events:
                event_body = {"session_id": monitor.session_id, "event": event}
                self._send_framed(
                    monitor.node_id, MessageKind.TELEMETRY_EVENT, event_body
                )
        return len(self._monitors)

    # ----- misc ---------------------------------------------------------------------

    def _send_framed(self, recipient: str, kind: str, body: dict[str, Any]) -> None:
        """Encode once and send; the frame carries its own honest size."""
        frame = encode_message(kind, body)
        self.network.send(self.node_id, recipient, kind, payload=body, frame=frame)

    def _emit(self, name: str, severity: str = "INFO", **fields: Any) -> None:
        self._events.emit(name, severity=severity, at=self.network.clock.now, **fields)

    def stats(self) -> dict[str, Any]:
        return {
            "shards": sorted(self._shards),
            "live": list(self.live_shards),
            "dead": list(self.dead_shards),
            "sessions_routed": len(self._session_route),
            "monitors": len(self._monitors),
        }
