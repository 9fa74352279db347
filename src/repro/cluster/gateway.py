"""Gateway routing core: route cache, ROUTE envelopes, routing retry.

Clients keep the exact protocol they speak to a single
``InteractionServer``. Behind a gateway, every client message is wrapped
in a ``ROUTE`` envelope and forwarded to the shard owning the target
room: ``JOIN`` routes by document id through the consistent-hash ring,
everything else by the **route cache** — session → owning shard, learned
by sniffing ``JOIN_ACK`` responses and reported to the directory, which
stays authoritative. Steady-state room traffic flows client → gateway →
shard with zero directory hops; a cache miss parks the op and resolves
it with one ``ROUTE_LOOKUP`` round trip. Shard responses are unwrapped
and handed to the client link. An op whose shard is momentarily
unroutable is parked and retried with backoff, re-resolving the route on
every attempt.

:class:`Gateway` is this data-plane core plus the telemetry monitor
channel. The deployable node is its subclass
:class:`~repro.cluster.gatewaytier.GatewayNode`, which attaches to the
network behind its routing queue; shard registration, failure detection
and ``PROMOTE`` live in one place, the :class:`~repro.cluster
.gatewaytier.GatewayDirectory`.
"""

from __future__ import annotations

from functools import cache
from typing import Any

from repro import obs
from repro.errors import ClusterError
from repro.cluster.node import ServiceNode
from repro.cluster.ring import HashRing
from repro.cluster.wire import encode_shardbound, shardbound_wrapper
from repro.net.codec import Frame, StringInterner, stamp_frame
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.obs.dtrace import HOP_DIRECTORY_LOOKUP, HOP_GATEWAY_ROUTE
from repro.server.protocol import PROTOCOL, MessageKind
from repro.server.telemetry import TelemetryChannel
from repro.util.backoff import seeded_jitter


class Gateway(ServiceNode):
    """Routes client traffic to the shards that own the rooms."""

    role = "gateway"
    #: message kind -> the method that takes the message. Client kinds
    #: are routed to a shard, except the telemetry channel's own two
    #: (MONITOR, and a monitor's LEAVE — see :meth:`_is_monitor_leave`).
    _HANDLERS = {
        **{kind: "_route_message" for kind in PROTOCOL},
        MessageKind.MONITOR: "_on_monitor",
        MessageKind.ROUTE: "_forward_to_client",
    }

    #: Routing retry budget: capped exponential backoff from *base* to
    #: *max* seconds, a typed ERROR to the client after *attempts* tries.
    route_retry_base_s = 0.25
    route_retry_attempts = 6
    route_retry_max_s = 4.0

    def __init__(
        self, network: SimulatedNetwork, directory_id: str, ring: HashRing, node_id: str
    ) -> None:
        super().__init__(node_id, network, directory_id)
        self.ring = ring
        self._shards: set[str] = set()
        self._dead: set[str] = set()
        self._session_route: dict[str, str] = {}  # session -> shard
        self._session_key: dict[str, str] = {}    # session -> sharding key (doc)
        # Per-shard dynamic string tables for ROUTE envelope headers: the
        # gateway↔shard path is a reliable in-order channel, so repeated
        # client node ids compress to references after their first frame.
        self._shard_tables: dict[str, StringInterner] = {}
        #: ops parked on a route-cache miss: session -> FIFO of
        #: (sender, kind, payload, frame, trace ctx, parked-at time).
        self._route_waiting: dict[str, list[tuple[Any, ...]]] = {}
        registry = obs.get_registry()
        self._m_routed_messages = registry.counter("gateway.routed_messages")
        # (shard, direction) -> child counter, each resolved once.
        self._routed_bytes = cache(
            registry.counter_family("gateway.routed_bytes", ("shard", "direction")).labels
        )
        self._m_route_errors = registry.counter("gateway.route_errors")
        self._m_route_retries = registry.counter("gateway.route_retries")
        self._m_zombies_fenced = registry.counter("gateway.zombies_fenced")
        self._g_sessions = registry.gauge_family(
            "gateway.sessions_routed", ("gateway",)
        ).labels(node_id)
        self._g_sessions.set(0)
        self._m_cache_hits = registry.counter_family(
            "gateway.route_cache.hits", ("gateway",)
        ).labels(node_id)
        self._m_cache_misses = registry.counter_family(
            "gateway.route_cache.misses", ("gateway",)
        ).labels(node_id)
        self._m_cache_invalidations = registry.counter_family(
            "gateway.route_cache.invalidations", ("gateway",)
        ).labels(node_id)
        # Not a second copy of the three counters above: a labelled
        # counter child belongs to the *registry*, so every harness built
        # under one registry that names a gateway "gw-1" shares it (and
        # under NullRegistry it reads 0). These integers are the only
        # per-node reading ``route_cache_stats()`` can give.
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0
        # Telemetry monitors (same channel the single server offers).
        self.telemetry = TelemetryChannel(
            node_id, lambda: network.clock.now, self._send_if_present
        )

    # ----- topology ---------------------------------------------------------------

    def note_shard(self, shard_id: str) -> None:
        """Track a shard registered at the directory (the gateway keeps
        one envelope string table per shard channel)."""
        self._shards.add(shard_id)
        if shard_id not in self._shard_tables:
            self._shard_tables[shard_id] = StringInterner()

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
            handler = self._HANDLERS.get(kind)
            if handler is None:
                raise ClusterError(f"unexpected message kind {kind!r} at gateway")
            if kind == MessageKind.LEAVE and self._is_monitor_leave(message):
                handler = "_on_monitor_leave"
            getattr(self, handler)(message)
        except Exception as exc:
            self._m_route_errors.inc()
            sender = message.sender
            if (
                sender in self._shards
                or sender == self.node_id
                or not self.network.has_node(sender)
            ):
                raise
            self._send_error(sender, type(exc).__name__, str(exc))
        finally:
            if self.telemetry.monitors:
                self.telemetry.push(force=False)

    def _is_monitor_leave(self, message: Message) -> bool:
        """A ``LEAVE`` that ends one of our monitor sessions (answered
        here) rather than a room session (routed to its shard)."""
        return (message.payload or {}).get("session_id") in self.telemetry.monitors

    def _send_if_present(self, recipient: str, kind: str, body: dict[str, Any]) -> None:
        """Answer a client that may be gone by now (then: say nothing)."""
        if self.network.has_node(recipient):
            self._send_framed(recipient, kind, body)

    def _send_error(self, recipient: str, error: str, detail: str) -> None:
        self._send_if_present(
            recipient, MessageKind.ERROR, {"error": error, "detail": detail}
        )

    def _route_message(self, message: Message) -> None:
        kind, payload = message.kind, message.payload or {}
        # A malformed request is refused here, by name, before it costs a
        # shard hop or a directory lookup.
        PROTOCOL[kind].require(payload)
        self._route_client(message.sender, kind, payload, frame=message.frame)

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
            if attempt == 0:
                if shard is None:
                    self._m_cache_misses.inc()
                    self.cache_misses += 1
                else:
                    self._m_cache_hits.inc()
                    self.cache_hits += 1
            if shard is None:
                self._park_for_route(session_id, sender_node, kind, payload, frame)
                return
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
        ctx = self._dtrace.current() if self._dtrace.enabled else None
        if ctx is not None:
            # Carry the uplink's trace context on the ROUTE envelope so
            # the shard can chain its queueing span to the same trace.
            envelope = stamp_frame(envelope, (ctx,))
        size = len(envelope.data)
        self.network.send(
            self.node_id, shard, MessageKind.ROUTE,
            payload=wrapper, size_bytes=size, frame=envelope,
        )
        self._m_routed_messages.inc()
        self._routed_bytes(shard, "to_shard").inc(size)
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
            self._send_error(
                sender_node, "ClusterError",
                f"no live shard for {kind!r} after {attempt} retries",
            )
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
            self._send_error(sender_node, type(exc).__name__, str(exc))

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

    def _forward_to_client(self, message: Message) -> None:
        shard_id, wrapper = message.sender, message.payload or {}
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
        self._routed_bytes(shard_id, "to_client").inc(size)

    # ----- route cache ------------------------------------------------------------

    def _park_for_route(
        self,
        session_id: str | None,
        sender_node: str,
        kind: str,
        payload: dict[str, Any],
        frame: Frame | None,
    ) -> None:
        """Cache miss: park the op in session order, ask the directory.

        One lookup per session is in flight at a time; every op that
        arrives while it is pending joins the same FIFO and flushes in
        order when the ``ROUTE_INFO`` lands.
        """
        dtrace = self._dtrace
        ctx = dtrace.current() if dtrace.enabled else None
        waiting = self._route_waiting.setdefault(session_id, [])
        first = not waiting
        waiting.append(
            (sender_node, kind, payload, frame, ctx, self.network.clock.now)
        )
        self._emit("gateway.route_cache_miss", session=session_id, kind=kind)
        if first:
            self._send_framed(
                self.directory_id, MessageKind.ROUTE_LOOKUP,
                {"session_id": session_id},
            )

    def _on_route_info(self, payload: dict[str, Any]) -> None:
        session_id = payload["session_id"]
        shard = payload.get("shard")
        waiting = self._route_waiting.pop(session_id, [])
        if shard is None:
            for sender_node, _kind, _p, _f, _ctx, _at in waiting:
                self._m_route_errors.inc()
                self._send_error(
                    sender_node, "ClusterError", f"no shard owns session {session_id!r}"
                )
            return
        key = payload.get("key")
        self._session_route[session_id] = shard
        if key is not None:
            self._session_key[session_id] = key
        self._g_sessions.set(len(self._session_route))
        dtrace = self._dtrace
        now = self.network.clock.now
        for sender_node, kind, op_payload, frame, ctx, parked_at in waiting:
            if ctx is not None:
                # The whole park→resolve wait is directory time on the
                # op's critical path, not wire time.
                advanced = dtrace.record_hop(
                    ctx, HOP_DIRECTORY_LOOKUP, self.node_id, parked_at, now,
                    kind=kind,
                )
                with dtrace.inbound(advanced):
                    self._route_client(
                        sender_node, kind, op_payload, attempt=1, frame=frame
                    )
            else:
                self._route_client(
                    sender_node, kind, op_payload, attempt=1, frame=frame
                )

    def _on_route_invalidate(self, payload: dict[str, Any]) -> None:
        """Directory broadcast: a shard died; its cache entries go stale.

        The shard joins the zombie-fence set and every route pointing at
        it is dropped — the next op for those sessions takes the miss
        path and resolves to the promoted owner.
        """
        shard = payload["shard"]
        self._dead.add(shard)
        self._shard_tables.pop(shard, None)
        dropped = [
            sid for sid, owner in self._session_route.items() if owner == shard
        ]
        for sid in dropped:
            self._session_route.pop(sid, None)
            self._session_key.pop(sid, None)
        if dropped:
            self._m_cache_invalidations.inc(len(dropped))
            self.cache_invalidations += len(dropped)
        self._g_sessions.set(len(self._session_route))
        self._emit(
            "gateway.route_cache_invalidated", shard=shard, routes=len(dropped)
        )

    def _learn_route(self, session_id: str, doc_id: str, shard_id: str) -> None:
        """Record the session→shard route sniffed off a ``JOIN_ACK``."""
        self._session_route[session_id] = shard_id
        self._session_key[session_id] = doc_id
        self._g_sessions.set(len(self._session_route))
        # Keep the directory authoritative: it answers other gateways'
        # lookups for this session after we are gone.
        self._send_framed(
            self.directory_id, MessageKind.ROUTE_REPORT,
            {"session_id": session_id, "key": doc_id, "shard": shard_id},
        )

    def _forget_route(self, session_id: str | None) -> None:
        """Drop the route of a departed session (``LEAVE`` forwarded)."""
        known = self._session_route.pop(session_id, None) is not None
        self._session_key.pop(session_id, None)
        self._g_sessions.set(len(self._session_route))
        if known:
            self._send_framed(
                self.directory_id, MessageKind.ROUTE_REPORT,
                {"session_id": session_id, "removed": True},
            )

    # ----- telemetry monitors ------------------------------------------------------

    def _on_monitor(self, message: Message) -> None:
        payload = message.payload or {}
        PROTOCOL[message.kind].require(payload)
        session = self.telemetry.connect(payload["viewer_id"], message.sender)
        self._send_framed(
            message.sender,
            MessageKind.MONITOR_ACK,
            {"session_id": session.session_id, "interval": self.telemetry.interval},
        )

    def _on_monitor_leave(self, message: Message) -> None:
        self.telemetry.disconnect(message.payload["session_id"])

    @property
    def monitor_ids(self) -> tuple[str, ...]:
        return tuple(self.telemetry.monitors)

    # ----- introspection ----------------------------------------------------------

    def route_cache_stats(self) -> dict[str, Any]:
        total = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "invalidations": self.cache_invalidations,
            "hit_rate": self.cache_hits / total if total else None,
        }

    def stats(self) -> dict[str, Any]:
        return {
            "shards": sorted(self._shards),
            "live": list(self.live_shards),
            "dead": list(self.dead_shards),
            "sessions_routed": len(self._session_route),
            "monitors": len(self.telemetry.monitors),
            "route_cache": self.route_cache_stats(),
            "alive": self.alive,
        }
