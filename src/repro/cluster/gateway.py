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

:class:`Gateway` is this data-plane core; it hosts a telemetry monitor
channel, which answers its own protocol. The deployable node is its subclass
:class:`~repro.cluster.gatewaytier.GatewayNode`, which attaches to the
network behind its routing queue; shard registration, failure detection
and ``PROMOTE`` live in one place, the :class:`~repro.cluster
.gatewaytier.GatewayDirectory`.
"""

from __future__ import annotations

from typing import Any

from repro import obs
from repro.errors import ClusterError
from repro.cluster.node import ServiceNode
from repro.cluster.ring import HashRing
from repro.cluster.wire import ClientBound, ShardBound, encode_shardbound
from repro.net.codec import Frame, StringInterner, encode_message, stamp_frame
from repro.net.network import SimulatedNetwork
from repro.obs.dtrace import HOP_DIRECTORY_LOOKUP, HOP_GATEWAY_ROUTE
from repro.server.protocol import PROTOCOL, MessageKind, error_body
from repro.server.telemetry import TelemetryChannel
from repro.util.backoff import seeded_jitter
from repro.util.tally import LabelCounts


class Gateway(ServiceNode):
    """Routes client traffic to the shards that own the rooms."""

    role = "gateway"
    #: message kind -> the method that takes the message. Client kinds
    #: are routed to a shard, except what the telemetry channel answers
    #: first (MONITOR, and a monitor's LEAVE).
    _HANDLERS = {
        **{kind: "_route_message" for kind in PROTOCOL},
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
        # Per-shard dynamic string tables for ROUTE envelope headers: the
        # gateway↔shard path is a reliable in-order channel, so repeated
        # client node ids compress to references after their first frame.
        self._shard_tables: dict[str, StringInterner] = {}
        #: ops parked on a route-cache miss: session -> FIFO of §7's
        #: waiting records, (ctx, kind, sender, frame, parked-at time).
        self._route_waiting: dict[str, list[tuple[Any, ...]]] = {}
        registry = obs.get_registry()
        readers = self._readers = obs.Readers(registry)
        #: Copies routed, routing retries, and bytes routed by (shard, direction).
        routing = self.routing = {"messages": 0, "retries": 0}
        readers.counter("gateway.routed_messages", read=lambda: routing["messages"])
        readers.counter("gateway.route_retries", read=lambda: routing["retries"])
        self.routed_bytes = LabelCounts(
            registry.counter_family("gateway.routed_bytes", ("shard", "direction"))
        )
        self._m_zombies_fenced = registry.counter("gateway.zombies_fenced")
        registry.gauge_family("gateway.sessions_routed", ("gateway",)).labels(
            node_id, read=self._session_route.__len__
        )
        #: This gateway's route-cache hits, misses and invalidations.
        tally = self.route_cache = {"hits": 0, "misses": 0, "invalidations": 0}
        readers.labels(
            registry.counter_family("gateway.route_cache.hits", ("gateway",)), node_id,
            read=lambda: tally["hits"],
        )
        readers.labels(
            registry.counter_family("gateway.route_cache.misses", ("gateway",)), node_id,
            read=lambda: tally["misses"],
        )
        readers.labels(
            registry.counter_family("gateway.route_cache.invalidations", ("gateway",)), node_id,
            read=lambda: tally["invalidations"],
        )
        # Telemetry monitors (same channel the single server offers).
        self.telemetry = TelemetryChannel(
            node_id, lambda: network.clock.now, self._send_if_present
        )

    def close(self) -> None:
        super().close()
        self._readers.release()
        self.routed_bytes.release()
        self.telemetry.close()

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

    def receive(self, sender: str, kind: str, body: Any) -> None:
        """Serve one arrival: a client's frame, or the ``ClientBound`` a
        shard's ``ROUTE`` carries."""
        if sender in self._dead:
            # Zombie fencing: a shard declared dead stays dead. A slow
            # frame from before the declaration (or a partitioned shard
            # that kept running) must not poison the routing table or
            # resurrect itself via a late heartbeat.
            self._m_zombies_fenced.inc()
            self._emit("gateway.zombie_fenced", severity="WARN", shard=sender, kind=kind)
            return
        telemetry = self.telemetry
        try:
            if kind in telemetry.KINDS and telemetry.answer(sender, kind, body.payload or {}):
                return
            handler = self._HANDLERS.get(kind)
            if handler is None:
                raise ClusterError(f"unexpected message kind {kind!r} at gateway")
            getattr(self, handler)(sender, body)
        except Exception as exc:
            if (
                sender in self._shards
                or sender == self.node_id
                or not self.network.has_node(sender)
            ):
                raise
            self._send_error(sender, type(exc).__name__, str(exc), body)
        finally:
            if telemetry.monitors:
                telemetry.push()

    def _send_if_present(self, recipient: str, kind: str, body: dict[str, Any]) -> None:
        """Answer a client that may be gone by now (then: say nothing)."""
        if self.network.has_node(recipient):
            self._send_framed(recipient, kind, body)

    def _send_error(self, recipient: str, error: str, detail: str, request: Frame) -> None:
        self._send_if_present(
            recipient, MessageKind.ERROR,
            error_body(error, detail, request.kind, request.payload or {}),
        )

    def _route_message(self, sender: str, frame: Frame) -> None:
        # A malformed request is refused here, by name, before it costs a
        # shard hop or a directory lookup.
        PROTOCOL[frame.kind].require(frame.payload or {})
        self._route_client(sender, frame)

    def _route_client(self, sender_node: str, frame: Frame, attempt: int = 0) -> None:
        kind, payload = frame.kind, frame.payload
        if kind == MessageKind.JOIN:
            shard = self.ring.owner(payload["doc_id"])
        else:
            session_id = payload.get("session_id")
            shard = self._session_route.get(session_id)
            if attempt == 0:
                self.route_cache["misses" if shard is None else "hits"] += 1
            if shard is None:
                self._park_for_route(session_id, sender_node, frame)
                return
        if shard in self._dead or not self.network.has_node(shard):
            # The shard may only be *temporarily* unroutable: crashed but
            # not yet swept by the detector, mid-failover before the ring
            # re-homes the key. Park the op and retry with backoff — the
            # route is re-resolved on every attempt, so a completed
            # failover picks up the promoted shard transparently.
            self._retry_route(sender_node, frame, attempt)
            return
        # The envelope embeds the client's already-encoded frame as
        # opaque bytes — routing re-serializes nothing.
        envelope = encode_shardbound(sender_node, frame, self._shard_tables.get(shard))
        ctx = self._dtrace.current() if self._dtrace.enabled else None
        if ctx is not None:
            # Carry the uplink's trace context on the ROUTE envelope so
            # the shard can chain its queueing span to the same trace.
            envelope = stamp_frame(envelope, (ctx,))
        self.network.send(self.node_id, shard, envelope)
        self.routing["messages"] += 1
        self.routed_bytes[shard, "to_shard"] += envelope.size_bytes
        if kind == MessageKind.LEAVE:
            self._forget_route(payload.get("session_id"))

    def _retry_route(self, sender_node: str, frame: Frame, attempt: int) -> None:
        kind = frame.kind
        if attempt >= self.route_retry_attempts:
            self._emit(
                "gateway.route_gave_up", severity="ERROR",
                node=sender_node, kind=kind, attempts=attempt,
            )
            self._send_error(
                sender_node, "ClusterError",
                f"no live shard for {kind!r} after {attempt} retries", frame,
            )
            return
        delay = self._route_retry_delay(sender_node, kind, attempt)
        self.routing["retries"] += 1
        self.network.clock.schedule(
            delay, lambda: self._route_retry_tick(sender_node, frame, attempt + 1)
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

    def _route_retry_tick(self, sender_node: str, frame: Frame, attempt: int) -> None:
        # Outside receive()'s try block now (we're a clock callback): an
        # exception here would kill the whole simulation, so route errors
        # turn into client-facing ERROR frames the same way.
        try:
            self._route_client(sender_node, frame, attempt)
        except Exception as exc:
            self._send_error(sender_node, type(exc).__name__, str(exc), frame)

    def on_delivery_failed(self, error: Any) -> None:
        """The reliable layer gave up on one of the gateway's frames.

        Shard-bound ROUTE envelopes get one more chance through the
        routing retry path — by the time the transport retry budget is
        exhausted, failover has usually re-homed the session to a live
        shard, so re-resolving the route recovers the op. The op is
        encoded afresh: the client's frame was encoded on its uplink's
        string table, which the retry's shard never saw. Client-bound
        traffic is dropped with a WARN (the client is gone or hopeless).
        """
        self._emit(
            "gateway.delivery_failed", severity="WARN",
            recipient=error.recipient, kind=error.kind, reason=error.reason,
        )
        if error.kind == MessageKind.ROUTE:
            routed: ShardBound = error.payload
            inner = encode_message(routed.frame.kind, routed.frame.payload)
            self._route_retry_tick(routed.sender, inner, 0)

    def _forward_to_client(self, shard_id: str, routed: ClientBound) -> None:
        # The shard rides its already-encoded inner frame inside the
        # envelope; forwarding hands the same frame to the client link.
        to, inner_frame = routed.to, routed.frame
        kind = inner_frame.kind
        dtrace = self._dtrace
        if dtrace.enabled:
            ctx = dtrace.current()
            if ctx is not None:
                # In-band forward: the ROUTE envelope carried the trace
                # context, chain the client-bound frame to it.
                inner_frame = stamp_frame(inner_frame, (ctx,))
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
                inner_frame = stamp_frame(inner_frame, advanced)
        if kind == MessageKind.JOIN_ACK:
            inner = inner_frame.payload
            self._learn_route(inner["session_id"], inner["doc_id"], shard_id)
        if not self.network.has_node(to):
            self._emit(
                "gateway.client_gone", severity="WARN", node=to, kind=kind
            )
            return
        self.network.send(self.node_id, to, inner_frame)
        self.routing["messages"] += 1
        self.routed_bytes[shard_id, "to_client"] += inner_frame.size_bytes

    # ----- route cache ------------------------------------------------------------

    def _park_for_route(
        self, session_id: str | None, sender_node: str, frame: Frame
    ) -> None:
        """Cache miss: park the op in session order, ask the directory.

        One lookup per session is in flight at a time; every op that
        arrives while it is pending joins the same FIFO and flushes in
        order when the ``ROUTE_INFO`` lands.
        """
        waiting = self._route_waiting.setdefault(session_id, [])
        first = not waiting
        waiting.append(self._held(sender_node, frame.kind, frame))
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
            for _ctx, _kind, sender_node, frame, _at in waiting:
                self._send_error(
                    sender_node, "ClusterError", f"no shard owns session {session_id!r}",
                    frame,
                )
            return
        self._session_route[session_id] = shard
        for record in waiting:
            # The whole park→resolve wait is directory time on the op's
            # critical path, not wire time.
            self._work(record, HOP_DIRECTORY_LOOKUP, self._route_resolved)

    def _route_resolved(self, sender_node: str, kind: str, frame: Frame) -> None:
        self._route_client(sender_node, frame, 1)

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
        self.route_cache["invalidations"] += len(dropped)

    def _learn_route(self, session_id: str, doc_id: str, shard_id: str) -> None:
        """Record the session→shard route sniffed off a ``JOIN_ACK``."""
        self._session_route[session_id] = shard_id
        # Keep the directory authoritative: it answers other gateways'
        # lookups for this session after we are gone.
        self._send_framed(
            self.directory_id, MessageKind.ROUTE_REPORT,
            {"session_id": session_id, "key": doc_id, "shard": shard_id},
        )

    def _forget_route(self, session_id: str | None) -> None:
        """Drop the route of a departed session (``LEAVE`` forwarded)."""
        known = self._session_route.pop(session_id, None) is not None
        if known:
            self._send_framed(
                self.directory_id, MessageKind.ROUTE_REPORT,
                {"session_id": session_id, "removed": True},
            )

    # ----- introspection ----------------------------------------------------------

    def route_cache_stats(self) -> dict[str, Any]:
        tally = self.route_cache
        total = tally["hits"] + tally["misses"]
        return {**tally, "hit_rate": tally["hits"] / total if total else None}

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
