"""One cluster shard: a full ``InteractionServer`` behind the gateway.

A shard is a backbone node on the simulated network. It receives
``ROUTE`` envelopes from the gateway, dispatches the inner client
message to its interaction server through a bounded-capacity service
queue (the knob that makes scale-out measurable: one shard saturates at
``service_rate`` ops/second, two shards at twice that), and routes every
server response back through the gateway. Successful room ops are
appended to a per-replica :class:`ShipLog` and shipped as ``REPLICATE``
batches over backbone peer links; inbound ``REPLICATE`` entries replay
into standby :class:`ReplicaState` mirrors (state only: a standby ships
nothing), which a ``PROMOTE`` order turns into live servers by attaching
this shard's transport — no state is copied.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro import obs
from repro.cluster.admission import AdmissionConfig
from repro.cluster.node import ServiceNode
from repro.cluster.replication import REPLICATED_OPS, LogEntry, ReplicaState, ShipLog
from repro.cluster.ring import HashRing
from repro.cluster.wire import clientbound_wrapper, encode_clientbound
from repro.db.orm import MultimediaObjectStore
from repro.net.codec import Frame, StringInterner, encode_message, stamp_frame
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.net.simclock import SimClock
from repro.obs.dtrace import HOP_SHARD_QUEUE
from repro.server.interaction import InteractionServer
from repro.server.permissions import PermissionPolicy
from repro.server.protocol import MessageKind
from repro.util.failpoints import get_failpoints

#: backoff for client-bound envelopes whose gateway is temporarily gone
#: (crashed but not yet swept): 0.25 * 2^attempt seconds, then give up.
#: Six attempts span ~15.75 s — comfortably past detection + re-homing.
CLIENTBOUND_RETRY_BASE_S = 0.25
CLIENTBOUND_RETRY_ATTEMPTS = 6


class ServiceQueue:
    """Serial service model: one op at a time at a fixed ops/second rate.

    ``rate=None`` means infinite capacity (ops dispatch at arrival time,
    the pre-cluster behaviour). With a rate, each submitted op occupies
    the server for ``1/rate`` simulated seconds, FIFO — the shard-side
    twin of what :class:`~repro.net.link.Link` does for wires.

    The queue tracks its own depth (``pending``, high-water
    ``max_pending``) and exposes an ``on_drain`` hook fired after each
    dispatched op — the seam admission control pumps deferred work
    through. With ``on_drain`` unset the timing behaviour is identical
    to the untracked queue.
    """

    def __init__(self, clock: SimClock, rate: float | None = None) -> None:
        if rate is not None and rate <= 0:
            raise ValueError(f"service rate must be > 0, got {rate}")
        self.clock = clock
        self.rate = rate
        self.busy_until = 0.0  # when the op at the tail of the queue completes
        self.pending = 0
        self.max_pending = 0
        self.on_drain = None

    def submit(self, work) -> None:
        self.pending += 1
        if self.pending > self.max_pending:
            self.max_pending = self.pending
        if self.rate is None:
            self._run(work)
            return
        now = self.clock.now
        self.busy_until = max(now, self.busy_until) + 1.0 / self.rate
        self.clock.schedule(self.busy_until - now, partial(self._run, work))

    def _run(self, work) -> None:
        try:
            work()
        finally:
            self.pending -= 1
            if self.on_drain is not None:
                self.on_drain()

    @property
    def wait_s(self) -> float:
        """Simulated seconds of backlog already committed to the server."""
        return max(0.0, self.busy_until - self.clock.now)


class _GatewayTransport:
    """Network stand-in handed to every server this shard serves from.

    The interaction server believes it talks straight to client nodes;
    every send is really wrapped into a ``ROUTE`` envelope to the
    gateway, which owns the actual client links.
    """

    def __init__(self, shard: ShardServer) -> None:
        self._shard = shard
        self.clock = shard.network.clock

    def attach_hub(self, node: Any) -> None:  # the gateway is the real hub
        pass

    def send(
        self, sender: str, recipient: str, kind: str, payload: Any = None,
        size_bytes: int = 0, frame: Frame | None = None,
    ) -> None:
        self._shard.route_to_client(recipient, kind, payload, size_bytes, frame)


class ShardServer(ServiceNode):
    """One shard node: primary server + standby replicas + log shipping."""

    role = "shard"
    queue_hop = HOP_SHARD_QUEUE
    admission_events = "cluster.admission"
    #: backbone message kind -> the method that takes (sender, payload).
    _HANDLERS = {
        MessageKind.ROUTE: "_on_route",
        MessageKind.REPLICATE: "_handle_replicate",
        MessageKind.ACK: "_handle_ack",
        MessageKind.PROMOTE: "_handle_promote",
    }

    def __init__(
        self,
        shard_id: str,
        store: MultimediaObjectStore,
        network: SimulatedNetwork,
        directory_id: str,
        ring: HashRing,
        gateway_ring: HashRing,
        policy: PermissionPolicy | None = None,
        service_rate: float | None = None,
        replication_factor: int = 2,
        interest_mode: str = "off",
        batch_window_s: float = 0.0,
        admission: AdmissionConfig | None = None,
    ) -> None:
        super().__init__(shard_id, network, directory_id)
        self.ring = ring
        # Client-bound envelopes resolve their gateway per client.
        self._gateway_ring = gateway_ring
        self.replication_factor = replication_factor
        self._store = store
        self._policy = policy
        self._interest_mode = interest_mode
        self._batch_window_s = batch_window_s
        self._transport = _GatewayTransport(self)
        self.server = InteractionServer(
            store, policy=policy, network=self._transport, node_id=shard_id,
            interest_mode=interest_mode, batch_window_s=batch_window_s,
        )
        self._serve_through(ServiceQueue(network.clock, service_rate), admission)
        self._ship: dict[str, ShipLog] = {}          # replica shard -> log
        self._replicas: dict[str, ReplicaState] = {}  # primary shard -> standby
        self._promoted: dict[str, InteractionServer] = {}
        self._session_doc: dict[str, str] = {}        # session -> sharding key
        #: full op history per room key, in application order — streamed to
        #: a replica the first time it is asked to mirror that room, so a
        #: replica assigned mid-conference (the ring moves after a node
        #: dies) can reconstruct the room instead of replaying from a gap.
        self._room_history: dict[str, list[tuple[str, dict[str, Any]]]] = {}
        self._replica_rooms: dict[str, set[str]] = {}  # replica -> bootstrapped keys
        # Dynamic string tables for clientbound ROUTE envelope headers,
        # one per reliable in-order shard→gateway channel (client node
        # ids repeat on every response).
        self._gw_tables: dict[str, StringInterner] = {}
        #: highest op_seq applied per session — replayed client ops after
        #: a gateway failover dedup here (at-least-once → exactly-once).
        self._op_seen: dict[str, int] = {}
        self._capture: list[tuple[str, Any]] | None = None
        self._failpoints = get_failpoints()
        registry = obs.get_registry()
        self._m_ops_in = registry.counter_family("cluster.shard.ops", ("shard",)).labels(
            shard_id
        )
        self._m_repl_ops = registry.counter_family(
            "cluster.replication.ops", ("shard",)
        ).labels(shard_id)
        self._m_repl_bytes = registry.counter_family(
            "cluster.replication.bytes", ("shard",)
        ).labels(shard_id)
        self._f_repl_lag = registry.gauge_family(
            "cluster.replication.lag", ("shard", "replica")
        )
        self._m_repl_applied = registry.counter_family(
            "cluster.replication.applied", ("replica",)
        ).labels(shard_id)
        self._m_promotions = registry.counter("cluster.promotions")
        self._m_dup_ops = registry.counter("cluster.shard.dup_ops_dropped")

    def _emit(self, name: str, severity: str = "INFO", **fields: Any) -> None:
        # Every shard event names its shard, first.
        super()._emit(name, severity, **{"shard": self.node_id, **fields})

    # ----- network glue ----------------------------------------------------------

    def receive(self, message: Message) -> None:
        if not self.alive:
            return
        handler = self._HANDLERS.get(message.kind)
        if handler is None:
            self._emit("cluster.shard_bad_kind", severity="ERROR", kind=message.kind)
            return
        getattr(self, handler)(message.sender, message.payload or {})

    # ----- client ops -------------------------------------------------------------

    def _on_route(self, gateway_id: str, wrapper: dict[str, Any]) -> None:
        self._submit(wrapper["sender"], wrapper["kind"], wrapper["payload"], wrapper)

    def _bounce(self, sender: str, body: dict[str, Any]) -> None:
        self._send_clientbound(sender, MessageKind.RETRY_AFTER, body, 0, None, attempt=0)

    def _serve(self, wrapper: dict[str, Any]) -> None:
        """Apply one routed client message: fence replays, serve, replicate."""
        sender_node, kind, payload = wrapper["sender"], wrapper["kind"], wrapper["payload"]
        session_id = payload.get("session_id")
        op_seq = payload.get("op_seq")
        if session_id is not None and op_seq is not None:
            last = self._op_seen.get(session_id, 0)
            if op_seq <= last:
                # A gateway-failover replay re-delivered an op we already
                # applied: drop it silently, the client's at-least-once
                # replay is our exactly-once by this fence.
                self._m_dup_ops.inc()
                self._emit(
                    "cluster.duplicate_op_dropped",
                    session=session_id, kind=kind, op_seq=op_seq,
                )
                # The op applied the first time, but its responses may
                # have died with the client's old gateway — answer the
                # replay with a catch-up diff instead of silence.
                target = self._server_for(kind, payload)
                if target.has_session(session_id):
                    target.resync_session(session_id)
                return
        self._m_ops_in.inc()
        target = self._server_for(kind, payload)
        self._capture = []
        try:
            target.receive(
                Message(
                    sender=sender_node, recipient=self.node_id,
                    kind=kind, payload=payload, size_bytes=0,
                )
            )
        finally:
            captured, self._capture = self._capture, None
        if any(k == MessageKind.ERROR for k, _ in captured):
            return
        if session_id is not None and op_seq is not None:
            self._op_seen[session_id] = op_seq
        self._replicate_op(sender_node, kind, payload, captured)

    def _server_for(self, kind: str, payload: dict[str, Any]) -> InteractionServer:
        """Pick the serving instance: the primary, or a promoted takeover."""
        if kind == MessageKind.JOIN:
            doc_id = payload["doc_id"]
            if self.server.hosts_document(doc_id):
                return self.server
            for promoted in self._promoted.values():
                if promoted.hosts_document(doc_id):
                    return promoted
            return self.server
        session_id = payload.get("session_id")
        if session_id is not None and not self.server.has_session(session_id):
            for promoted in self._promoted.values():
                if promoted.has_session(session_id):
                    return promoted
        return self.server  # unknown sessions error out here, routed back

    def route_to_client(
        self,
        recipient: str,
        kind: str,
        payload: Any,
        size_bytes: int,
        frame: Frame | None = None,
    ) -> None:
        """Wrap one server→client send into a ROUTE envelope to the gateway."""
        if self._capture is not None:
            self._capture.append((kind, payload))
        self._send_clientbound(recipient, kind, payload, size_bytes, frame, attempt=0)

    def _send_clientbound(
        self,
        recipient: str,
        kind: str,
        payload: Any,
        size_bytes: int,
        frame: Frame | None,
        attempt: int,
    ) -> None:
        if not self.alive:
            return
        ring = self._gateway_ring
        gateway_id = ring.owner(recipient) if len(ring) else None
        if gateway_id is None or not self.network.has_node(gateway_id):
            # The client's gateway is down but the directory has not yet
            # re-homed its clients: park and retry with backoff — each
            # attempt re-resolves the ring, so a completed gateway
            # failover transparently picks the survivor.
            self._retry_clientbound(recipient, kind, payload, size_bytes, frame, attempt)
            return
        wrapper = clientbound_wrapper(recipient, kind, payload, size_bytes)
        if frame is None:
            frame = encode_message(kind, payload)
        # Ride the inner frame inside the envelope so the gateway can
        # forward the same encoding to the client link untouched.
        wrapper["frame"] = frame
        table = self._gw_tables.get(gateway_id)
        if table is None:
            table = self._gw_tables[gateway_id] = StringInterner()
        envelope, wire_size = encode_clientbound(wrapper, frame, table)
        ctx = self._dtrace.current() if self._dtrace.enabled else None
        if ctx is not None:
            # Chain the backbone leg: the gateway picks the context off
            # the ROUTE envelope and restamps the inner client frame.
            before = envelope.size_bytes
            envelope = stamp_frame(envelope, (ctx,))
            wire_size += envelope.size_bytes - before
        self.network.send(
            self.node_id, gateway_id, MessageKind.ROUTE,
            payload=wrapper, size_bytes=wire_size, frame=envelope,
        )

    def _retry_clientbound(
        self,
        recipient: str,
        kind: str,
        payload: Any,
        size_bytes: int,
        frame: Frame | None,
        attempt: int,
    ) -> None:
        if attempt >= CLIENTBOUND_RETRY_ATTEMPTS:
            self._emit(
                "cluster.clientbound_gave_up", severity="WARN",
                node=recipient, kind=kind, attempts=attempt,
            )
            return
        delay = CLIENTBOUND_RETRY_BASE_S * (2.0**attempt)
        self.network.clock.schedule(
            delay,
            lambda: self._send_clientbound(
                recipient, kind, payload, size_bytes, frame, attempt + 1
            ),
        )

    # ----- replication: primary side ------------------------------------------------

    def _replicate_op(
        self,
        sender_node: str,
        kind: str,
        payload: dict[str, Any],
        captured: list[tuple[str, Any]],
    ) -> None:
        op = REPLICATED_OPS.get(kind)
        if op is None:
            return  # read-only traffic (fetches, monitor)
        if op == "join":
            ack = next((p for k, p in captured if k == MessageKind.JOIN_ACK), None)
            if ack is None:
                return  # monitor LEAVE etc. never produce a join ack
            room_key = payload["doc_id"]
            data = {
                "session_id": ack["session_id"],
                "room_id": ack["room_id"],
                "viewer_id": payload["viewer_id"],
                "node_id": sender_node,
            }
            self._session_doc[ack["session_id"]] = room_key
        else:
            session_id = payload["session_id"]
            room_key = self._session_doc.get(session_id)
            if room_key is None:
                return  # session unknown to the cluster tier (monitor session)
            data = dict(payload)
            if op == "leave":
                self._session_doc.pop(session_id, None)
        now = self.network.clock.now
        history = self._room_history.setdefault(room_key, [])
        for replica_id in self.replicas_for(room_key):
            log = self._ship.get(replica_id)
            if log is None:
                log = self._ship[replica_id] = ShipLog()
            seen = self._replica_rooms.setdefault(replica_id, set())
            entries = []
            if room_key not in seen:
                # First op this replica sees for the room: prefix the
                # room's full history so the replay starts from genesis.
                seen.add(room_key)
                for past_op, past_data in history:
                    entries.append(log.append(now, room_key, past_op, past_data))
            entries.append(log.append(now, room_key, op, data))
            self._ship_entries(replica_id, log, entries)
        history.append((op, data))

    def replicas_for(self, room_key: str) -> list[str]:
        """Live replica shards for one room, per the ring preference list."""
        owners = self.ring.owners(room_key, self.replication_factor)
        return [
            node
            for node in owners[1:]
            if node != self.node_id and self.network.has_node(node)
        ]

    def _ship_entries(self, replica_id: str, log: ShipLog, entries: list[LogEntry]) -> None:
        if not self.alive:
            return
        # Crash points for chaos tests: a primary can die immediately
        # before the replicate frame leaves (the replica misses the
        # tail) or immediately after (the batch is on the wire but the
        # primary never records the ship). Fail-stop, not exception —
        # the rest of the simulation keeps running around the corpse.
        mode = self._failpoints.fire(
            "cluster.replicate", shard=self.node_id, replica=replica_id
        )
        if mode == "crash_before":
            self.crash()
            return
        body = {
            "primary": self.node_id,
            "entries": [entry.to_wire() for entry in entries],
        }
        frame = encode_message(MessageKind.REPLICATE, body)
        ctx = self._dtrace.current()
        if ctx is not None:
            frame = stamp_frame(frame, (ctx,))
        size = frame.size_bytes
        self.network.send(
            self.node_id, replica_id, MessageKind.REPLICATE,
            payload=body, size_bytes=size, frame=frame,
        )
        if mode == "crash_after":
            self.crash()
            return
        log.mark_shipped(entries[-1].seq)
        self._m_repl_ops.inc(len(entries))
        self._m_repl_bytes.inc(size)
        self._f_repl_lag.labels(self.node_id, replica_id).set(log.lag)

    def _handle_ack(self, replica_id: str, payload: dict[str, Any]) -> None:
        if self._failpoints.fire(
            "cluster.ack", shard=self.node_id, replica=replica_id
        ) == "crash":
            self.crash()
            return
        log = self._ship.get(replica_id)
        if log is None:
            return
        log.mark_acked(payload["seq"])
        self._f_repl_lag.labels(self.node_id, replica_id).set(log.lag)

    def replication_lag(self, replica_id: str) -> int:
        log = self._ship.get(replica_id)
        return log.lag if log is not None else 0

    # ----- replication: replica side -------------------------------------------------

    def _handle_replicate(self, primary_id: str, payload: dict[str, Any]) -> None:
        state = self._replicas.get(primary_id)
        if state is None:
            state = self._replicas[primary_id] = ReplicaState(
                primary_id,
                self._store,
                policy=self._policy,
                clock=self.network.clock,
                on_gap=self._on_replay_gap,
                interest_mode=self._interest_mode,
            )
        applied = 0
        for body in payload.get("entries", []):
            applied += state.offer(LogEntry.from_wire(body))
        if applied:
            self._m_repl_applied.inc(applied)
        if self.network.has_node(primary_id):
            self._send_framed(
                primary_id, MessageKind.ACK,
                {"seq": state.applied_seq, "replica": self.node_id},
            )

    def _on_replay_gap(self, applied_seq: int, dropped: int) -> None:
        self._emit(
            "cluster.replay_gap", severity="WARN", applied_seq=applied_seq, dropped=dropped
        )

    def on_delivery_failed(self, error: Any) -> None:
        """The reliable layer gave up on one of this shard's frames.

        Replication repair is already failover's job (the ring re-homes
        the room and the next op bootstraps the replica from history),
        so the shard only records the fact for the post-mortem — except
        that a client-bound envelope that died with its gateway is
        re-routed through the client's new home.
        """
        self._emit(
            "cluster.shard_delivery_failed", severity="WARN",
            recipient=error.recipient, kind=error.kind, reason=error.reason,
        )
        wrapper = error.payload
        if (
            error.kind == MessageKind.ROUTE
            and isinstance(wrapper, dict)
            and "to" in wrapper
        ):
            self._send_clientbound(
                wrapper["to"], wrapper["kind"], wrapper["payload"],
                wrapper["size"], wrapper.get("frame"), attempt=0,
            )

    # ----- failover ------------------------------------------------------------------

    def _handle_promote(self, directory_id: str, payload: dict[str, Any]) -> None:
        """Directory order: take over the dead primary's rooms and sessions."""
        primary_id = payload["primary"]
        state = self._replicas.pop(primary_id, None)
        sessions = 0
        if state is not None:
            server = state.promote()
            # The standby only decided; from here it ships, coalescing
            # exactly as this shard's own server does.
            server.attach_network(self._transport, self._batch_window_s)
            self._promoted[primary_id] = server
            # Inherit the replayed ops as this shard's history for the
            # taken-over rooms: the new primary must be able to bootstrap
            # *its* replicas (the ring will name one on the next op).
            for entry in state.applied_log:
                self._room_history.setdefault(entry.room_key, []).append(
                    (entry.op, entry.data)
                )
                # op_seq rides inside replicated op data, so the dedup
                # fence survives shard failover too: a client replay
                # racing a promotion cannot double-apply.
                op_seq = entry.data.get("op_seq")
                entry_session = entry.data.get("session_id")
                if op_seq is not None and entry_session is not None:
                    if op_seq > self._op_seen.get(entry_session, 0):
                        self._op_seen[entry_session] = op_seq
            for session_id in server.session_ids:
                session = server.session(session_id)
                if session.room_id is not None:
                    room = server.room(session.room_id)
                    self._session_doc[session_id] = room.document.doc_id
                    sessions += 1
        self._m_promotions.inc()
        self._emit("cluster.promoted", primary=primary_id, sessions=sessions)
        self._send_framed(
            self.directory_id, MessageKind.ACK,
            {"promote": primary_id, "sessions": sessions},
        )

    # ----- introspection ----------------------------------------------------------------

    @property
    def promoted_primaries(self) -> tuple[str, ...]:
        return tuple(sorted(self._promoted))

    def serving_servers(self) -> list[InteractionServer]:
        """The primary plus every promoted takeover (live serving state)."""
        return [self.server, *self._promoted.values()]

    def standby_for(self, primary_id: str) -> ReplicaState | None:
        return self._replicas.get(primary_id)

    def stats(self) -> dict[str, Any]:
        stats = {
            "shard": self.node_id,
            "alive": self.alive,
            "rooms": sum(len(s.room_ids) for s in self.serving_servers()),
            "sessions": sum(len(s.session_ids) for s in self.serving_servers()),
            "standby_primaries": sorted(self._replicas),
            "promoted_primaries": sorted(self._promoted),
            "queue_max_pending": self.queue.max_pending,
            "replication": {
                replica: {"shipped": log.shipped_seq, "acked": log.acked_seq, "lag": log.lag}
                for replica, log in sorted(self._ship.items())
            },
        }
        if self.admission is not None:
            stats["admission"] = self.admission.stats()
        return stats
