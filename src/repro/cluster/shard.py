"""One cluster shard: a full ``InteractionServer`` behind the gateway.

A shard is a backbone node on the simulated network. It receives
``ROUTE`` envelopes from the gateway, dispatches the inner client
message to its interaction server through a bounded-capacity service
queue (the knob that makes scale-out measurable: one shard saturates at
``service_rate`` ops/second, two shards at twice that), and routes every
server response back through the gateway. Room ops the server applied
(its ``receive`` names the session it served, or ``None`` for a
refusal) are appended to a per-replica :class:`ShipLog` and shipped as
``REPLICATE`` batches over backbone peer links; inbound ``REPLICATE``
entries log into standby :class:`ReplicaState` mirrors (no outbox, no
store writes, replay deferred). A ``PROMOTE`` order catches one up and
folds its rooms and sessions into the shard's own server, so a shard
serves from one server for its whole life.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro import obs
from repro.cluster.admission import AdmissionConfig
from repro.cluster.node import ServiceNode
from repro.cluster.replication import REPLICATED_OPS, LogEntry, ReplicaState, ShipLog
from repro.cluster.ring import HashRing
from repro.cluster.wire import ClientBound, ShardBound, encode_clientbound
from repro.db.orm import MultimediaObjectStore
from repro.net.codec import Frame, StringInterner, encode_message, stamp_frame
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.net.simclock import SimClock
from repro.obs.dtrace import HOP_SHARD_QUEUE
from repro.server.interaction import InteractionServer, Outbox, retire_gauges
from repro.server.protocol import MessageKind
from repro.util.failpoints import get_failpoints

#: backoff for client-bound envelopes whose gateway is temporarily gone
#: (crashed but not yet swept): 0.25 * 2^attempt seconds, then give up.
#: Six attempts span ~15.75 s — comfortably past detection + re-homing.
CLIENTBOUND_RETRY_BASE_S = 0.25
CLIENTBOUND_RETRY_ATTEMPTS = 6

#: Ring owners per room: the primary plus one standby replica.
REPLICATION_FACTOR = 2


class ServiceQueue:
    """Serial service model: one op at a time at a fixed ops/second rate.

    ``rate=None`` means infinite capacity (``serve`` runs each record at
    arrival, the pre-cluster behaviour). With a rate, each submitted
    record occupies the server for ``1/rate`` simulated seconds, FIFO —
    the shard-side twin of what :class:`~repro.net.link.Link` does for
    wires. A queued record waits in ``records``; its one clock event pops
    the head, since one queue's completion instants strictly increase.

    The queue tracks its own depth (``pending``, high-water
    ``max_pending``) and exposes an ``on_drain`` hook fired after each
    dispatched op — the seam admission control pumps deferred work
    through. With ``on_drain`` unset the timing behaviour is identical
    to the untracked queue.
    """

    def __init__(self, clock: SimClock, rate: float | None, serve: Callable[[Any], None]) -> None:
        if rate is not None and rate <= 0:
            raise ValueError(f"service rate must be > 0, got {rate}")
        self.clock = clock
        self.rate = rate
        self.serve = serve
        self.busy_until = 0.0  # when the op at the tail of the queue completes
        self.pending = 0
        self.max_pending = 0
        self.on_drain = None
        self.records: deque[Any] | None = None if rate is None else deque()
        self._next = self._run_next  # bound once, not once per op; close drops it

    def close(self) -> None:
        """Its node is done: drop the steps bound to it and to this queue.
        Depths stay readable; nothing is submitted after close."""
        self.serve = self._next = self.on_drain = None

    def submit(self, record: Any) -> None:
        self.pending += 1
        if self.pending > self.max_pending:
            self.max_pending = self.pending
        if self.rate is None:
            self._run(record)
            return
        self.records.append(record)
        now = self.clock.now
        self.busy_until = max(now, self.busy_until) + 1.0 / self.rate
        self.clock.schedule(self.busy_until - now, self._next)

    def _run_next(self) -> None:
        self._run(self.records.popleft())

    def _run(self, record: Any) -> None:
        try:
            self.serve(record)
        finally:
            self.pending -= 1
            if self.on_drain is not None:
                self.on_drain()


class ShardServer(ServiceNode):
    """One shard node: its server + standby replicas + log shipping."""

    role = "shard"
    queue_hop = HOP_SHARD_QUEUE
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
        service_rate: float | None = None,
        interest_mode: str = "off",
        batch_window_s: float = 0.0,
        admission: AdmissionConfig | None = None,
    ) -> None:
        super().__init__(shard_id, network, directory_id)
        self.ring = ring
        # Client-bound envelopes resolve their gateway per client.
        self._gateway_ring = gateway_ring
        self._store = store
        self._interest_mode = interest_mode
        self.server = InteractionServer(store, node_id=shard_id, interest_mode=interest_mode)
        # The server ships on this shard's clock, through an outbox whose
        # frames leave as ROUTEs to the clients' gateways.
        self.server.clock = network.clock
        self.server.outbox = Outbox(network.clock, self.route_to_client, shard_id, batch_window_s)
        self._serve_through(ServiceQueue(network.clock, service_rate, self._work), admission)
        self._ship: dict[str, ShipLog] = {}          # replica shard -> log
        self._replicas: dict[str, ReplicaState] = {}  # primary shard -> standby
        #: op history per room key since the room last opened — streamed to
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
        self._failpoints = get_failpoints()
        registry = obs.get_registry()
        self._m_repl_ops = registry.counter_family(
            "cluster.replication.ops", ("shard",)
        ).labels(shard_id)
        self._m_repl_bytes = registry.counter_family(
            "cluster.replication.bytes", ("shard",)
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

    def _on_route(self, gateway_id: str, routed: ShardBound) -> None:
        # The client's frame is what waits: the envelope dies here.
        self._submit(routed.sender, routed.frame.kind, routed.frame)

    def _bounce(self, sender: str, body: dict[str, Any]) -> None:
        frame = encode_message(MessageKind.RETRY_AFTER, body)
        # Size 0 in a bounce's ROUTE header means "the frame's length" (pinned wire bytes).
        self._send_clientbound(sender, frame, 0, attempt=0)

    def _serve(self, sender_node: str, kind: str, frame: Frame) -> None:
        """Apply one routed client message: fence replays, serve, replicate."""
        payload = frame.payload
        session_id = payload.get("session_id")
        op_seq = payload.get("op_seq")
        if session_id is not None and op_seq is not None:
            last = self._op_seen.get(session_id, 0)
            if op_seq <= last:
                # A gateway-failover replay re-delivered an op we already
                # applied: drop it silently, the client's at-least-once
                # replay is our exactly-once by this fence.
                self._m_dup_ops.inc()
                # The op applied the first time, but its responses may
                # have died with the client's old gateway — answer the
                # replay with a catch-up diff instead of silence.
                if self.server.has_session(session_id):
                    self.server.resync_session(session_id)
                return
        server = self.server  # unknown sessions error out here, routed back
        op = REPLICATED_OPS.get(kind)
        # Read before serving: a LEAVE drops the session (and may close the room).
        room_key = None if op is None or session_id is None else server.doc_of(session_id)
        served = server.receive(
            Message(
                sender=sender_node, recipient=self.node_id,
                kind=kind, payload=payload, size_bytes=0,
            )
        )
        if served is None:
            return  # refused: the client got an ERROR and nothing applied
        if session_id is not None and op_seq is not None:
            self._op_seen[session_id] = op_seq
        if op == "join":
            data = {
                "session_id": served,
                "room_id": server.session(served).room_id,
                "viewer_id": payload["viewer_id"],
                "node_id": sender_node,
            }
            self._replicate_op(payload["doc_id"], op, data)
        elif room_key is not None:  # None: read-only traffic (fetches)
            self._replicate_op(room_key, op, dict(payload))

    def route_to_client(self, recipient: str, frame: Frame) -> None:
        """Wrap one server→client frame into a ROUTE envelope to the gateway."""
        self._send_clientbound(recipient, frame, frame.size_bytes, attempt=0)

    def _send_clientbound(
        self, recipient: str, frame: Frame, size: int, attempt: int
    ) -> None:
        """Send *frame* to *recipient* through its gateway; *size* is the
        ROUTE header's ``size`` field."""
        if not self.alive:
            return
        ring = self._gateway_ring
        gateway_id = ring.owner(recipient) if len(ring) else None
        if gateway_id is None or not self.network.has_node(gateway_id):
            # The client's gateway is down but the directory has not yet
            # re-homed its clients: park and retry with backoff — each
            # attempt re-resolves the ring, so a completed gateway
            # failover transparently picks the survivor.
            self._retry_clientbound(recipient, frame, size, attempt)
            return
        table = self._gw_tables.get(gateway_id)
        if table is None:
            table = self._gw_tables[gateway_id] = StringInterner()
        # The inner frame rides inside the envelope, so the gateway can
        # forward the same encoding to the client link untouched.
        envelope = encode_clientbound(recipient, frame, size, table)
        ctx = self._dtrace.current() if self._dtrace.enabled else None
        if ctx is not None:
            # Chain the backbone leg: the gateway picks the context off
            # the ROUTE envelope and restamps the inner client frame.
            envelope = stamp_frame(envelope, (ctx,))
        self.network.send(self.node_id, gateway_id, envelope)

    def _retry_clientbound(
        self, recipient: str, frame: Frame, size: int, attempt: int
    ) -> None:
        if attempt >= CLIENTBOUND_RETRY_ATTEMPTS:
            self._emit(
                "cluster.clientbound_gave_up", severity="WARN",
                node=recipient, kind=frame.kind, attempts=attempt,
            )
            return
        delay = CLIENTBOUND_RETRY_BASE_S * (2.0**attempt)
        self.network.clock.schedule(
            delay, lambda: self._send_clientbound(recipient, frame, size, attempt + 1)
        )

    # ----- replication: primary side ------------------------------------------------

    def _replicate_op(self, room_key: str, op: str, data: dict[str, Any]) -> None:
        """Ship one applied op of *room_key*'s room to its live replicas."""
        now = self.network.clock.now
        history = self._history_of(room_key, op, data)
        for replica_id in self.replicas_for(room_key):
            log = self._ship.get(replica_id)
            if log is None:
                log = self._ship[replica_id] = ShipLog()
            seen = self._replica_rooms.setdefault(replica_id, set())
            entries = []
            if room_key not in seen:
                # First op this replica sees for the room: prefix the
                # room's history so the replay starts where the room opened.
                seen.add(room_key)
                for past_op, past_data in history:
                    entries.append(log.append(now, room_key, past_op, past_data))
            entries.append(log.append(now, room_key, op, data))
            self._ship_entries(replica_id, log, entries)
        history.append((op, data))

    def _history_of(self, room_key: str, op: str, data: dict[str, Any]) -> list:
        """*room_key*'s history, restarted by a join that mints a new room
        id: a replica bootstrapped from it reads the store where that join did."""
        history = self._room_history.get(room_key)
        if not history or (op == "join" and history[0][1].get("room_id") != data["room_id"]):
            history = self._room_history[room_key] = []
        return history

    def replicas_for(self, room_key: str) -> list[str]:
        """Live replica shards for one room, per the ring preference list."""
        owners = self.ring.owners(room_key, REPLICATION_FACTOR)
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
        self.network.send(self.node_id, replica_id, frame)
        if mode == "crash_after":
            self.crash()
            return
        log.mark_shipped(entries[-1].seq)
        self._m_repl_ops.inc(len(entries))
        self._m_repl_bytes.inc(frame.size_bytes)

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

    def replication_lag(self, replica_id: str) -> int:
        log = self._ship.get(replica_id)
        return log.lag if log is not None else 0

    # ----- replication: replica side -------------------------------------------------

    def _handle_replicate(self, primary_id: str, payload: dict[str, Any]) -> None:
        state = self._replicas.get(primary_id)
        if state is None:
            state = self._replicas[primary_id] = ReplicaState(
                primary_id,
                self.node_id,
                self._store,
                clock=self.network.clock,
                on_gap=self._on_replay_gap,
                interest_mode=self._interest_mode,
            )
        for body in payload.get("entries", []):
            state.offer(LogEntry.from_wire(body))
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
        for client-bound envelopes. One that died with its gateway is
        re-routed through the client's new home. One a live gateway
        never got is not re-sent, since it would land after newer ones;
        as on a single server, the client's next update is made whole.
        """
        self._emit(
            "cluster.shard_delivery_failed", severity="WARN",
            recipient=error.recipient, kind=error.kind, reason=error.reason,
        )
        if error.kind != MessageKind.ROUTE:
            return
        routed: ClientBound = error.payload
        if self.network.has_node(error.recipient):
            self.server.forget_unseen(routed.to, routed.frame.kind)
            return
        self._send_clientbound(routed.to, routed.frame, routed.size, attempt=0)

    # ----- failover ------------------------------------------------------------------

    def _handle_promote(self, directory_id: str, payload: dict[str, Any]) -> None:
        """Directory order: take over the dead primary's rooms and sessions."""
        primary_id = payload["primary"]
        state = self._replicas.pop(primary_id, None)
        sessions = 0
        if state is not None:
            standby = state.promote()
            sessions = sum(standby.session(s).in_room for s in standby.session_ids)
            # The standby only decided; its rooms and sessions become this
            # shard's own, served, shipped and coalesced by its one server.
            self.server.adopt(standby)
            # Inherit the replayed ops as this shard's history for the
            # taken-over rooms: the new primary must be able to bootstrap
            # *its* replicas (the ring will name one on the next op).
            for entry in state.applied_log:
                self._history_of(entry.room_key, entry.op, entry.data).append(
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
        # The dead primary's tables still hold the sessions just adopted.
        retire_gauges(primary_id)
        self._m_promotions.inc()
        self._send_framed(
            self.directory_id, MessageKind.ACK,
            {"promote": primary_id, "sessions": sessions},
        )

    def close(self) -> None:
        super().close()
        self.server.close()
        for state in self._replicas.values():
            state.close()

    # ----- introspection ----------------------------------------------------------------

    def standby_for(self, primary_id: str) -> ReplicaState | None:
        return self._replicas.get(primary_id)

    def stats(self) -> dict[str, Any]:
        stats = {
            "shard": self.node_id,
            "alive": self.alive,
            "rooms": len(self.server.room_ids),
            "sessions": len(self.server.session_ids),
            "standby_primaries": sorted(self._replicas),
            "queue_max_pending": self.queue.max_pending,
            "replication": {
                replica: {"shipped": log.shipped_seq, "acked": log.acked_seq, "lag": log.lag}
                for replica, log in sorted(self._ship.items())
            },
        }
        if self.admission is not None:
            stats["admission"] = self.admission.stats()
        return stats
