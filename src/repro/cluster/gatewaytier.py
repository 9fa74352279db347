"""The gateway tier: N gateways, a directory, gateway failover.

Every cluster fronts its shards with this tier; a single-gateway
cluster is the N = 1 case, not a different topology.

* :class:`GatewayNode` — one of N access points. A backbone peer that
  also terminates client links (``network.attach_gateway``), it keeps a
  per-gateway **route cache** (session → owning shard) learned by
  sniffing ``JOIN_ACK`` responses. Steady-state room traffic flows
  client → gateway → shard with zero directory hops; a cache miss parks
  the op and resolves it with one ``ROUTE_LOOKUP`` round trip. An
  optional ``route_rate`` service queue models finite routing capacity,
  which is what makes multi-gateway scale-out measurable (E16).
* :class:`GatewayDirectory` — the control plane. It assigns clients to
  gateways by consistent hash over client node ids (the same ring
  machinery that shards rooms), keeps the authoritative session→shard
  table from gateways' ``ROUTE_REPORT``\\ s, and runs the one failure
  detector for **both** shards and gateways. A dead shard triggers
  ``PROMOTE`` to the ring's new owner (the old replica, by
  construction) plus a ``ROUTE_INVALIDATE`` broadcast so stale cache
  entries die with it; a dead gateway's clients are re-homed onto the
  ring's surviving owner, and each client's ``on_gateway_failover``
  hook replays its parked ops through the new home (the shard-side
  per-session ``op_seq`` dedup keeps the replay exactly-once).

The directory itself stays off the data path — after the lookup that
fills a cache entry, it sees only reports and heartbeats — and is the
sole remaining unkillable piece (replicating it is future work; see
DESIGN.md §13).
"""

from __future__ import annotations

from typing import Any

from repro import obs
from repro.errors import ClusterError
from repro.cluster.admission import (
    DEFER,
    SHED,
    AdmissionConfig,
    AdmissionController,
    retry_after_body,
)
from repro.cluster.failover import FailureDetector, schedule_periodic
from repro.cluster.gateway import Gateway
from repro.cluster.ring import HashRing
from repro.cluster.shard import ServiceQueue
from repro.net.codec import Frame, StringInterner, encode_message
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.obs import LATENCY_BUCKETS
from repro.obs.dtrace import HOP_DIRECTORY_LOOKUP, HOP_GATEWAY_QUEUE, HOP_SHED_WAIT
from repro.server.protocol import MessageKind


class GatewayNode(Gateway):
    """One gateway of the tier: the routing core plus a route cache."""

    def __init__(
        self,
        network: SimulatedNetwork,
        directory_id: str,
        ring: HashRing,
        node_id: str,
        route_rate: float | None = None,
        admission: AdmissionConfig | None = None,
    ) -> None:
        super().__init__(network, ring, node_id)
        self.directory_id = directory_id
        self.alive = True
        self._route_queue = (
            ServiceQueue(network.clock, route_rate) if route_rate is not None else None
        )
        # Admission needs a measurable queue: with no routing-capacity
        # model every message dispatches at arrival and depth is always
        # zero, so the gate would never trip anyway.
        self.admission: AdmissionController | None = None
        if admission is not None and self._route_queue is not None:
            self.admission = AdmissionController(
                node_id, self._route_queue, admission, self._resume_deferred
            )
            self._route_queue.on_drain = self.admission.pump
        #: ops parked on a route-cache miss: session -> FIFO of
        #: (sender, kind, payload, frame, trace ctx, parked-at time).
        self._route_waiting: dict[str, list[tuple[Any, ...]]] = {}
        registry = self._registry
        self._m_cache_hits = registry.counter_family(
            "gateway.route_cache.hits", ("gateway",)
        ).labels(node_id)
        self._m_cache_misses = registry.counter_family(
            "gateway.route_cache.misses", ("gateway",)
        ).labels(node_id)
        self._m_cache_invalidations = registry.counter_family(
            "gateway.route_cache.invalidations", ("gateway",)
        ).labels(node_id)
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0
        network.attach_gateway(self)

    # ----- topology ---------------------------------------------------------------

    def note_shard(self, shard_id: str) -> None:
        """Track a shard registered at the directory (the gateway keeps
        one envelope string table per shard channel)."""
        self._shards.add(shard_id)
        self._shard_tables.setdefault(shard_id, StringInterner())

    # ----- liveness ---------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: detach from the network and go silent."""
        self.alive = False
        self.network.detach_client(self.node_id)
        self._emit("cluster.gateway_crash", severity="WARN", gateway=self.node_id)

    def start_heartbeats(self, interval: float, until: float) -> None:
        """Beat to the directory every *interval* seconds up to *until*."""
        clock = self.network.clock

        def beat() -> bool:
            if not self.alive:
                return False
            body = {"node": self.node_id, "at": clock.now}
            frame = encode_message(MessageKind.HEARTBEAT, body)
            self.network.send(
                self.node_id, self.directory_id, MessageKind.HEARTBEAT,
                payload=body, frame=frame,
            )
            return True

        schedule_periodic(clock, interval, until, beat)

    # ----- network glue -----------------------------------------------------------

    def receive(self, message: Message) -> None:
        if not self.alive:
            return
        kind = message.kind
        payload = message.payload or {}
        if kind == MessageKind.ROUTE_INFO:
            self._on_route_info(payload)
            return
        if kind == MessageKind.ROUTE_INVALIDATE:
            self._on_route_invalidate(payload)
            return
        if self._route_queue is not None and self._is_data_plane(kind, payload):
            # Only client-originated kinds face admission lanes: ROUTE
            # envelopes from shards are responses already paid for, and
            # shedding them would strand acked server state.
            if self.admission is not None and kind in MessageKind.CLIENT_KINDS:
                session_id = payload.get("session_id")
                decision = self.admission.admit(
                    kind, session_id=session_id, op_seq=payload.get("op_seq")
                )
                if decision.action == DEFER:
                    ctx = self._dtrace.current() if self._dtrace.enabled else None
                    self.admission.park((message, ctx))
                    return
                if decision.action == SHED:
                    self._send_retry_after(
                        message.sender, kind, payload, decision.retry_after_s
                    )
                    return
                if kind == MessageKind.LEAVE:
                    self.admission.forget_session(session_id)
            self._enqueue(message)
            return
        super().receive(message)

    def _resume_deferred(self, item: tuple[Message, Any], parked_at: float) -> None:
        """Pump callback: re-enter one deferred JOIN into the route queue."""
        message, ctx = item
        if not self.alive:
            return
        if not self.network.has_node(message.sender):
            # The parked client is gone: drop with zero residue.
            self.admission.drop_parked()
            self._emit(
                "gateway.admission.deferred_dropped",
                node=message.sender, kind=message.kind,
            )
            return
        if ctx is not None:
            advanced = self._dtrace.record_hop(
                ctx, HOP_SHED_WAIT, self.node_id, parked_at,
                self.network.clock.now, kind=message.kind,
            )
            with self._dtrace.inbound(advanced):
                self._enqueue(message)
        else:
            self._enqueue(message)

    def _send_retry_after(
        self, sender: str, kind: str, payload: dict[str, Any], after_s: float
    ) -> None:
        """Bounce one shed client op straight back with a backoff hint."""
        body = retry_after_body(kind, payload, after_s, self.node_id)
        self._emit(
            "gateway.admission.shed", node=sender, kind=kind, after_s=after_s
        )
        if self.network.has_node(sender):
            self._send_framed(sender, MessageKind.RETRY_AFTER, body)

    def _is_data_plane(self, kind: str, payload: dict[str, Any]) -> bool:
        """Envelopes that pay the routing-capacity cost (not control)."""
        if kind == MessageKind.ROUTE:
            return True
        if kind == MessageKind.MONITOR:
            return False
        if kind == MessageKind.LEAVE and payload.get("session_id") in self._monitors:
            return False
        return kind in MessageKind.CLIENT_KINDS

    def _enqueue(self, message: Message) -> None:
        """Pay the routing service cost, then dispatch as usual.

        Mirrors the shard's traced dispatch: the wait between enqueue
        and dispatch becomes a ``gateway_queue`` span so the critical-
        path analyzer can attribute time lost to gateway saturation.
        """
        dtrace = self._dtrace
        ctx = dtrace.current() if dtrace.enabled else None
        enqueued = self.network.clock.now

        def work() -> None:
            if not self.alive:
                return
            if ctx is not None:
                advanced = dtrace.record_hop(
                    ctx, HOP_GATEWAY_QUEUE, self.node_id, enqueued,
                    self.network.clock.now, kind=message.kind,
                )
                with dtrace.inbound(advanced):
                    Gateway.receive(self, message)
            else:
                Gateway.receive(self, message)

        self._route_queue.submit(work)

    # ----- route cache ------------------------------------------------------------

    def _route_client(
        self,
        sender_node: str,
        kind: str,
        payload: dict[str, Any],
        attempt: int = 0,
        frame: Frame | None = None,
    ) -> None:
        if kind != MessageKind.JOIN:
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
        super()._route_client(sender_node, kind, payload, attempt, frame)

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
            for sender_node, kind, _p, _f, _ctx, _at in waiting:
                self._m_route_errors.inc()
                if self.network.has_node(sender_node):
                    body = {
                        "error": "ClusterError",
                        "detail": f"no shard owns session {session_id!r}",
                    }
                    self._send_framed(sender_node, MessageKind.ERROR, body)
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
        super()._learn_route(session_id, doc_id, shard_id)
        # Keep the directory authoritative: it answers other gateways'
        # lookups for this session after we are gone.
        self._send_framed(
            self.directory_id, MessageKind.ROUTE_REPORT,
            {"session_id": session_id, "key": doc_id, "shard": shard_id},
        )

    def _forget_route(self, session_id: str | None) -> None:
        known = session_id in self._session_route
        super()._forget_route(session_id)
        if known:
            self._send_framed(
                self.directory_id, MessageKind.ROUTE_REPORT,
                {"session_id": session_id, "removed": True},
            )

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
        base = super().stats()
        base["route_cache"] = self.route_cache_stats()
        base["alive"] = self.alive
        if self._route_queue is not None:
            base["queue_max_pending"] = self._route_queue.max_pending
        if self.admission is not None:
            base["admission"] = self.admission.stats()
        return base


class GatewayDirectory:
    """Control plane of the tier: client homing, routes, liveness."""

    def __init__(
        self,
        network: SimulatedNetwork,
        ring: HashRing,
        gateway_ring: HashRing,
        node_id: str = "directory",
        failure_timeout: float = 2.0,
    ) -> None:
        self.node_id = node_id
        self.network = network
        self.ring = ring  # rooms -> shards
        self.gateway_ring = gateway_ring  # clients -> gateways
        self.detector = FailureDetector(failure_timeout)
        self._shards: set[str] = set()
        self._gateways: set[str] = set()
        self._dead: set[str] = set()
        self._session_route: dict[str, str] = {}  # authoritative session -> shard
        self._session_key: dict[str, str] = {}    # session -> sharding key (doc)
        self._clients: dict[str, Any] = {}        # node id -> client object
        self._pending_failover: dict[tuple[str, str], float] = {}
        #: completed shard failovers, in order: primary/promoted/started/completed.
        self.failovers: list[dict[str, Any]] = []
        #: completed gateway failovers: gateway/clients moved/timing.
        self.gateway_failovers: list[dict[str, Any]] = []
        registry = obs.get_registry()
        self._registry = registry
        self._events = obs.get_event_log()
        self._m_lookups = registry.counter("directory.lookups")
        self._m_reports = registry.counter("directory.route_reports")
        self._m_zombies_fenced = registry.counter("directory.zombies_fenced")
        self._h_failover = registry.histogram(
            "cluster.failover_duration_s", LATENCY_BUCKETS
        )
        self._h_gw_failover = registry.histogram(
            "cluster.gateway_failover_duration_s", LATENCY_BUCKETS
        )
        self._g_shards = registry.gauge("cluster.shards_live")
        self._g_gateways = registry.gauge("cluster.gateways_live")
        self._g_sessions = registry.gauge("directory.sessions_known")
        self._g_shards.set(0)
        self._g_gateways.set(0)
        self._g_sessions.set(0)
        network.attach_backbone(self)

    # ----- topology ---------------------------------------------------------------

    def register_shard(self, shard_id: str) -> None:
        """Add a shard to the room ring and watch its heartbeats."""
        if shard_id in self._shards:
            raise ClusterError(f"shard {shard_id!r} already registered")
        self._shards.add(shard_id)
        self.ring.add_node(shard_id)
        self.detector.watch(shard_id, self.network.clock.now)
        self._g_shards.set(len(self.live_shards))
        self._emit("cluster.shard_registered", shard=shard_id)

    def register_gateway(self, gateway: GatewayNode) -> None:
        """Add a gateway to the client ring and watch its heartbeats."""
        gateway_id = gateway.node_id
        if gateway_id in self._gateways:
            raise ClusterError(f"gateway {gateway_id!r} already registered")
        self._gateways.add(gateway_id)
        self.gateway_ring.add_node(gateway_id)
        self.detector.watch(gateway_id, self.network.clock.now)
        self._g_gateways.set(len(self.live_gateways))
        self._emit("cluster.gateway_registered", gateway=gateway_id)

    def attach_client(self, client: Any) -> str:
        """Home *client* on its consistent-hash gateway; return its id.

        This is the out-of-band bootstrap step (the moral equivalent of
        a DNS answer): the client object is remembered so its
        ``on_gateway_failover`` hook can be invoked when its home dies.
        """
        node_id = client.node_id
        gateway_id = self.gateway_ring.owner(node_id)
        self._clients[node_id] = client
        self.network.assign_home(node_id, gateway_id)
        self._emit("directory.client_homed", node=node_id, gateway=gateway_id)
        return gateway_id

    @property
    def live_shards(self) -> tuple[str, ...]:
        return tuple(sorted(self._shards - self._dead))

    @property
    def live_gateways(self) -> tuple[str, ...]:
        return tuple(sorted(self._gateways - self._dead))

    @property
    def dead_nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._dead))

    def shard_of_session(self, session_id: str) -> str | None:
        return self._session_route.get(session_id)

    # ----- failure detection ------------------------------------------------------

    def start_failure_detection(self, interval: float, until: float) -> None:
        """Sweep the detector every *interval* seconds up to the horizon."""
        clock = self.network.clock
        # Nodes registered long before sweeping begins still get a full
        # timeout from *now* — without this re-arm, the first sweep would
        # compare against the registration timestamp and declare a healthy
        # fleet dead before any heartbeat has had a chance to arrive.
        for node in self.detector.watched:
            self.detector.beat(node, clock.now)

        def sweep() -> None:
            for node in self.detector.dead(clock.now):
                if node in self._gateways:
                    self._handle_gateway_failure(node)
                else:
                    self._handle_shard_failure(node)

        schedule_periodic(clock, interval, until, sweep)

    def _handle_shard_failure(self, shard_id: str) -> None:
        if shard_id in self._dead or shard_id not in self._shards:
            return
        now = self.network.clock.now
        last_beat = self.detector.last_beat(shard_id)
        self._dead.add(shard_id)
        self.detector.forget(shard_id)
        self.ring.remove_node(shard_id)
        self._g_shards.set(len(self.live_shards))
        self._emit(
            "cluster.shard_dead", severity="WARN", shard=shard_id, last_beat=last_beat
        )
        # Stale cache entries must die with the shard: every live gateway
        # drops its routes for it and fences its zombie frames.
        for gateway_id in self.live_gateways:
            if self.network.has_node(gateway_id):
                self._send_framed(
                    gateway_id, MessageKind.ROUTE_INVALIDATE, {"shard": shard_id}
                )
        if not len(self.ring):
            orphans = [s for s, o in self._session_route.items() if o == shard_id]
            for session_id in orphans:
                self._session_route.pop(session_id, None)
                self._session_key.pop(session_id, None)
            self._g_sessions.set(len(self._session_route))
            self._emit(
                "cluster.no_shards_left", severity="ERROR", orphaned=len(orphans)
            )
            return
        # Re-home every session of the dead shard to the ring's new owner
        # of its room key — by construction the old replica.
        promotions: dict[str, int] = {}
        for session_id, owner in self._session_route.items():
            if owner != shard_id:
                continue
            key = self._session_key[session_id]
            new_owner = self.ring.owner(key)
            self._session_route[session_id] = new_owner
            promotions[new_owner] = promotions.get(new_owner, 0) + 1
        for new_owner in sorted(promotions):
            self._send_framed(
                new_owner, MessageKind.PROMOTE, {"primary": shard_id}
            )
            self._pending_failover[(shard_id, new_owner)] = now
            self._emit(
                "cluster.promote_sent",
                shard=new_owner,
                primary=shard_id,
                sessions=promotions[new_owner],
            )

    def _handle_gateway_failure(self, gateway_id: str) -> None:
        if gateway_id in self._dead or gateway_id not in self._gateways:
            return
        now = self.network.clock.now
        last_beat = self.detector.last_beat(gateway_id)
        self._dead.add(gateway_id)
        self.detector.forget(gateway_id)
        self.gateway_ring.remove_node(gateway_id)
        self._g_gateways.set(len(self.live_gateways))
        self._emit(
            "cluster.gateway_dead", severity="WARN",
            gateway=gateway_id, last_beat=last_beat,
        )
        if not len(self.gateway_ring):
            self._emit("cluster.no_gateways_left", severity="ERROR")
            return
        # Re-home every stranded client onto the ring's surviving owner,
        # then let it replay: the network homing must change *before*
        # the client's failover hook starts re-sending.
        moved = 0
        for node_id in sorted(self._clients):
            if self.network.home_of(node_id) != gateway_id:
                continue
            new_home = self.gateway_ring.owner(node_id)
            self.network.assign_home(node_id, new_home)
            moved += 1
            hook = getattr(self._clients[node_id], "on_gateway_failover", None)
            if hook is not None:
                hook(new_home)
        duration = now - (last_beat if last_beat is not None else now)
        self._h_gw_failover.observe(duration)
        self.gateway_failovers.append(
            {
                "gateway": gateway_id,
                "clients": moved,
                "last_beat": last_beat,
                "completed": now,
            }
        )
        self._emit(
            "cluster.gateway_failover_complete", gateway=gateway_id, clients=moved
        )

    def _on_shard_ack(self, shard_id: str, payload: dict[str, Any]) -> None:
        primary = payload.get("promote")
        if primary is None:
            return
        started = self._pending_failover.pop((primary, shard_id), None)
        if started is None:
            return
        now = self.network.clock.now
        self._h_failover.observe(now - started)
        self.failovers.append(
            {
                "primary": primary,
                "promoted": shard_id,
                "started": started,
                "completed": now,
                "sessions": payload.get("sessions", 0),
            }
        )
        self._emit(
            "cluster.failover_complete",
            primary=primary,
            promoted=shard_id,
            duration=now - started,
            sessions=payload.get("sessions", 0),
        )

    # ----- network glue -----------------------------------------------------------

    def receive(self, message: Message) -> None:
        payload = message.payload or {}
        kind = message.kind
        if message.sender in self._dead:
            # Zombie fencing, same rule as the gateways: declared dead
            # stays dead, late frames must not resurrect routes.
            self._m_zombies_fenced.inc()
            self._emit(
                "directory.zombie_fenced", severity="WARN",
                node=message.sender, kind=kind,
            )
            return
        if kind == MessageKind.HEARTBEAT:
            node = payload["node"]
            if node not in self._dead:
                self.detector.beat(node, self.network.clock.now)
        elif kind == MessageKind.ROUTE_REPORT:
            self._on_route_report(payload)
        elif kind == MessageKind.ROUTE_LOOKUP:
            self._on_route_lookup(message.sender, payload)
        elif kind == MessageKind.ACK:
            self._on_shard_ack(message.sender, payload)
        else:
            raise ClusterError(f"unexpected message kind {kind!r} at directory")

    def _on_route_report(self, payload: dict[str, Any]) -> None:
        session_id = payload["session_id"]
        if payload.get("removed"):
            self._session_route.pop(session_id, None)
            self._session_key.pop(session_id, None)
        else:
            self._session_route[session_id] = payload["shard"]
            self._session_key[session_id] = payload["key"]
        self._m_reports.inc()
        self._g_sessions.set(len(self._session_route))

    def _on_route_lookup(self, gateway_id: str, payload: dict[str, Any]) -> None:
        session_id = payload["session_id"]
        self._m_lookups.inc()
        body = {
            "session_id": session_id,
            "shard": self._session_route.get(session_id),
            "key": self._session_key.get(session_id),
        }
        if self.network.has_node(gateway_id):
            self._send_framed(gateway_id, MessageKind.ROUTE_INFO, body)

    # ----- misc -------------------------------------------------------------------

    def _send_framed(self, recipient: str, kind: str, body: dict[str, Any]) -> None:
        frame = encode_message(kind, body)
        self.network.send(self.node_id, recipient, kind, payload=body, frame=frame)

    def _emit(self, name: str, severity: str = "INFO", **fields: Any) -> None:
        self._events.emit(name, severity=severity, at=self.network.clock.now, **fields)

    def stats(self) -> dict[str, Any]:
        return {
            "shards": sorted(self._shards),
            "gateways": sorted(self._gateways),
            "live_shards": list(self.live_shards),
            "live_gateways": list(self.live_gateways),
            "dead": list(self.dead_nodes),
            "sessions_known": len(self._session_route),
            "clients_homed": len(self._clients),
            "failovers": len(self.failovers),
            "gateway_failovers": len(self.gateway_failovers),
        }
