"""The gateway tier: N gateways, a directory, gateway failover.

Every cluster fronts its shards with this tier; a single-gateway
cluster is the N = 1 case, not a different topology.

* :class:`GatewayNode` — one of N access points. A backbone peer that
  also terminates client links (``network.attach_gateway``): the
  :class:`~repro.cluster.gateway.Gateway` routing core and its route
  cache, made a live node. An optional ``route_rate`` service queue
  models finite routing capacity, which is what makes multi-gateway
  scale-out measurable (E16).
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
from repro.cluster.failover import FailureDetector, schedule_periodic
from repro.cluster.gateway import Gateway
from repro.cluster.node import ClusterNode
from repro.cluster.ring import HashRing
from repro.cluster.shard import ServiceQueue
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.obs import LATENCY_BUCKETS
from repro.obs.dtrace import HOP_GATEWAY_QUEUE
from repro.server.protocol import MessageKind

#: The directory's node id; a cluster has exactly one directory.
DIRECTORY_ID = "directory"


class GatewayNode(Gateway):
    """One gateway of the tier: the routing core as a live node behind
    its routing queue."""

    #: directory control, applied on arrival: it pays no routing
    #: capacity and is not server activity the telemetry push rides on.
    _CONTROL = {
        MessageKind.ROUTE_INFO: "_on_route_info",
        MessageKind.ROUTE_INVALIDATE: "_on_route_invalidate",
    }
    queue_hop = HOP_GATEWAY_QUEUE

    def __init__(
        self,
        network: SimulatedNetwork,
        directory_id: str,
        ring: HashRing,
        node_id: str,
        route_rate: float | None = None,
    ) -> None:
        super().__init__(network, directory_id, ring, node_id)
        if route_rate is not None:
            self._serve_through(ServiceQueue(network.clock, route_rate, self._work), None)
        network.attach_gateway(self)

    # ----- network glue -----------------------------------------------------------

    def receive(self, message: Message) -> None:
        if not self.alive:
            return
        sender, kind = message.sender, message.kind
        control = self._CONTROL.get(kind)
        if control is not None:
            getattr(self, control)(message.payload or {})
            return
        # A shard's ROUTE is served from the ClientBound it carries, a
        # client op from its own frame: the transmission dies here.
        shard_route = kind == MessageKind.ROUTE and sender in self._shards
        body = message.payload if shard_route else message.frame
        if self.queue is not None and kind in self._HANDLERS:
            # Everything the core serves pays routing capacity: what it
            # routes, what it forwards, what its telemetry channel answers.
            self._submit(sender, kind, body)
        else:
            Gateway.receive(self, sender, kind, body)

    def _serve(self, sender: str, kind: str, body: Any) -> None:
        # By name, not an alias: a tracer that rebinds Gateway.receive
        # sees the queued path too.
        Gateway.receive(self, sender, kind, body)

    def stats(self) -> dict[str, Any]:
        base = super().stats()
        if self.queue is not None:
            base["queue_max_pending"] = self.queue.max_pending
        return base


class GatewayDirectory(ClusterNode):
    """Control plane of the tier: client homing, routes, liveness."""

    #: message kind -> the method that takes (sender, payload).
    _HANDLERS = {
        MessageKind.HEARTBEAT: "_on_heartbeat",
        MessageKind.ROUTE_REPORT: "_on_route_report",
        MessageKind.ROUTE_LOOKUP: "_on_route_lookup",
        MessageKind.ACK: "_on_shard_ack",
    }

    def __init__(
        self,
        network: SimulatedNetwork,
        ring: HashRing,
        gateway_ring: HashRing,
        failure_timeout: float = 2.0,
    ) -> None:
        super().__init__(DIRECTORY_ID, network)
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
        self._m_lookups = registry.counter("directory.lookups")
        self._h_failover = registry.histogram(
            "cluster.failover_duration_s", LATENCY_BUCKETS
        )
        shards, gateways, dead = self._shards, self._gateways, self._dead
        registry.gauge("cluster.shards_live", read=lambda: len(shards - dead))
        registry.gauge("cluster.gateways_live", read=lambda: len(gateways - dead))
        registry.gauge("directory.sessions_known", read=self._session_route.__len__)
        network.attach_backbone(self)

    # ----- topology ---------------------------------------------------------------

    def register_shard(self, shard_id: str) -> None:
        """Add a shard to the room ring and watch its heartbeats."""
        if shard_id in self._shards:
            raise ClusterError(f"shard {shard_id!r} already registered")
        self._shards.add(shard_id)
        self.ring.add_node(shard_id)
        self.detector.watch(shard_id, self.network.clock.now)

    def register_gateway(self, gateway: GatewayNode) -> None:
        """Add a gateway to the client ring and watch its heartbeats."""
        gateway_id = gateway.node_id
        if gateway_id in self._gateways:
            raise ClusterError(f"gateway {gateway_id!r} already registered")
        self._gateways.add(gateway_id)
        self.gateway_ring.add_node(gateway_id)
        self.detector.watch(gateway_id, self.network.clock.now)

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
            self._emit(
                "cluster.no_shards_left", severity="ERROR", orphaned=len(orphans)
            )
            return
        # Re-home every session of the dead shard to the ring's new owner
        # of its room key — by construction the old replica.
        new_owners: set[str] = set()
        for session_id, owner in self._session_route.items():
            if owner != shard_id:
                continue
            new_owner = self.ring.owner(self._session_key[session_id])
            self._session_route[session_id] = new_owner
            new_owners.add(new_owner)
        for new_owner in sorted(new_owners):
            self._send_framed(
                new_owner, MessageKind.PROMOTE, {"primary": shard_id}
            )
            self._pending_failover[(shard_id, new_owner)] = now

    def _handle_gateway_failure(self, gateway_id: str) -> None:
        if gateway_id in self._dead or gateway_id not in self._gateways:
            return
        now = self.network.clock.now
        last_beat = self.detector.last_beat(gateway_id)
        self._dead.add(gateway_id)
        self.detector.forget(gateway_id)
        self.gateway_ring.remove_node(gateway_id)
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
        kind = message.kind
        if message.sender in self._dead:
            # Zombie fencing, same rule as the gateways: declared dead
            # stays dead, late frames must not resurrect routes.
            self._emit(
                "directory.zombie_fenced", severity="WARN",
                node=message.sender, kind=kind,
            )
            return
        handler = self._HANDLERS.get(kind)
        if handler is None:
            raise ClusterError(f"unexpected message kind {kind!r} at directory")
        getattr(self, handler)(message.sender, message.payload or {})

    def _on_heartbeat(self, sender: str, payload: dict[str, Any]) -> None:
        node = payload["node"]
        if node not in self._dead:
            self.detector.beat(node, self.network.clock.now)

    def _on_route_report(self, gateway_id: str, payload: dict[str, Any]) -> None:
        session_id = payload["session_id"]
        if payload.get("removed"):
            self._session_route.pop(session_id, None)
            self._session_key.pop(session_id, None)
        else:
            self._session_route[session_id] = payload["shard"]
            self._session_key[session_id] = payload["key"]

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
