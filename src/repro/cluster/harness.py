"""Convenience wiring for a whole cluster on one simulated network.

One call builds the Fig. 1 star topology with the cluster tier spliced
in: a directory plus N gateway nodes terminating the client links, shard
servers as backbone nodes, per-client links homed on their gateway, and
(optionally) the heartbeat/detector schedules. Benchmarks, tests and
examples all build clusters through this so the topology is wired one
way everywhere; its shape comes from one
:class:`~repro.cluster.config.ClusterConfig`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.cluster.config import ClusterConfig
from repro.cluster.gatewaytier import GatewayDirectory, GatewayNode
from repro.cluster.ring import HashRing
from repro.cluster.shard import ShardServer
from repro.client.client import ClientModule
from repro.client.monitor import TelemetryMonitor
from repro.db.orm import MultimediaObjectStore
from repro.net.network import SimulatedNetwork
from repro.net.simclock import SimClock

if TYPE_CHECKING:  # pragma: no cover - repro.chaos sits above repro.cluster
    from repro.chaos.plan import FaultPlan

#: Simulated seconds between two heartbeats of a shard or gateway.
HEARTBEAT_INTERVAL_S = 0.5
#: Simulated seconds between two failure-detector sweeps of the directory.
SWEEP_INTERVAL_S = 0.5


class ClusterHarness:
    """A directory + gateways + shard fleet + clients on one clock."""

    def __init__(
        self,
        store: MultimediaObjectStore,
        config: ClusterConfig,
        *,
        reliability: bool = False,
        plan: FaultPlan | None = None,
    ) -> None:
        self.config = config
        self.store = store
        if plan is not None:
            # Imported lazily: repro.chaos sits above repro.cluster.
            from repro.chaos.network import ChaosNetwork

            self.network = ChaosNetwork(reliability=reliability, plan=plan)
        else:
            self.network = SimulatedNetwork(reliability=reliability)
        self.ring = HashRing()
        self.gateway_ring = HashRing()
        self.shards: dict[str, ShardServer] = {}
        self.clients: dict[str, ClientModule] = {}
        self.gateways: dict[str, GatewayNode] = {}
        self.directory = GatewayDirectory(
            self.network,
            self.ring,
            self.gateway_ring,
            failure_timeout=config.failure_timeout,
        )
        for index in range(config.gateways):
            self.add_gateway(f"gw-{index + 1}")
        for index in range(config.shards):
            self.add_shard(f"shard-{index + 1}")

    # ----- topology -----------------------------------------------------------------

    def add_gateway(self, gateway_id: str) -> GatewayNode:
        """Add one gateway node to the tier."""
        gateway = GatewayNode(
            self.network,
            self.directory.node_id,
            self.ring,  # the room→shard ring: JOINs route by doc id
            gateway_id,
            route_rate=self.config.route_rate,
        )
        self.directory.register_gateway(gateway)
        for shard_id in self.shards:
            gateway.note_shard(shard_id)
        self.gateways[gateway_id] = gateway
        return gateway

    def add_shard(self, shard_id: str) -> ShardServer:
        shard = ShardServer(
            shard_id,
            self.store,
            self.network,
            self.directory.node_id,
            self.ring,
            self.gateway_ring,
            service_rate=self.config.service_rate,
            interest_mode=self.config.interest_mode,
            batch_window_s=self.config.batch_window_s,
            admission=self.config.admission,
        )
        self.network.attach_backbone(shard)
        self.directory.register_shard(shard_id)
        for gateway in self.gateways.values():
            gateway.note_shard(shard_id)
        self.shards[shard_id] = shard
        return shard

    def add_client(self, viewer_id: str, auto_fetch: bool = True) -> ClientModule:
        client = ClientModule(viewer_id, network=self.network, auto_fetch=auto_fetch)
        self.network.attach_client(client)
        # Homing the client on a gateway is what turns on its op log:
        # gateway failover and admission sheds both replay off it.
        self.directory.attach_client(client)
        self.clients[viewer_id] = client
        return client

    def add_monitor(self, viewer_id: str = "monitor") -> TelemetryMonitor:
        monitor = TelemetryMonitor(viewer_id, network=self.network)
        self.network.attach_client(monitor)
        self.directory.attach_client(monitor)
        monitor.connect()
        return monitor

    # ----- control ------------------------------------------------------------------

    def start(self, until: float) -> None:
        """Run heartbeats + failure sweeps up to the *until* horizon.

        Only needed for failover scenarios — without it nothing keeps the
        event queue alive and :meth:`run` returns at the last delivery.
        """
        for node in (*self.shards.values(), *self.gateways.values()):
            if node.alive:
                node.start_heartbeats(HEARTBEAT_INTERVAL_S, until)
        self.directory.start_failure_detection(SWEEP_INTERVAL_S, until)

    def crash(self, node_id: str) -> None:
        """Fail-stop one shard or gateway (it goes silent mid-flight)."""
        node = self.shards.get(node_id) or self.gateways.get(node_id)
        if node is None:
            raise KeyError(f"no shard or gateway named {node_id!r}")
        node.crash()

    def schedule_crash(self, node_id: str, at: float) -> None:
        """Arrange for *node_id* to fail-stop at simulated time *at*."""
        self.clock.schedule_at(at, lambda: self.crash(node_id))

    def run(self) -> int:
        """Drive the clock until the network is quiescent."""
        return self.network.run()

    def run_until(self, time: float) -> int:
        return self.network.clock.run_until(time)

    @property
    def clock(self) -> SimClock:
        return self.network.clock

    @property
    def failovers(self) -> list[dict[str, Any]]:
        """Completed shard failovers (the directory's record)."""
        return self.directory.failovers

    @property
    def gateway_failovers(self) -> list[dict[str, Any]]:
        """Completed gateway failovers (the directory's record)."""
        return self.directory.gateway_failovers

    def home_of(self, viewer_id: str) -> str | None:
        """The gateway currently homing one client."""
        client = self.clients[viewer_id]
        return self.network.home_of(client.node_id)

    def route_cache_stats(self) -> dict[str, Any]:
        """Tier-wide route-cache totals across every gateway."""
        totals = {
            fact: sum(g.route_cache[fact] for g in self.gateways.values())
            for fact in ("hits", "misses", "invalidations")
        }
        total = totals["hits"] + totals["misses"]
        return {**totals, "hit_rate": totals["hits"] / total if total else None}

    def owner_of(self, doc_id: str) -> str:
        return self.ring.owner(doc_id)

    def stats(self) -> dict[str, Any]:
        return {
            "directory": self.directory.stats(),
            "gateways": {
                gid: gateway.stats() for gid, gateway in self.gateways.items()
            },
            "route_cache": self.route_cache_stats(),
            "shards": {sid: shard.stats() for sid, shard in self.shards.items()},
            "network": {
                "messages": self.network.stats.messages,
                "bytes_total": self.network.stats.bytes_total,
            },
        }
