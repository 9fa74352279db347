"""``repro.cluster`` — sharded multi-server conferencing.

The paper's Fig. 1 architecture has exactly one interaction server as
the hub of the star network, which caps the reproduction at a single
node's throughput. This package splices a cluster tier between the
clients and the rooms/DB without changing the client protocol. There is
one topology — clients → gateway tier → shards, with a directory beside
the tier as control plane — and a single-gateway cluster is that
topology with one gateway node:

* :mod:`repro.cluster.ring` — a consistent-hash ring shards rooms across
  server nodes (and clients across gateways) with bounded movement on
  membership change;
* :mod:`repro.cluster.node` — what every node shares: clock-stamped
  events and encode-once sends, liveness and heartbeats, and the one
  admission-gated, traced way into a service queue;
* :mod:`repro.cluster.gateway` — :class:`Gateway`, the routing core of a
  gateway node: session→shard route cache, ``ROUTE`` envelopes both
  ways, routing retry; it hosts the cluster's telemetry monitor
  channel, which answers ``MONITOR`` and a monitor's ``LEAVE`` itself;
* :mod:`repro.cluster.gatewaytier` — :class:`GatewayNode`, the
  deployable access point (the routing core behind its routing queue),
  and the :class:`GatewayDirectory` control plane: shard and gateway
  registration, client homing, the failure detector, ``PROMOTE`` and
  gateway failover;
* :mod:`repro.cluster.shard` — a :class:`ShardServer` wraps a full
  :class:`~repro.server.interaction.InteractionServer` behind a
  bounded-capacity service queue and ships to replicas the room ops its
  server says it applied (a refused op is never replicated);
* :mod:`repro.cluster.replication` — primary→replica log shipping with
  acked sequence numbers; replicas replay ops into shadow servers;
* :mod:`repro.cluster.failover` — simclock-driven heartbeats and the
  failure detector that triggers deterministic promotion;
* :mod:`repro.cluster.admission` — the :class:`AdmissionController`
  guarding each shard's service queue:
  priority lanes (control never shed, JOINs deferred before data drops)
  and typed ``RETRY_AFTER`` bounces so overload degrades into
  bounded-latency deferral instead of unbounded queueing;
* :mod:`repro.cluster.config` — :class:`ClusterConfig`, the one
  description of a cluster's shape and capacity;
* :mod:`repro.cluster.harness` — :class:`ClusterHarness`, one-call
  wiring of a whole cluster from a ``ClusterConfig``.

Everything runs on the existing ``repro.net`` simulated network and the
shared :class:`~repro.net.simclock.SimClock`, so cluster behaviour —
including failover — is deterministic and byte-accounted.
"""

from repro.cluster.admission import (
    AdmissionConfig,
    AdmissionController,
    lane_of,
)
from repro.cluster.config import ClusterConfig
from repro.cluster.failover import FailureDetector, schedule_periodic
from repro.cluster.gateway import Gateway
from repro.cluster.gatewaytier import GatewayDirectory, GatewayNode
from repro.cluster.harness import ClusterHarness
from repro.cluster.replication import LogEntry, ReplicaState, ShipLog
from repro.cluster.ring import HashRing, ring_hash
from repro.cluster.shard import ServiceQueue, ShardServer

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "ClusterConfig",
    "ClusterHarness",
    "FailureDetector",
    "Gateway",
    "GatewayDirectory",
    "GatewayNode",
    "HashRing",
    "LogEntry",
    "ReplicaState",
    "ServiceQueue",
    "ShardServer",
    "ShipLog",
    "lane_of",
    "ring_hash",
    "schedule_periodic",
]
