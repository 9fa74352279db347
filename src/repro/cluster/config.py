"""Named cluster topology configuration.

One frozen dataclass carries every knob that shapes a cluster —
shard count, gateway-tier width, service and routing capacity, the
batching window — and is the only way
:class:`~repro.cluster.harness.ClusterHarness` and
:func:`~repro.workloads.cluster.run_cluster_conference` are told what
to build. Every cluster is a directory plus ``gateways`` gateway nodes
(:mod:`repro.cluster.gatewaytier`) in front of ``shards`` shard servers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.admission import AdmissionConfig
from repro.errors import ClusterError


@dataclass(frozen=True)
class ClusterConfig:
    """Topology + capacity knobs for one simulated cluster."""

    #: Shard servers behind the gateway tier.
    shards: int = 2
    #: Gateway nodes terminating client links; clients are homed across them
    #: by consistent hash and re-homed when one dies.
    gateways: int = 1
    #: Propagation batching window on the shards (0 = send immediately).
    batch_window_s: float = 0.0
    #: Shard serial service capacity in ops/second (None = infinite).
    service_rate: float | None = None
    #: Gateway routing capacity in envelopes/second (None = infinite);
    #: the knob that makes gateway scale-out measurable in benchmark E16.
    route_rate: float | None = None
    #: Heartbeat silence before a shard or gateway is declared dead.
    failure_timeout: float = 2.0
    #: Interest management mode ("off" or "cpnet").
    interest_mode: str = "off"
    #: Admission control in front of every shard's service queue.
    #: ``None`` (the default) leaves every queue unbounded.
    admission: AdmissionConfig | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ClusterError(f"a cluster needs >= 1 shard, got {self.shards}")
        if self.gateways < 1:
            raise ClusterError(f"a cluster needs >= 1 gateway, got {self.gateways}")
        if self.route_rate is not None and self.route_rate <= 0:
            raise ClusterError(f"route_rate must be > 0, got {self.route_rate}")
