"""ChaosNetwork: fault enforcement composed with the reliable transport."""

import pytest

from repro import obs
from repro.chaos import (
    CORRUPTED_PAYLOAD,
    ChaosNetwork,
    FaultPlan,
    PARTITION_DROP,
)
from repro.net import Link
from tests.net.frames import frame_of


@pytest.fixture(autouse=True)
def fresh_obs():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            yield registry, log


class Recorder:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []
        self.failures = []

    def receive(self, message):
        self.received.append(message)

    def on_delivery_failed(self, error):
        self.failures.append(error)


def rig(plan, reliability=True):
    network = ChaosNetwork(reliability=reliability, plan=plan)
    hub = Recorder("server")
    client = Recorder("c1")
    network.attach_hub(hub)
    network.attach_client(client, uplink=Link(), downlink=Link())
    return network, hub, client


class TestFaultEnforcement:
    def test_no_plan_behaves_like_the_plain_network(self):
        network, hub, _ = rig(plan=None)
        network.send("c1", "server", frame_of("choice", {"v": 1}, size_bytes=10))
        network.run()
        assert [m.payload for m in hub.received] == [{"v": 1}]
        assert network.injected_counts() == {}

    def test_reliability_repairs_heavy_loss(self):
        plan = FaultPlan(seed=42, drop_rate=0.15, dup_rate=0.1, corrupt_rate=0.05)
        network, hub, _ = rig(plan)
        for n in range(20):
            network.send("c1", "server", frame_of("choice", {"n": n}, size_bytes=10))
        network.run()
        # Every frame arrives exactly once, in order, despite the chaos.
        assert [m.payload["n"] for m in hub.received] == list(range(20))
        assert sum(network.injected_counts().values()) > 0
        assert network.delivery_failures == []

    def test_without_reliability_loss_is_visible(self):
        plan = FaultPlan(seed=42, drop_rate=0.5)
        network, hub, _ = rig(plan, reliability=False)
        for n in range(40):
            network.send("c1", "server", frame_of("choice", {"n": n}, size_bytes=10))
        network.run()
        assert 0 < len(hub.received) < 40  # lossy and unrepaired
        assert network.injected_counts().get("drop", 0) > 0

    def test_corruption_substitutes_the_poison_payload(self):
        plan = FaultPlan(seed=1, corrupt_rate=0.999999)
        network, hub, _ = rig(plan, reliability=False)
        network.send("c1", "server", frame_of("choice", {"v": "good"}, size_bytes=10))
        network.run()
        assert [m.payload for m in hub.received] == [CORRUPTED_PAYLOAD]

    def test_retransmissions_are_also_subject_to_faults(self):
        # Drop everything: even the retries die, so the retry budget is
        # what terminates the run — injected count must exceed budget.
        plan = FaultPlan(seed=2, drop_rate=0.999999)
        network, hub, client = rig(plan)
        network.send("c1", "server", frame_of("choice", {"v": 1}, size_bytes=10))
        network.run()
        assert hub.received == []
        assert [f.reason for f in network.delivery_failures] == [
            "retry_budget_exhausted"
        ]
        assert client.failures == network.delivery_failures
        assert network.injected_counts()["drop"] >= 7  # every attempt dropped

    def test_injected_counts_label_by_fault(self, fresh_obs):
        registry, _ = fresh_obs
        plan = FaultPlan(seed=3, dup_rate=0.999999)
        network, hub, _ = rig(plan, reliability=False)
        network.send("c1", "server", frame_of("choice", {}, size_bytes=10))
        network.run()
        assert network.injected_counts() == {"duplicate": 1}
        counters = registry.snapshot()["counters"]
        assert counters['chaos.injected{fault="duplicate"}'] == 1
        # Without reliability the duplicate reaches the app twice.
        assert len(hub.received) == 2


class TestWindows:
    def test_partition_cuts_frames_and_heals(self, fresh_obs):
        _, log = fresh_obs
        plan = FaultPlan()
        plan.partition({"c1"}, {"server"}, start=0.0, end=1.0)
        network, hub, _ = rig(plan, reliability=False)
        network.send("c1", "server", frame_of("choice", {"n": 1}, size_bytes=10))
        network.clock.schedule_at(
            1.5, lambda: network.send("c1", "server", frame_of("choice", {"n": 2}, size_bytes=10))
        )
        network.run()
        assert [m.payload["n"] for m in hub.received] == [2]
        assert network.injected_counts() == {PARTITION_DROP: 1}
        names = [e.name for e in log.events]
        assert "chaos.partition_open" in names
        assert "chaos.partition_close" in names

    def test_reliability_rides_out_a_partition(self):
        plan = FaultPlan()
        plan.partition({"c1"}, {"server"}, start=0.0, end=1.0)
        network, hub, _ = rig(plan)
        network.send("c1", "server", frame_of("choice", {"n": 1}, size_bytes=10))
        network.run()
        # Retransmission after the window closes delivers the frame.
        assert [m.payload["n"] for m in hub.received] == [1]
        assert network.delivery_failures == []
        assert network.injected_counts()[PARTITION_DROP] >= 1

    def test_heartbeats_are_cut_by_partitions_despite_protection(self):
        plan = FaultPlan(drop_rate=0.999999)  # heartbeat protected from this
        plan.partition({"c1"}, {"server"}, start=0.0, end=1.0)
        network, hub, _ = rig(plan, reliability=False)
        network.send("c1", "server", frame_of("heartbeat", {}, size_bytes=8))
        network.run()
        assert hub.received == []
        assert network.injected_counts() == {PARTITION_DROP: 1}
