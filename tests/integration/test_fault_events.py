"""Every WARN/ERROR fault event is emitted where its fault happens.

The flight recorder's fault events are what a post-mortem reads. Each
test here drives one fault the smallest way that reaches it, and checks
the event names the right node. Faults already driven by a larger
scenario are asserted there instead: ``cluster.shard_dead``
(``test_failover``), ``cluster.gateway_dead`` (``test_gatewaytier``),
``directory.zombie_fenced`` and ``gateway.route_gave_up``
(``test_gateway_robustness``), ``db.rollback`` (``test_engine``) and the
chaos windows (``tests/chaos/test_network``).
"""

import pytest

from repro import obs
from repro.chaos import FaultPlan
from repro.client import ClientModule
from repro.cluster import ClusterConfig, ClusterHarness
from repro.db import Database, MultimediaObjectStore
from repro.net import SimulatedNetwork
from repro.server import InteractionServer
from repro.server.protocol import MessageKind
from repro.workloads import consultation_events, generate_record

DOC = "case-0"


@pytest.fixture
def log():
    events = obs.EventLog()
    with obs.use_registry(obs.MetricsRegistry()), obs.use_event_log(events):
        yield events


@pytest.fixture
def store(tmp_path):
    db = Database(str(tmp_path / "db"))
    store = MultimediaObjectStore(db)
    store.store_document(generate_record(DOC, sections=2, components_per_section=3, seed=0))
    yield store
    db.close()


def choices(store, count=1):
    return consultation_events(store.fetch_document(DOC), num_events=count, seed=3)


def only(log, name):
    [event] = log.filter(name)
    return event


def step_until_sent(network, kind, count):
    """Advance the clock one event at a time until *count* more *kind*
    frames have left: the next crash catches them on the wire."""
    sent = []
    transmit = network._transmit

    def tap(message):
        if message.kind == kind:
            sent.append(message)
        transmit(message)

    network._transmit = tap
    try:
        while len(sent) < count:
            assert network.clock.step()
    finally:
        del network._transmit


class TestNothingLeft:
    def test_losing_every_shard(self, log, store):
        harness = ClusterHarness(store, ClusterConfig(shards=2, failure_timeout=1.0))
        harness.add_client("a").join(DOC)
        harness.run()
        harness.start(until=5.0)
        for shard_id in list(harness.shards):
            harness.crash(shard_id)
        harness.run()
        event = only(log, "cluster.no_shards_left")
        assert event.severity == "ERROR" and event.fields["orphaned"] == 1

    def test_losing_every_gateway(self, log, store):
        harness = ClusterHarness(store, ClusterConfig(shards=1, failure_timeout=1.0))
        harness.add_client("a").join(DOC)
        harness.run()
        harness.start(until=5.0)
        harness.crash("gw-1")
        harness.run()
        assert only(log, "cluster.no_gateways_left").severity == "ERROR"


class TestReplication:
    def test_a_standby_promoted_over_a_gap_drops_the_tail(self, log, store):
        # Without reliable delivery a lost REPLICATE batch leaves a hole;
        # later batches buffer behind it until PROMOTE gives up on them.
        plan = FaultPlan(seed=0, drop_rate=0.3, kinds=(MessageKind.REPLICATE,))
        harness = ClusterHarness(
            store, ClusterConfig(shards=2, failure_timeout=1.0), plan=plan
        )
        client = harness.add_client("a")
        client.join(DOC)
        harness.run()
        for path, value in choices(store, 6):
            client.choose(path, value)
        harness.run()
        harness.start(until=5.0)
        harness.crash(harness.owner_of(DOC))
        harness.run()
        event = only(log, "cluster.replay_gap")
        assert event.severity == "WARN" and event.fields["dropped"] > 0


class TestClientbound:
    def test_shard_gives_up_on_a_client_whose_gateway_stays_dead(self, log, store):
        # No failure detector: the dead gateway is never replaced, so the
        # shard's backoff runs out (~15.75 s of simulated time).
        harness = ClusterHarness(store, ClusterConfig(shards=1, gateways=2))
        clients = [harness.add_client(f"v{i}") for i in range(4)]
        for client in clients:
            client.join(DOC)
        harness.run()
        writer = clients[0]
        stranded = next(
            c for c in clients if harness.home_of(c.viewer_id) != harness.home_of("v0")
        )
        harness.crash(harness.home_of(stranded.viewer_id))
        path, value = choices(store)[0]
        writer.choose(path, value)
        harness.run()
        gave_up = [
            e for e in log.filter("cluster.clientbound_gave_up")
            if e.fields["node"] == stranded.node_id
        ]
        assert gave_up and all(e.severity == "WARN" for e in gave_up)

    def test_gateway_drops_traffic_for_a_departed_client(self, log, store):
        harness = ClusterHarness(store, ClusterConfig(shards=1))
        writer, gone = harness.add_client("a"), harness.add_client("b")
        for client in (writer, gone):
            client.join(DOC)
        harness.run()
        harness.network.detach_client(gone.node_id)
        path, value = choices(store)[0]
        writer.choose(path, value)
        harness.run()
        names = {e.fields["node"] for e in log.filter("gateway.client_gone")}
        assert names == {gone.node_id}


class TestDeliveryFailed:
    """The reliable layer gives up on a frame whose recipient died with it
    on the wire, and tells the sender."""

    def test_single_server(self, log, store):
        network = SimulatedNetwork(reliability=True)
        InteractionServer(store, network=network)
        writer, gone = (
            ClientModule(name, network=network, auto_fetch=False) for name in "ab"
        )
        for client in (writer, gone):
            network.attach_client(client)
            client.join(DOC)
        network.run()
        path, value = choices(store)[0]
        writer.choose(path, value)
        step_until_sent(network, MessageKind.PRESENTATION_UPDATE, 2)
        network.detach_client(gone.node_id)
        network.run()
        failed = log.filter("server.delivery_failed")
        assert failed and {e.fields["recipient"] for e in failed} == {gone.node_id}

    def test_shard_to_gateway(self, log, store):
        harness = ClusterHarness(store, ClusterConfig(shards=1), reliability=True)
        client = harness.add_client("a")
        client.join(DOC)
        harness.run()
        path, value = choices(store)[0]
        client.choose(path, value)
        # The gateway's ROUTE in, then the shard's ROUTE back out.
        step_until_sent(harness.network, MessageKind.ROUTE, 2)
        harness.crash("gw-1")
        harness.run()
        failed = log.filter("cluster.shard_delivery_failed")
        assert failed and {e.fields["recipient"] for e in failed} == {"gw-1"}

    def test_gateway_to_shard(self, log, store):
        harness = ClusterHarness(store, ClusterConfig(shards=1), reliability=True)
        client = harness.add_client("a")
        client.join(DOC)
        harness.run()
        shard_id = harness.owner_of(DOC)
        path, value = choices(store)[0]
        client.choose(path, value)
        step_until_sent(harness.network, MessageKind.ROUTE, 1)
        harness.crash(shard_id)
        harness.run()
        failed = log.filter("gateway.delivery_failed")
        assert failed and {e.fields["recipient"] for e in failed} == {shard_id}
