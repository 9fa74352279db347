"""The registry keeps no owner alive.

A series read from its owner closes over the owner's small tally — its
stats record, a dict of counts, a table it holds — never over the
owner. So a server, a network and a client built under a registry can
be dropped while the registry (and the values it reads) lives on, also
with frames still on the wire.
"""

from __future__ import annotations

import gc
import weakref

from repro import obs
from repro.chaos import FaultPlan
from repro.client import ClientModule
from repro.cluster import AdmissionConfig, ClusterConfig, ClusterHarness
from repro.db import Database, MultimediaObjectStore
from repro.net import SimulatedNetwork, encode_message
from repro.net.message import Message
from repro.server import InteractionServer
from repro.server.protocol import MessageKind
from repro.workloads import generate_record


def test_dropped_server_network_and_client_are_collected(tmp_path):
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
        db = Database(str(tmp_path / "db"))
        try:
            store = MultimediaObjectStore(db)
            store.store_document(
                generate_record("case-0", sections=2, components_per_section=3, seed=0)
            )
            network = SimulatedNetwork()
            server = InteractionServer(store, network=network, interest_mode="cpnet")
            client = ClientModule("dr-0", network=network)
            network.attach_client(client)
            client.join("case-0")
            network.run()
            assert client.session_id is not None
            owners = [weakref.ref(thing) for thing in (server, network, client)]
            del server, network, client
        finally:
            db.close()
    gc.collect()
    assert [ref() for ref in owners] == [None, None, None]
    # What the registry read stays readable after its owners are gone.
    snapshot = registry.snapshot()
    assert snapshot["counters"]["net.messages"] > 0
    assert snapshot["gauges"]['server.sessions_connected{node="server"}'] == 1


class _Sink:
    def __init__(self, node_id: str) -> None:
        self.node_id = node_id

    def receive(self, message) -> None:
        raise AssertionError("nothing is delivered: the clock never runs")


def test_a_network_dropped_with_frames_in_flight_is_collected():
    """Frames on an uplink, a downlink and a backbone peer link when their
    network and its clock are dropped: the registry reads each link's
    byte count off the link, so any per-link state pointing back at the
    network (a delivery callback, a lane bound to it) would keep the
    network, its clock and every frame in flight alive from here."""
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
        network = SimulatedNetwork()
        for gateway_id in ("inflight-gw-1", "inflight-gw-2"):
            network.attach_gateway(_Sink(gateway_id))
        network.attach_client(_Sink("inflight-client"))
        network.assign_home("inflight-client", "inflight-gw-1")
        for seq in range(4):
            frame = encode_message(
                MessageKind.PEER_EVENT,
                {"doc_id": "case-0", "seq": seq, "viewer": "v", "kind": "choice"},
            )
            network.send("inflight-client", "inflight-gw-1", frame)
            network.send("inflight-gw-1", "inflight-client", frame)
            network.send("inflight-gw-1", "inflight-gw-2", frame)
        assert network.clock.pending == 12
        owners = [weakref.ref(network), weakref.ref(network.clock)]
        del network, frame
    gc.collect()
    assert [ref() for ref in owners] == [None, None]
    in_flight = [
        obj for obj in gc.get_objects()
        if isinstance(obj, Message) and obj.sender.startswith("inflight-")
    ]
    assert in_flight == []
    counters = registry.snapshot()["counters"]
    assert counters["net.messages"] == 12
    assert counters["net.peer.inflight-gw-1.inflight-gw-2.bytes"] > 0
    assert counters["net.link.inflight-client.up.bytes"] > 0


#: The codec's tally is the process's, per registry, not an owner's.
CODEC_SERIES = {
    "codec.encodes", "codec.bytes_encoded", "codec.encodes_saved", "codec.bytes_saved",
    "codec.trace_stamps",
}


def test_a_registry_outliving_ten_closed_networks_holds_no_reader_of_them(tmp_path):
    """Ten clustered conferences under one registry, as the ledger's
    chaos workload runs eight: every owner a network carries (its links,
    the ARQ, the batchers, outboxes, gateways, admission and the chaos
    tallies) binds counter readers. Closing each harness unbinds them,
    each counter keeping its count, so the registry reads the same
    totals and holds no reader of a closed network."""
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
        db = Database(str(tmp_path / "db"))
        try:
            store = MultimediaObjectStore(db)
            store.store_document(
                generate_record("case-0", sections=2, components_per_section=3, seed=0)
            )
            path = store.fetch_document("case-0").component_paths()[0]
            config = ClusterConfig(
                shards=2, gateways=2, batch_window_s=0.01, admission=AdmissionConfig()
            )
            harnesses = []
            for run in range(10):
                plan = FaultPlan(seed=run, drop_rate=0.05, dup_rate=0.05)
                harness = ClusterHarness(store, config, reliability=True, plan=plan)
                clients = [harness.add_client(f"dr-{j}") for j in range(3)]
                for client in clients:
                    client.join("case-0")
                harness.run()
                clients[0].choose(path, "hidden")
                harness.run()
                for client in clients:
                    client.leave()
                harness.run()
                harnesses.append(harness)
            totals = registry.snapshot()["counters"]
            for harness in harnesses:
                harness.close()
            networks = [weakref.ref(harness.network) for harness in harnesses]
            del harnesses, harness, clients, client
        finally:
            db.close()
    assert [ref() for ref in networks] == [None] * 10
    assert registry.snapshot()["counters"] == totals
    assert totals["net.acks"] > 0 and totals["batch.flushes"] > 0
    assert totals["net.link.client-dr-0.up.bytes"] > 0 and totals["server.messages_out"] > 0
    bound = {name for name, counter in registry.counters.items() if counter._readers}
    assert bound <= CODEC_SERIES
