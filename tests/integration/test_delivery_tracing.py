"""Integration: delivery traces reconstructed across the whole cluster.

The acceptance scenario of the tracing work: one traced propagation in a
four-shard cluster yields, per subscriber, a delivery tree naming every
hop the update crossed — ``uplink → gateway_route → shard_queue →
batch_wait → … → downlink`` — with retransmit children appearing under
chaos, end-to-end latency per room in the histograms, and zero trace
residue after sessions depart and rooms close.
"""

import pytest

from repro import obs
from repro.chaos.plan import FaultPlan
from repro.client import ClientModule
from repro.cluster import ClusterConfig
from repro.db import Database, MultimediaObjectStore
from repro.net import SimulatedNetwork
from repro.obs.dtrace import (
    HOP_BATCH_WAIT,
    HOP_DOWNLINK,
    HOP_GATEWAY_ROUTE,
    HOP_RETRANSMIT,
    HOP_SHARD_QUEUE,
    HOP_UPLINK,
    DeliveryTracer,
    critical_path,
    render_delivery_tree,
    use_dtrace,
)
from repro.server import InteractionServer
from repro.workloads.chaos import run_chaos_conference
from repro.workloads.cluster import run_cluster_conference


FOUR_SHARDS = ClusterConfig(shards=4, service_rate=200.0, batch_window_s=0.02)


@pytest.fixture
def obs_sandbox():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
        yield registry


@pytest.fixture
def store(tmp_path):
    db = Database(str(tmp_path / "db"))
    yield MultimediaObjectStore(db)
    db.close()


def test_four_shard_cluster_reconstructs_full_delivery_trees(obs_sandbox, store):
    tracer = DeliveryTracer(sample_every=1)
    with use_dtrace(tracer):
        result = run_cluster_conference(
            store, FOUR_SHARDS, num_rooms=4, clients_per_room=3, events_per_room=3,
        )
    assert result["errors"] == []
    assert len(tracer.store) > 0
    full_chains = 0
    for record in tracer.store:
        assert record.origin.startswith("client-")
        for delivery in record.deliveries:
            path = [s.hop for s in critical_path(record, delivery["span_id"])]
            assert path[0] == HOP_UPLINK
            assert path[-1] == HOP_DOWNLINK
            if path == [
                HOP_UPLINK, HOP_GATEWAY_ROUTE, HOP_SHARD_QUEUE,
                HOP_BATCH_WAIT, HOP_GATEWAY_ROUTE, HOP_DOWNLINK,
            ]:
                full_chains += 1
    # The canonical cross-node chain dominates a healthy batched run.
    assert full_chains > 0
    # Per-room e2e latency series materialized.
    histograms = obs_sandbox.snapshot()["histograms"]
    e2e_series = [k for k in histograms if k.startswith("dtrace.e2e.latency")]
    assert e2e_series
    assert all(histograms[k]["count"] > 0 for k in e2e_series)
    hop_series = {
        k for k in histograms if k.startswith("dtrace.hop.latency")
    }
    for hop in (
        HOP_UPLINK, HOP_GATEWAY_ROUTE, HOP_SHARD_QUEUE,
        HOP_BATCH_WAIT, HOP_DOWNLINK,
    ):
        assert f'dtrace.hop.latency{{hop="{hop}"}}' in hop_series


def test_rendered_tree_names_every_hop_per_subscriber(obs_sandbox, store):
    tracer = DeliveryTracer(sample_every=1)
    with use_dtrace(tracer):
        run_cluster_conference(
            store, FOUR_SHARDS, num_rooms=2, clients_per_room=3, events_per_room=2,
        )
    record = next(
        r for r in tracer.store
        if len(r.deliveries) >= 2 and any(s.hop == HOP_BATCH_WAIT for s in r.spans)
    )
    text = render_delivery_tree(record)
    for needle in ("uplink", "gateway_route", "shard_queue", "batch_wait",
                   "downlink", "← delivered"):
        assert needle in text
    # One delivery marker per subscriber that displayed the update.
    assert text.count("← delivered") == len(record.deliveries)


def test_chaos_run_attaches_retransmit_children(obs_sandbox, store):
    tracer = DeliveryTracer(sample_every=1)
    with use_dtrace(tracer):
        result = run_chaos_conference(
            store,
            plan=FaultPlan(seed=3, drop_rate=0.25),
            num_shards=2, num_rooms=2, clients_per_room=2,
            events_per_room=4, failure_timeout=30.0,
        )
    assert result["errors"] == []
    retransmits = [
        span
        for record in tracer.store
        for span in record.spans
        if span.hop == HOP_RETRANSMIT
    ]
    assert retransmits, "25% drop must retransmit at least one traced frame"
    for span in retransmits:
        assert span.detail["attempt"] >= 1
        assert span.duration > 0
    histograms = obs_sandbox.snapshot()["histograms"]
    assert histograms['dtrace.hop.latency{hop="retransmit"}']["count"] == len(
        retransmits
    )


def test_departed_session_leaves_no_trace_residue(obs_sandbox, tmp_path):
    """Regression: disconnects drop per-session dtrace and monitor state."""
    from repro.document import build_sample_medical_record

    db = Database(str(tmp_path / "db"))
    store = MultimediaObjectStore(db)
    store.store_document(build_sample_medical_record())
    tracer = DeliveryTracer(sample_every=1)
    try:
        with use_dtrace(tracer):
            network = SimulatedNetwork()
            server = InteractionServer(store, network=network)
            clients = []
            for name in ("lee", "cho"):
                client = ClientModule(name, network=network)
                network.attach_client(client)
                client.join("record-17")
                clients.append(client)
            network.run()
            clients[0].choose("labs", "hidden")
            network.run()
            assert len(tracer.store) > 0
            room_id = server.room_ids[0]
            # A wire LEAVE disconnects the session server-side; the last
            # one out closes the room.
            for client in clients:
                client.leave()
                network.run()
            assert server.session_ids == ()
            assert server.room_ids == ()
    finally:
        db.close()
    # Zero TraceStore growth after departure...
    assert len(tracer.store) == 0
    histograms = obs_sandbox.snapshot()["histograms"]
    # ...and zero live labelled series for the closed room.
    assert f'dtrace.e2e.latency{{room="{room_id}"}}' not in histograms
    gauges = obs_sandbox.snapshot()["gauges"]
    assert f'interest.subscriptions{{room="{room_id}"}}' not in gauges


def test_disconnect_session_also_handles_monitor_sessions(obs_sandbox, tmp_path):
    """Regression: a monitor session disconnects through the same entry
    as a room session — a ``LEAVE`` into ``receive`` — and is not
    refused as an unknown room session."""
    from repro.document import build_sample_medical_record
    from repro.net.message import Message
    from repro.server.protocol import MessageKind

    db = Database(str(tmp_path / "db"))
    store = MultimediaObjectStore(db)
    store.store_document(build_sample_medical_record())
    try:
        server = InteractionServer(store, network=SimulatedNetwork())
        sent = []
        server.outbox.send = lambda recipients, frame: sent.append(frame.kind)

        def deliver(kind, payload):
            return server.receive(Message("ops", "server", kind, payload))

        assert deliver(MessageKind.MONITOR, {"viewer_id": "ops"}) is None
        (session_id,) = server.telemetry.monitors
        assert deliver(MessageKind.LEAVE, {"session_id": session_id}) is None
        assert server.telemetry.monitors == {}
        # The ack and the push riding on the MONITOR; no ERROR for the LEAVE.
        assert sent == [MessageKind.MONITOR_ACK, MessageKind.TELEMETRY]
    finally:
        db.close()
