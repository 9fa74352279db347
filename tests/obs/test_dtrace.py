"""Unit tests for delivery tracing: store, tracer, analyzer, renderer."""

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.obs.dtrace import (
    HOP_BATCH_WAIT,
    HOP_DOWNLINK,
    HOP_GATEWAY_ROUTE,
    HOP_RETRANSMIT,
    HOP_SHARD_QUEUE,
    HOP_UPLINK,
    DeliveryTracer,
    NullDeliveryTracer,
    TraceContext,
    TraceStore,
    analyze_delivery,
    context_at,
    critical_path,
    get_dtrace,
    render_delivery_tree,
    use_dtrace,
)


def make_tracer(registry=None, **kwargs):
    with use_registry(registry or MetricsRegistry()):
        return DeliveryTracer(**kwargs)


# ----- TraceStore -----------------------------------------------------------------

def test_store_ring_evicts_oldest():
    store = TraceStore(max_traces=3)
    for i in range(5):
        store.begin(f"client-{i}", "choice", float(i))
    assert len(store) == 3
    assert store.evicted == 2
    held = [record.trace_id for record in store]
    assert held == [3, 4, 5]  # ids 1 and 2 rolled off


def test_spans_for_evicted_trace_are_dropped_but_ids_advance():
    store = TraceStore(max_traces=1)
    first = store.begin("a", "choice", 0.0)
    store.begin("b", "choice", 1.0)  # evicts first
    span_id = store.add_span(first.trace_id, first.root_span_id, HOP_UPLINK, "g", 0.0, 0.1)
    assert store.dropped_spans == 1
    assert span_id > first.root_span_id  # allocation stays monotonic


def test_drop_origin_and_drop_room():
    store = TraceStore()
    store.begin("client-a", "choice", 0.0, room="room-1")
    store.begin("client-b", "choice", 0.0, room="room-2")
    store.begin("client-a", "operation", 1.0, room="room-2")
    assert store.drop_origin("client-a") == 2
    assert len(store) == 1
    assert store.drop_room("room-2") == 1
    assert len(store) == 0


# ----- DeliveryTracer -------------------------------------------------------------

def test_sampling_traces_every_nth_root():
    tracer = make_tracer(sample_every=4)
    contexts = [
        tracer.start_trace("client-a", "choice", float(i)) for i in range(8)
    ]
    sampled = [ctx for ctx in contexts if ctx is not None]
    assert len(sampled) == 2  # ops 0 and 4
    assert contexts[0] is not None and contexts[4] is not None
    assert len(tracer.store) == 2


def test_record_hop_advances_the_context():
    tracer = make_tracer()
    root = tracer.start_trace("client-a", "choice", 1.0, room="room-1")
    advanced = tracer.record_hop(root, HOP_UPLINK, "gateway", 1.0, 1.005)
    assert advanced.trace_id == root.trace_id
    assert advanced.span_id != root.span_id
    assert advanced.hop == root.hop + 1
    assert advanced.sent_at_s == pytest.approx(1.005)
    record = tracer.store.get(root.trace_id)
    assert [span.hop for span in record.spans] == [HOP_UPLINK]
    assert record.spans[0].parent_id == root.span_id


def test_inbound_scope_nests_and_restores():
    tracer = make_tracer()
    outer = context_at(1, 1, 0, 0.0)
    inner = context_at(1, 2, 1, 0.5)
    assert tracer.current() is None
    with tracer.inbound(outer):
        assert tracer.current() is outer
        with tracer.inbound(inner):
            assert tracer.current() is inner
        assert tracer.current() is outer
    assert tracer.current() is None


def test_finish_delivery_feeds_e2e_histogram():
    registry = MetricsRegistry()
    tracer = make_tracer(registry)
    root = tracer.start_trace("client-a", "choice", 1.0, room="room-1")
    ctx = tracer.record_hop(root, HOP_UPLINK, "gateway", 1.0, 1.01)
    tracer.finish_delivery(ctx, "client-b", 1.05)
    histograms = registry.snapshot()["histograms"]
    e2e = histograms['dtrace.e2e.latency{room="room-1"}']
    assert e2e["count"] == 1
    assert e2e["total"] == pytest.approx(0.05)
    hop = histograms['dtrace.hop.latency{hop="uplink"}']
    assert hop["count"] == 1


def test_drop_room_retires_the_e2e_series():
    registry = MetricsRegistry()
    tracer = make_tracer(registry)
    root = tracer.start_trace("client-a", "choice", 0.0, room="room-1")
    ctx = tracer.record_hop(root, HOP_UPLINK, "gateway", 0.0, 0.01)
    tracer.finish_delivery(ctx, "client-b", 0.01)
    assert 'dtrace.e2e.latency{room="room-1"}' in registry.snapshot()["histograms"]
    tracer.drop_room("room-1")
    assert 'dtrace.e2e.latency{room="room-1"}' not in registry.snapshot()["histograms"]
    assert len(tracer.store) == 0


def test_default_tracer_is_null_and_inert():
    tracer = get_dtrace()
    assert isinstance(tracer, NullDeliveryTracer)
    assert not tracer.enabled
    assert tracer.start_trace("a", "choice", 0.0) is None
    ctx = context_at(1, 1, 0, 0.0)
    assert tracer.record_hop(ctx, HOP_UPLINK, "g", 0.0, 1.0) is ctx
    with tracer.inbound(ctx):
        assert tracer.current() is None
    assert tracer.finish_delivery(ctx, "b", 1.0) is None
    assert len(tracer.store) == 0


def test_use_dtrace_restores_previous():
    tracer = make_tracer()
    before = get_dtrace()
    with use_dtrace(tracer):
        assert get_dtrace() is tracer
    assert get_dtrace() is before


# ----- analyzer -------------------------------------------------------------------

def build_delivery(tracer):
    """One synthetic delivery chain with a retransmitted wire hop."""
    root = tracer.start_trace("client-a", "choice", 0.0, room="room-1")
    up = tracer.record_hop(root, HOP_UPLINK, "gateway", 0.0, 0.010)
    routed = tracer.record_hop(up, HOP_GATEWAY_ROUTE, "shard-1", 0.010, 0.020)
    queued = tracer.record_hop(routed, HOP_SHARD_QUEUE, "shard-1", 0.020, 0.045)
    waited = tracer.record_hop(queued, HOP_BATCH_WAIT, "shard-1", 0.045, 0.065)
    # The downlink wire hop took 35 ms, 20 ms of which was one
    # retransmit's backoff — recorded as a sibling under the same parent.
    tracer.record_hop(waited, HOP_RETRANSMIT, "shard-1", 0.065, 0.085, attempt=1)
    down = tracer.record_hop(waited, HOP_DOWNLINK, "client-b", 0.065, 0.100)
    tracer.finish_delivery(down, "client-b", 0.100)
    return tracer.store.get(root.trace_id)


def test_critical_path_walks_root_to_leaf():
    tracer = make_tracer()
    record = build_delivery(tracer)
    path = critical_path(record, record.deliveries[0]["span_id"])
    assert [span.hop for span in path] == [
        HOP_UPLINK, HOP_GATEWAY_ROUTE, HOP_SHARD_QUEUE,
        HOP_BATCH_WAIT, HOP_DOWNLINK,
    ]


def test_analyze_delivery_attributes_categories():
    tracer = make_tracer()
    record = build_delivery(tracer)
    analysis = analyze_delivery(record, record.deliveries[0])
    categories = analysis["categories"]
    # uplink 10ms + route 10ms + (downlink 35ms - 20ms backoff) = 35ms wire
    assert categories["wire"] == pytest.approx(0.035)
    assert categories["queueing"] == pytest.approx(0.025)
    assert categories["batch_window"] == pytest.approx(0.020)
    assert categories["retransmit_backoff"] == pytest.approx(0.020)
    assert analysis["e2e"] == pytest.approx(0.100)
    assert analysis["other"] == pytest.approx(0.0)
    assert sum(categories.values()) + analysis["other"] == pytest.approx(0.100)


def test_retransmit_backoff_clamped_to_wire_leg():
    """Backoff longer than the hop it delayed cannot go negative."""
    tracer = make_tracer()
    root = tracer.start_trace("client-a", "choice", 0.0)
    up = tracer.record_hop(root, HOP_UPLINK, "gateway", 0.0, 0.010)
    tracer.record_hop(root, HOP_RETRANSMIT, "client-a", 0.0, 0.050, attempt=1)
    tracer.finish_delivery(up, "gateway", 0.010)
    record = tracer.store.get(root.trace_id)
    analysis = analyze_delivery(record, record.deliveries[0])
    assert analysis["categories"]["wire"] == pytest.approx(0.0)
    assert analysis["categories"]["retransmit_backoff"] == pytest.approx(0.010)


def test_render_delivery_tree_marks_deliveries():
    tracer = make_tracer()
    record = build_delivery(tracer)
    text = render_delivery_tree(record)
    lines = text.splitlines()
    assert "trace 1 'choice' from client-a room=room-1 deliveries=1" in lines[0]
    assert any("uplink @gateway" in line for line in lines)
    assert any("retransmit @shard-1" in line for line in lines)
    assert any("← delivered e2e=100.000ms" in line for line in lines)
    # Depth encodes the tree: downlink is nested under batch_wait.
    downlink = next(line for line in lines if "downlink" in line)
    batch = next(line for line in lines if "batch_wait" in line)
    assert len(downlink) - len(downlink.lstrip()) > len(batch) - len(batch.lstrip())


def test_trace_context_is_hashable_and_compact():
    ctx = TraceContext(1, 2, 3, 4_000_000)
    assert ctx.sent_at_s == pytest.approx(4.0)
    assert hash(ctx) == hash(TraceContext(1, 2, 3, 4_000_000))
