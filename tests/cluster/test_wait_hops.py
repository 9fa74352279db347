"""Each wait a cluster node imposes is charged once, to its own hop.

A gateway holds an op back in two places — its rated routing queue and
its route-miss FIFO — and resumes it through one step that records the
wait as a span of the op's delivery trace: ``gateway_queue`` and
``directory_lookup``. Each case drives traced ops into one of those places and
notes, by the op's trace context, the instant the node parked each and
the instant it resumed it (spies on the node's own park and resume
calls). Every span of that hop must then be exactly one of those waits:
one per parked op, at the node that held it, from park to resume.
"""

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterHarness
from repro.db import Database, MultimediaObjectStore
from repro.obs.dtrace import (
    HOP_DIRECTORY_LOOKUP,
    HOP_GATEWAY_QUEUE,
    DeliveryTracer,
    use_dtrace,
)
from repro.workloads import consultation_events, generate_record


def _harness(store, **config):
    record = generate_record("case-0", sections=2, components_per_section=3, seed=0)
    store.store_document(record)
    return ClusterHarness(store, ClusterConfig(**config)), record


def _queued_at_a_rated_gateway(store):
    """Choices and their fan-out through one gateway at 20 ops/s."""
    harness, record = _harness(store, shards=1, gateways=1, route_rate=20.0)
    clients = [harness.add_client(f"q-{index}") for index in range(3)]
    for client in clients:
        client.join("case-0")
    harness.run()
    gateway = harness.gateways["gw-1"]

    def drive():
        for path, value in consultation_events(record, num_events=4, seed=3):
            clients[0].choose(path, value)
        harness.run()

    return harness, gateway, (gateway.queue, "submit"), (gateway, "_serve"), drive


def _missed_after_a_gateway_failover(store):
    """A client's home gateway dies; its op-log replay reaches the
    survivor, whose route cache has never seen the session."""
    harness, record = _harness(store, shards=1, gateways=2, failure_timeout=1.5)
    clients = [harness.add_client(f"m-{index}") for index in range(2)]
    for client in clients:
        client.join("case-0")
    harness.run()
    for path, value in consultation_events(record, num_events=3, seed=5):
        clients[0].choose(path, value)
    harness.run()
    victim = harness.home_of(clients[0].viewer_id)
    [survivor] = [gateway for gateway_id, gateway in harness.gateways.items()
                  if gateway_id != victim]

    def drive():
        harness.start(until=12.0)
        harness.run_until(3.0)
        harness.crash(victim)
        harness.run()
        assert clients[0].gateway_failovers[0]["replayed"] > 0

    return (
        harness, survivor, (survivor, "_park_for_route"), (survivor, "_route_resolved"),
        drive,
    )


CASES = {
    HOP_GATEWAY_QUEUE: _queued_at_a_rated_gateway,
    HOP_DIRECTORY_LOOKUP: _missed_after_a_gateway_failover,
}


def _spy(tracer, clock, owner, name, instants):
    """Note when *owner.name* runs for each traced op, keyed by the span
    id of the context it runs under."""
    real = getattr(owner, name)

    def spy(*args):
        ctx = tracer.current()
        if ctx is not None:
            instants.setdefault(ctx.span_id, clock.now)
        return real(*args)

    setattr(owner, name, spy)


@pytest.mark.parametrize("hop", list(CASES))
def test_each_wait_is_charged_once_to_its_own_hop(tmp_path, hop):
    tracer = DeliveryTracer()
    with obs.use_registry(obs.MetricsRegistry()), obs.use_event_log(obs.EventLog()), \
            use_dtrace(tracer):
        db = Database(str(tmp_path / hop))
        try:
            harness, node, park, resume, drive = CASES[hop](MultimediaObjectStore(db))
            parked, resumed = {}, {}
            _spy(tracer, harness.clock, *park, parked)
            _spy(tracer, harness.clock, *resume, resumed)
            drive()
        finally:
            db.close()
    assert tracer.store.evicted == 0
    spans = [span for trace in tracer.store for span in trace.spans if span.hop == hop]
    # A wait is parked under the op's context and resumed under the
    # context its hop span hands on.
    assert sorted(span.parent_id for span in spans) == sorted(parked)
    assert [(span.node, span.start, span.end) for span in spans] == [
        (node.node_id, parked[span.parent_id], resumed[span.span_id]) for span in spans
    ]
    assert any(span.end > span.start for span in spans)
