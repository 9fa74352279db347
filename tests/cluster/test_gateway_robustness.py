"""Gateway robustness: duplicate/stale JOIN_ACKs, zombie fencing, retries.

The gateway learns its session→shard routing table by sniffing
``JOIN_ACK`` envelopes. Under the chaos layer those envelopes can be
duplicated or arrive late — including *after* the shard that sent them
has been declared dead. These tests pin the properties that keep the
routing table sane: sniffing is idempotent, dead shards are fenced, and
a temporarily unroutable op is parked and retried rather than lost.
"""

import pytest

from repro import obs
from repro.chaos import FaultPlan
from repro.cluster import ClusterConfig, ClusterHarness
from repro.cluster.wire import encode_clientbound
from repro.db import Database, MultimediaObjectStore
from repro.net.codec import encode_message
from repro.net.message import Message
from repro.server.protocol import MessageKind
from repro.workloads import consultation_events, generate_record


@pytest.fixture
def fresh_obs():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            yield registry, log


def build(
    tmp_path, name="db", num_docs=3, failure_timeout=2.0, route_rate=None, **harness_kwargs
):
    db = Database(str(tmp_path / name))
    store = MultimediaObjectStore(db)
    docs = [f"case-{i}" for i in range(num_docs)]
    records = {}
    for index, doc_id in enumerate(docs):
        record = generate_record(
            doc_id, sections=2, components_per_section=3, seed=index
        )
        records[doc_id] = record
        store.store_document(record)
    config = ClusterConfig(shards=3, failure_timeout=failure_timeout, route_rate=route_rate)
    harness = ClusterHarness(store, config, **harness_kwargs)
    return harness, docs, records, db


def join_ack_envelope(harness, client, doc_id):
    """Reconstruct the ROUTE/JOIN_ACK wrapper the owner shard sent."""
    owner = harness.gateways["gw-1"].shard_of_session(client.session_id)
    inner = {
        "session_id": client.session_id,
        "doc_id": doc_id,
        "room_id": "forged-room",
    }
    envelope = encode_clientbound(
        client.node_id, encode_message(MessageKind.JOIN_ACK, inner), 64
    )
    return owner, Message(
        sender=owner, recipient=harness.gateways["gw-1"].node_id,
        kind=MessageKind.ROUTE, payload=envelope.payload,
        size_bytes=envelope.size_bytes, frame=envelope,
    )


class TestJoinAckSniffing:
    def test_duplicated_join_ack_is_idempotent(self, tmp_path, fresh_obs):
        harness, docs, _, db = build(tmp_path)
        client = harness.add_client("alice")
        client.join(docs[0])
        harness.run()
        owner = harness.gateways["gw-1"].shard_of_session(client.session_id)
        assert owner == harness.owner_of(docs[0])
        # A duplicated JOIN_ACK envelope arrives from the live owner.
        _, dup = join_ack_envelope(harness, client, docs[0])
        harness.gateways["gw-1"].receive(dup)
        harness.run()
        assert harness.gateways["gw-1"].shard_of_session(client.session_id) == owner
        assert client.errors == []
        db.close()

    @pytest.mark.parametrize("route_rate", [None, 50.0])
    def test_join_ack_teaches_the_route_cache(self, tmp_path, fresh_obs, route_rate):
        harness, docs, _, db = build(tmp_path, route_rate=route_rate)
        gateway = harness.gateways["gw-1"]
        owner = harness.owner_of(docs[0])
        client = harness.add_client("alice")
        client.join(docs[0])
        if route_rate is not None:
            # A rated gateway queues the owner's ROUTE as the shard that
            # sent it and the ClientBound it carries; the route is
            # learned when the queue serves it, not on arrival.
            def queued_routes():
                return [
                    (sender, routed) for _ctx, kind, sender, routed, _since
                    in gateway.queue.records if kind == MessageKind.ROUTE
                ]

            while not queued_routes():
                assert harness.clock.step()
            [(sender, routed)] = queued_routes()
            assert sender == owner
            assert (routed.to, routed.frame.kind) == (client.node_id, MessageKind.JOIN_ACK)
            session_id = routed.frame.payload["session_id"]
            assert gateway.shard_of_session(session_id) is None
        harness.run()
        assert gateway.shard_of_session(client.session_id) == owner
        assert harness.directory.shard_of_session(client.session_id) == owner
        assert client.errors == []
        db.close()

    @pytest.mark.parametrize("route_rate", [None, 50.0])
    def test_stale_join_ack_from_dead_shard_is_fenced(self, tmp_path, fresh_obs, route_rate):
        registry, log = fresh_obs
        harness, docs, _, db = build(tmp_path, failure_timeout=1.0, route_rate=route_rate)
        client = harness.add_client("alice")
        client.join(docs[0])
        harness.run()
        owner, stale = join_ack_envelope(harness, client, docs[0])
        # The owner dies and the detector declares it; the session is
        # re-homed to the ring's new owner of the document.
        harness.start(until=10.0)
        harness.schedule_crash(owner, at=1.0)
        harness.run()
        gateway = harness.gateways["gw-1"]
        assert owner in harness.directory.dead_nodes
        assert owner in gateway.dead_shards  # the invalidation broadcast landed
        rehomed = harness.directory.shard_of_session(client.session_id)
        assert rehomed is not None and rehomed != owner
        cached = gateway.shard_of_session(client.session_id)
        fenced_before = len(log.filter("gateway.zombie_fenced"))
        # A JOIN_ACK the dead shard sent before dying limps in late. It
        # must NOT re-point the session at the corpse — neither in the
        # gateway's cache nor (via a ROUTE_REPORT) at the directory. A
        # rated gateway fences it when its queue serves it.
        gateway.receive(stale)
        harness.run()
        assert gateway.shard_of_session(client.session_id) == cached != owner
        assert harness.directory.shard_of_session(client.session_id) == rehomed
        counters = registry.snapshot()["counters"]
        assert counters["gateway.zombies_fenced"] >= 1
        fenced = log.filter("gateway.zombie_fenced")[fenced_before:]
        assert [event.fields for event in fenced] == [
            {"shard": owner, "kind": MessageKind.ROUTE}
        ]
        db.close()

    def test_zombie_heartbeat_cannot_resurrect_a_dead_shard(
        self, tmp_path, fresh_obs
    ):
        _, log = fresh_obs
        harness, docs, _, db = build(tmp_path, failure_timeout=1.0)
        client = harness.add_client("alice")
        client.join(docs[0])
        harness.run()
        owner = harness.owner_of(docs[0])
        harness.start(until=8.0)
        harness.schedule_crash(owner, at=1.0)
        harness.run()
        directory = harness.directory
        assert owner in directory.dead_nodes
        # A partitioned twin of the shard beats again: fenced, not revived.
        beat = Message(
            sender=owner, recipient=directory.node_id,
            kind=MessageKind.HEARTBEAT,
            payload={"node": owner, "at": harness.clock.now}, size_bytes=16,
        )
        directory.receive(beat)
        assert owner in directory.dead_nodes
        assert owner not in directory.live_shards
        assert owner not in directory.detector.watched
        [fenced] = log.filter("directory.zombie_fenced")
        assert fenced.fields == {"node": owner, "kind": MessageKind.HEARTBEAT}
        db.close()


class TestChaosJoins:
    def test_joins_survive_duplicated_and_reordered_route_envelopes(
        self, tmp_path, fresh_obs
    ):
        # End-to-end version of the sniffing tests: every ROUTE envelope
        # (JOIN in, JOIN_ACK out) is subject to duplication/reordering.
        plan = FaultPlan(
            seed=9, dup_rate=0.3, reorder_rate=0.3, kinds=(MessageKind.ROUTE,)
        )
        harness, docs, records, db = build(
            tmp_path, reliability=True, plan=plan
        )
        clients = []
        for index, doc_id in enumerate(docs):
            client = harness.add_client(f"viewer-{index}")
            client.join(doc_id)
            clients.append(client)
        harness.run()
        assert sum(harness.network.injected_counts().values()) > 0
        for client, doc_id in zip(clients, docs):
            assert client.errors == []
            assert client.session_id is not None
            owner = harness.owner_of(doc_id)
            assert harness.gateways["gw-1"].shard_of_session(client.session_id) == owner
        # The conference still works end to end afterwards.
        events = consultation_events(records[docs[0]], num_events=2, seed=5)
        for path, value in events:
            clients[0].choose(path, value)
        harness.run()
        assert clients[0].errors == []
        db.close()


class TestRouteRetry:
    def test_parked_op_recovers_after_failover(self, tmp_path, fresh_obs):
        registry, _ = fresh_obs
        harness, docs, records, db = build(
            tmp_path, failure_timeout=1.0, reliability=True
        )
        client = harness.add_client("alice")
        partner = harness.add_client("bob")
        client.join(docs[0])
        partner.join(docs[0])
        harness.run()
        owner = harness.owner_of(docs[0])
        harness.start(until=20.0)
        # The owner dies; before the detector notices, the client sends a
        # choice. The route still points at the corpse, so the op parks
        # in the retry loop and lands on the promoted shard.
        harness.crash(owner)
        events = consultation_events(records[docs[0]], num_events=1, seed=3)
        path, value = events[0]
        client.choose(path, value)
        harness.run()
        assert client.errors == [] and partner.errors == []
        assert len(harness.failovers) == 1
        assert client.displayed()[path] == value
        assert partner.displayed()[path] == value
        counters = registry.snapshot()["counters"]
        assert counters.get("gateway.route_retries", 0) >= 1
        db.close()

    def test_route_retry_budget_exhaustion_is_a_typed_error(
        self, tmp_path, fresh_obs
    ):
        # No detector running: the dead shard is never swept, failover
        # never happens, and the retry budget must terminate with an
        # ERROR frame instead of parking the op forever.
        _, log = fresh_obs
        harness, docs, _, db = build(tmp_path, reliability=True)
        client = harness.add_client("alice")
        client.join(docs[0])
        harness.run()
        harness.crash(harness.owner_of(docs[0]))
        client.choose("anything", "anything")
        harness.run()
        assert any(e["error"] == "ClusterError" for e in client.errors)
        [gave_up] = log.filter("gateway.route_gave_up")
        assert gave_up.severity == "ERROR" and gave_up.fields["node"] == client.node_id
        db.close()
