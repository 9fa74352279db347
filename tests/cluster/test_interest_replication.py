"""Subscription state through the cluster: routing, replication, failover.

SUBSCRIBE/UNSUBSCRIBE are session-addressed client kinds, so the gateway
routes them like any other op; they ride the replication log, so a
promoted replica filters fan-out exactly where the dead primary left
off — including what each member had explicitly narrowed to.
"""

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterHarness
from repro.db import Database, MultimediaObjectStore
from repro.document.component import PrimitiveMultimediaComponent
from repro.workloads import generate_record

DOC = "case-0"
HORIZON = 30.0


@pytest.fixture
def fresh_obs():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            yield registry, log


def build_cluster(tmp_path, name, interest_mode="off"):
    db = Database(str(tmp_path / name))
    store = MultimediaObjectStore(db)
    record = generate_record(DOC, sections=2, components_per_section=3, seed=7)
    store.store_document(record)
    harness = ClusterHarness(
        store,
        ClusterConfig(shards=3, failure_timeout=1.5, interest_mode=interest_mode),
    )
    return db, record, harness


def primitives_of(record):
    return sorted(
        path
        for path, node in record.components().items()
        if isinstance(node, PrimitiveMultimediaComponent)
    )


def alt_value(record, path, current):
    """A valid non-hidden presentation label different from *current*."""
    labels = [p.label for p in record.component(path).presentations]
    return next(label for label in labels if label != current and label != "hidden")


class TestGatewayRouting:
    def test_subscribe_routes_to_owning_shard(self, tmp_path, fresh_obs):
        db, record, harness = build_cluster(tmp_path, "route")
        try:
            a = harness.add_client("dr-a")
            b = harness.add_client("dr-b")
            a.join(DOC)
            b.join(DOC)
            harness.run()
            paths = primitives_of(record)
            b.subscribe(paths[:2], replace=True)
            harness.run()
            # The ack came back through the ROUTE path, and the serving
            # shard's registry narrowed.
            assert b.subscriptions == tuple(paths[:2])
            server = harness.serving_server_of(DOC)
            room = server.room(server.room_ids[0])
            assert room.interest.subscriptions(b.session_id) == tuple(paths[:2])
            assert b.errors == []
        finally:
            db.close()

    def test_filtering_works_through_gateway(self, tmp_path, fresh_obs):
        db, record, harness = build_cluster(tmp_path, "filter")
        try:
            a = harness.add_client("dr-a")
            b = harness.add_client("dr-b")
            a.join(DOC)
            b.join(DOC)
            harness.run()
            paths = primitives_of(record)
            watched, ignored = paths[0], paths[-1]
            b.subscribe([watched], replace=True)
            harness.run()
            before = b.updates_received
            # A change b does not watch never reaches b's wire.
            a.choose(ignored, alt_value(record, ignored, a.displayed()[ignored]))
            harness.run()
            assert b.updates_received == before
            # A watched change still does.
            want = alt_value(record, watched, a.displayed()[watched])
            a.choose(watched, want)
            harness.run()
            assert b.updates_received == before + 1
            assert b.displayed()[watched] == want
        finally:
            db.close()


class TestFailover:
    def test_subscriptions_survive_promotion(self, tmp_path, fresh_obs):
        db, record, harness = build_cluster(tmp_path, "failover")
        try:
            a = harness.add_client("dr-a")
            b = harness.add_client("dr-b")
            a.join(DOC)
            b.join(DOC)
            harness.run()
            paths = primitives_of(record)
            watched, ignored = paths[0], paths[-1]
            b.subscribe([watched], replace=True)
            harness.run()

            victim = harness.owner_of(DOC)
            harness.start(until=HORIZON)
            harness.run_until(2.0)
            harness.crash(victim)
            harness.run_until(10.0)
            harness.run()
            assert harness.failovers  # promotion actually happened

            # The promoted replica inherited the narrowed interest set...
            server = harness.serving_server_of(DOC)
            room = server.room(server.room_ids[0])
            assert room.interest.subscriptions(b.session_id) == (watched,)

            # ...and keeps filtering with it.
            before = b.updates_received
            a.choose(ignored, alt_value(record, ignored, a.displayed()[ignored]))
            harness.run()
            assert b.updates_received == before
            want = alt_value(record, watched, a.displayed()[watched])
            a.choose(watched, want)
            harness.run()
            assert b.displayed()[watched] == want
            assert a.errors == [] and b.errors == []
        finally:
            db.close()

    def test_unsubscribe_replicates_too(self, tmp_path, fresh_obs):
        db, record, harness = build_cluster(tmp_path, "unsub")
        try:
            a = harness.add_client("dr-a")
            b = harness.add_client("dr-b")
            a.join(DOC)
            b.join(DOC)
            harness.run()
            paths = primitives_of(record)
            b.subscribe(paths[:2], replace=True)
            b.unsubscribe([paths[0]])
            harness.run()

            victim = harness.owner_of(DOC)
            harness.start(until=HORIZON)
            harness.run_until(2.0)
            harness.crash(victim)
            harness.run_until(10.0)
            harness.run()

            server = harness.serving_server_of(DOC)
            room = server.room(server.room_ids[0])
            assert room.interest.subscriptions(b.session_id) == (paths[1],)
        finally:
            db.close()

    def test_cpnet_seed_replays_identically(self, tmp_path, fresh_obs):
        db, record, harness = build_cluster(tmp_path, "seeded", interest_mode="cpnet")
        try:
            a = harness.add_client("dr-a")
            a.join(DOC)
            harness.run()
            primary = harness.shards[harness.owner_of(DOC)]
            server = harness.serving_server_of(DOC)
            room = server.room(server.room_ids[0])
            seeded = room.interest.subscriptions(a.session_id)
            assert seeded is not None  # cpnet mode seeds, never implicit ALL

            # Find the standby mirroring this primary and compare.
            for shard in harness.shards.values():
                state = shard.standby_for(primary.node_id)
                if state is not None and state.server.room_ids:
                    mirror = state.server.room(state.server.room_ids[0])
                    assert mirror.interest.subscriptions(a.session_id) == seeded
                    break
            else:
                pytest.fail("no standby replica mirrored the room")
        finally:
            db.close()
