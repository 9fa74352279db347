"""A shard serves from one server: PROMOTE folds the standby into it.

At promotion the shard catches its standby of the dead primary up and
its own ``InteractionServer`` adopts the standby's rooms and sessions.
From then on that one server serves the adopted rooms (their choices
and new joins), the standby's ``server.*{node}`` series are retired,
and a shard that adopted rooms can itself die and hand them all on.
The dead primary's own series retire too, so a sum over ``node`` counts
each live session once.
Each standby's shadow reads in its own series, named by its primary and
its holder.
"""

import pytest

from repro import obs
from repro.chaos.plan import FaultPlan
from repro.cluster import ClusterConfig, ClusterHarness
from repro.db import Database, MultimediaObjectStore
from repro.workloads import consultation_events, generate_record


@pytest.fixture
def registry():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry), obs.use_event_log(obs.EventLog()):
        yield registry


@pytest.fixture
def store(tmp_path):
    db = Database(str(tmp_path / "db"))
    yield MultimediaObjectStore(db)
    db.close()


def stored(store, docs):
    records = {}
    for index, doc_id in enumerate(docs):
        records[doc_id] = generate_record(doc_id, sections=2, components_per_section=3, seed=index)
        store.store_document(records[doc_id])
    return records


def other_value(client, store, doc_id):
    """A component of *doc_id* and a value *client* does not show for it."""
    path, shown = next((p, v) for p, v in sorted(client.displayed().items()) if v != "hidden")
    domain = store.fetch_document(doc_id).network.variable(path).domain
    return path, next(value for value in domain if value != shown)


def test_each_standby_reads_in_its_own_series(store, registry):
    """Two standbys of one primary, on two shards, are two series."""
    docs = [f"case-{index}" for index in range(12)]
    stored(store, docs)
    harness = ClusterHarness(store, ClusterConfig(shards=3))
    for doc_id in docs:
        harness.add_client(f"dr-{doc_id}").join(doc_id)
    harness.run()
    standbys = [
        (primary, shard.standby_for(primary).server)
        for shard in harness.shards.values()
        for primary in harness.shards
        if shard.standby_for(primary) is not None
    ]
    primaries = [primary for primary, _ in standbys]
    assert any(primaries.count(primary) > 1 for primary in primaries)
    held = {shadow.node_id: len(shadow.session_ids) for _, shadow in standbys}
    assert len(held) == len(standbys)
    gauges = registry.snapshot()["gauges"]
    assert {node: gauges[f'server.sessions_connected{{node="{node}"}}'] for node in held} == held


def test_the_promoted_shard_serves_the_adopted_room_from_its_own_server(store, registry):
    doc_id = "case-0"
    stored(store, [doc_id])
    harness = ClusterHarness(store, ClusterConfig(shards=3, failure_timeout=1.5))
    first, second = (harness.add_client(f"dr-{index}") for index in range(2))
    for client in (first, second):
        client.join(doc_id)
    harness.run()
    victim = harness.owner_of(doc_id)
    harness.start(until=20.0)
    harness.run_until(3.0)
    harness.crash(victim)
    harness.run()
    [failover] = harness.failovers
    assert failover["primary"] == victim
    promoted = failover["promoted"]
    assert harness.owner_of(doc_id) == promoted
    server = harness.shards[promoted].server
    assert server.doc_of(first.session_id) == doc_id
    room_id = first.room_id

    path, value = other_value(first, store, doc_id)
    first.choose(path, value)
    late = harness.add_client("dr-late")
    late.join(doc_id)
    harness.run()
    assert [client.errors for client in (first, second, late)] == [[], [], []]
    assert server.session(late.session_id).room_id == room_id
    assert second.displayed()[path] == late.displayed()[path] == value

    gauges = registry.snapshot()["gauges"]
    standby = f"replica:{victim}@{promoted}"
    assert [name for name in gauges if f'node="{standby}"' in name] == []
    assert gauges[f'server.sessions_connected{{node="{promoted}"}}'] == len(server.session_ids)


DOCS = ("case-0", "case-1", "case-2", "case-7")  # shard-2, shard-1, shard-1, shard-2
HORIZON = 40.0


def chained_conference(store, records, crashes):
    """4 rooms x 2 viewers on 3 shards and 1 gateway, 3 phases of
    choices; *crashes* maps a phase (1, 2) to the shard that dies after it."""
    harness = ClusterHarness(store, ClusterConfig(shards=3, gateways=1, failure_timeout=1.5))
    clients = {doc_id: [harness.add_client(f"{doc_id}-{j}") for j in range(2)] for doc_id in DOCS}
    for doc_id, pair in clients.items():
        for client in pair:
            client.join(doc_id)
    harness.run()
    streams = {
        doc_id: consultation_events(records[doc_id], num_events=6, seed=31 + index)
        for index, doc_id in enumerate(DOCS)
    }
    harness.start(until=HORIZON)
    for phase in range(3):
        for doc_id, events in streams.items():
            for path, value in events[2 * phase : 2 * phase + 2]:
                clients[doc_id][phase % 2].choose(path, value)
        harness.run_until(10.0 * phase + 3.0)
        if phase + 1 in crashes:
            harness.crash(crashes[phase + 1])
        harness.run_until(10.0 * phase + 10.0)
    harness.run()
    everyone = [client for pair in clients.values() for client in pair]
    return harness, {client.viewer_id: client.displayed() for client in everyone}, [
        error for client in everyone for error in client.errors
    ]


def test_a_shard_that_adopted_rooms_can_die_and_hand_them_all_on(store, registry):
    records = stored(store, DOCS)
    _, control, control_errors = chained_conference(store, records, {})
    harness, final, errors = chained_conference(store, records, {1: "shard-2", 2: "shard-1"})
    assert control_errors == errors == []
    assert [(f["primary"], f["promoted"]) for f in harness.failovers] == [
        ("shard-2", "shard-1"), ("shard-1", "shard-3"),
    ]
    server = harness.shards["shard-3"].server
    assert sorted(server.doc_of(s) for s in server.session_ids) == sorted(DOCS * 2)
    assert final == control


def test_a_sum_over_node_counts_each_live_session_once(store, registry):
    """The dead primaries' ``server.*{node}`` series retire at PROMOTE:
    summed over the serving nodes, each gauge reads the live tables."""
    records = stored(store, DOCS)
    harness, _, errors = chained_conference(store, records, {1: "shard-2", 2: "shard-1"})
    assert errors == []
    gauges = registry.snapshot()["gauges"]

    def summed(name):
        return sum(
            value for series, value in gauges.items()
            if series.startswith(name + "{") and 'node="replica:' not in series
        )

    server = harness.shards["shard-3"].server
    assert [name for name in gauges if 'node="shard-1"' in name or 'node="shard-2"' in name] == []
    assert summed("server.sessions_connected") == len(server.session_ids) == 2 * len(DOCS)
    assert summed("server.room_occupancy") == 2 * len(DOCS)
    assert summed("server.rooms_open") == len(server.room_ids) == len(DOCS)


def test_a_join_that_beats_the_promote_opens_a_room_that_still_closes(store, registry):
    """A partition holds the PROMOTE back while a viewer joins: the
    successor opens a second room on the document, then adopts the
    standby's beside it. New joins go to the adopted room, which holds
    the conference so far, and every room closes when its viewers leave."""
    doc_id = "case-0"
    stored(store, [doc_id])
    plan = FaultPlan(seed=0)
    plan.partition({"directory"}, {"shard-1"}, 4.7, 5.6)  # detection is at ~4.79
    config = ClusterConfig(shards=3, failure_timeout=1.5)
    harness = ClusterHarness(store, config, reliability=True, plan=plan)
    first = harness.add_client("dr-first")
    first.join(doc_id)
    harness.run()
    harness.start(until=20.0)
    harness.run_until(3.0)
    harness.crash(harness.owner_of(doc_id))
    harness.run_until(4.85)
    early = harness.add_client("dr-early")
    early.join(doc_id)
    harness.run_until(6.5)
    assert [(f["primary"], f["promoted"]) for f in harness.failovers] == [("shard-2", "shard-1")]
    late = harness.add_client("dr-late")
    late.join(doc_id)
    harness.run()
    server = harness.shards["shard-1"].server
    assert sorted(server.room_ids) == sorted({first.room_id, early.room_id})
    assert early.room_id != first.room_id == late.room_id
    for client in (first, early, late):
        client.leave()
    harness.run()
    assert [client.errors for client in (first, early, late)] == [[], [], []]
    assert server.room_ids == () and server.session_ids == ()
