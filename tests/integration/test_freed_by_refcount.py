"""A closed room and a finished conference are freed when dropped.

Reference counting frees an object graph the moment its last outside
reference goes, unless the graph holds a cycle: then it waits for the
interpreter's cycle collector, whose generation-2 pass runs rarely. The
room graph (document tree, CP-net, compilation, completion memo, views)
holds no back-pointer, and a harness's ``close()`` breaks the references
a running cluster needs (the network's nodes, bound steps, telemetry,
queue and admission hooks). Every case runs with the collector off and
checks, through weak references, that what it dropped is gone.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import obs
from repro.chaos import FaultPlan
from repro.cluster import AdmissionConfig, ClusterConfig, ClusterHarness
from repro.cpnet.compiled import compile_cpnet, compile_extension
from repro.db import Database, MultimediaObjectStore
from repro.document import MultimediaDocument
from repro.server import InteractionServer
from repro.workloads import generate_record, run_chaos_conference

DOC_IDS = ("case-0", "case-1", "case-2")


@pytest.fixture
def store(tmp_path):
    with obs.use_registry(obs.MetricsRegistry()), obs.use_event_log(obs.EventLog()):
        db = Database(str(tmp_path / "db"))
        store = MultimediaObjectStore(db)
        for index, doc_id in enumerate(DOC_IDS):
            store.store_document(
                generate_record(doc_id, sections=2, components_per_section=3, seed=index)
            )
        yield store
        db.close()


@pytest.fixture
def no_collector():
    """The cycle collector off for the test: only reference counts free."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _documents() -> set[int]:
    return {id(obj) for obj in gc.get_objects() if isinstance(obj, MultimediaDocument)}


def _made_since(before: set[int]) -> list[weakref.ref]:
    """Weak references to every document built since *before* was taken:
    open rooms, a crashed primary's rooms and a standby's replays alike."""
    return [
        weakref.ref(obj) for obj in gc.get_objects()
        if isinstance(obj, MultimediaDocument) and id(obj) not in before
    ]


def _alive(refs: dict[str, weakref.ref]) -> list[str]:
    return sorted(name for name, ref in refs.items() if ref() is not None)


def test_a_room_closed_on_the_last_leave_frees_its_document(store, no_collector):
    server = InteractionServer(store, interest_mode="cpnet")
    sessions = [server.connect_session(f"dr-{index}").session_id for index in range(2)]
    room = None
    for session_id in sessions:
        room, _spec = server.join_room(session_id, "case-0")
    document = room.document
    paths = [
        path for path in document.component_paths()
        if len(document.network.variable(path).domain) > 1
    ]
    server.handle_choice(sessions[0], paths[0], document.network.variable(paths[0]).domain[-1])
    server.handle_operation(sessions[1], paths[1], "zoom")  # a viewer-local overlay
    extension = room.engine.extension("dr-1")
    refs = {
        "room": weakref.ref(room),
        "document": weakref.ref(document),
        "root": weakref.ref(document.get_content()),
        "network": weakref.ref(document.network),
        "compiled": weakref.ref(compile_cpnet(document.network)),
        "extension": weakref.ref(extension),
        "overlay": weakref.ref(compile_extension(extension)),
    }
    assert len(compile_cpnet(document.network).completions) > 0
    del room, document, extension
    assert _alive(refs) == sorted(refs)
    for session_id in sessions:
        server.leave_room(session_id)
    assert server.room_ids == ()
    assert _alive(refs) == []


def _chaos_plan(seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, drop_rate=0.06, dup_rate=0.05, reorder_rate=0.08,
                     corrupt_rate=0.02)


def _cluster_refs(harness: ClusterHarness) -> dict[str, weakref.ref]:
    refs = {
        "harness": weakref.ref(harness),
        "network": weakref.ref(harness.network),
        "clock": weakref.ref(harness.clock),
        "directory": weakref.ref(harness.directory),
    }
    for node_id, node in (*harness.shards.items(), *harness.gateways.items()):
        refs[node_id] = weakref.ref(node)
    for viewer_id, client in harness.clients.items():
        refs[viewer_id] = weakref.ref(client)
    return refs


def test_a_dropped_chaos_conference_frees_its_cluster(store, no_collector):
    before = _documents()
    result = run_chaos_conference(
        store, plan=_chaos_plan(3), num_shards=3, num_rooms=3, clients_per_room=4,
        events_per_room=6, crash_owner_of="case-0", partition=True,
        gateway_crash=True, num_gateways=2,
    )
    harness = result["harness"]
    assert result["failovers"] and result["gateway_failovers"]
    refs = _cluster_refs(harness)
    documents = _made_since(before)
    assert len(documents) > len(DOC_IDS)  # primaries, standbys, the store's reads
    for index, ref in enumerate(documents):
        refs[f"document-{index}"] = ref
    del harness
    assert _alive(refs) == sorted(refs)  # the result holds the harness
    del result
    assert _alive(refs) == []


def _a_choice(store: MultimediaObjectStore, doc_id: str) -> tuple[str, str]:
    network = store.fetch_document(doc_id).network
    path = next(name for name in network.variable_names if len(network.variable(name).domain) > 1)
    return path, network.variable(path).domain[-1]


def test_a_harness_run_by_hand_closed_and_dropped_is_freed(store, no_collector):
    path, value = _a_choice(store, "case-0")
    before = _documents()
    config = ClusterConfig(
        shards=3, gateways=2, batch_window_s=0.01, service_rate=200.0, route_rate=400.0,
        interest_mode="cpnet", admission=AdmissionConfig(),
    )
    harness = ClusterHarness(store, config, reliability=True, plan=_chaos_plan(5))
    monitor = harness.add_monitor()
    clients = [harness.add_client(f"viewer-{index}") for index in range(6)]
    for index, client in enumerate(clients):
        client.join(DOC_IDS[index % len(DOC_IDS)])
    harness.run()
    assert all(client.session_id for client in clients)
    harness.start(until=harness.clock.now + 6.0)
    harness.schedule_crash(harness.owner_of("case-0"), harness.clock.now + 1.0)
    clients[0].choose(path, value)
    harness.run()
    assert harness.failovers and monitor.session_id is not None
    harness.close()
    # Everything a finished run is read for still reads.
    assert harness.network.stats.messages > 0 and harness.clock.now > 0
    assert harness.home_of("viewer-0") in harness.gateways
    assert harness.route_cache_stats()["hits"] >= 0
    assert harness.directory.stats()["failovers"] == 1
    assert max(shard.queue.max_pending for shard in harness.shards.values()) >= 1
    refs = _cluster_refs(harness)
    refs["monitor"] = weakref.ref(monitor)
    for index, ref in enumerate(_made_since(before)):
        refs[f"document-{index}"] = ref
    del harness, monitor, clients, client
    assert _alive(refs) == []
