"""Cluster-scale conferencing workload.

One scenario drives many concurrent consultations through a sharded
cluster: each document gets its own room, each room its own scripted
viewers, and every room's choice stream is issued up front so the
simulated network and the shards' service queues decide the makespan.
The returned summary carries enough state (each client's final displayed
presentation) for failover experiments to assert byte-identical outcomes
against a no-failure control run.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.config import ClusterConfig
from repro.cluster.harness import ClusterHarness
from repro.db.orm import MultimediaObjectStore
from repro.workloads.records import generate_record
from repro.workloads.sessions import consultation_events

#: Shape of every generated record: sections x components per section.
SECTIONS = 2
COMPONENTS_PER_SECTION = 3


def run_cluster_conference(
    store: MultimediaObjectStore,
    config: ClusterConfig | None = None,
    num_rooms: int = 6,
    clients_per_room: int = 2,
    events_per_room: int = 8,
    seed: int = 0,
) -> dict[str, Any]:
    """Run *num_rooms* concurrent consultations through a cluster.

    Documents ``case-0 .. case-{n-1}`` are generated and stored, one room
    per document, *clients_per_room* viewers each. The first viewer in
    every room issues that room's scripted choice stream; the run then
    drives the network to quiescence. Throughput is propagated choices
    per simulated second of makespan — with a finite
    ``config.service_rate`` the shards' serial service queues are the
    bottleneck, which is what makes scale-out measurable.

    The cluster is built from *config* (default: ``ClusterConfig()``);
    the summary's ``harness`` is it, closed, for inspection after the run.
    """
    docs = [f"case-{i}" for i in range(num_rooms)]
    records = {}
    for index, doc_id in enumerate(docs):
        record = generate_record(
            doc_id,
            sections=SECTIONS,
            components_per_section=COMPONENTS_PER_SECTION,
            seed=seed + index,
        )
        records[doc_id] = record
        store.store_document(record)
    harness = ClusterHarness(store, config or ClusterConfig())
    clients: dict[str, list[Any]] = {}
    for index, doc_id in enumerate(docs):
        room_clients = []
        for viewer in range(clients_per_room):
            client = harness.add_client(f"viewer-{index}-{viewer}")
            client.join(doc_id)
            room_clients.append(client)
        clients[doc_id] = room_clients
    harness.run()
    join_done = harness.clock.now
    total_events = 0
    for index, doc_id in enumerate(docs):
        events = consultation_events(
            records[doc_id], num_events=events_per_room, seed=seed + index
        )
        for path, value in events:
            clients[doc_id][0].choose(path, value)
        total_events += len(events)
    harness.run()
    makespan = harness.clock.now - join_done
    errors = [
        {"viewer": client.viewer_id, **error}
        for room in clients.values()
        for client in room
        for error in client.errors
    ]
    rooms_by_shard: dict[str, int] = {}
    for doc_id in docs:
        owner = harness.owner_of(doc_id)
        rooms_by_shard[owner] = rooms_by_shard.get(owner, 0) + 1
    result = {
        "shards": len(harness.shards),
        "rooms": num_rooms,
        "clients": num_rooms * clients_per_room,
        "events": total_events,
        "errors": errors,
        "sim_seconds": makespan,
        "throughput_eps": total_events / makespan if makespan > 0 else 0.0,
        "rooms_by_shard": dict(sorted(rooms_by_shard.items())),
        "displayed": {
            client.viewer_id: client.displayed()
            for room in clients.values()
            for client in room
        },
        "network_bytes": harness.network.stats.bytes_total,
        "network_messages": harness.network.stats.messages,
        "gateways": len(harness.gateways),
        "route_cache": harness.route_cache_stats(),
        "harness": harness,
    }
    harness.close()
    return result
