"""E4 / Figure 8 — the shared room.

Regenerates the room's operational profile over the simulated network:
join latency, and change-propagation latency and message volume as the
room grows from 2 to 32 participants. "If a client makes a change on a
multi-media object, that change is immediately propagated to other
clients in the room" — the series quantifies "immediately" as a function
of population, and records the wall-clock cost of simulating it.
"""

import pytest

from repro.client import ClientModule
from repro.db import Database, MultimediaObjectStore
from repro.net import Link, SimulatedNetwork
from repro.server import InteractionServer
from repro.workloads import generate_record

MBPS = 1_000_000


def build_room(tmp_path, population, tag=""):
    db = Database(str(tmp_path / f"db{tag}"))
    store = MultimediaObjectStore(db)
    store.store_document(generate_record("room-doc", sections=4, components_per_section=3, seed=5))
    network = SimulatedNetwork()
    InteractionServer(store, network=network)
    clients = []
    for index in range(population):
        client = ClientModule(f"viewer-{index}", network=network, auto_fetch=False)
        network.attach_client(
            client,
            downlink=Link(bandwidth_bps=10 * MBPS, latency_s=0.01),
            uplink=Link(bandwidth_bps=10 * MBPS, latency_s=0.01),
        )
        client.join("room-doc")
        clients.append(client)
    network.run()
    return db, network, clients


@pytest.mark.parametrize("population", [2, 8, 32])
def test_room_change_propagation(benchmark, report, tmp_path, population):
    db, network, clients = build_room(tmp_path, population)
    try:
        actor = clients[0]
        values = actor.render.component("imaging0.item0").domain[:2]
        toggle = iter(list(values) * 1_000_000)
        messages, wire_bytes = network.stats.messages, network.stats.bytes_total

        def one_change():
            actor.choose("imaging0.item0", next(toggle))
            network.run()

        benchmark.pedantic(one_change, rounds=40, iterations=1)
        last_observer = clients[-1]
        assert last_observer.updates_received > 0
        sim_latency = max(c.response_times[-1] for c in clients[:1])
        report.line(
            f"  {population:2d} members: change fully propagated in "
            f"{sim_latency * 1000:.1f} ms simulated; "
            f"{network.stats.messages - messages} messages "
            f"({(network.stats.bytes_total - wire_bytes) / 1024:.0f} KB) for "
            f"{benchmark.stats['rounds']} changes; "
            f"host cost {benchmark.stats['mean'] * 1000:.2f} ms/change"
        )
    finally:
        db.close()


def test_room_join_latency(benchmark, report, tmp_path):
    db, network, clients = build_room(tmp_path, 4, tag="join")
    try:
        counter = iter(range(10_000_000))

        def join_leave():
            client = ClientModule(f"late-{next(counter)}", network=network, auto_fetch=False)
            network.attach_client(client, downlink=Link(bandwidth_bps=10 * MBPS))
            client.join("room-doc")
            network.run()
            latency = client.join_latency
            client.leave()
            network.run()
            network.detach_client(client.node_id)
            return latency

        latency = benchmark.pedantic(join_leave, rounds=30, iterations=1)
        assert latency is not None and latency > 0
        report.line(
            f"  late join into a 4-member room: {latency * 1000:.1f} ms simulated"
        )
    finally:
        db.close()


def test_peer_events_reach_everyone(benchmark, tmp_path):
    """Freeze/annotate round: every other member hears about it."""
    db, network, clients = build_room(tmp_path, 8, tag="peer")
    try:
        actor = clients[0]

        def annotate_round():
            actor.annotate("imaging0.item0", {"type": "text", "text": "x", "x": 1, "y": 2})
            network.run()

        benchmark.pedantic(annotate_round, rounds=30, iterations=1)
        assert all(client.peer_events for client in clients[1:])
    finally:
        db.close()
