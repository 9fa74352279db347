"""E14 / interest management — sparse fan-out and per-subscriber layers.

Broadcast fan-out charges every member for every change; interest-managed
fan-out charges only the members whose subscriptions cover the changed
component. The acceptance scenario: a 64-member room over a 50-stream
record where each member follows ~4 streams (~8% coverage) must cost
>=10x fewer wire bytes per shared choice than broadcast, while the
encode-once discipline of E13 holds — encodes per distinct change stay
flat no matter how many members subscribe. A checked-in snapshot
(``benchmarks/metrics/e14_interest_guard.json``) turns the
bytes-vs-broadcast ratio into a CI regression gate.
"""

import json
import os
from pathlib import Path

from conftest import QUICK
from repro import obs
from repro.client import ClientModule
from repro.db import Database, MultimediaObjectStore
from repro.net import Link, NET_ACK, SimulatedNetwork
from repro.presentation import (
    BANDWIDTH_LOW,
    TUNING_VARIABLE,
    install_bandwidth_tuning,
)
from repro.server import InteractionServer
from repro.workloads import generate_record, primitive_paths, sparse_subscriptions

MBPS = 1_000_000
POPULATIONS = (16,) if QUICK else (16, 64)
NUM_EVENTS = 8 if QUICK else 16
SECTIONS = 10
COMPONENTS_PER_SECTION = 5  # 50 streams
GUARD_PATH = Path(__file__).parent / "metrics" / "e14_interest_guard.json"
GUARD_TOLERANCE = 0.05
#: The room size the guard snapshot is pinned to (stable across modes).
GUARD_POPULATION = 16
GUARD_EVENTS = 8


class RecordingNetwork(SimulatedNetwork):
    """Tallies application transmissions (transport acks excluded)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.app_messages = 0
        self.wire_bytes = 0
        self.bytes_by_node: dict[str, int] = {}

    def reset_tallies(self):
        self.app_messages = 0
        self.wire_bytes = 0
        self.bytes_by_node = {}

    def _transmit(self, message):
        if message.kind != NET_ACK:
            self.app_messages += 1
            self.wire_bytes += message.size_bytes
            self.bytes_by_node[message.recipient] = (
                self.bytes_by_node.get(message.recipient, 0) + message.size_bytes
            )
        super()._transmit(message)


def run_room(tmp_path, population, tag, subscribe=True, events=NUM_EVENTS):
    """Drive *events* shared choices through a sparse-interest room.

    ``subscribe=False`` is the broadcast control: same room, same event
    stream, everyone implicitly interested in everything. Measurement
    starts after joins and subscriptions settle, so the numbers are the
    steady-state propagation cost.
    """
    db = Database(str(tmp_path / f"db-{tag}"))
    store = MultimediaObjectStore(db)
    record = generate_record(
        "interest-doc",
        sections=SECTIONS,
        components_per_section=COMPONENTS_PER_SECTION,
        seed=11,
    )
    store.store_document(record)
    paths = primitive_paths(record)
    network = RecordingNetwork(reliability=True)
    InteractionServer(
        store, network=network, interest_mode="cpnet" if subscribe else "off"
    )
    clients = []
    for index in range(population):
        client = ClientModule(f"viewer-{index}", network=network, auto_fetch=False)
        network.attach_client(
            client,
            downlink=Link(bandwidth_bps=10 * MBPS, latency_s=0.01),
            uplink=Link(bandwidth_bps=10 * MBPS, latency_s=0.01),
        )
        client.join("interest-doc")
        clients.append(client)
    network.run()
    if subscribe:
        for index, client in enumerate(clients):
            client.subscribe(sparse_subscriptions(paths, index), replace=True)
        network.run()
    network.reset_tallies()
    counters = obs.snapshot()["counters"]
    encodes_before = counters.get("codec.encodes", 0)
    filtered_before = counters.get("interest.updates_filtered", 0)
    saved_before = counters.get("interest.bytes_saved", 0)
    actor = clients[0]
    # The actor walks distinct streams so changes spread across the
    # record the way a consultation does — each change interests only
    # the few members whose window covers that stream.
    for index in range(events):
        path = paths[(index * 7) % len(paths)]
        domain = [v for v in actor.render.component(path).domain if v != "hidden"]
        actor.choose(path, domain[index % len(domain)])
        network.run()
    counters = obs.snapshot()["counters"]
    result = {
        "population": population,
        "events": events,
        "app_messages": network.app_messages,
        "wire_bytes": network.wire_bytes,
        "encodes": counters.get("codec.encodes", 0) - encodes_before,
        "updates_filtered": counters.get("interest.updates_filtered", 0)
        - filtered_before,
        "bytes_saved": counters.get("interest.bytes_saved", 0) - saved_before,
        "updates_received": sum(c.updates_received for c in clients),
    }
    db.close()
    return result


def test_sparse_interest_cuts_wire_bytes(benchmark, report, tmp_path):
    """Acceptance: at 64 members x ~4 streams each over 50 streams,
    interest-managed propagation costs >=10x fewer wire bytes per shared
    choice than broadcast (>=4x already at 16 members)."""
    rows = []
    results = []
    for population in POPULATIONS:
        broadcast = run_room(tmp_path, population, f"b{population}", subscribe=False)
        interest = run_room(tmp_path, population, f"i{population}", subscribe=True)
        ratio = broadcast["wire_bytes"] / max(1, interest["wire_bytes"])
        results.append((population, broadcast, interest, ratio))
        rows.append(
            [
                population,
                broadcast["wire_bytes"],
                interest["wire_bytes"],
                f"{ratio:.1f}x",
                interest["updates_filtered"],
                f"{interest['encodes'] / interest['events']:.1f}",
                f"{broadcast['encodes'] / broadcast['events']:.1f}",
            ]
        )
    benchmark.pedantic(
        run_room,
        args=(tmp_path, POPULATIONS[0], "bench"),
        rounds=1 if QUICK else 2,
    )
    report.table(
        f"E14: interest-managed fan-out, {NUM_EVENTS} shared choices, "
        f"{SECTIONS * COMPONENTS_PER_SECTION} streams, ~4 streams/member",
        [
            "room size",
            "broadcast bytes",
            "interest bytes",
            "reduction",
            "updates filtered",
            "encodes/event",
            "broadcast enc/event",
        ],
        rows,
    )
    for population, broadcast, interest, ratio in results:
        # Every member still hears what it watches.
        assert interest["updates_received"] > 0
        assert interest["updates_filtered"] > 0
        assert interest["wire_bytes"] < broadcast["wire_bytes"]
        floor = 10.0 if population >= 64 else 4.0
        assert ratio >= floor, (
            f"room of {population}: {ratio:.1f}x < required {floor:.0f}x"
        )
    # E13's encode-once discipline must survive filtering: encodes per
    # event stay flat as the room grows (frames are shared, and skipped
    # recipients never force a re-encode).
    first, last = results[0], results[-1]
    assert (
        last[2]["encodes"] / last[2]["events"]
        <= first[2]["encodes"] / first[2]["events"] + 1
    )


def test_layer_selection_cuts_payload_bytes(report, tmp_path):
    """Per-subscriber simulcast: a low-bandwidth member fetches a ~5%
    layer prefix of a heavy payload from the same cached frame the
    full-quality members use."""
    db = Database(str(tmp_path / "db-layers"))
    store = MultimediaObjectStore(db)
    record = generate_record("layer-doc", sections=2, components_per_section=3, seed=3)
    install_bandwidth_tuning(record)
    store.store_document(record)
    paths = primitive_paths(record)
    network = RecordingNetwork(reliability=True)
    server = InteractionServer(store, network=network, interest_mode="cpnet")
    clients = []
    for index in range(4):
        client = ClientModule(f"viewer-{index}", network=network, auto_fetch=False)
        network.attach_client(client)
        client.join("layer-doc")
        clients.append(client)
    network.run()
    low = clients[0]
    low.choose(TUNING_VARIABLE, BANDWIDTH_LOW, scope="personal")
    network.run()
    # The heaviest stream: big enough that simulcast engages.
    heavy, size, value = None, 0, None
    room = server.room(server.room_ids[0])
    for path in paths:
        node = room.document.component(path)
        for presentation in node.presentations:
            if presentation.size_bytes > size:
                heavy, size, value = path, presentation.size_bytes, presentation.label
    counters = obs.snapshot()["counters"]
    downgrades_before = counters.get("interest.layer_downgrades", 0)
    encodes_before = counters.get("codec.encodes", 0)
    network.reset_tallies()
    for client in clients:
        client.fetch_payload(heavy, value)
    network.run()
    counters = obs.snapshot()["counters"]
    downgrades = counters.get("interest.layer_downgrades", 0) - downgrades_before
    encodes = counters.get("codec.encodes", 0) - encodes_before
    low_bytes = network.bytes_by_node[low.node_id]
    full_bytes = max(
        network.bytes_by_node[c.node_id] for c in clients if c is not low
    )
    db.close()
    report.table(
        f"E14: per-subscriber layers, {size} B payload, "
        f"{len(clients)} members (1 degraded)",
        ["member", "payload bytes", "share of full"],
        [
            ["full quality", full_bytes, "100%"],
            ["low bandwidth", low_bytes, f"{low_bytes / full_bytes:.0%}"],
        ],
    )
    assert downgrades >= 1
    assert full_bytes >= size
    # A one-layer prefix under 1:4:16 weights is ~5% of the stream.
    assert low_bytes < size // 10
    # Encodes stay per-(body, layer), not per-fetcher: 4 fetches of 2
    # distinct layer prefixes must not cost 4 payload encodes. The only
    # frames encoded since the reset are fetch requests (client-side,
    # one each) and the payload frames (one per distinct layer prefix).
    assert encodes <= len(clients) + 2


def test_interest_ratio_guard(report, tmp_path):
    """CI regression gate: the bytes-vs-broadcast ratio at the pinned
    room size must not decay below the checked-in snapshot (-5%).
    Regenerate with ``REPRO_UPDATE_GUARD=1`` after intentional changes."""
    broadcast = run_room(
        tmp_path, GUARD_POPULATION, "guard-b", subscribe=False, events=GUARD_EVENTS
    )
    interest = run_room(
        tmp_path, GUARD_POPULATION, "guard-i", subscribe=True, events=GUARD_EVENTS
    )
    ratio = broadcast["wire_bytes"] / max(1, interest["wire_bytes"])
    current = {
        "population": GUARD_POPULATION,
        "events": GUARD_EVENTS,
        "streams": SECTIONS * COMPONENTS_PER_SECTION,
        "broadcast_bytes": broadcast["wire_bytes"],
        "interest_bytes": interest["wire_bytes"],
        "bytes_ratio": round(ratio, 2),
    }
    report.line(
        f"  interest guard: {ratio:.2f}x fewer wire bytes than broadcast "
        f"at room of {GUARD_POPULATION}"
    )
    if os.environ.get("REPRO_UPDATE_GUARD"):
        GUARD_PATH.write_text(json.dumps(current, indent=2) + "\n")
        report.line(f"  interest guard snapshot updated: {GUARD_PATH}")
        return
    assert GUARD_PATH.exists(), (
        "missing benchmarks/metrics/e14_interest_guard.json — run once "
        "with REPRO_UPDATE_GUARD=1 and commit the snapshot"
    )
    snapshot = json.loads(GUARD_PATH.read_text())
    assert snapshot["population"] == GUARD_POPULATION
    assert snapshot["events"] == GUARD_EVENTS
    floor = snapshot["bytes_ratio"] * (1 - GUARD_TOLERANCE)
    assert ratio >= floor, (
        f"interest regression: {ratio:.2f}x below the snapshot "
        f"{snapshot['bytes_ratio']:.2f}x (-{GUARD_TOLERANCE:.0%}); "
        "if intentional, regenerate with REPRO_UPDATE_GUARD=1"
    )
