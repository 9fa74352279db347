"""E13 / wire codec — encode-once fan-out and propagation batching.

PR 4's transport serialized every outbound message twice (once to size
it, once to checksum it) and re-serialized per recipient and per
retransmission. The encode-once codec builds one cached frame per
distinct body; fan-out, sizing, CRC and retries all reuse it. This
benchmark measures the claim directly: codec encode calls per propagated
choice versus the 2-serializations-per-message baseline as the room
grows, and bytes on the wire versus the old JSON encoding. A checked-in
guard snapshot (``benchmarks/metrics/e13_wire_guard.json``) turns the
wire-bytes number into a CI regression gate.
"""

import json
import os
from pathlib import Path

from conftest import QUICK
from repro import obs
from repro.client import ClientModule
from repro.db import Database, MultimediaObjectStore
from repro.net import Link, NET_ACK, SimulatedNetwork
from repro.server import InteractionServer
from repro.server.protocol import json_encoded_size
from repro.workloads import generate_record

MBPS = 1_000_000
POPULATIONS = (2, 4) if QUICK else (2, 4, 8, 16)
NUM_EVENTS = 6 if QUICK else 12
GUARD_PATH = Path(__file__).parent / "metrics" / "e13_wire_guard.json"
GUARD_TOLERANCE = 0.05  # 5% headroom over the checked-in snapshot
#: The room size the guard snapshot is pinned to (stable across modes).
GUARD_POPULATION = 4
GUARD_EVENTS = 6


class RecordingNetwork(SimulatedNetwork):
    """Tallies, per application transmission, the actual wire charge and
    what the same payload would have cost under PR 4's JSON encoding."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.app_messages = 0
        self.wire_bytes = 0
        self.json_bytes = 0

    def reset_tallies(self):
        self.app_messages = 0
        self.wire_bytes = 0
        self.json_bytes = 0

    def _transmit(self, message):
        if message.kind != NET_ACK:
            self.app_messages += 1
            self.wire_bytes += message.size_bytes
            self.json_bytes += json_encoded_size(message.payload)
        super()._transmit(message)


def run_fanout(tmp_path, population, tag, window_s=0.0, events=NUM_EVENTS):
    """Drive *events* shared choices through a room of *population*.

    Measurement starts after the joins settle, so the numbers are the
    steady-state propagation cost (the thing that scales with fan-out).
    """
    db = Database(str(tmp_path / f"db-{tag}"))
    store = MultimediaObjectStore(db)
    store.store_document(
        generate_record("fan-doc", sections=4, components_per_section=3, seed=5)
    )
    network = RecordingNetwork(reliability=True)
    InteractionServer(store, network=network, batch_window_s=window_s)
    clients = []
    for index in range(population):
        client = ClientModule(f"viewer-{index}", network=network, auto_fetch=False)
        network.attach_client(
            client,
            downlink=Link(bandwidth_bps=10 * MBPS, latency_s=0.01),
            uplink=Link(bandwidth_bps=10 * MBPS, latency_s=0.01),
        )
        client.join("fan-doc")
        clients.append(client)
    network.run()
    network.reset_tallies()
    messages, wire_bytes = network.stats.messages, network.stats.bytes_total
    counters = obs.snapshot()["counters"]
    encodes_before = counters.get("codec.encodes", 0)
    saved_before = counters.get("codec.encodes_saved", 0)
    actor = clients[0]
    values = actor.render.component("imaging0.item0").domain[:2]
    for index in range(events):
        actor.choose("imaging0.item0", values[index % 2])
        network.run()
    counters = obs.snapshot()["counters"]
    result = {
        "population": population,
        "events": events,
        "encodes": counters.get("codec.encodes", 0) - encodes_before,
        "encodes_saved": counters.get("codec.encodes_saved", 0) - saved_before,
        "app_messages": network.app_messages,
        "wire_bytes": network.wire_bytes,
        "json_bytes": network.json_bytes,
        "net_messages": network.stats.messages - messages,
        "net_bytes": network.stats.bytes_total - wire_bytes,
        "updates_received": sum(c.updates_received for c in clients),
    }
    # PR 4 serialized each outbound application message twice (sizing +
    # checksum) at send time — that is the baseline encode bill.
    result["baseline_encodes"] = 2 * network.app_messages
    db.close()
    return result


def test_fanout_encode_reduction(benchmark, report, tmp_path):
    """One encode serves the whole room: encode calls per propagated
    choice stay ~flat as the room grows, while the baseline bill grows
    with fan-out. Acceptance: >=2x fewer encodes at rooms of 4+."""
    results = [run_fanout(tmp_path, pop, f"p{pop}") for pop in POPULATIONS]
    benchmark.pedantic(
        run_fanout,
        args=(tmp_path, POPULATIONS[1], "bench"),
        rounds=1 if QUICK else 2,
    )
    rows = []
    for r in results:
        per_event = r["encodes"] / r["events"]
        baseline = r["baseline_encodes"] / r["events"]
        rows.append(
            [
                r["population"],
                f"{per_event:.1f}",
                f"{baseline:.1f}",
                f"{baseline / per_event:.1f}x",
                f"{r['encodes_saved'] / r['events']:.1f}",
                r["wire_bytes"],
                r["json_bytes"],
            ]
        )
    report.table(
        f"E13: encode-once fan-out, {NUM_EVENTS} shared choices",
        [
            "room size",
            "encodes/event",
            "baseline (2/msg)",
            "reduction",
            "reuses/event",
            "wire bytes",
            "json bytes",
        ],
        rows,
    )
    for r in results:
        assert r["updates_received"] > 0
        # Binary frames with interned keys beat the JSON encoding at
        # every room size, not just asymptotically.
        assert r["wire_bytes"] < r["json_bytes"]
        if r["population"] >= 4:
            assert r["baseline_encodes"] >= 2 * r["encodes"], r
    # The per-event encode count must not grow with the room: the frame
    # is shared across recipients, so doubling the room doubles sends
    # but not serializations.
    small, large = results[0], results[-1]
    assert large["encodes"] / large["events"] <= small["encodes"] / small["events"] + 1


def test_wire_bytes_guard(report, tmp_path):
    """CI regression gate: bytes/event at the pinned room size must not
    creep past the checked-in snapshot (±5%). Regenerate the snapshot
    with ``REPRO_UPDATE_GUARD=1`` after an intentional wire change."""
    r = run_fanout(
        tmp_path, GUARD_POPULATION, "guard", events=GUARD_EVENTS
    )
    wire_per_event = r["wire_bytes"] / r["events"]
    json_per_event = r["json_bytes"] / r["events"]
    assert wire_per_event < json_per_event
    current = {
        "population": GUARD_POPULATION,
        "events": GUARD_EVENTS,
        "wire_bytes_per_event": round(wire_per_event, 1),
        "json_bytes_per_event": round(json_per_event, 1),
        "encodes_per_event": round(r["encodes"] / r["events"], 1),
    }
    report.line(
        f"  wire guard: {wire_per_event:.1f} B/event on the wire vs "
        f"{json_per_event:.1f} B/event JSON baseline "
        f"({1 - wire_per_event / json_per_event:.0%} saved)"
    )
    if os.environ.get("REPRO_UPDATE_GUARD"):
        GUARD_PATH.write_text(json.dumps(current, indent=2) + "\n")
        report.line(f"  wire guard snapshot updated: {GUARD_PATH}")
        return
    assert GUARD_PATH.exists(), (
        "missing benchmarks/metrics/e13_wire_guard.json — run once with "
        "REPRO_UPDATE_GUARD=1 and commit the snapshot"
    )
    snapshot = json.loads(GUARD_PATH.read_text())
    assert snapshot["population"] == GUARD_POPULATION
    assert snapshot["events"] == GUARD_EVENTS
    ceiling = snapshot["wire_bytes_per_event"] * (1 + GUARD_TOLERANCE)
    assert wire_per_event <= ceiling, (
        f"wire regression: {wire_per_event:.1f} B/event exceeds the "
        f"snapshot {snapshot['wire_bytes_per_event']:.1f} (+{GUARD_TOLERANCE:.0%}); "
        "if intentional, regenerate with REPRO_UPDATE_GUARD=1"
    )


def test_batching_window_cuts_reliable_traffic(report, tmp_path):
    """Propagation batching coalesces the per-recipient update+event pair
    into one acked frame: fewer frames and fewer total bytes under the
    reliable transport, same messages delivered."""
    population = POPULATIONS[1]
    plain = run_fanout(tmp_path, population, "nobatch", window_s=0.0)
    batched = run_fanout(tmp_path, population, "batch", window_s=0.05)
    report.table(
        f"E13: propagation batching, room of {population}, "
        f"{NUM_EVENTS} choices, reliable transport",
        ["mode", "frames", "net bytes", "delivered updates"],
        [
            ["unbatched", plain["net_messages"], plain["net_bytes"],
             plain["updates_received"]],
            ["batched (50 ms window)", batched["net_messages"],
             batched["net_bytes"], batched["updates_received"]],
        ],
    )
    assert batched["updates_received"] == plain["updates_received"]
    assert batched["net_messages"] < plain["net_messages"]
    assert batched["net_bytes"] < plain["net_bytes"]
