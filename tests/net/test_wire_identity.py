"""Constant wire: three seeded conferences, every transmission hashed.

Every call that reaches ``SimulatedNetwork._transmit`` — first sends,
acks, retransmissions, chaos duplicates and deferred copies — is hashed
in order as ``(clock.now, sender, recipient, kind, seq, attempt,
size_bytes, checksum)``, with the final clock reading and the traffic
totals beside it. The constants were recorded at the parent commit of
the PR that made a frame cheaper to carry (ISSUE 18), before ``src/``
was touched: a change that adds, removes, re-times, re-orders or
re-sizes one transmission fails here. A PR that *means* to move the
wire edits the constant below, where a reviewer sees it. The third
conference — a flash crowd into one wide room under admission control,
the shape of the ledger's ``megaconf_day`` — was recorded the same way
at the parent of ISSUE 23, which claimed its gain on that path.
"""

import hashlib

import pytest

from repro import obs
from repro.chaos import FaultPlan
from repro.chaos.convergence import DEFAULT_RATES
from repro.cluster import AdmissionConfig, ClusterConfig, ClusterHarness
from repro.db import Database, MultimediaObjectStore
from repro.net.network import SimulatedNetwork
from repro.workloads import consultation_events, generate_record
from repro.workloads.chaos import run_chaos_conference


@pytest.fixture(autouse=True)
def fresh_obs():
    with obs.use_registry(obs.MetricsRegistry()), obs.use_event_log(obs.EventLog()):
        yield


@pytest.fixture
def wire(monkeypatch):
    """Tap the base transmission hook; returns the running digest."""
    digest = hashlib.sha256()
    original = SimulatedNetwork._transmit

    def tapped(network, message):
        digest.update(
            repr(
                (
                    network.clock.now, message.sender, message.recipient,
                    message.kind, message.seq, message.attempt,
                    message.size_bytes, message.checksum,
                )
            ).encode()
        )
        original(network, message)

    monkeypatch.setattr(SimulatedNetwork, "_transmit", tapped)
    return digest


def _fingerprint(digest, network):
    stats = network.stats
    return (digest.hexdigest(), stats.messages, stats.bytes_total, network.clock.now)


def test_chaos_conference_wire_is_pinned(tmp_path, wire):
    db = Database(str(tmp_path / "chaos"))
    try:
        result = run_chaos_conference(
            MultimediaObjectStore(db),
            plan=FaultPlan(seed=1, **DEFAULT_RATES),
            partition=True,
            crash_owner_of="case-0",
            gateway_crash=True,
        )
    finally:
        db.close()
    assert not result["errors"] and not result["delivery_failures"]
    assert _fingerprint(wire, result["harness"].network) == CHAOS_WIRE


def build_rooms_conference(store):
    """Three rooms of three behind 2 shards and 2 gateways, reliable
    delivery off; nothing sent yet. Returns ``(harness, rooms)``."""
    harness = ClusterHarness(store, ClusterConfig(shards=2, gateways=2))
    rooms = []
    for index in range(3):
        record = generate_record(
            f"room-{index}", sections=2, components_per_section=3, seed=index
        )
        store.store_document(record)
        rooms.append((record, [harness.add_client(f"v-{index}-{j}") for j in range(3)]))
    return harness, rooms


def drive_rooms_conference(harness, rooms):
    """Everyone joins, then eight choices per room and the payload
    fetches they cause (also what ``test_design_budget`` counts calls over)."""
    for record, members in rooms:
        for member in members:
            member.join(record.doc_id)
    harness.run()
    for index, (record, members) in enumerate(rooms):
        events = consultation_events(record, num_events=8, seed=50 + index)
        for turn, (path, value) in enumerate(events):
            members[turn % len(members)].choose(path, value)
    harness.run()
    assert not any(member.errors for _, members in rooms for member in members)
    assert all(member.fully_rendered() for _, members in rooms for member in members)


def test_clustered_conference_wire_is_pinned(tmp_path, wire):
    db = Database(str(tmp_path / "rooms"))
    try:
        harness, rooms = build_rooms_conference(MultimediaObjectStore(db))
        drive_rooms_conference(harness, rooms)
        assert _fingerprint(wire, harness.network) == ROOMS_WIRE
    finally:
        db.close()


def test_flash_crowd_wire_is_pinned(tmp_path, wire):
    """Admission on: deferred JOINs, shed reads and their ``RETRY_AFTER``
    round trips, one room of 16 behind 2 gateways, everyone leaves."""
    db = Database(str(tmp_path / "crowd"))
    try:
        store = MultimediaObjectStore(db)
        config = ClusterConfig(
            shards=2, gateways=2, service_rate=240.0,
            admission=AdmissionConfig(
                depth_defer=4, depth_shed=8, defer_limit=64, retry_after_s=0.25
            ),
        )
        harness = ClusterHarness(store, config)
        clock = harness.clock
        rooms = []
        for index, size in enumerate((16, 4)):
            record = generate_record(
                f"hall-{index}", sections=3, components_per_section=4, seed=17 + index
            )
            store.store_document(record)
            members = [harness.add_client(f"a-{index}-{j}") for j in range(size)]
            for j, member in enumerate(members):
                clock.schedule_at(
                    0.25 * j / size, lambda m=member, d=record.doc_id: m.join(d)
                )
            rooms.append((record, members))
        harness.run()
        for index, (record, members) in enumerate(rooms):
            events = consultation_events(record, num_events=6, seed=70 + index)
            for turn, (path, value) in enumerate(events):
                clock.schedule(
                    0.05 * turn, lambda m=members[0], p=path, v=value: m.choose(p, v)
                )
        harness.run()
        everyone = [member for _, members in rooms for member in members]
        assert not any(member.errors for member in everyone)
        assert all(member.fully_rendered() for member in everyone)
        for member in everyone:
            member.leave()
        harness.run()
        controllers = [shard.admission for shard in harness.shards.values()]
        assert sum(c.deferred for c in controllers) > 0
        assert sum(c.shed_by_lane.get("data", 0) for c in controllers) > 0
        assert not any(c.parked_count for c in controllers)
        assert harness.network.stats.messages_by_kind["retry_after"] > 0
        assert _fingerprint(wire, harness.network) == CROWD_WIRE
    finally:
        db.close()


#: (sha256 of the transmissions, messages, bytes, final sim time).
CHAOS_WIRE = (
    "3cdfad3023e4c8e2ce42a759f866a757ef3993c41f7296d5e9cdec3759be2daf",
    1_265, 19_283_466, 37.65240618195121,
)
ROOMS_WIRE = (
    "f570148d3d41ad962ccfebe13590ec4ef2e28f30cf5b6f56d406460648f17c9d",
    717, 34_977_178, 6.010788800000001,
)
CROWD_WIRE = (
    "1ca6625d5f7b87fb04ca02fb8dad8cdcc77e75c03ff3e4d83082168868f55d9a",
    3_460, 47_342_980, 15.76535116876748,
)
