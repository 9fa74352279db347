"""Bounded growth, checked reflectively.

ROADMAP's north star asks for "no structure that grows with conference
length". Like the zero-residue probe beside it, this audit keeps no
hand-written list of structures: it runs one clustered conference
through identical cycles — guests join, choices toggle, a subscription
comes and goes, an annotation lands, the guests leave — and takes a
census of everything reachable from the harness after cycles 2 and 4.
The first cycle warms every cache, so from then on a container that
still grows is growing with the length of the conference, not with its
shape.

The census sums, per ``Class.attribute``, the entries of every
container a ``repro`` object holds (nested plain containers included).
An attribute whose sum grew between the two censuses fails the test
unless :data:`ALLOWED` names it with its owner and reason. An allowed
entry that stopped growing fails it too, so the table can only shrink.
"""

from __future__ import annotations

from collections import Counter, deque

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterHarness
from repro.cluster.admission import AdmissionConfig
from repro.db import Database, MultimediaObjectStore
from repro.workloads import generate_record
from tests.integration.test_zero_residue import _children, walk

#: ``Class.attribute`` → ``(owner, reason)`` for what may still grow with
#: the number of cycles a conference runs.
ALLOWED = {
    "Room.annotations": (
        "§1", "annotations are room content: stored with the document on close",
    ),
    "ShardServer._room_history": (
        "item 2",
        "a room's op history from the room's current incarnation, for replica bootstrap",
    ),
    "ReplicaState.applied_log": (
        "item 2", "the standby keeps the same history, logged",
    ),
    "LogEntry.data": ("item 2", "the op body of each applied_log entry"),
    "Membership.op_log": (
        "item 2", "the client replays its membership's whole op log on gateway failover",
    ),
    "ShardServer._op_seen": (
        "item 1", "the duplicate-LEAVE fence needs an expiry, not a pop",
    ),
    "ClientModule.peer_events": ("item 1", "an observation list that appends forever"),
    "ClientModule.response_times": (
        "item 1", "an observation list that appends forever",
    ),
    "EventLog._events": (
        "obs", "the flight recorder is a bounded ring: it grows until it is full",
    ),
    "Event.fields": ("obs", "the fields of each event in that ring"),
}

CENSUS_AFTER = (2, 4)
GUESTS_PER_ROOM = 3

_CONTAINERS = (dict, list, tuple, set, frozenset, deque)


def _entries(container, seen) -> int:
    """Entries of *container*, plus those of every plain container nested
    in it (dict keys and values both count)."""
    if id(container) in seen:
        return 0
    seen.add(id(container))
    count = len(container)
    items = [*container, *container.values()] if isinstance(container, dict) else container
    for item in items:
        if isinstance(item, _CONTAINERS):
            count += _entries(item, seen)
    return count


def census(root) -> Counter:
    """``{Class.attribute: entries}`` summed over every ``repro`` object
    reachable from *root*, each object counted once."""
    totals: Counter = Counter()
    visited: set[int] = set()
    for _, thing in walk(root):
        if id(thing) in visited or isinstance(thing, _CONTAINERS):
            continue
        visited.add(id(thing))
        for hop, child in _children(thing):
            if hop is not None and isinstance(child, _CONTAINERS):
                totals[hop] += _entries(child, set())
    return totals


def verdict(before: Counter, after: Counter, allowed) -> tuple[dict, list]:
    """``(unexpected growth, stale allowances)`` between two censuses."""
    grown = {
        hop: (before[hop], count)
        for hop, count in after.items()
        if count > before[hop]
    }
    unexpected = {hop: sizes for hop, sizes in grown.items() if hop not in allowed}
    stale = sorted(hop for hop in allowed if hop not in grown)
    return unexpected, stale


def _choosable(document):
    return [
        path for path in document.component_paths()
        if len(document.network.variable(path).domain) > 1
    ]


def run_cycles(harness, doc_ids, cycles, on_cycle) -> None:
    """A host stays in each room for the whole run; each cycle its guests
    join, toggle a shared and a personal choice there and back, subscribe
    and unsubscribe, annotate, and leave. ``on_cycle(n)`` runs after each."""
    hosts = {doc_id: harness.add_client(f"{doc_id}-host") for doc_id in doc_ids}
    guests = {
        doc_id: [
            harness.add_client(f"{doc_id}-guest-{j}") for j in range(GUESTS_PER_ROOM)
        ]
        for doc_id in doc_ids
    }
    for doc_id, host in hosts.items():
        host.join(doc_id)
        harness.run()
        assert host.session_id
    for cycle in range(1, cycles + 1):
        for doc_id, clients in guests.items():
            for client in clients:
                client.join(doc_id)
                harness.run()
                assert client.session_id
        for doc_id, clients in guests.items():
            document = harness.store.fetch_document(doc_id)
            paths = _choosable(document)
            host, first, second = hosts[doc_id], clients[0], clients[1]
            for index in (-1, 0):
                shared = document.network.variable(paths[0]).domain[index]
                personal = document.network.variable(paths[1]).domain[index]
                host.choose(paths[0], shared)
                first.choose(paths[1], personal, scope="personal")
                harness.run()
            second.subscribe(paths[:2], replace=True)
            harness.run()
            second.unsubscribe()
            harness.run()
            first.annotate(paths[1], {"text": f"cycle {cycle}"})
            harness.run()
        for clients in guests.values():
            for client in clients:
                client.leave()
                harness.run()
        harness.run()
        on_cycle(cycle)


@pytest.mark.parametrize("reliability", [False, True], ids=["plain", "reliable"])
def test_nothing_grows_with_conference_length_but_the_allowed(tmp_path, reliability):
    doc_ids = [f"case-{index}" for index in range(3)]
    registry, log = obs.MetricsRegistry(), obs.EventLog()
    with obs.use_registry(registry), obs.use_event_log(log):
        db = Database(str(tmp_path / "db"))
        try:
            store = MultimediaObjectStore(db)
            for index, doc_id in enumerate(doc_ids):
                store.store_document(
                    generate_record(
                        doc_id, sections=2, components_per_section=3, seed=index
                    )
                )
            harness = ClusterHarness(
                store,
                ClusterConfig(
                    shards=3,
                    gateways=2,
                    interest_mode="cpnet",
                    admission=AdmissionConfig(),
                ),
                reliability=reliability,
            )
            root = (harness, registry, log)
            censuses = {}

            def on_cycle(cycle):
                if cycle in CENSUS_AFTER:
                    censuses[cycle] = census(root)

            run_cycles(harness, doc_ids, max(CENSUS_AFTER), on_cycle)
            unexpected, stale = verdict(
                *(censuses[cycle] for cycle in CENSUS_AFTER), ALLOWED
            )
            assert unexpected == {}, (
                "state that grows with conference length (entries after cycles "
                f"{CENSUS_AFTER}): {unexpected}"
            )
            # The allow-list may only shrink: an entry that stopped growing
            # has been fixed and must be deleted here.
            assert stale == []
        finally:
            db.close()


class _Probe:
    """A stand-in ``repro`` object for the self-test."""

    __module__ = "repro.synthetic"

    def __init__(self) -> None:
        self.log: list[dict[str, int]] = []
        self.cache: dict[str, list[int]] = {}
        self.count = 0


def test_census_and_verdict_self_test():
    probes = [_Probe(), _Probe()]

    def step(n):
        for probe in probes:
            probe.log.append({"n": n})  # grows: one entry plus its nested dict
            probe.cache["warm"] = [1, 2]  # filled once, then steady
            probe.count += 1  # a scalar is not a container

    step(1)
    before = census(probes)
    step(2)
    after = census(probes)
    # Summed over both instances; nested plain containers count too.
    assert before["_Probe.log"] == 2 * (1 + 1)
    assert after["_Probe.log"] == 2 * (2 + 2)
    assert before["_Probe.cache"] == after["_Probe.cache"] == 2 * (1 + 2)
    assert "_Probe.count" not in after

    assert verdict(before, after, {}) == ({"_Probe.log": (4, 8)}, [])
    assert verdict(before, after, {"_Probe.log": ("x", "y")}) == ({}, [])
    assert verdict(before, after, {"_Probe.log": ("x", "y"), "_Probe.cache": ("x", "y")}) == (
        {}, ["_Probe.cache"],
    )
