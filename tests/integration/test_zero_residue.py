"""Zero residue, checked reflectively.

ROADMAP's third north-star promise: after any join/leave/close sequence
— a refused join included — "every per-session and per-room structure
is empty". Every earlier
lifecycle leak (PRs 6, 7, 10, 17) was found by reading, against a
hand-written list of structures somebody remembered. This probe keeps no
list: it runs a small clustered conference to its end, then walks
*everything reachable from the harness* and fails on any string that
still names a departed session or a closed room.

What is known to survive is allow-listed below, one line each with the
reason and the ROADMAP item that owns the fix. The probe also fails when
an allow-list entry no longer holds residue, so the list can only shrink.
It is written to be called after any step of ROADMAP item 1's state
machine: :func:`residue` takes any root and any set of dead ids.
"""

from __future__ import annotations

import types
from collections import deque
from functools import partial

from repro import obs
from repro.cluster import ClusterConfig, ClusterHarness
from repro.cluster.admission import AdmissionConfig
from repro.cpnet import CPNet, ViewerExtension
from repro.cpnet.compiled import (
    CachedCompletion,
    CompiledCPNet,
    CompiledExtension,
    CompletionCache,
)
from repro.db import Database, MultimediaObjectStore
from repro.document import MultimediaDocument
from repro.presentation.spec import PresentationView
from repro.server.room import Room
from repro.workloads import generate_record

#: ``Class.attribute`` → why ids of the departed may stay behind it.
#: Nothing here concerns completions, overlays, compilations or per-room /
#: per-document series: those must leave no trace.
ALLOWED = {
    "ClientModule._wire_table":
        "the client's own uplink string table: one connection's, reset by its next join",
    "EventLog._events":
        "the flight recorder is a bounded ring of past events, by design",
    "ShardServer._op_seen":
        "item 1: the duplicate-LEAVE fence needs an expiry, not a pop",
    "ShardServer._room_history":
        "item 2: a closed room's full op history outlives the room",
    "ReplicaState.applied_log":
        "item 2: the standby keeps the same history, logged",
}

#: What only an open room may keep alive.
ROOM_OWNED = (
    Room, MultimediaDocument, CPNet, ViewerExtension, CompiledCPNet,
    CompiledExtension, CompletionCache, CachedCompletion, PresentationView,
)

_ATOMS = (str, bytes, int, float, complex, bool, type(None), type, types.ModuleType)


def _children(obj):
    """``(hop, child)`` for everything *obj* holds; a hop is
    ``Class.attribute`` for an attribute of a ``repro`` object and
    ``None`` for container membership."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield None, key
            yield None, value
    elif isinstance(obj, (list, tuple, set, frozenset, deque)):
        for item in obj:
            yield None, item
    elif isinstance(obj, types.FunctionType):
        for cell in obj.__closure__ or ():
            try:
                yield None, cell.cell_contents
            except ValueError:  # an empty cell
                pass
    elif isinstance(obj, types.MethodType):
        yield None, obj.__self__
        yield None, obj.__func__
    elif isinstance(obj, partial):
        yield None, obj.func
        yield None, obj.args
        yield None, obj.keywords
    elif type(obj).__module__.split(".")[0] == "repro":
        names = list(getattr(obj, "__dict__", ()))
        for klass in type(obj).__mro__:
            slots = klass.__dict__.get("__slots__", ())
            names.extend((slots,) if isinstance(slots, str) else slots)
        for name in names:
            try:
                child = getattr(obj, name)
            except AttributeError:  # an unset slot
                continue
            yield f"{type(obj).__name__}.{name}", child


def walk(root, skip=frozenset()):
    """``(attribute chain, thing)`` for every reference reachable from
    *root* (descending into each object once), never looking behind
    the attributes named in *skip*."""
    seen = {id(root)}
    stack = [(root, ())]
    while stack:
        obj, chain = stack.pop()
        for hop, child in _children(obj):
            if hop in skip:
                continue
            via = chain if hop is None else chain + (hop,)
            yield via, child
            if not isinstance(child, _ATOMS) and id(child) not in seen:
                seen.add(id(child))
                stack.append((child, via))


def residue(root, dead_ids, skip=frozenset()):
    """``{attribute chain: example}`` for every way a string naming one
    of *dead_ids* is still reachable from *root*."""
    found: dict[str, str] = {}
    for chain, thing in walk(root, skip):
        if isinstance(thing, str) and any(dead in thing for dead in dead_ids):
            found.setdefault(" > ".join(chain), thing)
    return found


def run_conference(harness, doc_ids):
    """A refused join, then three rooms of four: every kind of op, then
    everyone leaves. Returns the ids of every session and room that
    existed."""
    # The refused JOIN is the first its shard serves: the session it
    # connected before the document lookup failed is that shard's first.
    refused = harness.add_client("refused-viewer")
    refused.join("no-such-doc")
    harness.run()
    assert refused.session_id is None and refused.errors
    dead = {f"{harness.owner_of('no-such-doc')}:session-1"}
    members = {
        doc_id: [harness.add_client(f"{doc_id}-viewer-{j}") for j in range(4)]
        for doc_id in doc_ids
    }
    for doc_id, clients in members.items():
        for client in clients:
            client.join(doc_id)
            harness.run()
            assert client.session_id and client.room_id
            dead |= {client.session_id, client.room_id}
    for doc_id, clients in members.items():
        document = harness.store.fetch_document(doc_id)
        paths = [
            path for path in document.component_paths()
            if len(document.network.variable(path).domain) > 1
        ]
        first, second, third, fourth = clients
        first.choose(paths[0], document.network.variable(paths[0]).domain[-1])
        second.choose(
            paths[1], document.network.variable(paths[1]).domain[-1], scope="personal"
        )
        harness.run()
        third.operate(paths[2], "zoom")
        fourth.operate(paths[0], "segment", global_importance=True)
        harness.run()
        first.annotate(paths[1], {"text": "see here"})
        second.subscribe(paths[:2], replace=True)
        third.subscribe(paths[1:3])
        harness.run()
        third.unsubscribe([paths[1]])
        second.unsubscribe()
        first.choose(paths[2], document.network.variable(paths[2]).domain[0])
        harness.run()
    for clients in members.values():
        for client in clients:
            client.leave()
            harness.run()
    harness.run()
    for shard in harness.shards.values():
        assert shard.server.room_ids == ()
        for primary_id in harness.shards:
            standby = shard.standby_for(primary_id)
            assert standby is None or standby.server.room_ids == ()
    return dead


def test_a_finished_conference_leaves_nothing_that_names_it(tmp_path):
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
            )
            dead = run_conference(harness, doc_ids)
            assert len(dead) == 1 + 12 + 3
            root = (harness, registry, log)
            unexpected = residue(root, dead, skip=frozenset(ALLOWED))
            assert unexpected == {}, (
                "state naming a departed session or a closed room is still "
                f"reachable from the harness: {unexpected}"
            )
            # Nothing a room owned is held either: with the rooms went
            # their documents, compilations, completions and views.
            held = {
                type(thing).__name__
                for _, thing in walk(root, skip=frozenset(ALLOWED))
                if isinstance(thing, ROOM_OWNED)
            }
            assert held == set()
            # The allow-list may only shrink: an entry that no longer
            # holds residue has been fixed and must be deleted here.
            stale = [
                hop
                for hop in ALLOWED
                if not residue(
                    [thing for chain, thing in walk(root) if chain[-1:] == (hop,)],
                    dead,
                )
            ]
            assert stale == []
        finally:
            db.close()
