"""The design budget: numbers ROADMAP says are tracked, tracked.

* Line count per package (``wc -l`` over ``src/repro/<package>/**/*.py``)
  is pinned. A change that moves a package's size — either way — edits
  its number here, in the same diff, where a reviewer sees it.
* No ``if``/``elif`` chain in the server, cluster or client packages
  tests a message kind with ``==`` in more than three arms: a longer one
  is a dispatch table written as control flow (ROADMAP item 7).
* The Python function calls one small clustered conference costs are
  capped: the cost of a message cannot creep back up unnoticed.
* The objects one op keeps alive while a cluster node holds it back —
  in a shard's or a gateway's service queue, or in admission's parking
  lot — are capped, so a backlog stays a list of records; a backlog
  holds what the node serves, not the transmissions that brought it.
* No ``.send(`` call in ``src/repro`` passes a keyword argument: a frame
  is the unit of transfer, so ``kind=``, ``payload=``, ``size_bytes=``
  and ``frame=`` cannot grow back beside it.
"""

import ast
import gc
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import pytest

from repro import obs
from repro.cluster import AdmissionConfig, ClusterConfig, ClusterHarness
from repro.cluster.shard import ShardServer
from repro.cluster.wire import ClientBound, ShardBound
from repro.db import Database, MultimediaObjectStore
from repro.net.codec import Frame, encode_message
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.net.simclock import SimClock
from repro.server.protocol import MessageKind
from tests.cluster.test_ring import ring_of
from tests.net.test_wire_identity import build_rooms_conference, drive_rooms_conference

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
OBS = str(Path(obs.__file__).parent)  # as the profiled frames name it

#: ``wc -l`` per package, as of the last change that touched it.
LINE_BUDGET = {
    "chaos": 598,
    "client": 1139,
    "cluster": 2618,
    "cpnet": 1925,
    "db": 1822,
    "document": 1133,
    "interest": 309,
    "media": 2981,
    "net": 2096,
    "obs": 1587,
    "prefetch": 169,
    "presentation": 846,
    "retrieval": 753,
    "server": 1660,
    "util": 301,
    "workloads": 1281,
}

MAX_KIND_ARMS = 3
DISPATCHING_PACKAGES = ("server", "cluster", "client")


def _packages() -> list[str]:
    return sorted(
        path.name for path in SRC.iterdir() if path.is_dir() and path.name != "__pycache__"
    )


def _wc_l(package: str) -> int:
    return sum(path.read_bytes().count(b"\n") for path in (SRC / package).rglob("*.py"))


def test_every_package_has_a_budget():
    assert _packages() == sorted(LINE_BUDGET)


@pytest.mark.parametrize("package", sorted(LINE_BUDGET))
def test_package_line_count(package):
    lines, ceiling = _wc_l(package), LINE_BUDGET[package]
    assert lines == ceiling, (
        f"src/repro/{package} is {lines} lines against a ceiling of {ceiling}: "
        "lower the ceiling or justify raising it in CHANGES.md"
    )


def _compares_a_kind(test: ast.expr) -> bool:
    """``... == MessageKind.X`` (either side) anywhere in an arm's test."""
    for node in ast.walk(test):
        if isinstance(node, ast.Compare) and any(isinstance(op, ast.Eq) for op in node.ops):
            for side in (node.left, *node.comparators):
                if (
                    isinstance(side, ast.Attribute)
                    and isinstance(side.value, ast.Name)
                    and side.value.id == "MessageKind"
                ):
                    return True
    return False


def _arms(statement: ast.If) -> list[ast.expr]:
    """The tests of one ``if`` and every ``elif`` hanging off it."""
    tests = [statement.test]
    while len(statement.orelse) == 1 and isinstance(statement.orelse[0], ast.If):
        statement = statement.orelse[0]
        tests.append(statement.test)
    return tests


def kind_chains(tree: ast.AST) -> list[tuple[int, int]]:
    """``(line, kind-testing arms)`` per chain: an ``if``/``elif`` ladder,
    or a run of sibling ``if`` statements (the early-return spelling)."""
    chains = []
    for node in ast.walk(tree):
        for block in ("body", "orelse", "finalbody"):
            statements = getattr(node, block, None)
            if not isinstance(statements, list):
                continue
            if block == "orelse" and isinstance(node, ast.If) and _arms(node)[1:]:
                continue  # an elif: already an arm of the ladder above it
            run: list[ast.If] = []
            for statement in [*statements, None]:
                if isinstance(statement, ast.If):
                    run.append(statement)
                    continue
                if run:
                    arms = sum(_compares_a_kind(t) for s in run for t in _arms(s))
                    chains.append((run[0].lineno, arms))
                    run = []
    return chains


def test_no_long_kind_chain():
    offenders = []
    for package in DISPATCHING_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            for line, arms in kind_chains(ast.parse(path.read_text())):
                if arms > MAX_KIND_ARMS:
                    offenders.append(f"{path.relative_to(SRC)}:{line} ({arms} arms)")
    assert not offenders, (
        f"kind == chains longer than {MAX_KIND_ARMS} arms (use a kind→handler table): "
        + ", ".join(offenders)
    )


def _keyword_sends(tree: ast.AST) -> list[int]:
    """Lines of every ``<anything>.send(...)`` call passing a keyword."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "send"
        and node.keywords
    ]


def test_every_send_takes_only_a_frame():
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _keyword_sends(ast.parse(path.read_text()))
    ]
    assert not offenders, (
        "send calls passing keywords (a send takes positional endpoints "
        "and one frame): " + ", ".join(offenders)
    )
    assert _keyword_sends(ast.parse("net.send(a, b, kind, payload=p)")) == [1]
    assert _keyword_sends(ast.parse("net.send(a, b, frame)")) == []


def test_the_chain_check_sees_both_spellings():
    def arms(source: str) -> list[int]:
        return [count for _, count in kind_chains(ast.parse(source))]

    ladder = (
        "if k == MessageKind.A: a()\nelif k == MessageKind.B: b()\n"
        "elif MessageKind.C == k: c()\nelif k == MessageKind.D: d()"
    )
    returns = "\n".join(f"if k == MessageKind.K{i}:\n    return {i}" for i in range(5))
    unrelated = "if x == 1: a()\nelif x == 2: b()\nelif x == 3: c()\nelif x == 4: d()"
    assert arms(ladder) == [4]
    assert arms(returns) == [5]
    assert arms(unrelated) == [0]


#: Python-level calls (``sys.setprofile`` "call" events) of the 3x3 rooms
#: conference, joins to quiescence. A change that lowers the count lowers
#: the ceiling with it; one that needs more says why in CHANGES.md.
ROOMS_CALL_CEILING = 34_728
#: Of those, the calls into ``repro/obs/``: histogram observes, per-op
#: counters, the delivery tracer's ``current`` checks, and the series
#: bound as owners are built. Exact. Binding through ``obs.Readers``, so
#: that an owner's close can unbind, takes two more calls per reader
#: bound: 1,684 became 1,738.
ROOMS_OBS_CALLS = 1_738


def test_the_rooms_conference_stays_inside_its_call_budget(tmp_path):
    """717 transmissions of ``tests/net/test_wire_identity.py``'s 3x3
    rooms script, counted from the first join to quiescence. The count
    repeats exactly from run to run. One link call, one tally and one
    scheduled call per transmission brought it from 61,659 to 49,595;
    taking the span tracer off the server's join and propagation paths
    brought it to 49,190; deleting the metric and event writes nothing
    reads (server, room, shard, gateway tier, admission) brought it to
    48,338; unpinning each payload that leaves a client's screen brought
    it to 48,392, where a queued op becoming one record left it (its
    queues are unrated: nothing waits); the client's one on-screen check
    per arriving payload, shared by its reply and shed-retry paths,
    brought it to 48,476; sends that take one frame and read its size
    instead of re-deriving it brought it to 48,131; a standby that replays
    its log only when it must brought it to 42,862; a shard that asks its
    server whether an op applied, instead of recording every frame it
    routes, and no telemetry channel on a server no monitor can reach
    brought it to 42,330; interest coverage as an index and routed
    copies written as a fixed header plus their frame brought it to
    40,869; a client that addresses the home it already resolved,
    instead of asking the network a second time, brought it to 40,662;
    reading gauges and owner-kept counts at snapshot instead of writing
    them beside the owner's own tally brought it to 38,881; counting the
    wire on its owners' integers (links, network stats, the codec's
    tally, the ARQ, the batcher, the gateway, the outbox, admission)
    instead of on registry counters brought it to 33,606, and its calls into
    ``repro/obs/`` from 6,170 to 1,684; from the 33,192 it read next,
    building each op's waiting record inside ``_submit``, with no
    ``_enqueue`` call per queued op, brought it to 33,075. The ceiling
    sits under 5% above that. From the 33,511 it read next, readers
    bound through ``obs.Readers`` brought it to 33,572."""
    calls = obs_calls = 0

    def count(frame, event, arg):
        nonlocal calls, obs_calls
        if event == "call":
            calls += 1
            obs_calls += frame.f_code.co_filename.startswith(OBS)

    with obs.use_registry(obs.MetricsRegistry()), obs.use_event_log(obs.EventLog()):
        db = Database(str(tmp_path / "rooms"))
        try:
            harness, rooms = build_rooms_conference(MultimediaObjectStore(db))
            sys.setprofile(count)
            try:
                drive_rooms_conference(harness, rooms)
            finally:
                sys.setprofile(None)
        finally:
            db.close()
    assert harness.network.stats.messages == 717
    assert calls <= ROOMS_CALL_CEILING, (
        f"{calls} Python calls against a ceiling of {ROOMS_CALL_CEILING}"
    )
    assert obs_calls == ROOMS_OBS_CALLS


#: GC-tracked objects one op a node holds back adds beyond its body: its
#: ``(ctx, kind, sender, body, since)`` record and, in a rated queue, its
#: clock heap entry. A closure over the op, its cells and a ``partial``
#: around it made 11; a shard's queued ``ShardBound``, a gateway's
#: ``(sender, kind, body)`` item and admission's ``(item, parked_at)``
#: pair (around a ``(sender, kind, item, ctx)`` tuple) made 3.
QUEUED_OP_OBJECTS = 2


def _rated_shard(store, admission=None):
    return ShardServer(
        "shard-1", store, SimulatedNetwork(SimClock()), "directory",
        ring_of(("shard-1",)), ring_of(("gw-1",)), service_rate=100.0,
        admission=admission,
    )


def _to_shard(shard, frame):
    shard.receive(
        Message("gw-1", shard.node_id, MessageKind.ROUTE, ShardBound("client-0", frame))
    )


def _queued_choices(store, burst):
    """A rated shard queues ``ROUTE``d choices: each waits as its frame."""
    shard = _rated_shard(store)
    bodies = [
        encode_message(MessageKind.CHOICE, {"session_id": "s-0", "op_seq": seq})
        for seq in range(burst + 1)
    ]
    return bodies, partial(_to_shard, shard), lambda: shard.queue.pending


def _queued_routes(store, burst):
    """A rated gateway queues client-bound ``ROUTE`` envelopes: each waits as
    its ``ClientBound``."""
    harness = ClusterHarness(store, ClusterConfig(shards=1, gateways=1, route_rate=10.0))
    gateway = harness.gateways["gw-1"]
    bodies = [
        ClientBound("client-0", 0, encode_message(
            MessageKind.PEER_EVENT,
            {"doc_id": "case-0", "seq": seq, "viewer": "v", "kind": "choice"},
        ))
        for seq in range(burst + 1)
    ]

    def deliver(body):
        gateway.receive(Message("shard-1", "gw-1", MessageKind.ROUTE, body))

    return bodies, deliver, lambda: gateway.queue.pending


def _parked_joins(store, burst):
    """Admission parks ``ROUTE``d JOINs behind one queued choice: each
    waits in the parking lot as its frame."""
    shard = _rated_shard(
        store, AdmissionConfig(depth_defer=1, depth_shed=1, defer_limit=burst + 1)
    )
    _to_shard(shard, encode_message(MessageKind.CHOICE, {"session_id": "s-0", "op_seq": 1}))
    bodies = [
        encode_message(MessageKind.JOIN, {"doc_id": "case-0", "viewer_id": f"v-{index}"})
        for index in range(burst + 1)
    ]
    return bodies, partial(_to_shard, shard), lambda: shard.admission.parked_count


@pytest.mark.parametrize(
    "hold", [_queued_choices, _queued_routes, _parked_joins],
    ids=["rated_shard", "rated_gateway", "parked_join"],
)
def test_a_queued_op_is_one_record(tmp_path, hold):
    """2,000 ops held back at one instant, each delivered in the
    transmission that brings it, counted with the collector off after a
    first op warms the path. The bodies exist before the count; a
    carrier (``Message``, ``ShardBound``) the node keeps counts against
    it. The count is exact and, unlike a byte count, does not move with
    the interpreter's free lists."""
    burst = 2_000
    with obs.use_registry(obs.MetricsRegistry()), obs.use_event_log(obs.EventLog()):
        db = Database(str(tmp_path / "held"))
        try:
            bodies, deliver, waiting = hold(MultimediaObjectStore(db), burst)
            deliver(bodies.pop())
            gc.collect()
            gc.disable()
            try:
                before = len(gc.get_objects())
                for body in bodies:
                    deliver(body)
                added = len(gc.get_objects()) - before
            finally:
                gc.enable()
            assert waiting() == burst + 1
        finally:
            db.close()
    assert added <= QUEUED_OP_OBJECTS * burst, (
        f"{added / burst:g} GC-tracked objects per held-back op against a cap of "
        f"{QUEUED_OP_OBJECTS}"
    )


def test_a_gateway_queues_what_it_routes_not_its_transmission(tmp_path):
    """A burst of client-bound ROUTEs waits in a rated gateway's queue.
    With the test's own references gone, the queue holds each one as
    the shard that sent it and the ``ClientBound`` it carries: no
    transmission (``Message``) and no ROUTE envelope frame stays alive,
    and the burst still reaches its client when the queue drains."""
    burst = 200
    with obs.use_registry(obs.MetricsRegistry()), obs.use_event_log(obs.EventLog()):
        db = Database(str(tmp_path / "gateway-queue"))
        try:
            harness = ClusterHarness(
                MultimediaObjectStore(db),
                ClusterConfig(shards=1, gateways=1, route_rate=10.0),
            )
            sink = _Sink("client-0")
            harness.network.attach_client(sink)
            harness.directory.attach_client(sink)
            shard, gateway = harness.shards["shard-1"], harness.gateways["gw-1"]
            for seq in range(burst):
                shard.route_to_client(sink.node_id, encode_message(
                    MessageKind.PEER_EVENT,
                    {"doc_id": "case-0", "seq": seq, "viewer": "v", "kind": "choice"},
                ))
            while gateway.queue.pending < burst:
                assert harness.clock.step()
            gc.collect()
            alive = [
                obj for obj in gc.get_objects()
                if isinstance(obj, Message)
                or (isinstance(obj, Frame) and obj.kind == MessageKind.ROUTE)
            ]
            assert gateway.queue.pending == burst
            assert alive == []
            harness.run()
        finally:
            db.close()
    assert sink.received == burst


#: One more recipient of a shard's fan-out, behind one gateway: the
#: five GC-tracked objects its copy holds in flight (the envelope frame,
#: its ``(to, size, frame)`` record, the message, its clock entry and
#: the entry's one callable), the bytes they hold (tracemalloc), and the
#: Python calls it costs from the shard's outbox to the client link, of
#: which the only ones into ``repro/obs/`` are its two transmissions'
#: ``net.queue_delay_s`` observes.
ROUTED_COPY_OBJECTS = 5
ROUTED_COPY_BYTES = 533
ROUTED_COPY_CALLS = 31
ROUTED_COPY_OBS_CALLS = {"observe": 2}


class _Sink:
    """A client that takes delivery and does nothing with it."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.received = 0

    def receive(self, message) -> None:
        self.received += 1


def test_a_routed_copy_is_a_header_plus_its_frame(tmp_path):
    """One frame fans out from a shard's outbox to 16 and then to 32
    recipients homed on one gateway, after a first fan-out to all of
    them (so every recipient is a known name on the shard→gateway
    table and a known owner on the gateway ring); the difference, over
    16, is the cost of one routed copy. Objects and the bytes tracemalloc
    traces are counted with the collector off right after the send,
    while the copies are on the backbone; calls from the send until
    every copy has reached its client. All three repeat exactly. A copy
    scheduled as ``partial(_deliver, message)`` held the partial, its
    args tuple and a bound method made per frame: 7 objects in 761 B,
    where one ``MethodType`` over the once-bound ``_deliver`` leaves 5
    in 569 B at the same calls; dropping the message's id (a tuple slot
    and, past the cached small ints, an int of its own) left 533 B.
    Before a routed copy became a header
    plus its frame, one cost 55 calls and also held 7 objects: a wrapper
    dict where the record is now, with its header dict already freed.
    Reading ``net.messages`` and ``net.bytes_total`` off the network's
    stats took each of its two transmissions' two increments, 49 to 45;
    counting the codec, the links and the gateway on their own integers
    took its ten counter increments and two registry lookups, 45 to 31."""
    n = 16
    with obs.use_registry(obs.MetricsRegistry()), obs.use_event_log(obs.EventLog()):
        db = Database(str(tmp_path / "fanout"))
        try:
            harness = ClusterHarness(
                MultimediaObjectStore(db), ClusterConfig(shards=1, gateways=1)
            )
            sinks = [_Sink(f"client-{index}") for index in range(2 * n)]
            for sink in sinks:
                harness.network.attach_client(sink)
                harness.directory.attach_client(sink)
            ids = [sink.node_id for sink in sinks]
            outbox = next(iter(harness.shards.values())).server.outbox
            cost = {}
            for count in (2 * n, n, 2 * n):  # the first fan-out warms up
                frame = encode_message(
                    MessageKind.PEER_EVENT,
                    {"doc_id": "case-0", "seq": len(cost), "viewer": "v", "kind": "choice"},
                )
                calls = 0
                obs_calls: dict[str, int] = {}

                def tally(frame, event, _arg):
                    nonlocal calls
                    if event == "call":
                        calls += 1
                        if frame.f_code.co_filename.startswith(OBS):
                            name = frame.f_code.co_name
                            obs_calls[name] = obs_calls.get(name, 0) + 1

                gc.collect()
                gc.disable()
                try:
                    before = len(gc.get_objects())
                    tracemalloc.start()
                    sys.setprofile(tally)
                    outbox.send(ids[:count], frame)
                    sys.setprofile(None)
                    held = tracemalloc.get_traced_memory()[0]
                    tracemalloc.stop()
                    objects = len(gc.get_objects()) - before
                    sys.setprofile(tally)
                    harness.run()
                finally:
                    sys.setprofile(None)
                    tracemalloc.stop()
                    gc.enable()
                cost[count] = (objects, calls, obs_calls, held)
        finally:
            db.close()
    objects = (cost[2 * n][0] - cost[n][0]) / n
    calls = (cost[2 * n][1] - cost[n][1]) / n
    held = (cost[2 * n][3] - cost[n][3]) / n
    assert (objects, held, calls) == (
        ROUTED_COPY_OBJECTS, ROUTED_COPY_BYTES, ROUTED_COPY_CALLS
    ), f"one routed copy holds {objects:g} objects in {held:g} B and costs {calls:g} calls"
    wide, narrow = cost[2 * n][2], cost[n][2]
    per_copy = {
        name: (wide.get(name, 0) - narrow.get(name, 0)) / n for name in {*wide, *narrow}
    }
    assert {name: c for name, c in per_copy.items() if c} == ROUTED_COPY_OBS_CALLS
