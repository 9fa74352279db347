"""The ledger's four pinned workloads, built from public pieces only.

Each workload is a ``setup(root, seed, scale)`` / ``run(world)`` pair:

* ``setup`` opens the database(s) under *root*, generates and stores the
  records, builds the :class:`~repro.cluster.ClusterHarness` and attaches
  the clients. It ends before the first client op.
* ``run`` is the timed window: from the first client op to quiescence.
  It fills ``world.outcome`` (an :class:`Outcome`) with everything the
  metrics are computed from, and counts every correctness violation into
  ``outcome.failed``.

An *op* is one client request: join, leave, choice, operation,
annotation, subscribe, unsubscribe. ``--seed`` reaches only the
generators (``consultation_events`` and this module's own
``random.Random``): the program under test sees generated inputs, never
the seed or a workload name. It varies ``cluster_rooms`` and
``edit_storm``; ``megaconf_day`` and ``chaos_repair`` are pinned, because
on other inputs their ops fail today (README, "Known issues"). ``scale``
shrinks a workload for the smoke test; the pinned shape is ``scale=1.0``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from repro import obs
from repro.chaos import FaultPlan
from repro.cluster import AdmissionConfig, ClusterConfig, ClusterHarness
from repro.db import Database, MultimediaObjectStore
from repro.workloads import (
    build_conference_schedule,
    consultation_events,
    generate_record,
    primitive_paths,
    run_chaos_conference,
)

#: The document corpus is pinned (E16/E17's record seed): payload sizes
#: set the byte volume of every run, so they stay comparable across
#: ``--seed`` values, which vary what the viewers *do* with the records.
CORPUS_SEED = 17


@dataclass
class Outcome:
    """What one run produced, before it is turned into metrics."""

    attempted: int = 0
    #: Correctness violations, one line each; ``failed`` is their count.
    violations: list[str] = field(default_factory=list)
    network_messages: int = 0
    wire_bytes: int = 0
    #: Simulated seconds, one sample per completed join.
    join_latency_s: list[float] = field(default_factory=list)
    #: Simulated seconds, action -> first update at the actor.
    response_s: list[float] = field(default_factory=list)
    #: Choice/operation events issued and the simulated makespan of the
    #: phase that carried them (E11/E16's throughput figure).
    events: int = 0
    event_phase_sim_s: float = 0.0
    #: Wall seconds of each segment of the timed window, in order. The
    #: segments tile the window and hold the same work in every rep of
    #: one input, which is what lets ``ledger.py`` take best-of by segment.
    segments_s: list[float] = field(default_factory=list)
    #: Closed loop only: the op kind each segment issued and drained.
    segment_kinds: list[str] = field(default_factory=list)
    #: Fail-stop instant -> failover completed, simulated seconds.
    failover_sim_s: list[float] = field(default_factory=list)
    queue_peak_depth: int = 0

    @property
    def failed(self) -> int:
        return len(self.violations)

    def fail(self, what: str) -> None:
        self.violations.append(what)


@dataclass
class World:
    """Everything ``setup`` built and ``run`` drives."""

    run: Callable[["World"], None]
    databases: list[Database]
    harness: ClusterHarness | None = None
    clients: dict[str, Any] = field(default_factory=dict)
    state: dict[str, Any] = field(default_factory=dict)
    outcome: Outcome = field(default_factory=Outcome)

    def close(self) -> None:
        for db in self.databases:
            db.close()


class _Laps:
    """Cuts the timed window into back-to-back segments."""

    def __init__(self, out: Outcome) -> None:
        self._segments = out.segments_s
        self._mark = perf_counter()

    def lap(self) -> None:
        now = perf_counter()
        self._segments.append(now - self._mark)
        self._mark = now


#: Clock events per segment of a drain: a few milliseconds of work, far
#: shorter than the seconds-long slow phases of the shared box.
_EVENTS_PER_SEGMENT = 256
#: ``SimClock.run``'s guard against an event that always schedules another.
_MAX_EVENTS = 1_000_000


def _drain(harness: ClusterHarness, laps: _Laps) -> None:
    """``harness.run()`` cut into laps of ``_EVENTS_PER_SEGMENT`` clock events.

    ``SimClock.run`` cannot stop after n events (its ``max_events`` raises),
    so this steps the clock itself and keeps the same runaway guard.
    """
    step = harness.clock.step
    for _ in range(_MAX_EVENTS // _EVENTS_PER_SEGMENT):
        for _ in range(_EVENTS_PER_SEGMENT):
            if not step():
                laps.lap()
                return
        laps.lap()
    raise RuntimeError(f"simulation exceeded {_MAX_EVENTS} events")


def _scaled(value: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(value * scale))


def _open_store(root: str, name: str) -> tuple[Database, MultimediaObjectStore]:
    db = Database(os.path.join(root, name))
    return db, MultimediaObjectStore(db)


def _collect_harness(out: Outcome, harness: ClusterHarness) -> None:
    """Add one harness's network totals and deepest shard queue to *out*."""
    out.network_messages += harness.network.stats.messages
    out.wire_bytes += harness.network.stats.bytes_total
    out.queue_peak_depth = max(
        [out.queue_peak_depth]
        + [shard.queue.max_pending for shard in harness.shards.values()]
    )


def _collect_clients(world: World) -> None:
    """Client-visible errors and response times of ``world.clients``."""
    out = world.outcome
    for client in world.clients.values():
        for error in client.errors:
            out.fail(f"client {client.viewer_id}: error {error}")
        for failure in client.delivery_failures:
            out.fail(f"client {client.viewer_id}: delivery failed {failure}")
        out.response_s.extend(client.response_times)


def _admission_residue(harness: ClusterHarness) -> int:
    nodes = list(harness.shards.values()) + list(harness.gateways.values())
    return sum(node.admission.parked_count for node in nodes if node.admission)


# ----- megaconf_day ------------------------------------------------------------------

#: How long a speaker whose join is still deferred waits before trying
#: its choice again (same policy as ``repro.workloads.megaconf``).
_SPEAKER_RETRY_S = 0.25
_SPEAKER_RETRY_LIMIT = 120


def setup_megaconf_day(root: str, seed: int, scale: float = 1.0) -> World:
    """E17 scaled up: 96 attendees, 16 track rooms and a keynote crowd.

    Pinned: *seed* is not used (see the module docstring).
    """
    schedule = build_conference_schedule(
        tracks=_scaled(8, scale, 2),
        slots_per_track=2,
        attendees_per_session=_scaled(12, scale, 2),
        events_per_session=_scaled(8, scale, 2),
        keynote_events=_scaled(16, scale, 2),
        keynote_window_s=0.25,
        drain_s=60.0,
    )
    config = ClusterConfig(
        shards=4,
        gateways=2,
        service_rate=240.0,
        admission=AdmissionConfig(
            depth_defer=8, depth_shed=16, defer_limit=1024, retry_after_s=0.25
        ),
    )
    db, store = _open_store(root, "megaconf_day")
    streams: dict[str, list[tuple[str, str]]] = {}
    for index, slot in enumerate(schedule.slots):
        record = generate_record(
            slot.doc_id, sections=3, components_per_section=4, seed=CORPUS_SEED + index
        )
        store.store_document(record)
        streams[slot.doc_id] = consultation_events(
            record, num_events=slot.events, seed=37 + CORPUS_SEED + index
        )
    harness = ClusterHarness(store, config)
    clients = {name: harness.add_client(name) for name in schedule.attendees}
    return World(
        run=_run_megaconf_day,
        databases=[db],
        harness=harness,
        clients=clients,
        state={"schedule": schedule, "streams": streams},
    )


def _run_megaconf_day(world: World) -> None:
    """Open loop on the sim clock: the whole day is plotted, then run."""
    harness, clients, out = world.harness, world.clients, world.outcome
    laps = _Laps(out)
    clock = harness.clock
    schedule = world.state["schedule"]
    pending: list[Any] = []
    first_event_at = min(
        slot.start_s + slot.join_window_s for slot in schedule.slots
    )

    def speaker_choice(speaker: Any, path: str, value: str) -> Callable[[], None]:
        retries = [0]

        def fire() -> None:
            if speaker.session_id is None:
                retries[0] += 1
                if retries[0] <= _SPEAKER_RETRY_LIMIT:
                    clock.schedule(_SPEAKER_RETRY_S, fire)
                else:
                    out.fail(f"speaker {speaker.viewer_id}: choice never issued")
                return
            speaker.choose(path, value)

        return fire

    def close_slot(slot: Any) -> Callable[[], None]:
        def collect() -> None:
            for name in slot.attendees:
                client = clients[name]
                if client.join_latency is not None:
                    out.join_latency_s.append(client.join_latency)
                    client.join_latency = None
                else:
                    pending.append(client)  # deferred or mid-rejoin
                if not slot.keynote:
                    if client.session_id is not None:
                        client.leave()
                    else:
                        out.fail(f"{name}: not in {slot.doc_id} at its close")

        return collect

    for slot in schedule.slots:
        count = len(slot.attendees)
        for j, name in enumerate(slot.attendees):
            join_at = slot.start_s + slot.join_window_s * j / count
            clock.schedule_at(
                join_at, lambda c=clients[name], d=slot.doc_id: c.join(d)
            )
        speaker = clients[slot.attendees[0]]
        talk_start = slot.start_s + slot.join_window_s
        talk_s = slot.duration_s - slot.join_window_s
        events = world.state["streams"][slot.doc_id]
        for i, (path, value) in enumerate(events):
            at = talk_start + talk_s * (i + 0.5) / len(events)
            clock.schedule_at(at, speaker_choice(speaker, path, value))
        clock.schedule_at(slot.end_s, close_slot(slot))
        out.attempted += count + len(events) + (0 if slot.keynote else count)
        out.events += len(events)
    _drain(harness, laps)

    for client in pending:
        if client.join_latency is not None:
            out.join_latency_s.append(client.join_latency)
        else:
            out.fail(f"{client.viewer_id}: late join (never acked)")
    residue = _admission_residue(harness)
    if residue:
        out.fail(f"admission: {residue} requests still parked")
    out.event_phase_sim_s = clock.now - first_event_at
    _collect_clients(world)
    _collect_harness(out, harness)
    laps.lap()


# ----- cluster_rooms -----------------------------------------------------------------


def setup_cluster_rooms(root: str, seed: int, scale: float = 1.0) -> World:
    """E16 scaled up: many small rooms behind 8 shards and 4 gateways."""
    rooms = _scaled(32, scale, 2)
    events_per_room = _scaled(32, scale, 4)
    config = ClusterConfig(shards=8, gateways=4, service_rate=200.0, route_rate=400.0)
    db, store = _open_store(root, "cluster_rooms")
    streams: dict[str, list[tuple[str, str]]] = {}
    for index in range(rooms):
        doc_id = f"case-{index}"
        record = generate_record(
            doc_id, sections=2, components_per_section=3, seed=CORPUS_SEED + index
        )
        store.store_document(record)
        streams[doc_id] = consultation_events(
            record, num_events=events_per_room, seed=37 + seed + index
        )
    harness = ClusterHarness(store, config)
    members = {
        doc_id: [harness.add_client(f"viewer-{index}-{j}") for j in range(4)]
        for index, doc_id in enumerate(streams)
    }
    return World(
        run=_run_cluster_rooms,
        databases=[db],
        harness=harness,
        clients={c.viewer_id: c for room in members.values() for c in room},
        state={"streams": streams, "members": members},
    )


def _run_cluster_rooms(world: World) -> None:
    """All joins, drain, then every room's choice stream issued at once."""
    harness, out = world.harness, world.outcome
    laps = _Laps(out)
    members, streams = world.state["members"], world.state["streams"]
    for doc_id, room in members.items():
        for client in room:
            client.join(doc_id)
            out.attempted += 1
    _drain(harness, laps)
    for client in world.clients.values():
        if client.join_latency is not None:
            out.join_latency_s.append(client.join_latency)
        else:
            out.fail(f"{client.viewer_id}: late join (never acked)")
    joined_at = harness.clock.now
    for doc_id, events in streams.items():
        writer = members[doc_id][0]
        for path, value in events:
            writer.choose(path, value)
        out.attempted += len(events)
        out.events += len(events)
    _drain(harness, laps)
    out.event_phase_sim_s = harness.clock.now - joined_at
    _collect_clients(world)
    _collect_harness(out, harness)
    laps.lap()


# ----- edit_storm --------------------------------------------------------------------

#: The closed loop's op mix, in shares of the step count. The deck is
#: dealt exactly (600/180/120/120/120/60 at 1,200 steps) and shuffled by
#: the seed, so the count of expensive global operations does not swing
#: between seeds; only their order and targets do.
EDIT_STORM_MIX = (
    ("choice", 0.50),
    ("operation_local", 0.15),
    ("operation_global", 0.10),
    ("annotate", 0.10),
    ("subscribe", 0.10),
    ("unsubscribe", 0.05),
)
EDIT_STORM_STEPS = 1200


def setup_edit_storm(root: str, seed: int, scale: float = 1.0) -> World:
    """Four long-lived rooms of eight members; writes beside reads."""
    config = ClusterConfig(shards=2, gateways=1, interest_mode="cpnet")
    db, store = _open_store(root, "edit_storm")
    rooms: list[dict[str, Any]] = []
    for index in range(4):
        doc_id = f"storm-{index}"
        record = generate_record(
            doc_id, sections=4, components_per_section=4, seed=CORPUS_SEED + index
        )
        store.store_document(record)
        paths = primitive_paths(record)
        rooms.append(
            {
                "doc_id": doc_id,
                "paths": paths,
                "domains": {p: record.network.variable(p).domain for p in paths},
            }
        )
    harness = ClusterHarness(store, config)
    for index, room in enumerate(rooms):
        room["members"] = [
            harness.add_client(f"editor-{index}-{j}") for j in range(8)
        ]
    steps = _scaled(EDIT_STORM_STEPS, scale, 60)
    deck = [
        kind for kind, share in EDIT_STORM_MIX for _ in range(round(steps * share))
    ]
    rng = random.Random(seed)
    rng.shuffle(deck)
    return World(
        run=_run_edit_storm,
        databases=[db],
        harness=harness,
        clients={c.viewer_id: c for room in rooms for c in room["members"]},
        state={"rooms": rooms, "deck": deck, "rng": rng},
    )


def _run_edit_storm(world: World) -> None:
    """Closed loop, one client, one op outstanding, timed per op."""
    harness, out = world.harness, world.outcome
    rooms, rng = world.state["rooms"], world.state["rng"]
    laps = _Laps(out)
    for room in rooms:
        for client in room["members"]:
            client.join(room["doc_id"])
            harness.run()
            laps.lap()
            out.segment_kinds.append("join")
            out.attempted += 1
            if client.join_latency is not None:
                out.join_latency_s.append(client.join_latency)
            else:
                out.fail(f"{client.viewer_id}: late join (never acked)")
    joined_at = harness.clock.now
    for step, kind in enumerate(world.state["deck"]):
        room = rng.choice(rooms)
        member = rng.choice(room["members"])
        path = rng.choice(room["paths"])
        if kind == "choice":
            member.choose(path, rng.choice(room["domains"][path]))
        elif kind == "operation_local":
            member.operate(path, f"op{step}")
        elif kind == "operation_global":
            member.operate(path, f"op{step}", global_importance=True)
        elif kind == "annotate":
            member.annotate(path, {"text": f"note {step}"})
        elif kind == "subscribe":
            member.subscribe(rng.sample(room["paths"], 3))
        else:
            member.unsubscribe([path])
        harness.run()
        laps.lap()
        out.segment_kinds.append(kind)
    steps = len(world.state["deck"])
    out.attempted += steps
    out.events = steps
    out.event_phase_sim_s = harness.clock.now - joined_at
    _collect_clients(world)
    _collect_harness(out, harness)
    laps.lap()
    out.segment_kinds.append("collect")


# ----- chaos_repair ------------------------------------------------------------------

#: Fault rates of the chaos acceptance scenario (``repro.chaos.convergence``).
CHAOS_RATES = dict(drop_rate=0.06, dup_rate=0.05, reorder_rate=0.08, corrupt_rate=0.02)
#: Fault-plan seeds are pinned, and so are the records and choice streams
#: (``CORPUS_SEED``): which frames a plan hits decides whether today's
#: repair machinery converges, and that is ROADMAP item 4's to widen.
CHAOS_PLAN_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
_CRASH_EVENTS = ("cluster.shard_crash", "cluster.gateway_crash")
_HEALED_EVENTS = ("cluster.failover_complete", "cluster.gateway_failover_complete")


def _chaos_kwargs(scale: float) -> dict[str, Any]:
    return dict(
        num_shards=3,
        num_rooms=3,
        clients_per_room=4,
        events_per_room=_scaled(12, scale, 3),
        seed=CORPUS_SEED,
        crash_owner_of="case-0",
        gateway_crash=True,
        num_gateways=2,
    )


def setup_chaos_repair(root: str, seed: int, scale: float = 1.0) -> World:
    """Open every database and run the fault-free control conference.

    ``run_chaos_conference`` does its own record/harness set-up, so this
    workload's set-up is the database opens plus the control run (same
    crashes, no fault rates); the timed window is the seeded runs.
    Pinned: *seed* is not used (see the module docstring).
    """
    plan_seeds = CHAOS_PLAN_SEEDS[: _scaled(len(CHAOS_PLAN_SEEDS), scale, 2)]
    databases, stores = [], []
    for name in ("control", *(f"plan-{s}" for s in plan_seeds)):
        db, store = _open_store(root, f"chaos_repair-{name}")
        databases.append(db)
        stores.append(store)
    kwargs = _chaos_kwargs(scale)
    control = run_chaos_conference(stores[0], plan=None, **kwargs)
    world = World(
        run=_run_chaos_repair,
        databases=databases,
        state={
            "stores": stores[1:],
            "plan_seeds": plan_seeds,
            "kwargs": kwargs,
            "control": control["displayed"],
        },
    )
    if control["errors"]:
        world.outcome.fail(f"control run: errors {control['errors']}")
    return world


def _run_chaos_repair(world: World) -> None:
    """The seeded conferences, each checked against the control run."""
    out = world.outcome
    control, kwargs = world.state["control"], world.state["kwargs"]
    crashed_at: dict[str, float] = {}

    def on_event(event: Any) -> None:
        # Event stamps are sim-clock: fail-stop instant -> failover done.
        if event.name in _CRASH_EVENTS:
            node = event.fields.get("shard") or event.fields.get("gateway")
            crashed_at[node] = event.at
        elif event.name in _HEALED_EVENTS:
            node = event.fields.get("primary") or event.fields.get("gateway")
            since = crashed_at.pop(node, None)
            if since is None:  # e.g. a false suspicion during the partition
                out.fail(f"failover completed for {node}, which never crashed")
            else:
                out.failover_sim_s.append(event.at - since)

    log = obs.get_event_log()
    log.subscribe(on_event)
    laps = _Laps(out)
    try:
        for plan_seed, store in zip(world.state["plan_seeds"], world.state["stores"]):
            plan = FaultPlan(seed=plan_seed, **CHAOS_RATES)
            result = run_chaos_conference(store, plan=plan, partition=True, **kwargs)
            tag = f"plan {plan_seed}"
            harness = result["harness"]
            clients = list(harness.clients.values())
            events = kwargs["num_rooms"] * kwargs["events_per_room"]
            out.attempted += len(clients) + events
            out.events += events
            out.event_phase_sim_s += result["sim_seconds"]
            # Frames that died with a crashed node are healed by the
            # failover replay; the result lists only the unhealed ones.
            for failure in result["delivery_failures"]:
                out.fail(f"{tag}: delivery failed {failure}")
            for error in result["errors"]:
                out.fail(f"{tag}: client error {error}")
            for viewer, shown in result["displayed"].items():
                if shown != control[viewer]:
                    diff = {
                        path: (value, control[viewer].get(path))
                        for path, value in shown.items()
                        if control[viewer].get(path) != value
                    }
                    out.fail(f"{tag}: {viewer} diverged from control: {diff}")
                elif not result["fully_rendered"][viewer]:
                    out.fail(f"{tag}: {viewer} not fully rendered")
            if crashed_at:
                out.fail(f"{tag}: no failover completed for {sorted(crashed_at)}")
                crashed_at.clear()
            for client in clients:
                if client.join_latency is not None:
                    out.join_latency_s.append(client.join_latency)
                else:
                    out.fail(f"{tag}: {client.viewer_id}: late join (never acked)")
                out.response_s.extend(client.response_times)
            _collect_harness(out, harness)
            laps.lap()
    finally:
        log.unsubscribe(on_event)


WORKLOADS: dict[str, Callable[[str, int, float], World]] = {
    "megaconf_day": setup_megaconf_day,
    "cluster_rooms": setup_cluster_rooms,
    "edit_storm": setup_edit_storm,
    "chaos_repair": setup_chaos_repair,
}
