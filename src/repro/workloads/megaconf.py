"""Schedule-driven mega-conference workload: flash crowds on purpose.

A real multi-track conference is nothing like the uniform room workloads
the cluster grew up on: parallel tracks of small rooms, a keynote flash
crowd where *everyone* joins one room inside a narrow window, and
session-boundary migration where every attendee changes rooms at once.
This module drives the cluster through a whole conference day from a
declarative schedule spec:

* :class:`SessionSlot` / :class:`ConferenceSchedule` — the spec: who is
  in which room, when joins open, when the speaker talks, when everyone
  migrates. :func:`build_conference_schedule` generates a deterministic
  multi-track day whose keynote join rate is >=10x the steady-state
  track rate (the overload that admission control exists to absorb).
* :func:`run_megaconf` — pre-plots the whole day on the simulated clock
  (joins staggered across each slot's window, speaker choices through
  each session, leaves and migrations at the boundaries), runs it, and
  reports p50/p99 join latency split into track vs keynote phases plus
  the cluster's admission/queue accounting.
* :func:`run_megaconf_convergence` — the chaos variant, plotted the
  same way: a seeded fault window (and optionally a gateway crash)
  during the keynote, under the reliable transport, returning
  the same result shape as :func:`repro.workloads.chaos
  .run_chaos_conference` so the convergence harness can require the run
  to end byte-identical to its fault-free control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.chaos.plan import FaultPlan
from repro.cluster.admission import LANE_CONTROL, SHED, AdmissionConfig
from repro.cluster.config import ClusterConfig
from repro.cluster.harness import ClusterHarness
from repro.db.orm import MultimediaObjectStore
from repro.workloads.chaos import convergence_result
from repro.workloads.records import generate_record
from repro.workloads.sessions import consultation_events

#: Idle time between one wave of track sessions and the next.
GAP_S = 1.0


@dataclass(frozen=True)
class SessionSlot:
    """One scheduled session: a room, its attendees, and its timing."""

    doc_id: str
    track: int
    start_s: float
    join_window_s: float
    duration_s: float
    attendees: tuple[str, ...]
    events: int
    keynote: bool = False

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def join_rate(self) -> float:
        """Joins per second this slot throws at the cluster."""
        return len(self.attendees) / max(self.join_window_s, 1e-9)


@dataclass(frozen=True)
class ConferenceSchedule:
    """A full conference day as an ordered tuple of session slots."""

    slots: tuple[SessionSlot, ...]
    horizon_s: float

    @property
    def attendees(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for slot in self.slots:
            for attendee in slot.attendees:
                seen.setdefault(attendee)
        return tuple(seen)

    @property
    def docs(self) -> tuple[str, ...]:
        return tuple(slot.doc_id for slot in self.slots)

    @property
    def keynote(self) -> SessionSlot | None:
        for slot in self.slots:
            if slot.keynote:
                return slot
        return None

    @property
    def steady_join_rate(self) -> float:
        """Aggregate join rate of one wave of parallel track sessions."""
        rates = [s.join_rate for s in self.slots if not s.keynote]
        if not rates:
            return 0.0
        tracks = len({s.track for s in self.slots if not s.keynote})
        return sum(rates) / max(1, len(rates)) * tracks

    @property
    def keynote_join_ratio(self) -> float | None:
        """Keynote join rate over steady-state — the flash-crowd factor."""
        keynote = self.keynote
        steady = self.steady_join_rate
        if keynote is None or steady <= 0:
            return None
        return keynote.join_rate / steady


def build_conference_schedule(
    tracks: int = 3,
    slots_per_track: int = 2,
    attendees_per_session: int = 4,
    session_s: float = 4.0,
    join_window_s: float = 3.0,
    keynote_window_s: float = 0.25,
    keynote_s: float = 6.0,
    events_per_session: int = 4,
    keynote_events: int = 6,
    drain_s: float = 10.0,
) -> ConferenceSchedule:
    """A deterministic multi-track day ending in a keynote flash crowd.

    Every attendee sits in exactly one track session per wave; at each
    session boundary the track assignment rotates, so the whole pool
    migrates rooms at once (the churn consistent hashing cannot spread).
    The keynote packs the *entire* pool into one room inside
    ``keynote_window_s`` — with the defaults that is 48 joins/s against
    a 4/s steady state, a 12x flash crowd.
    """
    pool = [f"a-{i}" for i in range(tracks * attendees_per_session)]
    period = join_window_s + session_s + GAP_S
    slots: list[SessionSlot] = []
    for wave in range(slots_per_track):
        start = wave * period
        for track in range(tracks):
            attendees = tuple(
                pool[i]
                for i in range(len(pool))
                if ((i // attendees_per_session) + wave) % tracks == track
            )
            slots.append(
                SessionSlot(
                    doc_id=f"track{track}-s{wave}",
                    track=track,
                    start_s=start,
                    join_window_s=join_window_s,
                    duration_s=join_window_s + session_s,
                    attendees=attendees,
                    events=events_per_session,
                )
            )
    keynote_start = slots_per_track * period
    slots.append(
        SessionSlot(
            doc_id="keynote",
            track=-1,
            start_s=keynote_start,
            join_window_s=keynote_window_s,
            duration_s=keynote_window_s + keynote_s,
            attendees=tuple(pool),
            events=keynote_events,
            keynote=True,
        )
    )
    horizon = keynote_start + keynote_window_s + keynote_s + drain_s
    return ConferenceSchedule(slots=tuple(slots), horizon_s=horizon)


def percentile(samples: list[float], q: float) -> float | None:
    """Exact linear-interpolation percentile over raw samples."""
    if not samples:
        return None
    xs = sorted(samples)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


def _latency_summary(samples: list[float]) -> dict[str, Any]:
    return {
        "n": len(samples),
        "p50": percentile(samples, 0.50),
        "p99": percentile(samples, 0.99),
        "max": max(samples) if samples else None,
    }


def _admission_totals(harness: ClusterHarness) -> dict[str, Any]:
    controllers = [
        shard.admission for shard in harness.shards.values() if shard.admission
    ] + [gw.admission for gw in harness.gateways.values() if gw.admission]
    shed_by_lane: dict[str, int] = {}
    for controller in controllers:
        for lane, count in controller.by_lane[SHED].items():
            shed_by_lane[lane] = shed_by_lane.get(lane, 0) + count
    return {
        "accepted": sum(c.accepted for c in controllers),
        "deferred": sum(c.deferred for c in controllers),
        "shed": sum(c.shed for c in controllers),
        "resumed": sum(c.resumed for c in controllers),
        "dropped_dead": sum(c.dropped_dead for c in controllers),
        "shed_by_lane": shed_by_lane,
        "control_shed": shed_by_lane.get(LANE_CONTROL, 0),
        "max_depth_seen": max((c.max_depth_seen for c in controllers), default=0),
        "parked_residue": sum(c.parked_count for c in controllers),
    }


def _queue_depths(harness: ClusterHarness) -> dict[str, int]:
    depths = {
        shard_id: shard.queue.max_pending
        for shard_id, shard in harness.shards.items()
    }
    for gateway_id, gateway in harness.gateways.items():
        if gateway.queue is not None:
            depths[gateway_id] = gateway.queue.max_pending
    return depths


def _build_day(
    store: MultimediaObjectStore, schedule: ConferenceSchedule, config: ClusterConfig,
    seed: int, reliability: bool, plan: FaultPlan | None,
) -> tuple[ClusterHarness, dict[str, Any], dict[str, list[tuple[str, str]]]]:
    """Store one record per slot, then build the cluster and its attendees:
    ``(harness, clients by name, each room's speaker choice stream)``."""
    streams: dict[str, list[tuple[str, str]]] = {}
    for index, slot in enumerate(schedule.slots):
        record = generate_record(
            slot.doc_id, sections=2, components_per_section=3, seed=seed + index
        )
        store.store_document(record)
        streams[slot.doc_id] = consultation_events(
            record, num_events=max(1, slot.events), seed=37 + seed + index
        )
    harness = ClusterHarness(store, config, reliability=reliability, plan=plan)
    clients = {name: harness.add_client(name) for name in schedule.attendees}
    return harness, clients, streams


def _plot_slot(
    clock: Any, clients: dict[str, Any], stream: list[tuple[str, str]], slot: SessionSlot,
    opened: dict[tuple[SessionSlot, str], Any],
) -> None:
    """Schedule one slot's joins, staggered across its window, and its
    speaker's (the first attendee's) choices through the session. A
    choice made while the speaker's join is still pending waits on that
    membership for its ack, and dies with it if a later join supersedes it.
    Each join's membership lands in *opened* under ``(slot, attendee)``."""

    def join(name: str) -> None:
        clients[name].join(slot.doc_id)
        opened[slot, name] = clients[name].membership

    count = len(slot.attendees)
    for j, name in enumerate(slot.attendees):
        join_at = slot.start_s + slot.join_window_s * j / max(1, count)
        clock.schedule_at(join_at, lambda n=name: join(n))
    speaker = clients[slot.attendees[0]]
    talk_start = slot.start_s + slot.join_window_s
    talk_s = max(slot.duration_s - slot.join_window_s, 1e-6)
    for i, (path, value) in enumerate(stream[: slot.events]):
        at = talk_start + talk_s * (i + 0.5) / slot.events
        clock.schedule_at(at, lambda p=path, v=value: speaker.choose(p, v))


def run_megaconf(
    store: MultimediaObjectStore,
    schedule: ConferenceSchedule | None = None,
    config: ClusterConfig | None = None,
    seed: int = 0,
) -> dict[str, Any]:
    """Drive one conference day; report join latency and admission stats.

    The whole day is plotted on the simulated clock before it runs:
    joins staggered across each slot's window, one speaker (the slot's
    first attendee) issuing its choice stream through the session, every
    attendee leaving at the slot boundary and joining the next room.
    Each join's latency is read off the membership it opened once the day
    drains, split into ``track`` and ``keynote`` phases; a join never made
    current is *superseded* if its attendee joined again, else *late*.
    """
    if schedule is None:
        schedule = build_conference_schedule()
    if config is None:
        config = ClusterConfig(shards=4, gateways=2, admission=AdmissionConfig())
    harness, clients, streams = _build_day(store, schedule, config, seed, False, None)
    clock = harness.clock
    opened: dict[tuple[SessionSlot, str], Any] = {}

    def end(slot: SessionSlot) -> None:
        for name in slot.attendees:
            if not slot.keynote and clients[name].session_id is not None:
                clients[name].leave()

    for slot in schedule.slots:
        _plot_slot(clock, clients, streams[slot.doc_id], slot, opened)
        clock.schedule_at(slot.end_s, lambda s=slot: end(s))
    harness.run()

    join_samples: dict[str, list[float]] = {"track": [], "keynote": []}
    late_joins = superseded_joins = 0
    last_opened = {name: membership for (_, name), membership in opened.items()}
    for (slot, name), membership in opened.items():
        if membership.join_latency is not None:
            join_samples["keynote" if slot.keynote else "track"].append(membership.join_latency)
        elif last_opened[name] is not membership:
            superseded_joins += 1
        else:
            late_joins += 1

    all_clients = list(clients.values())
    result = {
        "harness": harness,
        "schedule": schedule,
        "join_latency": {
            phase: _latency_summary(samples)
            for phase, samples in join_samples.items()
        },
        "join_samples": join_samples,
        "late_joins": late_joins,
        "superseded_joins": superseded_joins,
        "admission": _admission_totals(harness),
        "queue_max_pending": _queue_depths(harness),
        "retry_afters": sum(sum(c.retry_afters.values()) for c in all_clients),
        "errors": [
            {"viewer": c.viewer_id, **error}
            for c in all_clients
            for error in c.errors
        ],
        "displayed": {c.viewer_id: c.displayed() for c in all_clients},
        "network_messages": harness.network.stats.messages,
        "network_bytes": harness.network.stats.bytes_total,
        "sim_seconds": clock.now,
    }
    harness.close()
    return result


#: Timing of the chaos window relative to the keynote slot start.
MEGACONF_PARTITION_LEN_S = 0.5
MEGACONF_GW_CRASH_AFTER_S = 3.0


def run_megaconf_convergence(
    store: MultimediaObjectStore,
    plan: FaultPlan | None = None,
    quick: bool = False,
    gateway_crash: bool = False,
) -> dict[str, Any]:
    """The keynote flash crowd under seeded chaos, convergence-shaped.

    Same contract as :func:`repro.workloads.chaos.run_chaos_conference`:
    with ``plan=None`` this is the fault-free control; a seeded run must
    end with byte-identical ``displayed`` state. The fault window (a
    partition between the keynote speaker's gateway and the keynote's
    owning shard) opens exactly over the keynote join window, and with
    ``gateway_crash=True`` that same gateway fail-stops mid-keynote —
    after the join wave has acked, so the failover replay (not a
    pending-join race) is what heals the crowd. Admission control is ON
    with a shed threshold high enough that only JOIN deferral engages:
    the flash crowd is absorbed by bounded deferral in both runs.
    """
    schedule = build_conference_schedule(
        tracks=2,
        slots_per_track=1 if quick else 2,
        attendees_per_session=2 if quick else 3,
        session_s=2.0,
        join_window_s=1.5,
        keynote_window_s=0.1,
        keynote_s=6.0,
        events_per_session=2,
        keynote_events=3 if quick else 5,
    )
    # service_rate vs the keynote wave is tuned so JOIN deferral really
    # engages (arrivals outpace 20 ops/s over the 0.1 s window) while
    # track-phase traffic clears the depth-2 threshold untouched.
    config = ClusterConfig(
        shards=3,
        gateways=2,
        service_rate=20.0,
        admission=AdmissionConfig(
            depth_defer=2,
            depth_shed=10_000,   # data ops never shed: deferral only
            defer_limit=10_000,  # joins never bounce: park, don't drop
        ),
    )
    harness, clients, streams = _build_day(store, schedule, config, 0, True, plan)
    clock = harness.clock

    keynote = schedule.keynote
    speaker_home = harness.home_of(keynote.attendees[0])
    gw_victim = speaker_home if gateway_crash else None
    if plan is not None:
        # The fault window crosses the keynote join wave: the speaker's
        # gateway loses sight of the keynote shard exactly while the
        # crowd stampedes in, so deferred joins and retransmits overlap.
        plan.partition(
            {speaker_home},
            {harness.owner_of(keynote.doc_id)},
            keynote.start_s,
            keynote.start_s + MEGACONF_PARTITION_LEN_S,
        )

    for slot in schedule.slots:
        _plot_slot(clock, clients, streams[slot.doc_id], slot, {})
        if not slot.keynote:
            def leave_all(s: SessionSlot = slot) -> None:
                for name in s.attendees:
                    if clients[name].session_id is not None:
                        clients[name].leave()
            clock.schedule_at(slot.end_s, leave_all)

    harness.start(until=schedule.horizon_s)
    if gw_victim is not None:
        harness.schedule_crash(
            gw_victim, keynote.start_s + MEGACONF_GW_CRASH_AFTER_S
        )
    harness.run()

    result = convergence_result(harness, list(clients.values()), None, gw_victim)
    result["admission"] = _admission_totals(harness)
    harness.close()
    return result
