"""Chaos conferencing workload: the convergence acceptance scenario.

One conference, three phases of scripted choices, driven through a
sharded cluster whose network is (optionally) injecting faults from a
seeded :class:`~repro.chaos.FaultPlan`. The phases are placed on the
simulated clock so the interesting windows actually carry traffic:

- phase 1 runs to quiescence before fault windows open (a warm, stable
  baseline of rooms and sessions);
- phase 2 fires just before the partition window opens, so its frames
  are cut mid-flight and must be repaired by the reliable transport;
- an optional primary crash fail-stops one shard afterwards, forcing a
  promotion under fire;
- phase 3 fires after failover has re-homed the sessions, through the
  promoted shard.

Each phase has a single writer per room (the room's viewer 0, then
viewer 1), so the fault-free final state is unique and a chaos run can
be required to converge to it **byte-identically** — the assertion made
by :mod:`repro.chaos.convergence`.
"""

from __future__ import annotations

from typing import Any

from repro.chaos.plan import FaultPlan
from repro.cluster.config import ClusterConfig
from repro.cluster.harness import ClusterHarness
from repro.db.orm import MultimediaObjectStore
from repro.workloads.interest import primitive_paths
from repro.workloads.records import generate_record
from repro.workloads.sessions import consultation_events

#: Phase/window placement: offsets in simulated seconds from the moment
#: phase 1 has fully drained (the timeline anchor).
PHASE2_AT = 2.9
PARTITION_START = 3.0
PARTITION_END = 4.0
GW_CRASH_AT = 3.5  # a gateway dies *inside* the partition window
CRASH_AT = 6.0
PHASE3_AT = 12.0
HORIZON = 30.0


def run_chaos_conference(
    store: MultimediaObjectStore,
    plan: FaultPlan | None = None,
    num_shards: int = 3,
    num_rooms: int = 3,
    clients_per_room: int = 2,
    events_per_room: int = 6,
    seed: int = 0,
    crash_owner_of: str | None = None,
    partition: bool = False,
    failure_timeout: float = 2.0,
    horizon: float = HORIZON,
    reliability: Any = True,
    interest_churn: bool = False,
    gateway_crash: bool = False,
    num_gateways: int = 2,
) -> dict[str, Any]:
    """Drive the three-phase conference; return the final client state.

    With ``plan=None`` this is the fault-free control run (same code
    path, same reliable transport, no faults). The cluster is
    *num_shards* shards behind *num_gateways* gateways.
    ``partition=True`` adds a gateway↔shard partition window to *plan*
    over phase 2; the window (1.0 s) is shorter than *failure_timeout*
    by design — a partition this brief must be repaired by
    retransmission, not by failover. ``crash_owner_of`` names a document
    whose owning shard fail-stops at :data:`CRASH_AT`, which *is* long
    enough to trigger failover.

    ``interest_churn=True`` turns on CP-net interest management and has
    each room's viewer 1 narrow, then churn, its subscription set across
    the same fault windows the choices cross — duplicated, reordered and
    dropped SUBSCRIBE/UNSUBSCRIBE frames land on the registry and ride
    the replication log through the crash. After its own phase-3 choices
    the churning client issues one replace-all re-subscribe; the ack's
    catch-up diff (computed against what the server *actually* sent it)
    heals whatever the churn raced past, so seeded runs must still end
    byte-identical to the control.

    ``gateway_crash=True`` fail-stops the gateway homing room 0's writer
    at :data:`GW_CRASH_AT` — inside the partition window when
    ``partition=True``. Its clients re-home to a survivor and replay; the
    control run performs the same crash (the op_seq stamps must match
    byte-for-byte), just without network faults.

    In every scenario, frames addressed to a node this run crashed (the
    shard victim or the gateway victim) are reported separately as
    ``expected_delivery_failures`` — they died *with* the node and are
    healed by failover and replay, not lost. Only failures to any other
    recipient count as ``delivery_failures``.
    """
    docs = [f"case-{i}" for i in range(num_rooms)]
    records = {}
    for index, doc_id in enumerate(docs):
        record = generate_record(
            doc_id, sections=2, components_per_section=3, seed=seed + index
        )
        records[doc_id] = record
        store.store_document(record)
    config = ClusterConfig(
        shards=num_shards,
        gateways=num_gateways,
        failure_timeout=failure_timeout,
        interest_mode="cpnet" if interest_churn else "off",
    )
    harness = ClusterHarness(store, config, reliability=reliability, plan=plan)
    primitives = {doc_id: primitive_paths(records[doc_id]) for doc_id in docs}
    churning = interest_churn and clients_per_room > 1
    clients: dict[str, list[Any]] = {}
    for index, doc_id in enumerate(docs):
        room = [
            harness.add_client(f"cv-{index}-{j}") for j in range(clients_per_room)
        ]
        for client in room:
            client.join(doc_id)
        clients[doc_id] = room
    harness.run()

    streams = {
        doc_id: consultation_events(
            records[doc_id], num_events=events_per_room, seed=37 + seed + index
        )
        for index, doc_id in enumerate(docs)
    }
    third = max(1, events_per_room // 3)

    # Phase 1: a stable baseline, drained before any window opens.
    for doc_id in docs:
        for path, value in streams[doc_id][:third]:
            clients[doc_id][0].choose(path, value)
        if churning:
            # Viewer 1 narrows to half the primitives before any fault
            # window opens; viewer 0 keeps its CP-net-seeded interest.
            paths = primitives[doc_id]
            clients[doc_id][1].subscribe(paths[: len(paths) // 2], replace=True)
    harness.run()

    base = harness.clock.now  # timeline anchor: phase 1 fully drained
    victim = harness.owner_of(crash_owner_of) if crash_owner_of else None
    # The gateway to kill: whoever homes room 0's writer — guaranteed to
    # have parked ops and a learned route cache when it dies.
    gw_victim = (
        harness.home_of(clients[docs[0]][0].viewer_id) if gateway_crash else None
    )
    if partition:
        if plan is None:
            raise ValueError("partition=True needs a FaultPlan to carry the window")
        if gw_victim is not None:
            # Cut the doomed gateway off from room 0's owning shard: the
            # crash then lands mid-repair, the worst-case interleaving.
            cut, target = {gw_victim}, harness.owner_of(docs[0])
        else:
            # Cut every gateway off from one shard that is NOT the crash
            # victim: the partition must be survivable by retries alone.
            cut = set(harness.gateways)
            target = next(s for s in sorted(harness.shards) if s != victim)
        plan.partition(
            cut, {target}, base + PARTITION_START, base + PARTITION_END
        )

    harness.start(until=base + horizon)

    def phase2() -> None:
        for doc_id in docs:
            paths = primitives[doc_id]
            for i, (path, value) in enumerate(streams[doc_id][third : 2 * third]):
                clients[doc_id][0].choose(path, value)
                if churning:
                    # Subscription churn racing the partition window the
                    # choices cross: these frames get dropped, duplicated
                    # and reordered right alongside the updates they gate.
                    clients[doc_id][1].unsubscribe([paths[i % len(paths)]])
                    clients[doc_id][1].subscribe([paths[(i + 1) % len(paths)]])

    def phase3() -> None:
        for doc_id in docs:
            for path, value in streams[doc_id][2 * third :]:
                clients[doc_id][1].choose(path, value)
            if churning:
                # The healing re-subscribe: the ack's catch-up diff fills
                # in everything interest filtering withheld during churn.
                clients[doc_id][1].subscribe(primitives[doc_id], replace=True)

    harness.clock.schedule_at(base + PHASE2_AT, phase2)
    if gw_victim is not None:
        harness.schedule_crash(gw_victim, base + GW_CRASH_AT)
    if victim is not None:
        harness.schedule_crash(victim, base + CRASH_AT)
    harness.clock.schedule_at(base + PHASE3_AT, phase3)
    harness.run()

    all_clients = [client for room in clients.values() for client in room]
    result = convergence_result(harness, all_clients, victim, gw_victim)
    harness.close()
    return result


def convergence_result(
    harness: ClusterHarness,
    clients: list[Any],
    victim: str | None,
    gw_victim: str | None,
) -> dict[str, Any]:
    """What the convergence gate compares, for one finished run.

    Frames that died *with* a node this run crashed are expected and
    healed — the gateway failover replay covers the gateway victim's; the
    routing retry and replica re-bootstrap cover frames in flight to the
    crashed shard. Anything else is a real loss.
    """
    healed = {victim, gw_victim} - {None}
    failures = [
        {
            "sender": failure.sender,
            "recipient": failure.recipient,
            "kind": failure.kind,
            "reason": failure.reason,
        }
        for failure in harness.network.delivery_failures
    ]
    return {
        "harness": harness,
        "victim": victim,
        "gateway_victim": gw_victim,
        "displayed": {c.viewer_id: c.displayed() for c in clients},
        "fully_rendered": {c.viewer_id: c.fully_rendered() for c in clients},
        "reads_in_flight": {
            c.viewer_id: list(c.membership.reads_in_flight) if c.membership else []
            for c in clients
        },
        "errors": [
            {"viewer": c.viewer_id, **error} for c in clients for error in c.errors
        ],
        "delivery_failures": [f for f in failures if f["recipient"] not in healed],
        "expected_delivery_failures": [f for f in failures if f["recipient"] in healed],
        "injected": (
            harness.network.injected_counts()
            if hasattr(harness.network, "injected_counts")
            else {}
        ),
        "failovers": list(harness.failovers),
        "gateway_failovers": list(harness.gateway_failovers),
        "network_messages": harness.network.stats.messages,
        "network_bytes": harness.network.stats.bytes_total,
        "sim_seconds": harness.clock.now,
    }
