"""A tour of ``repro.cluster``: scale-out, failover, and the dashboard.

Three consultations run concurrently through a 3-shard cluster behind a
gateway. Mid-conference the shard owning ``case-0`` fail-stops: its
heartbeats go silent, the directory's failure detector notices, the
replica shard replays the shipped op log and is promoted, and the
clients keep working — their post-crash choices land on the promoted
replica without rejoining.

The tour then proves the paper-level property the cluster adds: a
control run of the *same* conference with no crash produces
byte-identical final presentation states for every client, i.e. failover
lost nothing that had been acknowledged.

A :class:`TelemetryMonitor` rides the gateway the whole time, so the
failover timeline (heartbeats stopping, the shard declared dead, the
PROMOTE order, the completion ack) is shown from the cluster's own
flight recorder — not from the script's prints.

Run:  python examples/cluster_tour.py
"""

import tempfile

from repro import obs
from repro.cluster import ClusterConfig, ClusterHarness
from repro.db import Database, MultimediaObjectStore
from repro.workloads import consultation_events, generate_record

DOCS = ("case-0", "case-1", "case-2")
EVENTS_PER_ROOM = 6
HORIZON = 30.0


def build_store(workdir):
    db = Database(f"{workdir}/db")
    store = MultimediaObjectStore(db)
    records = {}
    for index, doc_id in enumerate(DOCS):
        record = generate_record(
            doc_id, sections=2, components_per_section=3, seed=index
        )
        records[doc_id] = record
        store.store_document(record)
    return db, store, records


def run_conference(workdir, crash: bool, monitor_viewer: str | None = None):
    """One 3-room conference; optionally crash the owner of case-0."""
    db, store, records = build_store(workdir)
    harness = ClusterHarness(store, ClusterConfig(shards=3, failure_timeout=1.5))
    monitor = harness.add_monitor(monitor_viewer) if monitor_viewer else None
    victim = harness.owner_of("case-0")

    clients = {}
    for index, doc_id in enumerate(DOCS):
        pair = [harness.add_client(f"dr-{index}-{j}") for j in range(2)]
        for client in pair:
            client.join(doc_id)
        clients[doc_id] = pair
    harness.run()

    streams = {
        doc_id: consultation_events(
            records[doc_id], num_events=EVENTS_PER_ROOM, seed=11 + index
        )
        for index, doc_id in enumerate(DOCS)
    }
    # First half of every room's choice stream, then (maybe) the crash,
    # then the second half — the replicas must carry the acked half over.
    for doc_id, events in streams.items():
        for path, value in events[: EVENTS_PER_ROOM // 2]:
            clients[doc_id][0].choose(path, value)
    harness.run()
    harness.start(until=HORIZON)
    if crash:
        harness.run_until(3.0)
        harness.crash(victim)
        harness.run_until(8.0)
    harness.run()
    for doc_id, events in streams.items():
        for path, value in events[EVENTS_PER_ROOM // 2 :]:
            clients[doc_id][1].choose(path, value)
    harness.run()
    if monitor is not None:
        # The monitor signs off: its gateway's telemetry channel answers
        # the LEAVE itself (no shard sees it), so gateways close at 0 monitors.
        monitor.disconnect()
        harness.run()

    final = {
        client.viewer_id: client.displayed()
        for pair in clients.values()
        for client in pair
    }
    errors = [e for pair in clients.values() for c in pair for e in c.errors]
    out = {
        "victim": victim,
        "final": final,
        "errors": errors,
        "failovers": list(harness.failovers),
        "stats": harness.stats(),
        "monitor": monitor,
    }
    db.close()
    return out


def main() -> None:
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            with tempfile.TemporaryDirectory() as workdir:
                result = run_conference(workdir, crash=True, monitor_viewer="ops")

    print("== act one: conference with a mid-run shard crash ==")
    print(f"shard owning case-0 (the victim): {result['victim']}")
    for failover in result["failovers"]:
        print(
            f"failover: {failover['primary']} -> {failover['promoted']} "
            f"in {failover['completed'] - failover['started']:.3f} sim-s "
            f"({failover['sessions']} sessions re-homed)"
        )
    print(f"client-visible errors during failover: {result['errors']}")

    print("\n-- failover timeline, from the cluster's own flight recorder --")
    monitor = result["monitor"]
    shown = 0
    for event in monitor.events:
        if event["name"].startswith("cluster."):
            print(f"  t={event['at']:7.3f}  "
                  f"{event['severity']:5s} {event['name']}  {event['fields']}")
            shown += 1
    print(f"  ({shown} cluster events, "
          f"{len(monitor.snapshots)} telemetry snapshots over the wire)")

    print("\n-- cluster state at close --")
    stats = result["stats"]
    print(f"  directory: {stats['directory']}")
    for gateway_id, gateway_stats in stats["gateways"].items():
        print(f"  {gateway_id}: {gateway_stats}")
    for shard_id, shard_stats in stats["shards"].items():
        print(f"  {shard_id}: {shard_stats}")

    print("\n== act two: the no-crash control run ==")
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            with tempfile.TemporaryDirectory() as workdir:
                control = run_conference(workdir, crash=False)
    assert control["errors"] == []

    same = result["final"] == control["final"]
    print(f"final displayed state, all {len(control['final'])} clients, "
          f"crash run vs control: {'byte-identical' if same else 'DIVERGED'}")
    if not same:
        raise SystemExit("failover lost acknowledged state")
    print("acked ops survived the primary's death — replication held.")


if __name__ == "__main__":
    main()
