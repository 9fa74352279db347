"""A tour of the sharded gateway tier: homing, route caches, failover.

Three consultations run through a 3-shard cluster behind TWO gateways
and a directory. The directory homes each client on a gateway by
consistent hash over its node id; after the JOIN, every op rides the
home gateway's route cache straight to the owning shard — the directory
never touches the data plane.

Mid-conference the gateway homing ``case-0``'s writer fail-stops. Its
heartbeats go silent, the directory's detector notices, the stranded
clients are re-homed onto the surviving gateway, and each one replays
its logged ops through the new home. The shard-side per-session op_seq
fence drops the replays that had already been applied, so the replay is
exactly-once — which the tour proves the same way ``cluster_tour`` does:
a control run of the identical conference with no crash must end with
byte-identical displayed state on every client.

Run:  python examples/gateway_tour.py
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


def run_conference(workdir, crash: bool):
    """One 3-room conference through the tier; optionally kill a gateway."""
    db, store, records = build_store(workdir)
    config = ClusterConfig(shards=3, gateways=2, failure_timeout=1.5)
    harness = ClusterHarness(store, config)

    clients = {}
    for index, doc_id in enumerate(DOCS):
        pair = [harness.add_client(f"dr-{index}-{j}") for j in range(2)]
        for client in pair:
            client.join(doc_id)
        clients[doc_id] = pair
    harness.run()

    homes = {
        client.viewer_id: harness.home_of(client.viewer_id)
        for pair in clients.values()
        for client in pair
    }
    # The gateway to kill: whoever homes case-0's writer — guaranteed to
    # hold parked ops and a warm route cache when it dies.
    victim = harness.home_of("dr-0-0")

    streams = {
        doc_id: consultation_events(
            records[doc_id], num_events=EVENTS_PER_ROOM, seed=11 + index
        )
        for index, doc_id in enumerate(DOCS)
    }
    # First half of every room's choice stream, then (maybe) the crash,
    # then the second half through whoever is still standing.
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

    out = {
        "victim": victim,
        "homes_before": homes,
        "homes_after": {
            viewer_id: harness.home_of(viewer_id) for viewer_id in homes
        },
        "final": {
            client.viewer_id: client.displayed()
            for pair in clients.values()
            for client in pair
        },
        "errors": [e for pair in clients.values() for c in pair for e in c.errors],
        "gateway_failovers": list(harness.gateway_failovers),
        "replays": {
            client.viewer_id: client.gateway_failovers
            for pair in clients.values()
            for client in pair
            if client.gateway_failovers
        },
        "route_cache": harness.route_cache_stats(),
        "directory": harness.directory.stats(),
    }
    db.close()
    return out


def main() -> None:
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            with tempfile.TemporaryDirectory() as workdir:
                result = run_conference(workdir, crash=True)
            snapshot = registry.snapshot()["counters"]

    print("== act one: clients homed across the tier by consistent hash ==")
    for viewer_id, home in sorted(result["homes_before"].items()):
        print(f"  {viewer_id}: homed on {home}")
    print(f"gateway homing case-0's writer (the victim): {result['victim']}")

    print("\n== act two: the victim dies mid-conference ==")
    for failover in result["gateway_failovers"]:
        print(
            f"gateway failover: {failover['gateway']} died, "
            f"{failover['clients']} clients re-homed at "
            f"t={failover['completed']:.2f} sim-s"
        )
    for viewer_id, entries in sorted(result["replays"].items()):
        for entry in entries:
            print(
                f"  {viewer_id} re-attached to {entry['gateway']} and "
                f"replayed {entry['replayed']} parked ops"
            )
    dups = snapshot.get("cluster.shard.dup_ops_dropped", 0)
    print(f"replayed duplicates fenced by the shards' op_seq: {dups}")
    for viewer_id, home in sorted(result["homes_after"].items()):
        moved = " (re-homed)" if home != result["homes_before"][viewer_id] else ""
        print(f"  {viewer_id}: now on {home}{moved}")
    print(f"client-visible errors during failover: {result['errors']}")

    print("\n-- route caches kept the directory off the data plane --")
    cache = result["route_cache"]
    print(
        f"  tier-wide: {cache['hits']} hits, {cache['misses']} misses, "
        f"{cache['invalidations']} invalidations "
        f"(hit rate {cache['hit_rate']:.2f})"
    )
    print(f"  directory at close: {result['directory']}")
    for name in sorted(snapshot):
        if name.startswith("gateway.route_cache."):
            print(f"  {name} = {snapshot[name]}")

    print("\n== act three: the no-crash control run ==")
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
        raise SystemExit("gateway failover lost acknowledged state")
    print("the tier survived its own access point dying — replay held.")


if __name__ == "__main__":
    main()
