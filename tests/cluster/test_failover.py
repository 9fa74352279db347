"""End-to-end failover: kill a primary mid-conference, lose nothing acked.

The acceptance run: the same conference is driven twice — once
uninterrupted, once with the primary shard fail-stopped between the two
halves of every room's choice stream. The detector promotes the replica,
the directory re-homes the sessions, and every client's final displayed
presentation must be byte-identical across the two runs.
"""

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterHarness
from repro.workloads import consultation_events, generate_record
from repro.db import Database, MultimediaObjectStore

DOCS = ("case-0", "case-1", "case-2")
EVENTS_PER_ROOM = 6
HORIZON = 30.0


@pytest.fixture
def fresh_obs():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            yield registry, log


def drive_conference(tmp_path, name, crash_owner_of=None, batch_window_s=0.0):
    """One 3-room conference on a 3-shard cluster; optionally crash."""
    db = Database(str(tmp_path / name))
    store = MultimediaObjectStore(db)
    records = {}
    for index, doc_id in enumerate(DOCS):
        record = generate_record(
            doc_id, sections=2, components_per_section=3, seed=index
        )
        records[doc_id] = record
        store.store_document(record)
    harness = ClusterHarness(
        store,
        ClusterConfig(shards=3, failure_timeout=1.5, batch_window_s=batch_window_s),
    )
    clients = {}
    for index, doc_id in enumerate(DOCS):
        pair = [harness.add_client(f"dr-{index}-{j}") for j in range(2)]
        for client in pair:
            client.join(doc_id)
        clients[doc_id] = pair
    harness.run()
    streams = {
        doc_id: consultation_events(
            records[doc_id], num_events=EVENTS_PER_ROOM, seed=21 + index
        )
        for index, doc_id in enumerate(DOCS)
    }
    for doc_id, events in streams.items():
        for path, value in events[: EVENTS_PER_ROOM // 2]:
            clients[doc_id][0].choose(path, value)
    harness.run()
    harness.start(until=HORIZON)
    victim = harness.owner_of(crash_owner_of) if crash_owner_of else None
    if victim is not None:
        harness.run_until(3.0)
        harness.crash(victim)
        harness.run_until(10.0)
    harness.run()
    for doc_id, events in streams.items():
        for path, value in events[EVENTS_PER_ROOM // 2 :]:
            clients[doc_id][1].choose(path, value)
    harness.run()
    out = {
        "harness": harness,
        "victim": victim,
        "final": {
            client.viewer_id: client.displayed()
            for pair in clients.values()
            for client in pair
        },
        "errors": [
            error
            for pair in clients.values()
            for client in pair
            for error in client.errors
        ],
        "clients": clients,
    }
    db.close()
    return out


class TestFailover:
    def test_acked_state_survives_primary_death(self, tmp_path, fresh_obs):
        control = drive_conference(tmp_path, "control")
        assert control["errors"] == []

        failed = drive_conference(tmp_path, "failover", crash_owner_of="case-0")
        assert failed["errors"] == []
        harness = failed["harness"]

        # The failover actually happened...
        assert failed["victim"] in harness.directory.dead_nodes
        assert failed["victim"] in harness.gateways["gw-1"].dead_shards
        assert len(harness.failovers) == 1
        failover = harness.failovers[0]
        assert failover["primary"] == failed["victim"]
        assert failover["completed"] > failover["started"]

        # ...the survivor serves the victim's rooms...
        promoted = harness.shards[failover["promoted"]]
        assert failed["victim"] in promoted.promoted_primaries

        # ...and no client can tell: every final displayed presentation is
        # byte-identical to the uninterrupted run.
        assert failed["final"] == control["final"]

    def test_sessions_rehomed_to_the_promoted_shard(self, tmp_path, fresh_obs):
        failed = drive_conference(tmp_path, "rehome", crash_owner_of="case-0")
        harness = failed["harness"]
        promoted_to = harness.failovers[0]["promoted"]
        for client in failed["clients"]["case-0"]:
            assert harness.directory.shard_of_session(client.session_id) == promoted_to
            # ...and the gateway's cache re-learned it on the first post-crash op.
            assert harness.gateways["gw-1"].shard_of_session(client.session_id) == promoted_to

    def test_replication_lag_zero_before_crash(self, tmp_path, fresh_obs):
        """Quiescence means fully acked logs — the precondition that makes
        the no-loss guarantee hold for every op a client saw acked."""
        control = drive_conference(tmp_path, "lagcheck")
        for shard in control["harness"].shards.values():
            for replica_id in list(shard._ship):
                assert shard.replication_lag(replica_id) == 0

    def test_failover_duration_is_observed(self, tmp_path, fresh_obs):
        registry, _ = fresh_obs
        drive_conference(tmp_path, "metrics", crash_owner_of="case-0")
        histograms = registry.snapshot()["histograms"]
        assert histograms["cluster.failover_duration_s"]["count"] == 1
        counters = registry.snapshot()["counters"]
        assert counters["cluster.promotions"] == 1

    def test_failover_is_deterministic(self, tmp_path, fresh_obs):
        first = drive_conference(tmp_path, "det1", crash_owner_of="case-0")
        second = drive_conference(tmp_path, "det2", crash_owner_of="case-0")
        assert first["victim"] == second["victim"]
        assert first["final"] == second["final"]
        assert (
            first["harness"].failovers[0]["completed"]
            == second["harness"].failovers[0]["completed"]
        )

    def test_post_failover_rooms_keep_replicating(self, tmp_path, fresh_obs):
        """The promoted shard becomes a primary in its own right: taken-over
        rooms are bootstrapped to a fresh replica named by the new ring."""
        failed = drive_conference(tmp_path, "rereplicate", crash_owner_of="case-0")
        harness = failed["harness"]
        promoted = harness.shards[harness.failovers[0]["promoted"]]
        survivors = [
            shard_id
            for shard_id, shard in harness.shards.items()
            if shard.alive and shard_id != promoted.node_id
        ]
        assert survivors  # 3-shard cluster: someone is left to mirror
        replicated_to = [s for s in survivors if promoted.replication_lag(s) == 0
                         and s in promoted._ship]
        assert replicated_to, "taken-over rooms found no new replica"

    def test_promoted_server_keeps_the_cluster_batch_window(self, tmp_path, fresh_obs):
        """Regression: a standby used to be built with the default window
        0, so the rooms it took over silently stopped coalescing."""
        registry, _ = fresh_obs
        coalesced = registry.counter("batch.messages_coalesced")
        failed = drive_conference(
            tmp_path, "batched", crash_owner_of="case-0", batch_window_s=0.02
        )
        harness = failed["harness"]
        promoted = harness.shards[harness.failovers[0]["promoted"]]
        successor = harness.serving_server_of("case-0")
        assert successor is not promoted.server
        assert successor._batcher.window_s == promoted.server._batcher.window_s == 0.02
        # And it does batch: one more shared choice in the taken-over
        # room sends its peer an update and a peer event, which leave
        # the successor as one BATCH frame.
        assert failed["errors"] == []
        before = coalesced.value
        actor, peer = failed["clients"]["case-0"]
        path, shown = next(
            (p, v) for p, v in actor.displayed().items() if v != "hidden"
        )
        actor.choose(path, next(v for v in actor.sizes[path] if v != shown))
        harness.run()
        assert actor.errors == []
        assert coalesced.value >= before + 2
