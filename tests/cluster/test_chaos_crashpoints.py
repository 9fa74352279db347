"""Failpoint-driven crashes in the replication path.

The ``cluster.replicate`` / ``cluster.ack`` failpoints fail-stop a
primary at the worst moments a real process can die: immediately before
a REPLICATE batch leaves (the replica misses the tail), immediately
after (the batch is on the wire but the ship was never recorded), and on
ack apply. The cluster runs over the reliable transport, so choices in
flight to the corpse surface as ``DeliveryFailed`` and the gateway
re-routes them to the promoted shard once failover completes.

``crash_after`` and the ack crash must end byte-identical to the
crash-free control: everything the clients saw acked had reached the
replica. ``crash_before`` is the honest exception — asynchronous
replication has a one-op durability window between the client ack and
the ship, and the test pins its size to exactly that one op.
"""

import pytest

from repro import obs
from repro.chaos import use_failpoints
from repro.cluster import ClusterConfig, ClusterHarness
from repro.db import Database, MultimediaObjectStore
from repro.workloads import consultation_events, generate_record

DOCS = ("case-0", "case-1", "case-2")
EVENTS = 6
HORIZON = 30.0


@pytest.fixture
def fresh_obs():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        log = obs.EventLog()
        with obs.use_event_log(log):
            yield registry, log


def drive(tmp_path, name, arm=None):
    """One 3-room conference; *arm(fp, victim)* arms failpoints mid-run."""
    with use_failpoints() as fp:
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
            store, ClusterConfig(shards=3, failure_timeout=1.5), reliability=True
        )
        clients = {}
        for index, doc_id in enumerate(DOCS):
            pair = [harness.add_client(f"cp-{index}-{j}") for j in range(2)]
            for client in pair:
                client.join(doc_id)
            clients[doc_id] = pair
        harness.run()
        streams = {
            doc_id: consultation_events(records[doc_id], num_events=EVENTS, seed=21 + i)
            for i, doc_id in enumerate(DOCS)
        }
        for doc_id, events in streams.items():
            for path, value in events[: EVENTS // 2]:
                clients[doc_id][0].choose(path, value)
        harness.run()
        harness.start(until=HORIZON)
        victim = harness.owner_of("case-0")
        owners = {doc_id: harness.owner_of(doc_id) for doc_id in DOCS}
        if arm is not None:
            arm(fp, victim)
        for doc_id, events in streams.items():
            for path, value in events[EVENTS // 2 :]:
                clients[doc_id][1].choose(path, value)
        harness.run()
        out = {
            "harness": harness,
            "fp": fp,
            "victim": victim,
            "owners": owners,  # pre-crash ring ownership
            "final": {
                client.viewer_id: client.displayed()
                for pair in clients.values()
                for client in pair
            },
            "final_by_room": {
                doc_id: [client.displayed() for client in pair]
                for doc_id, pair in clients.items()
            },
            "errors": [
                e for pair in clients.values() for c in pair for e in c.errors
            ],
        }
        db.close()
        return out


def assert_failed_over(crashed):
    harness = crashed["harness"]
    assert not harness.shards[crashed["victim"]].alive
    assert crashed["victim"] in harness.directory.dead_nodes
    assert len(harness.failovers) == 1
    assert crashed["errors"] == []


class TestReplicationCrashPoints:
    def test_crash_points_sit_on_the_hot_path(self, tmp_path, fresh_obs):
        control = drive(tmp_path, "control")
        fp = control["fp"]
        assert fp.hits.get("cluster.replicate", 0) > 0
        assert fp.hits.get("cluster.ack", 0) > 0
        assert fp.fired == []  # nothing armed: pure pass-through

    def test_crash_after_ship_loses_nothing_acked(self, tmp_path, fresh_obs):
        control = drive(tmp_path, "control")
        crashed = drive(
            tmp_path,
            "crash-after",
            arm=lambda fp, victim: fp.arm(
                "cluster.replicate", mode="crash_after", match={"shard": victim}
            ),
        )
        assert crashed["fp"].fired == [("cluster.replicate", "crash_after")]
        assert_failed_over(crashed)
        # The batch left the wire before death: nothing acked was lost.
        assert crashed["final"] == control["final"]

    def test_crash_on_ack_apply_loses_nothing_acked(self, tmp_path, fresh_obs):
        control = drive(tmp_path, "control")
        crashed = drive(
            tmp_path,
            "crash-ack",
            arm=lambda fp, victim: fp.arm(
                "cluster.ack", mode="crash", match={"shard": victim}
            ),
        )
        assert crashed["fp"].fired == [("cluster.ack", "crash")]
        assert_failed_over(crashed)
        assert crashed["final"] == control["final"]

    def test_crash_before_ship_has_a_one_op_durability_window(
        self, tmp_path, fresh_obs
    ):
        control = drive(tmp_path, "control")
        crashed = drive(
            tmp_path,
            "crash-before",
            arm=lambda fp, victim: fp.arm(
                "cluster.replicate", mode="crash_before", match={"shard": victim}
            ),
        )
        assert crashed["fp"].fired == [("cluster.replicate", "crash_before")]
        assert_failed_over(crashed)
        # Rooms not owned (pre-crash) by the victim are untouched.
        owners = crashed["owners"]
        lost = 0
        for doc_id in DOCS:
            if owners[doc_id] != crashed["victim"]:
                assert (
                    crashed["final_by_room"][doc_id]
                    == control["final_by_room"][doc_id]
                )
                continue
            # In the victim's rooms the clients still agree with each
            # other — the system converges internally — but the op whose
            # ship the crash pre-empted was acked without ever reaching
            # the replica. That window is exactly one op wide.
            a, b = crashed["final_by_room"][doc_id]
            assert a == b
            want = control["final_by_room"][doc_id][0]
            divergent = {k for k in want if a.get(k) != want[k]}
            if divergent:
                lost += 1
                assert len(divergent) <= 2  # one choice + its reconfig fallout
        assert lost <= 1  # at most the single pre-empted op
