"""Unit tests for op-log shipping and replica replay."""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterHarness,
    LogEntry,
    ReplicaState,
    ShipLog,
)
from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.errors import ClusterError
from repro.obs import EventLog, MetricsRegistry, diff, use_event_log, use_registry
from repro.server import InteractionServer
from repro.server.protocol import MessageKind
from repro.workloads import consultation_events, generate_record, primitive_paths
from tests.cluster.test_standby_equivalence import room_state
from tests.server import test_interaction as ledger_script


class TestShipLog:
    def test_sequences_are_contiguous(self):
        log = ShipLog()
        first = log.append(0.0, "doc", "join", {})
        second = log.append(0.1, "doc", "choice", {})
        assert (first.seq, second.seq) == (1, 2)

    def test_ack_advances_watermark(self):
        log = ShipLog()
        for i in range(5):
            log.append(float(i), "doc", "choice", {"i": i})
        log.mark_shipped(5)
        log.mark_acked(3)
        assert (log.shipped_seq, log.acked_seq, log.lag) == (5, 3, 2)

    def test_lag_is_shipped_minus_acked(self):
        log = ShipLog()
        for i in range(4):
            log.append(float(i), "doc", "choice", {})
        log.mark_shipped(4)
        assert log.lag == 4
        log.mark_acked(4)
        assert log.lag == 0

    def test_stale_ack_does_not_regress(self):
        log = ShipLog()
        log.append(0.0, "doc", "join", {})
        log.mark_shipped(1)
        log.mark_acked(1)
        log.mark_acked(0)  # duplicate/stale ack from a reordered batch
        assert log.acked_seq == 1


class TestLogEntryWire:
    def test_round_trip(self):
        entry = LogEntry(seq=3, at=1.5, room_key="case-0", op="choice", data={"a": 1})
        assert LogEntry.from_wire(entry.to_wire()) == entry


@pytest.fixture
def store(tmp_path):
    db = Database(str(tmp_path / "db"))
    store = MultimediaObjectStore(db)
    yield store
    db.close()


def record_for(store, doc_id="case-0", seed=0):
    record = generate_record(doc_id, sections=2, components_per_section=3, seed=seed)
    store.store_document(record)
    return record


class TestReplicaReplay:
    def _entries(self, record, num_events=5):
        """A join + scripted choices, as a primary would log them."""
        entries = [
            LogEntry(
                seq=1, at=0.0, room_key=record.doc_id, op="join",
                data={
                    "session_id": "primary:session-1",
                    "room_id": "primary:room-1",
                    "viewer_id": "lee",
                    "node_id": "client-lee",
                },
            )
        ]
        for index, (path, value) in enumerate(
            consultation_events(record, num_events=num_events, seed=5)
        ):
            entries.append(
                LogEntry(
                    seq=index + 2, at=0.1 * index, room_key=record.doc_id,
                    op="choice",
                    data={
                        "session_id": "primary:session-1",
                        "component": path, "value": value, "scope": "shared",
                    },
                )
            )
        return entries

    def test_replay_matches_directly_driven_server(self, store):
        record = record_for(store)
        entries = self._entries(record)

        # Ground truth: the same ops applied straight to a server.
        direct = InteractionServer(store, node_id="primary")
        direct.open_room(record.doc_id, room_id="primary:room-1")
        direct.connect_session(
            "lee", node_id="client-lee", session_id="primary:session-1"
        )
        direct.join_room("primary:session-1", record.doc_id)
        for entry in entries[1:]:
            direct.handle_choice(
                entry.data["session_id"], entry.data["component"],
                entry.data["value"], scope=entry.data["scope"],
            )

        state = ReplicaState("primary", "replica", store)
        for entry in entries:
            state.offer(entry)
        assert state.applied_seq == len(entries)

        replica_room = state.server.room(state.server.room_ids[0])
        direct_room = direct.room(direct.room_ids[0])
        assert replica_room.room_id == direct_room.room_id
        assert (
            replica_room.presentation_for("lee").outcome
            == direct_room.presentation_for("lee").outcome
        )

    def test_out_of_order_entries_are_buffered(self, store):
        record = record_for(store)
        first, second, third = self._entries(record, num_events=2)
        state = ReplicaState("primary", "replica", store)
        assert state.offer(third) == 0      # gap: buffered, nothing applied
        assert state.applied_seq == 0
        assert state.offer(first) == 1      # applies just the join
        assert state.offer(second) == 2     # fills the gap, drains the buffer
        assert state.applied_seq == 3

    def test_duplicates_are_ignored(self, store):
        record = record_for(store)
        entries = self._entries(record, num_events=2)
        state = ReplicaState("primary", "replica", store)
        for entry in entries:
            state.offer(entry)
        applied = state.applied_seq
        assert state.offer(entries[1]) == 0  # redelivered batch fragment
        assert state.applied_seq == applied

    def test_applied_log_records_replay_order(self, store):
        record = record_for(store)
        entries = self._entries(record, num_events=3)
        state = ReplicaState("primary", "replica", store)
        for entry in reversed(entries):  # worst-case arrival order
            state.offer(entry)
        assert [e.seq for e in state.applied_log] == [e.seq for e in entries]

    def test_promote_drops_gapped_tail(self, store):
        record = record_for(store)
        entries = self._entries(record, num_events=3)
        gaps = []
        state = ReplicaState(
            "primary", "replica", store, on_gap=lambda seq, dropped: gaps.append((seq, dropped))
        )
        state.offer(entries[0])
        state.offer(entries[1])
        state.offer(entries[3])  # seq 3 never arrives
        server = state.promote()
        assert gaps == [(2, 1)]
        # The acked prefix survived: session exists, un-acked tail dropped.
        assert server.has_session("primary:session-1")

    def test_unknown_op_rejected(self, store):
        record_for(store)
        state = ReplicaState("primary", "replica", store)
        with pytest.raises(ClusterError, match="unknown replicated op"):
            state.offer(
                LogEntry(seq=1, at=0.0, room_key="case-0", op="compact", data={})
            )


class TestStandbyShipsNothing:
    """The same scripted room with and without a standby: every series
    that counts shipped traffic reads the same, because a standby ships
    nothing (and decides nothing until it must); all replication adds is
    its own two frames."""

    SHIPPED_SERIES = (
        "server.messages_out",
        "server.bytes_out",
        "server.propagation.updates",
        "server.propagation.diff_bytes",
        "interest.updates_filtered",
        "interest.bytes_saved",
    )

    #: What deciding costs: a standby that replayed each op on arrival
    #: counted its own share of these.
    DECIDED_SERIES = (
        "server.choices",
        "cpnet.completions",
        "cpnet.completion_cache.misses",
    )

    def _run(self, tmp_path, shards):
        """One shard has no ring successor to mirror to; two shards make
        each the other's standby."""
        registry = MetricsRegistry()
        db = Database(str(tmp_path / f"shards{shards}"))
        with use_registry(registry), use_event_log(EventLog()):
            store = MultimediaObjectStore(db)
            store.store_document(build_sample_medical_record())
            harness = ClusterHarness(
                store,
                ClusterConfig(shards=shards, interest_mode="cpnet"),
            )
            replication = []  # (kind, frame bytes) of every REPLICATE and ACK
            real_send = harness.network.send

            def recording_send(sender, recipient, frame):
                if frame.kind in (MessageKind.REPLICATE, MessageKind.ACK):
                    replication.append((frame.kind, frame.size_bytes))
                return real_send(sender, recipient, frame)

            harness.network.send = recording_send
            members = [
                harness.add_client(f"m{index}", auto_fetch=False) for index in range(8)
            ]
            for client in members:
                client.join("record-17")
            harness.run()
            joined = registry.snapshot()
            for step in ledger_script.TestPropagationLedger.SCRIPT:
                step(members)
                harness.run()
            assert all(not client.errors for client in members)
            scripted = diff(joined, registry.snapshot())["counters"]
        db.close()
        decided = {name: scripted.get(name, 0) for name in self.DECIDED_SERIES}
        return registry.snapshot()["counters"], replication, decided

    def test_a_standby_decides_nothing_until_it_must(self, tmp_path):
        """The script opens no room and nothing reads or promotes the
        standby, so its log is all it keeps: after the joins, the
        decide-side series read the same with a standby as without."""
        _, _, alone = self._run(tmp_path, shards=1)
        _, _, mirrored = self._run(tmp_path, shards=2)
        assert alone["server.choices"] > 0
        assert alone["cpnet.completion_cache.misses"] > 0
        assert mirrored == alone

    def test_counters_do_not_depend_on_the_replication_factor(self, tmp_path):
        alone, no_frames, _ = self._run(tmp_path, shards=1)
        mirrored, frames, _ = self._run(tmp_path, shards=2)
        assert no_frames == [] and frames
        series = [
            name for name in alone
            if name in self.SHIPPED_SERIES
            or name.startswith("server.propagation.room_bytes")
        ]
        assert set(self.SHIPPED_SERIES) < set(series)
        assert {n: mirrored[n] for n in series} == {n: alone[n] for n in series}
        assert alone["server.propagation.updates"] > 0
        # A REPLICATE frame costs its sender one encode and the replica
        # exactly one more, its ACK — replay itself encodes nothing.
        replicates = [size for kind, size in frames if kind == MessageKind.REPLICATE]
        assert len(frames) == 2 * len(replicates)
        assert mirrored["codec.encodes"] - alone["codec.encodes"] == len(frames)
        assert mirrored["codec.bytes_encoded"] - alone["codec.bytes_encoded"] == sum(
            size for _, size in frames
        )


@pytest.fixture
def fresh_obs():
    with use_registry(MetricsRegistry()), use_event_log(EventLog()):
        yield


class TestStandbyAndStore:
    """A standby reads the store where its primary did and never writes it."""

    def _cluster(self, tmp_path, shards):
        db = Database(str(tmp_path / f"shards{shards}"))
        store = MultimediaObjectStore(db)
        record = record_for(store)
        harness = ClusterHarness(store, ClusterConfig(shards=shards, failure_timeout=1.5))
        return db, store, record, harness

    def _reopen_after_a_global_operation(self, harness, record):
        """Join, persist a §4.2 global operation by closing the room, and
        reopen it: the reopened room reads the operation from the store."""
        path = primitive_paths(record)[0]
        client = harness.add_client("lee", auto_fetch=False)
        client.join(record.doc_id)
        harness.run()
        client.operate(path, "zoomx", global_importance=True)
        harness.run()
        client.leave()
        harness.run()
        client.join(record.doc_id)
        harness.run()
        return client

    def test_a_closed_room_is_stored_once(self, tmp_path, fresh_obs):
        db, store, record, harness = self._cluster(tmp_path, shards=2)
        path = primitive_paths(record)[0]
        first, second = (harness.add_client(v, auto_fetch=False) for v in ("lee", "kim"))
        for client in (first, second):
            client.join(record.doc_id)
        harness.run()
        first.annotate(path, {"text": "see here"})
        harness.run()
        for client in (first, second):
            client.leave()
            harness.run()
        owner = harness.owner_of(record.doc_id)
        assert harness.shards[owner].server.room_ids == ()
        # The standby replays the close too, but only its primary stores.
        assert len(store.annotations_for(record.doc_id)) == 1
        db.close()

    @pytest.mark.parametrize("handover", ["read", "promote"])
    def test_a_reopen_is_a_replay_barrier(self, tmp_path, fresh_obs, handover):
        """Replayed late, the first incarnation's operation would meet the
        reopened document that already holds it (``CPNetError``)."""
        db, _, record, harness = self._cluster(tmp_path, shards=2)
        client = self._reopen_after_a_global_operation(harness, record)
        owner = harness.owner_of(record.doc_id)
        standby = next(
            state
            for shard in harness.shards.values()
            if (state := shard.standby_for(owner)) is not None
        )
        shadow = standby.server if handover == "read" else standby.promote()
        assert shadow.room_ids == (client.room_id,)
        assert room_state(shadow) == room_state(harness.shards[owner].server)
        db.close()

    def test_a_replica_bootstrapped_after_a_reopen_starts_at_the_reopen(
        self, tmp_path, fresh_obs
    ):
        """A replica assigned after the room reopened gets the history of
        the reopened room, not the closed room's ops again."""
        db, _, record, harness = self._cluster(tmp_path, shards=3)
        client = self._reopen_after_a_global_operation(harness, record)
        owner = harness.owner_of(record.doc_id)
        harness.crash(harness.shards[owner].replicas_for(record.doc_id)[0])
        harness.start(until=harness.clock.now + 10.0)
        harness.run()
        path = primitive_paths(record)[1]
        client.choose(path, record.network.variable(path).domain[-1])
        harness.run()
        assert client.errors == []
        primary = harness.shards[owner]
        (replica_id,) = primary.replicas_for(record.doc_id)
        standby = harness.shards[replica_id].standby_for(owner)
        assert room_state(standby.server) == room_state(primary.server)
        db.close()


class TestOnlyAppliedOpsReplicate:
    """A shard replicates what its server says it applied, not what the
    frames it routes suggest: a refused op never reaches the standby,
    and a JOIN ships the ids the server minted, with the batch window
    off or holding frames back."""

    @pytest.mark.parametrize("window", [0.0, 0.02])
    def test_a_rejected_op_is_not_replicated(self, tmp_path, fresh_obs, window):
        db = Database(str(tmp_path / "db"))
        store = MultimediaObjectStore(db)
        record = record_for(store)
        harness = ClusterHarness(store, ClusterConfig(shards=2, batch_window_s=window))
        client = harness.add_client("lee", auto_fetch=False)
        client.join(record.doc_id)
        harness.run()
        primary = harness.shards[harness.owner_of(record.doc_id)]
        (standby,) = (
            state
            for shard in harness.shards.values()
            if (state := shard.standby_for(primary.node_id)) is not None
        )
        (join,) = standby.applied_log
        session = primary.server.session(client.session_id)
        assert (join.op, join.room_key) == ("join", record.doc_id)
        assert join.data["session_id"] == client.session_id == session.session_id
        assert join.data["room_id"] == client.room_id == session.room_id
        assert client.session_id.startswith(f"{primary.node_id}:")
        seen = primary._op_seen.get(client.session_id, 0)

        client.choose(primitive_paths(record)[0], "no-such-value")
        harness.run()
        assert len(client.errors) == 1
        assert [entry.op for entry in standby.applied_log] == ["join"]
        assert primary._op_seen.get(client.session_id, 0) == seen
        db.close()
