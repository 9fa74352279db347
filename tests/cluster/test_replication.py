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
from repro.obs import EventLog, MetricsRegistry, use_event_log, use_registry
from repro.server import InteractionServer
from repro.server.protocol import MessageKind
from repro.workloads import consultation_events, generate_record
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

        state = ReplicaState("primary", store)
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
        state = ReplicaState("primary", store)
        assert state.offer(third) == 0      # gap: buffered, nothing applied
        assert state.applied_seq == 0
        assert state.offer(first) == 1      # applies just the join
        assert state.offer(second) == 2     # fills the gap, drains the buffer
        assert state.applied_seq == 3

    def test_duplicates_are_ignored(self, store):
        record = record_for(store)
        entries = self._entries(record, num_events=2)
        state = ReplicaState("primary", store)
        for entry in entries:
            state.offer(entry)
        applied = state.applied_seq
        assert state.offer(entries[1]) == 0  # redelivered batch fragment
        assert state.applied_seq == applied

    def test_applied_log_records_replay_order(self, store):
        record = record_for(store)
        entries = self._entries(record, num_events=3)
        state = ReplicaState("primary", store)
        for entry in reversed(entries):  # worst-case arrival order
            state.offer(entry)
        assert [e.seq for e in state.applied_log] == [e.seq for e in entries]

    def test_promote_drops_gapped_tail(self, store):
        record = record_for(store)
        entries = self._entries(record, num_events=3)
        gaps = []
        state = ReplicaState(
            "primary", store, on_gap=lambda seq, dropped: gaps.append((seq, dropped))
        )
        state.offer(entries[0])
        state.offer(entries[1])
        state.offer(entries[3])  # seq 3 never arrives
        server = state.promote()
        assert state.promoted
        assert gaps == [(2, 1)]
        # The acked prefix survived: session exists, un-acked tail dropped.
        assert server.has_session("primary:session-1")

    def test_unknown_op_rejected(self, store):
        record_for(store)
        state = ReplicaState("primary", store)
        with pytest.raises(ClusterError, match="unknown replicated op"):
            state.offer(
                LogEntry(seq=1, at=0.0, room_key="case-0", op="compact", data={})
            )


class TestStandbyShipsNothing:
    """The same scripted room with and without a standby: every series
    that counts shipped traffic reads the same, because a standby decides
    updates and ships none; all replication adds is its own two frames."""

    SHIPPED_SERIES = (
        "server.messages_out",
        "server.bytes_out",
        "server.propagation.updates",
        "server.propagation.diff_bytes",
        "server.propagation.full_bytes",
        "interest.updates_filtered",
        "interest.bytes_saved",
    )

    def _run(self, tmp_path, replication_factor):
        registry = MetricsRegistry()
        db = Database(str(tmp_path / f"rf{replication_factor}"))
        with use_registry(registry), use_event_log(EventLog()):
            store = MultimediaObjectStore(db)
            store.store_document(build_sample_medical_record())
            harness = ClusterHarness(
                store,
                ClusterConfig(
                    shards=2, interest_mode="cpnet",
                    replication_factor=replication_factor,
                ),
            )
            replication = []  # (kind, frame bytes) of every REPLICATE and ACK
            real_send = harness.network.send

            def recording_send(sender, recipient, kind, payload=None, **kwargs):
                if kind in (MessageKind.REPLICATE, MessageKind.ACK):
                    replication.append((kind, kwargs["frame"].size_bytes))
                return real_send(sender, recipient, kind, payload=payload, **kwargs)

            harness.network.send = recording_send
            members = [
                harness.add_client(f"m{index}", auto_fetch=False) for index in range(8)
            ]
            for client in members:
                client.join("record-17")
            harness.run()
            for step in ledger_script.TestPropagationLedger.SCRIPT:
                step(members)
                harness.run()
            assert all(not client.errors for client in members)
        db.close()
        return registry.snapshot()["counters"], replication

    def test_counters_do_not_depend_on_the_replication_factor(self, tmp_path):
        alone, no_frames = self._run(tmp_path, replication_factor=1)
        mirrored, frames = self._run(tmp_path, replication_factor=2)
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
