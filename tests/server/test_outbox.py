"""What a server hands its outbox: one ``send(recipients, frame)`` per
distinct frame of a change, recipients in member order.

The server here has no network at all; its outbox only records. This
is the contract a transport builds on (one ``ROUTE`` per gateway, a
state machine with no network)."""

import pytest

from repro.db import Database, MultimediaObjectStore
from repro.document import (
    Hidden,
    JPGImage,
    PrimitiveMultimediaComponent,
    build_sample_medical_record,
)
from repro.net.simclock import SimClock
from repro.obs import MetricsRegistry, use_registry
from repro.server import InteractionServer, MessageKind
from repro.server.interaction import Outbox
from tests.net.frames import frame_of

VIEWERS = ("lee", "cho", "wu", "kim")
NODES = tuple(f"n-{viewer}" for viewer in VIEWERS)


class RecordingOutbox:
    def __init__(self) -> None:
        self.calls: list[tuple[tuple[str, ...], object]] = []

    def send(self, recipients, frame) -> None:
        self.calls.append((tuple(recipients), frame))

    def take(self):
        """The calls so far, forgetting them."""
        calls, self.calls = self.calls, []
        return calls


@pytest.fixture
def room(tmp_path):
    """A room of four on a server with a recording outbox."""
    db = Database(str(tmp_path / "db"))
    store = MultimediaObjectStore(db)
    store.store_document(build_sample_medical_record())
    server = InteractionServer(store)
    assert server.outbox is None  # direct mode until someone sets one
    server.outbox = outbox = RecordingOutbox()
    sessions = [server.connect_session(v, node_id=n) for v, n in zip(VIEWERS, NODES)]
    for session in sessions:
        server.join_room(session.session_id, "record-17")
    assert outbox.calls == []  # a direct join is acked by nobody
    yield server, outbox, [session.session_id for session in sessions]
    db.close()


def assert_distinct_frames(calls):
    datas = [frame.data for _, frame in calls]
    assert len(set(datas)) == len(datas)


class TestOneCallPerDistinctFrame:
    def test_a_shared_choice_is_one_update_and_one_peer_event(self, room):
        server, outbox, sessions = room
        server.handle_choice(sessions[1], "imaging.ct_head", "segmented")
        calls = outbox.take()
        assert [(to, frame.kind) for to, frame in calls] == [
            (NODES, MessageKind.PRESENTATION_UPDATE),
            (("n-lee", "n-wu", "n-kim"), MessageKind.PEER_EVENT),
        ]
        assert calls[0][1].payload["changes"] == {"imaging.ct_head": "segmented"}
        assert_distinct_frames(calls)

    def test_a_personal_choice_updates_the_actor_only(self, room):
        server, outbox, sessions = room
        server.handle_choice(sessions[2], "imaging.ct_head", "icon", scope="personal")
        calls = outbox.take()
        updates = [(to, f) for to, f in calls if f.kind == MessageKind.PRESENTATION_UPDATE]
        assert [to for to, _ in updates] == [("n-wu",)]
        assert updates[0][1].payload["changes"]["imaging.ct_head"] == "icon"
        assert_distinct_frames(calls)

    def test_members_told_different_things_get_one_call_per_frame(self, room):
        """After wu's personal choice a shared one moves wu differently:
        two update frames, each sent once, every member in exactly one."""
        server, outbox, sessions = room
        server.handle_choice(sessions[2], "imaging.ct_head", "icon", scope="personal")
        outbox.take()
        server.handle_choice(sessions[1], "imaging.ct_head", "segmented")
        calls = outbox.take()
        updates = [to for to, f in calls if f.kind == MessageKind.PRESENTATION_UPDATE]
        assert updates == [("n-lee", "n-cho", "n-kim"), ("n-wu",)]
        assert_distinct_frames(calls)

    def test_a_broadcast_is_one_call(self, room):
        server, outbox, _ = room
        assert server.broadcast({"notice": "closing"}, room_id=server.room_ids[0]) == 4
        assert [(to, f.kind) for to, f in outbox.take()] == [(NODES, MessageKind.BROADCAST)]


class TestJoinAckStructure:
    """A JOIN_ACK's ``structure`` is built once per tree version of the
    room's document and shared by every join until the tree changes."""

    @staticmethod
    def _join(server, outbox, viewer):
        server.apply_session_op(
            MessageKind.JOIN, {"viewer_id": viewer, "doc_id": "record-17"}, f"n-{viewer}"
        )
        [(_, ack)] = [(to, f) for to, f in outbox.take() if f.kind == MessageKind.JOIN_ACK]
        return ack

    @staticmethod
    def _walked(document):
        """The structure as a fresh walk of the tree describes it."""
        return [
            {
                "path": path,
                "domain": list(node.domain),
                "sizes": {value: node.presentation_size(value) for value in node.domain},
            }
            for path, node in document.components().items()
        ]

    def test_joins_share_one_list_until_the_tree_changes(self, room):
        server, outbox, _ = room
        document = server.room(server.room_ids[0]).document
        first, second = self._join(server, outbox, "ana"), self._join(server, outbox, "bo")
        assert first.payload["structure"] is second.payload["structure"]
        assert first.payload["structure"] == self._walked(document)
        document.add_component(
            "imaging",
            PrimitiveMultimediaComponent("mri", [JPGImage("flat", size_bytes=100), Hidden()]),
        )
        added = self._join(server, outbox, "cy").payload["structure"]
        assert added is not first.payload["structure"]
        assert added == self._walked(document)
        assert {"path": "imaging.mri", "domain": ["flat", "hidden"],
                "sizes": {"flat": 100, "hidden": 0}} in added
        assert "imaging.mri" not in [entry["path"] for entry in first.payload["structure"]]
        document.remove_component("imaging.mri")
        removed = self._join(server, outbox, "di").payload["structure"]
        assert removed is not added and removed == self._walked(document)
        assert "imaging.mri" not in [entry["path"] for entry in removed]


class TestOutbox:
    def test_each_recipient_is_one_message_in_order(self):
        registry = MetricsRegistry()
        transmitted = []
        with use_registry(registry):
            outbox = Outbox(
                SimClock(), lambda to, frame: transmitted.append((to, frame)), "server", 0.0
            )
            frame = frame_of("peer_event", {"viewer": "a"})
            outbox.send(["c2", "c1", "c3"], frame)
        assert transmitted == [("c2", frame), ("c1", frame), ("c3", frame)]
        counters = registry.snapshot()["counters"]
        assert counters["server.messages_out"] == 3
        assert counters["server.bytes_out"] == 3 * frame.size_bytes
