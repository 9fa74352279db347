"""Tests: discussion results are stored in the file (paper §1)."""

import pytest

from repro.db import Database, MultimediaObjectStore
from repro.document import build_sample_medical_record
from repro.server import InteractionServer


@pytest.fixture
def store(tmp_path):
    db = Database(str(tmp_path / "db"))
    store = MultimediaObjectStore(db)
    store.store_document(build_sample_medical_record())
    yield store
    db.close()


class TestStoreLevel:
    def test_round_trip(self, store):
        store.store_annotation(
            "record-17", "imaging.ct_head", "lee", {"type": "text", "text": "lesion"}
        )
        store.store_annotation(
            "record-17", "imaging.xray_chest", "cho", {"type": "line", "from": [0, 0]}
        )
        all_notes = store.annotations_for("record-17")
        assert len(all_notes) == 2
        ct_notes = store.annotations_for("record-17", component="imaging.ct_head")
        assert len(ct_notes) == 1
        assert ct_notes[0]["FLD_VIEWER"] == "lee"
        assert ct_notes[0]["FLD_DATA"]["text"] == "lesion"

    def test_insertion_order_preserved(self, store):
        for index in range(5):
            store.store_annotation("record-17", "labs", "lee", {"n": index})
        notes = store.annotations_for("record-17")
        assert [n["FLD_DATA"]["n"] for n in notes] == [0, 1, 2, 3, 4]

    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "db2")
        with Database(path) as db:
            MultimediaObjectStore(db).store_annotation(
                "doc", "c", "lee", {"text": "persisted"}
            )
        with Database(path) as db:
            notes = MultimediaObjectStore(db).annotations_for("doc")
            assert notes[0]["FLD_DATA"]["text"] == "persisted"


class TestServerIntegration:
    def test_room_annotations_persist_on_close(self, store):
        server = InteractionServer(store)
        first = server.connect_session("lee")
        server.join_room(first.session_id, "record-17")
        server.handle_annotation(
            first.session_id, "imaging.ct_head",
            {"type": "text", "text": "9mm lesion", "x": 140, "y": 96},
        )
        server.handle_annotation(
            first.session_id, "imaging.ct_head",
            {"type": "line", "from": [96, 140], "to": [120, 128]},
        )
        server.leave_room(first.session_id)
        notes = store.annotations_for("record-17", component="imaging.ct_head")
        assert len(notes) == 2
        assert notes[0]["FLD_VIEWER"] == "lee"
        assert notes[0]["FLD_DATA"]["text"] == "9mm lesion"
        assert "viewer" not in notes[0]["FLD_DATA"]  # stored in its own column

    def test_next_consultation_sees_past_marks(self, store):
        server = InteractionServer(store)
        first = server.connect_session("lee")
        server.join_room(first.session_id, "record-17")
        server.handle_annotation(first.session_id, "labs", {"type": "text", "text": "check K+"})
        server.leave_room(first.session_id)
        # A later, different consultation finds the stored marks.
        second = server.connect_session("cho")
        server.join_room(second.session_id, "record-17")
        past = store.annotations_for("record-17")
        assert past and past[0]["FLD_DATA"]["text"] == "check K+"

    def test_no_annotations_no_rows(self, store):
        server = InteractionServer(store)
        session = server.connect_session("lee")
        server.join_room(session.session_id, "record-17")
        server.leave_room(session.session_id)
        assert store.annotations_for("record-17") == []
