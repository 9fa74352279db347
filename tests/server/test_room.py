"""Unit tests for shared rooms."""

import pytest

from repro.document import build_sample_medical_record
from repro.errors import FrozenObjectError, RoomError
from repro.server import Room


@pytest.fixture
def room():
    room = Room("room-1", build_sample_medical_record())
    room.join("s1", "lee")
    room.join("s2", "cho")
    return room


class TestMembership:
    def test_join_leave(self, room):
        assert set(room.member_sessions) == {"s1", "s2"}
        assert room.leave("s1") == "lee"
        assert room.member_sessions == ("s2",)
        assert not room.is_empty
        room.leave("s2")
        assert room.is_empty

    def test_double_join_rejected(self, room):
        with pytest.raises(RoomError, match="already in room"):
            room.join("s1", "lee")

    def test_leave_unknown(self, room):
        with pytest.raises(RoomError, match="not in room"):
            room.leave("ghost")

    def test_viewer_of(self, room):
        assert room.viewer_of("s1") == "lee"

    def test_leaving_releases_freezes(self, room):
        room.freeze("lee", "imaging.ct_head")
        room.leave("s1")
        assert room.frozen_by("imaging.ct_head") is None

    def test_same_viewer_two_sessions(self, room):
        room.join("s3", "lee")
        room.leave("s1")
        # lee still has s3, so the engine keeps the viewer state.
        assert "lee" in room.engine.viewer_ids
        room.leave("s3")
        assert "lee" not in room.engine.viewer_ids


class TestCooperativeActions:
    def test_choice_changes_presentation(self, room):
        room.apply_choice("lee", "imaging.ct_head", "segmented")
        assert room.presentation_for("cho").value("imaging.ct_head") == "segmented"

    def test_operation_records_change(self, room):
        record, change = room.apply_operation("lee", "imaging.ct_head", "zoom")
        assert record.name == "imaging.ct_head.zoom"
        assert change.kind == "operation"
        assert change.data["global"] is False

    def test_annotation_stored(self, room):
        room.annotate("lee", "imaging.ct_head", {"type": "text", "text": "lesion", "x": 3, "y": 4})
        notes = room.annotations["imaging.ct_head"]
        assert notes[0]["viewer"] == "lee"
        assert notes[0]["text"] == "lesion"

    def test_annotation_unknown_component(self, room):
        with pytest.raises(Exception):
            room.annotate("lee", "no.such", {"type": "text"})


class TestFreeze:
    def test_freeze_blocks_others(self, room):
        room.freeze("lee", "imaging.ct_head")
        with pytest.raises(FrozenObjectError, match="frozen by"):
            room.apply_choice("cho", "imaging.ct_head", "icon")
        with pytest.raises(FrozenObjectError):
            room.apply_operation("cho", "imaging.ct_head", "zoom")
        with pytest.raises(FrozenObjectError):
            room.annotate("cho", "imaging.ct_head", {"type": "text"})

    def test_holder_may_still_act(self, room):
        room.freeze("lee", "imaging.ct_head")
        room.apply_choice("lee", "imaging.ct_head", "segmented")

    def test_double_freeze_by_other_rejected(self, room):
        room.freeze("lee", "imaging.ct_head")
        with pytest.raises(FrozenObjectError, match="already frozen"):
            room.freeze("cho", "imaging.ct_head")

    def test_release_only_by_holder(self, room):
        room.freeze("lee", "imaging.ct_head")
        with pytest.raises(FrozenObjectError, match="only"):
            room.release("cho", "imaging.ct_head")
        room.release("lee", "imaging.ct_head")
        room.apply_choice("cho", "imaging.ct_head", "icon")

    def test_release_unfrozen_rejected(self, room):
        with pytest.raises(FrozenObjectError, match="not frozen"):
            room.release("lee", "imaging.ct_head")


class TestChangeBuffer:
    def test_changes_accumulate_with_sequence(self, room):
        first = room.apply_choice("lee", "labs", "hidden")
        second = room.apply_choice("cho", "labs", "shown")
        third = room.annotate("lee", "labs", {"text": "see here"})
        assert (first.seq, second.seq, third.seq) == (1, 2, 3)
        # Numbered, not kept: a leave or join does not re-deal the seqs.
        room.leave("s2")
        room.join("s3", "kim")
        assert room.freeze("kim", "labs").seq == 4
