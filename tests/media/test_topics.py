"""Tests for subject detection ("What is the subject of the talk?")."""

from repro.media.audio import rank_subjects, subject_of, topics
from repro.media.audio.topics import UNKNOWN_SUBJECT
from repro.media.audio.wordspot import SpotResult, StreamFlag


def spot(keyword, margin=1.0):
    return SpotResult(keyword=keyword, score_margin=margin)


class TestRanking:
    def test_single_keyword_topic(self):
        ranked = rank_subjects([spot("biopsy")])
        assert ranked[0].topic == "intervention-planning"
        assert ranked[0].supporting_keywords == ("biopsy",)

    def test_margins_weight_votes(self):
        weak_urgent = rank_subjects([spot("urgent", 0.1), spot("lesion", 10.0)])
        assert weak_urgent[0].topic == "imaging-findings"
        strong_urgent = rank_subjects([spot("urgent", 10.0), spot("lesion", 0.1)])
        assert strong_urgent[0].topic == "triage"

    def test_garbage_results_ignored(self):
        ranked = rank_subjects([spot(None), spot("lesion")])
        assert ranked[0].topic == "imaging-findings"

    def test_unmapped_keywords_ignored(self):
        assert rank_subjects([spot("filler_a")]) == []

    def test_stream_flags_accepted(self):
        flags = [StreamFlag(keyword="biopsy", start_s=0, end_s=1, score_margin=2.0)]
        assert subject_of(flags) == "intervention-planning"

    def test_negative_margins_clamped(self):
        ranked = rank_subjects([spot("lesion", -5.0)])
        assert ranked[0].score > 0  # base weight survives

    def test_custom_topic_map(self, monkeypatch):
        monkeypatch.setattr(topics, "TOPIC_MAP", {"lesion": {"oncology": 1.0}})
        assert subject_of([spot("lesion")]) == "oncology"


class TestSubjectOf:
    def test_unknown_when_nothing_spotted(self):
        assert subject_of([]) == UNKNOWN_SUBJECT
        assert subject_of([spot(None)]) == UNKNOWN_SUBJECT

    def test_multiple_supporting_keywords(self):
        ranked = rank_subjects([spot("lesion"), spot("normal")])
        imaging = next(t for t in ranked if t.topic == "imaging-findings")
        assert imaging.supporting_keywords == ("lesion", "normal")
