"""Unit tests for presentation specs and diffing."""

import pytest

from repro.document import build_sample_medical_record
from repro.presentation import diff_presentations
from repro.presentation.spec import build_spec


@pytest.fixture
def doc():
    return build_sample_medical_record()


class TestDiffPresentations:
    def test_none_old_is_full_copy(self):
        new = {"a": "x", "b": "y"}
        delta = diff_presentations(None, new)
        assert delta == new
        assert delta is not new  # copy, not alias

    def test_no_change_empty(self):
        outcome = {"a": "x"}
        assert diff_presentations(outcome, {"a": "x"}) == {}

    def test_only_changed_entries(self):
        old = {"a": "x", "b": "y", "c": "z"}
        new = {"a": "x", "b": "Y", "c": "z"}
        assert diff_presentations(old, new) == {"b": "Y"}

    def test_new_keys_included(self):
        # Operation variables appear mid-session.
        assert diff_presentations({"a": "x"}, {"a": "x", "a.zoom": "applied"}) == {
            "a.zoom": "applied"
        }

    def test_removed_keys_ignored(self):
        # A removed component simply stops being mentioned.
        assert diff_presentations({"a": "x", "gone": "y"}, {"a": "x"}) == {}


class TestBuildSpec:
    def test_measures_consistent(self, doc):
        outcome = doc.default_presentation()
        spec = build_spec(doc, "lee", outcome)
        assert spec.doc_id == doc.doc_id
        assert spec.viewer_id == "lee"
        assert spec.computed_at == 0.0
        assert spec.total_bytes == doc.presentation_bytes(outcome)
        assert set(spec.visible) == set(doc.visible_components(outcome))

    def test_value_and_is_visible(self, doc):
        spec = build_spec(doc, "lee", doc.default_presentation())
        assert spec.value("imaging.ct_head") == "flat"
        assert "imaging.ct_head" in spec.visible
        assert "no.such.path" not in spec.visible

    def test_spec_outcome_is_copy(self, doc):
        outcome = doc.default_presentation()
        spec = build_spec(doc, "lee", outcome)
        outcome["imaging.ct_head"] = "mutated"
        assert spec.value("imaging.ct_head") == "flat"

    def test_frozen_dataclass(self, doc):
        spec = build_spec(doc, "lee", doc.default_presentation())
        with pytest.raises(AttributeError):
            spec.viewer_id = "other"

    def test_len(self, doc):
        spec = build_spec(doc, "lee", doc.default_presentation())
        assert len(spec) == 10
