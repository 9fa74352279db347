"""Behavioural tests of the sample medical record's author preferences.

These encode the paper's §1/§4 narrative directly, so regressions in the
preference semantics surface as story-level failures.
"""

import pytest

from repro.document import PrimitiveMultimediaComponent, build_sample_medical_record


@pytest.fixture
def doc():
    return build_sample_medical_record()


class TestAuthorNarrative:
    def test_ct_is_the_centrepiece(self, doc):
        assert doc.default_presentation()["imaging.ct_head"] == "flat"

    def test_xray_iconified_while_ct_visible(self, doc):
        """"If a CT image is presented, then a correlated X-ray image is
        preferred by the author to be hidden, or ... a small icon."""
        for ct_form in ("flat", "segmented"):
            outcome = doc.reconfig_presentation({"imaging.ct_head": ct_form})
            assert outcome["imaging.xray_chest"] in ("icon", "hidden")

    def test_xray_expands_when_ct_shrinks(self, doc):
        for ct_form in ("icon", "hidden"):
            outcome = doc.reconfig_presentation({"imaging.ct_head": ct_form})
            assert outcome["imaging.xray_chest"] == "flat"

    def test_voice_note_accompanies_visible_ct(self, doc):
        """Present a CT image together with a voice fragment of expertise."""
        assert doc.default_presentation()["consult.voice_note"] == "play"
        outcome = doc.reconfig_presentation({"imaging.ct_head": "hidden"})
        assert outcome["consult.voice_note"] == "transcript"

    def test_labs_follow_their_section(self, doc):
        outcome = doc.reconfig_presentation({"labs": "hidden"})
        assert outcome["labs.blood_panel"] == "hidden"
        assert outcome["labs.ecg"] == "hidden"
        outcome = doc.reconfig_presentation({"labs": "shown"})
        assert outcome["labs.blood_panel"] == "table"

    def test_default_size_is_bounded(self, doc):
        default = doc.default_presentation()
        total = doc.presentation_bytes(default)
        assert 1_000_000 < total < 2_500_000  # ~1.7 MB: CT + voice dominate

    def test_every_component_has_hidden_or_compact_form(self, doc):
        for path, node in doc.components().items():
            if isinstance(node, PrimitiveMultimediaComponent):
                sizes = [node.presentation_size(v) for v in node.domain]
                assert min(sizes) < 10_000, path

    def test_custom_doc_id_and_patient(self):
        doc = build_sample_medical_record("record-9", patient="p-9")
        assert doc.doc_id == "record-9"
        assert "p-9" in doc.title

    def test_network_is_valid_and_auditable(self, doc):
        from repro.cpnet.analysis import audit_network

        doc.network.validate()
        assert audit_network(doc.network).ok
