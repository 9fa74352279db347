"""Unit tests for document JSON serialization."""

import pytest

from repro.document import (
    AudioFragment,
    DocumentBuilder,
    Hidden,
    JPGImage,
    SegmentedJPGImage,
    Text,
    build_sample_medical_record,
)
from repro.document.serialize import (
    component_from_dict,
    document_from_dict,
    document_from_json,
    document_to_dict,
    document_to_json,
    presentation_from_dict,
    presentation_to_dict,
)
from repro.errors import DocumentError


class TestPresentationSerialization:
    @pytest.mark.parametrize(
        "presentation",
        [
            Text("full", size_bytes=100, metadata={"lang": "en"}),
            JPGImage("flat", size_bytes=5000, resolution=2, media_ref="IMAGE_OBJECTS_TABLE:3"),
            SegmentedJPGImage("seg", size_bytes=6000, resolution=1),
            AudioFragment("play", size_bytes=9000, duration_s=33.5),
            Hidden(),
        ],
    )
    def test_round_trip(self, presentation):
        restored = presentation_from_dict(presentation_to_dict(presentation))
        assert restored == presentation
        assert type(restored) is type(presentation)

    def test_unknown_kind(self):
        with pytest.raises(DocumentError, match="unknown presentation kind"):
            presentation_from_dict({"kind": "Hologram", "label": "x"})


class TestComponentSerialization:
    def test_unknown_component_type(self):
        with pytest.raises(DocumentError, match="unknown component type"):
            component_from_dict({"type": "mystery", "name": "x"})


class TestDocumentSerialization:
    def test_full_round_trip(self):
        doc = build_sample_medical_record()
        clone = document_from_json(document_to_json(doc))
        assert clone.doc_id == doc.doc_id
        assert clone.title == doc.title
        assert clone.component_paths() == doc.component_paths()
        assert clone.default_presentation() == doc.default_presentation()
        # Presentation metadata (sizes) survives.
        assert (
            clone.component("imaging.ct_head").presentation("flat").size_bytes
            == doc.component("imaging.ct_head").presentation("flat").size_bytes
        )

    def test_reconfig_equivalence_after_round_trip(self):
        doc = build_sample_medical_record()
        clone = document_from_dict(document_to_dict(doc))
        events = {"imaging.ct_head": "icon", "labs": "hidden"}
        assert clone.reconfig_presentation(events) == doc.reconfig_presentation(events)

    def test_format_version_checked(self):
        data = document_to_dict(build_sample_medical_record())
        data["format"] = 99
        with pytest.raises(DocumentError, match="format"):
            document_from_dict(data)

    def test_bad_json(self):
        with pytest.raises(DocumentError, match="invalid"):
            document_from_json("{nope")

    def test_primitive_root_rejected(self):
        data = document_to_dict(build_sample_medical_record())
        data["root"] = {
            "type": "primitive",
            "name": "leaf",
            "presentations": [
                presentation_to_dict(Text("full")),
                presentation_to_dict(Hidden()),
            ],
        }
        data["network"] = {"format": 1, "name": "n", "variables": []}
        with pytest.raises(DocumentError):
            document_from_dict(data)

    def test_empty_document_round_trips(self):
        doc = DocumentBuilder("tiny").primitive("a", [Text("full"), Hidden()]).build()
        clone = document_from_json(document_to_json(doc))
        assert clone.default_presentation() == {"a": "full"}
