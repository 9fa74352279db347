"""Unit tests for generated records and scripted sessions."""

import pytest

from repro.document import PrimitiveMultimediaComponent, build_sample_medical_record
from repro.workloads import (
    consultation_events,
    generate_record,
)
from repro.workloads.sessions import LOCALITY


class TestGeneratedRecords:
    def test_size_scales_with_parameters(self):
        small = generate_record("s", sections=2, components_per_section=2, seed=1)
        large = generate_record("l", sections=5, components_per_section=4, seed=1)
        assert len(small.components()) == 2 * 2 + 2
        assert len(large.components()) == 5 * 4 + 5

    def test_deterministic(self):
        first = generate_record("x", seed=9)
        second = generate_record("x", seed=9)
        assert first.default_presentation() == second.default_presentation()
        assert first.component_paths() == second.component_paths()

    def test_network_is_valid(self):
        generate_record("x", sections=4, components_per_section=4, seed=3).network.validate()

    def test_default_view_is_compact(self):
        doc = generate_record("x", sections=4, components_per_section=4, seed=3)
        default_bytes = doc.presentation_bytes(doc.default_presentation())
        total_bytes = sum(
            node.presentation_size(value)
            for node in doc.components().values()
            if isinstance(node, PrimitiveMultimediaComponent)
            for value in node.domain
        )
        assert default_bytes < total_bytes / 5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_record("x", sections=0)
        with pytest.raises(ValueError):
            generate_record("x", components_per_section=0)

    def test_serializes(self):
        from repro.document.serialize import document_from_json, document_to_json

        doc = generate_record("x", seed=5)
        clone = document_from_json(document_to_json(doc))
        assert clone.default_presentation() == doc.default_presentation()


class TestSessions:
    def test_events_reference_real_alternatives(self):
        doc = build_sample_medical_record()
        for component, value in consultation_events(doc, num_events=15, seed=2):
            assert value in doc.component(component).domain

    def test_events_never_choose_current_value(self):
        doc = build_sample_medical_record()
        evidence = {}
        outcome = doc.default_presentation()
        for component, value in consultation_events(doc, num_events=15, seed=2):
            assert outcome[component] != value
            evidence[component] = value
            outcome = doc.reconfig_presentation(evidence)

    def test_rational_events_follow_author_order(self):
        doc = build_sample_medical_record()
        evidence = {}
        outcome = doc.default_presentation()
        for component, value in consultation_events(
            doc, num_events=10, rationality=1.0, seed=3
        ):
            order = doc.network.cpt(component).order_for(outcome)
            alternatives = [v for v in order if v != outcome[component]]
            assert value == alternatives[0]
            evidence[component] = value
            outcome = doc.reconfig_presentation(evidence)

    def test_locality_concentrates_sections(self):
        # Six sections: attention picked uniformly would switch section on
        # 5/6 of steps; with LOCALITY it switches on about (1 - LOCALITY) * 5/6.
        doc = generate_record("x", sections=6, components_per_section=3, seed=1)
        events = consultation_events(doc, num_events=40, seed=4)
        sections = [c.split(".")[0] for c, _ in events]
        switches = sum(1 for a, b in zip(sections, sections[1:]) if a != b)
        assert switches < (1 - LOCALITY) * len(sections)

    def test_deterministic(self):
        doc = build_sample_medical_record()
        assert consultation_events(doc, seed=5) == consultation_events(doc, seed=5)

    def test_parameter_validation(self):
        doc = build_sample_medical_record()
        with pytest.raises(ValueError):
            consultation_events(doc, rationality=1.5)
