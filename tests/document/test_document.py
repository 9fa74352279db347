"""Unit tests for MultimediaDocument (the §5.1 interface)."""

import pytest

from repro.cpnet import CPNet
from repro.document import (
    CompositeMultimediaComponent,
    DocumentBuilder,
    Hidden,
    JPGImage,
    PrimitiveMultimediaComponent,
    Text,
    build_sample_medical_record,
)
from repro.document.document import MultimediaDocument
from repro.errors import DocumentError


@pytest.fixture
def doc():
    return build_sample_medical_record()


class TestInterface:
    def test_get_content_returns_root(self, doc):
        root = doc.get_content()
        assert root.is_root
        assert root.name == "record"

    def test_components_keyed_by_path(self, doc):
        components = doc.components()
        assert "imaging.ct_head" in components
        assert "record" not in components
        assert len(components) == 10

    def test_component_lookup(self, doc):
        assert doc.component("imaging.ct_head").name == "ct_head"
        with pytest.raises(DocumentError):
            doc.component("imaging.mri")

    def test_default_presentation_is_complete(self, doc):
        default = doc.default_presentation()
        assert set(default) == set(doc.component_paths())

    def test_default_matches_author_intent(self, doc):
        default = doc.default_presentation()
        # CT shown flat, voice note playing alongside, X-ray iconified.
        assert default["imaging.ct_head"] == "flat"
        assert default["consult.voice_note"] == "play"
        assert default["imaging.xray_chest"] == "icon"

    def test_reconfig_respects_choice(self, doc):
        outcome = doc.reconfig_presentation({"imaging.ct_head": "icon"})
        assert outcome["imaging.ct_head"] == "icon"
        # With the CT iconified, the author prefers the X-ray flat and the
        # voice note as transcript.
        assert outcome["imaging.xray_chest"] == "flat"
        assert outcome["consult.voice_note"] == "transcript"

    def test_reconfig_accepts_event_pairs(self, doc):
        outcome = doc.reconfig_presentation([("labs", "hidden")])
        assert outcome["labs"] == "hidden"

    def test_later_events_win(self, doc):
        outcome = doc.reconfig_presentation(
            [("imaging.ct_head", "icon"), ("imaging.ct_head", "segmented")]
        )
        assert outcome["imaging.ct_head"] == "segmented"

    def test_hiding_composite_hides_subtree(self, doc):
        outcome = doc.reconfig_presentation({"imaging": "hidden"})
        assert outcome["imaging.ct_head"] == "hidden"
        assert outcome["imaging.xray_chest"] == "hidden"

    def test_presentation_bytes(self, doc):
        default = doc.default_presentation()
        total = doc.presentation_bytes(default)
        assert total > 0
        hidden_all = doc.reconfig_presentation(
            {path: "hidden" for path in doc.component_paths()}
        )
        assert doc.presentation_bytes(hidden_all) == 0

    def test_visible_components(self, doc):
        default = doc.default_presentation()
        visible = doc.visible_components(default)
        assert "imaging.ct_head" in visible
        outcome = doc.reconfig_presentation({"imaging": "hidden"})
        assert "imaging.ct_head" not in doc.visible_components(outcome)


class TestAlignmentChecks:
    def _tiny_tree(self):
        root = CompositeMultimediaComponent("root")
        root.add(PrimitiveMultimediaComponent("a", [Text("full"), Hidden()]))
        return root

    def test_missing_variable_rejected(self):
        with pytest.raises(DocumentError, match="no variable"):
            MultimediaDocument("d", self._tiny_tree(), CPNet("empty"))

    def test_extra_variable_rejected(self):
        net = CPNet()
        net.add_variable("a", ("full", "hidden"))
        net.add_rule("a", {}, ("full", "hidden"))
        net.add_variable("ghost", ("x", "y"))
        net.add_rule("ghost", {}, ("x", "y"))
        with pytest.raises(DocumentError, match="without components"):
            MultimediaDocument("d", self._tiny_tree(), net)

    def test_operation_variables_allowed(self):
        net = CPNet()
        net.add_variable("a", ("full", "hidden"))
        net.add_rule("a", {}, ("full", "hidden"))
        from repro.cpnet import apply_operation

        apply_operation(net, "a", "zoom", active_value="full")
        doc = MultimediaDocument("d", self._tiny_tree(), net)
        assert doc.default_presentation()["a.zoom"] == "applied"

    def test_domain_mismatch_rejected(self):
        net = CPNet()
        net.add_variable("a", ("x", "y"))
        net.add_rule("a", {}, ("x", "y"))
        with pytest.raises(DocumentError, match="does not match"):
            MultimediaDocument("d", self._tiny_tree(), net)

    def test_root_must_be_composite(self):
        leaf = PrimitiveMultimediaComponent("a", [Text("full"), Hidden()])
        with pytest.raises(DocumentError, match="composite"):
            MultimediaDocument("d", leaf, CPNet())


class TestOnlineUpdates:
    def test_add_component(self, doc):
        doc.add_component(
            "imaging",
            PrimitiveMultimediaComponent("mri", [JPGImage("flat", size_bytes=100), Hidden()]),
        )
        assert "imaging.mri" in doc.network
        assert doc.default_presentation()["imaging.mri"] == "flat"

    def test_add_component_with_preference(self, doc):
        doc.add_component(
            "imaging",
            PrimitiveMultimediaComponent("mri", [JPGImage("flat", size_bytes=100), Hidden()]),
            preferred_order=("hidden", "flat"),
        )
        assert doc.default_presentation()["imaging.mri"] == "hidden"

    def test_add_rolls_back_on_network_failure(self, doc):
        # Network parent that doesn't exist -> variable creation fails ->
        # the tree attachment must be rolled back too.
        with pytest.raises(Exception):
            doc.add_component(
                "imaging",
                PrimitiveMultimediaComponent("mri", [JPGImage("flat"), Hidden()]),
                network_parents=("no.such.variable",),
            )
        with pytest.raises(DocumentError):
            doc.component("imaging.mri")

    def test_add_to_leaf_rejected(self, doc):
        with pytest.raises(DocumentError, match="not a composite"):
            doc.add_component(
                "imaging.ct_head",
                PrimitiveMultimediaComponent("x", [Text("full"), Hidden()]),
            )

    def test_remove_component(self, doc):
        doc.remove_component("labs.ecg")
        assert "labs.ecg" not in doc.network
        assert "labs.ecg" not in doc.default_presentation()

    def test_remove_component_drops_operation_variables(self, doc):
        from repro.cpnet import apply_operation

        apply_operation(doc.network, "labs.ecg", "zoom", active_value="trace")
        doc.remove_component("labs.ecg")
        assert "labs.ecg.zoom" not in doc.network

    def test_remove_nonempty_composite_rejected(self, doc):
        with pytest.raises(DocumentError, match="children"):
            doc.remove_component("imaging")

    def test_remove_root_rejected(self, doc):
        with pytest.raises(DocumentError):
            doc.remove_component("record")


class TestComponentIndex:
    """The path index is rebuilt when — and only when — the tree changes."""

    @staticmethod
    def _leaf(name, size=100):
        return PrimitiveMultimediaComponent(
            name, [JPGImage("flat", size_bytes=size), Hidden()]
        )

    def test_kept_while_the_tree_stands_still(self, doc):
        assert doc.components() is doc.components()
        assert doc.component_paths() is doc.component_paths()
        doc.default_presentation()
        doc.visible_components(doc.reconfig_presentation({"labs": "hidden"}))
        assert doc._index() is doc._index()

    def test_callers_cannot_mutate_it(self, doc):
        components = doc.components()
        with pytest.raises(TypeError):
            components["imaging.mri"] = self._leaf("mri")
        with pytest.raises(TypeError):
            del components["imaging.ct_head"]
        assert len(doc.components()) == 10

    def test_add_and_remove_below_the_first_level(self, doc):
        before = doc.component_paths()
        doc.add_component("imaging", CompositeMultimediaComponent("series"))
        doc.add_component("imaging.series", self._leaf("slice1", size=700))
        assert doc.component_paths() == before[:4] + (
            "imaging.series", "imaging.series.slice1",
        ) + before[4:]
        assert doc.components()["imaging.series.slice1"].depth == 3
        shown = doc.default_presentation()
        assert "imaging.series.slice1" in doc.visible_components(shown)
        hidden = doc.reconfig_presentation({"imaging": "hidden"})
        assert hidden["imaging.series"] == "hidden"
        assert hidden["imaging.series.slice1"] == "hidden"
        assert doc.presentation_bytes(shown) - doc.presentation_bytes(hidden) >= 700
        doc.remove_component("imaging.series.slice1")
        doc.remove_component("imaging.series")
        assert doc.component_paths() == before
        assert "imaging.series.slice1" not in doc.reconfig_presentation(
            {"imaging": "hidden"}
        )

    def test_tree_edits_that_bypass_the_document_are_seen(self, doc):
        imaging = doc.component("imaging")
        imaging.add(self._leaf("mri"))
        assert "imaging.mri" in doc.components()
        assert "MultimediaDocument('record-17', 11 components" in repr(doc)
        imaging.remove("mri")
        assert "imaging.mri" not in doc.components()

    def test_attaching_a_prebuilt_subtree(self, doc):
        series = CompositeMultimediaComponent("series")
        series.add(self._leaf("slice1", size=300))
        paths = doc.component_paths()
        series.add(self._leaf("slice2", size=400))  # still detached: not ours
        assert doc.component_paths() is paths
        doc.component("imaging").add(series)
        assert [p for p in doc.component_paths() if p.startswith("imaging.series")] == [
            "imaging.series", "imaging.series.slice1", "imaging.series.slice2",
        ]
        outcome = {path: "hidden" for path in doc.component_paths()}
        outcome.update({
            "imaging": "shown", "imaging.series": "shown",
            "imaging.series.slice1": "flat", "imaging.series.slice2": "flat",
        })
        assert doc.presentation_bytes(outcome) == 700
        assert doc.visible_components(outcome) == (
            "imaging", "imaging.series", "imaging.series.slice1",
            "imaging.series.slice2",
        )
        # An edit inside the attached subtree is an edit of this tree.
        series.add(self._leaf("slice3"))
        assert "imaging.series.slice3" in doc.components()
        series.remove("slice1")
        assert "imaging.series.slice1" not in doc.components()

    def test_remove_then_readd_under_the_same_name(self, doc):
        old = doc.components()["labs.ecg"]
        doc.remove_component("labs.ecg")
        assert "labs.ecg" not in doc.components()
        doc.add_component("labs", self._leaf("ecg", size=5))
        new = doc.components()["labs.ecg"]
        assert new is not old
        assert new.domain == ("flat", "hidden")
        assert doc.component_paths().index("labs.ecg") == 6  # last child of labs now
        outcome = doc.reconfig_presentation({"labs.ecg": "flat"})
        assert "labs.ecg" in doc.visible_components(outcome)
        assert doc.reconfig_presentation({"labs": "hidden"})["labs.ecg"] == "hidden"

    def test_rolled_back_add_leaves_no_trace(self, doc):
        before = dict(doc.components())
        with pytest.raises(Exception):
            doc.add_component(
                "imaging", self._leaf("mri"), network_parents=("no.such.variable",)
            )
        assert dict(doc.components()) == before
        assert doc.component_paths() == tuple(before)
        assert "imaging.mri" not in doc.reconfig_presentation({"imaging": "hidden"})


class TestBuilder:
    def test_unknown_depends_target(self):
        builder = DocumentBuilder("d").primitive("a", [Text("full"), Hidden()])
        with pytest.raises(DocumentError):
            builder.depends("a", on=["ghost"])

    def test_cyclic_depends_rejected(self):
        builder = (
            DocumentBuilder("d")
            .primitive("a", [Text("full"), Hidden()])
            .primitive("b", [Text("full"), Hidden()])
            .depends("a", on=["b"])
            .depends("b", on=["a"])
        )
        with pytest.raises(DocumentError, match="cyclic"):
            builder.build()

    def test_default_rule_added_when_no_preference(self):
        doc = DocumentBuilder("d").primitive("a", [Text("full"), Hidden()]).build()
        assert doc.default_presentation()["a"] == "full"

    def test_builder_single_use(self):
        builder = DocumentBuilder("d").primitive("a", [Text("full"), Hidden()])
        builder.build()
        with pytest.raises(DocumentError, match="already produced"):
            builder.build()

    def test_nested_composites(self):
        doc = (
            DocumentBuilder("d")
            .composite("x")
            .composite("x.y")
            .primitive("x.y.z", [Text("full"), Hidden()])
            .build()
        )
        assert doc.component("x.y.z").path == "x.y.z"
        assert len(doc.components()) == 3
