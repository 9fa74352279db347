"""Unit tests for the component tree."""

import pytest

from repro.document import (
    COMPOSITE_HIDDEN,
    COMPOSITE_SHOWN,
    CompositeMultimediaComponent,
    Hidden,
    JPGImage,
    PrimitiveMultimediaComponent,
    Text,
)
from repro.errors import DocumentError


@pytest.fixture
def tree():
    root = CompositeMultimediaComponent("record")
    imaging = root.add(CompositeMultimediaComponent("imaging"))
    imaging.add(
        PrimitiveMultimediaComponent(
            "ct", [JPGImage("flat", size_bytes=100), Hidden()]
        )
    )
    root.add(PrimitiveMultimediaComponent("notes", [Text("full", size_bytes=10), Hidden()]))
    return root


class TestComposite:
    def test_domain_is_binary(self, tree):
        assert tree.domain == (COMPOSITE_SHOWN, COMPOSITE_HIDDEN)

    def test_paths(self, tree):
        assert tree.path == "record"
        assert tree.find("imaging").path == "imaging"
        assert tree.find("imaging.ct").path == "imaging.ct"
        assert tree.find("notes").path == "notes"

    def test_depth(self, tree):
        assert tree.depth == 0
        assert tree.find("imaging").depth == 1
        assert tree.find("imaging.ct").depth == 2

    def test_iter_tree_preorder(self, tree):
        names = [node.name for node in tree.iter_tree()]
        assert names == ["record", "imaging", "ct", "notes"]

    def test_find_missing(self, tree):
        with pytest.raises(DocumentError, match="no child"):
            tree.find("imaging.mri")

    def test_find_through_leaf(self, tree):
        with pytest.raises(DocumentError, match="leaf"):
            tree.find("notes.sub")

    def test_duplicate_child_rejected(self, tree):
        with pytest.raises(DocumentError, match="already has"):
            tree.add(CompositeMultimediaComponent("imaging"))

    def test_reattach_rejected(self, tree):
        ct = tree.find("imaging.ct")
        with pytest.raises(DocumentError, match="already attached"):
            tree.add(ct)

    def test_remove_detaches(self, tree):
        notes = tree.remove("notes")
        assert notes.parent is None
        with pytest.raises(DocumentError):
            tree.find("notes")

    def test_remove_missing(self, tree):
        with pytest.raises(DocumentError):
            tree.remove("ghost")

    def test_composite_size_is_zero(self, tree):
        assert tree.presentation_size(COMPOSITE_SHOWN) == 0

    def test_composite_size_bad_value(self, tree):
        with pytest.raises(DocumentError):
            tree.presentation_size("flat")


class TestPrimitive:
    def test_domain_from_labels(self, tree):
        ct = tree.find("imaging.ct")
        assert ct.domain == ("flat", "hidden")
        assert isinstance(ct, PrimitiveMultimediaComponent)

    def test_presentation_size(self, tree):
        ct = tree.find("imaging.ct")
        assert ct.presentation_size("flat") == 100
        assert ct.presentation_size("hidden") == 0

    def test_unknown_presentation(self, tree):
        with pytest.raises(DocumentError):
            tree.find("imaging.ct").presentation("zoom")

    def test_needs_two_alternatives(self):
        with pytest.raises(DocumentError, match=">= 2"):
            PrimitiveMultimediaComponent("x", [Text("only")])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DocumentError, match="duplicate"):
            PrimitiveMultimediaComponent("x", [Text("a"), Text("a")])

    def test_non_presentation_rejected(self):
        with pytest.raises(DocumentError, match="MMPresentation"):
            PrimitiveMultimediaComponent("x", ["flat", "hidden"])


class TestNames:
    def test_dot_in_component_name_rejected(self):
        with pytest.raises(ValueError, match="'.'"):
            CompositeMultimediaComponent("a.b")

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            CompositeMultimediaComponent("white space")
