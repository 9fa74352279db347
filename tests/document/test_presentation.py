"""Unit tests for MMPresentation alternatives."""

import pytest

from repro.document import AudioFragment, Hidden, Icon, JPGImage, MMPresentation, SegmentedJPGImage, Text


class TestBasics:
    def test_kinds(self):
        assert Text("full").kind == "Text"
        assert JPGImage("flat").kind == "JPGImage"
        assert SegmentedJPGImage("seg").kind == "SegmentedJPGImage"
        assert Icon("icon").kind == "Icon"
        assert AudioFragment("play").kind == "AudioFragment"
        assert Hidden().kind == "Hidden"

    def test_hidden_flag(self):
        assert Hidden().is_hidden
        assert not Text("full").is_hidden

    def test_hidden_defaults(self):
        hidden = Hidden()
        assert hidden.label == "hidden"
        assert hidden.size_bytes == 0

    def test_hidden_rejects_payload(self):
        with pytest.raises(TypeError, match="size_bytes"):
            Hidden(size_bytes=100)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Text("full", size_bytes=-1)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            Text("bad label!")

    def test_str(self):
        assert str(Text("full", size_bytes=100)) == "Text(full, 100B)"


class TestMetadata:
    def test_dict_metadata_normalized(self):
        p = Text("full", metadata={"lang": "en", "align": "left"})
        assert p.meta == {"align": "left", "lang": "en"}

    def test_metadata_hashable(self):
        a = Text("full", metadata={"x": 1})
        b = Text("full", metadata={"x": 1})
        assert a == b
        assert len({a, b}) == 1


class TestImage:
    def test_resolution(self):
        assert JPGImage("flat", resolution=3).resolution == 3

    def test_negative_resolution_rejected(self):
        with pytest.raises(ValueError):
            JPGImage("flat", resolution=-1)

    def test_segmented_is_image(self):
        assert isinstance(SegmentedJPGImage("seg"), JPGImage)
        assert isinstance(SegmentedJPGImage("seg"), MMPresentation)


class TestAudio:
    def test_duration(self):
        assert AudioFragment("play", duration_s=12.5).duration_s == 12.5

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            AudioFragment("play", duration_s=-0.1)
