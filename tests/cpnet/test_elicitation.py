"""Unit tests for the author-side CP-net builder."""

import pytest

from repro.cpnet import CPNetBuilder, optimal_outcome
from repro.errors import CPNetError, IncompleteTableError, UnknownVariableError


class TestBuilder:
    def test_fluent_chain(self):
        net = (
            CPNetBuilder("doc")
            .component("ct", ["flat", "segmented", "hidden"])
            .prefer("ct", ["flat", "segmented", "hidden"])
            .component("xray", ["shown", "hidden"], parents=["ct"])
            .prefer_when("xray", {"ct": "hidden"}, ["shown", "hidden"])
            .prefer_when("xray", {}, ["hidden", "shown"])
            .build()
        )
        best = optimal_outcome(net)
        assert best == {"ct": "flat", "xray": "hidden"}

    def test_parent_must_be_declared_first(self):
        builder = CPNetBuilder()
        with pytest.raises(UnknownVariableError):
            builder.component("b", ["b1", "b2"], parents=["a"])

    def test_build_validates_by_default(self):
        builder = CPNetBuilder().component("a", ["a1", "a2"])
        with pytest.raises(IncompleteTableError):
            builder.build()

    def test_build_can_skip_validation(self):
        net = CPNetBuilder().component("a", ["a1", "a2"]).build(validate=False)
        assert "a" in net

    def test_builder_single_use(self):
        builder = CPNetBuilder().component("a", ["a1", "a2"]).prefer("a", ["a1", "a2"])
        builder.build()
        with pytest.raises(CPNetError, match="already produced"):
            builder.component("b", ["b1", "b2"])
        with pytest.raises(CPNetError):
            builder.build()
