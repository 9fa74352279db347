"""Unit tests for the Section 4.2 online-update policies."""

import pytest

from repro.cpnet import (
    CPNet,
    ViewerExtension,
    add_component_variable,
    apply_operation,
    best_completion,
    figure2_network,
    optimal_outcome,
    remove_component_variable,
)
from repro.cpnet.updates import OPERATION_APPLIED, OPERATION_PLAIN, operation_variable_name
from repro.errors import CPNetError, UnknownValueError, UnknownVariableError


@pytest.fixture
def net():
    return figure2_network()


class TestAddComponent:
    def test_adds_with_default_order(self, net):
        add_component_variable(net, "notes", ("shown", "hidden"))
        assert net.cpt("notes").best_value({}) == "shown"
        assert optimal_outcome(net)["notes"] == "shown"

    def test_explicit_order(self, net):
        add_component_variable(net, "notes", ("shown", "hidden"), preferred_order=("hidden", "shown"))
        assert optimal_outcome(net)["notes"] == "hidden"

    def test_with_parents(self, net):
        add_component_variable(net, "notes", ("shown", "hidden"), parents=("c1",))
        assert net.parents("notes") == ("c1",)
        # The catch-all default still answers for every parent value.
        net.validate()


class TestRemoveComponent:
    def test_remove_leaf(self, net):
        remove_component_variable(net, "c4")
        assert "c4" not in net
        assert len(optimal_outcome(net)) == 4

    def test_remove_internal_projects_children(self, net):
        remove_component_variable(net, "c3")
        assert "c3" not in net
        assert net.parents("c4") == ()
        assert net.parents("c5") == ()


class TestApplyOperation:
    """The paper's X-ray segmentation example, literally."""

    @pytest.fixture
    def xray_net(self):
        net = CPNet("xray")
        net.add_variable("xray", ("res1", "res2", "res3"))
        net.add_rule("xray", {}, ("res2", "res1", "res3"))
        return net

    def test_variable_created_with_component_parent(self, xray_net):
        record = apply_operation(xray_net, "xray", "segmentation", active_value="res2")
        assert record.name == "xray.segmentation"
        assert xray_net.parents("xray.segmentation") == ("xray",)

    def test_applied_preferred_only_at_active_value(self, xray_net):
        apply_operation(xray_net, "xray", "segmentation", active_value="res2")
        cpt = xray_net.cpt("xray.segmentation")
        assert cpt.best_value({"xray": "res2"}) == OPERATION_APPLIED
        assert cpt.best_value({"xray": "res1"}) == OPERATION_PLAIN
        assert cpt.best_value({"xray": "res3"}) == OPERATION_PLAIN

    def test_component_domain_unchanged(self, xray_net):
        before = xray_net.variable("xray").domain
        apply_operation(xray_net, "xray", "segmentation", active_value="res2")
        assert xray_net.variable("xray").domain == before

    def test_existing_cpts_untouched(self, net):
        rules_before = {name: list(net.cpt(name).rules) for name in net.variable_names}
        apply_operation(net, "c3", "zoom", active_value="c3_2")
        for name, rules in rules_before.items():
            assert net.cpt(name).rules == rules

    def test_optimal_outcome_extends(self, net):
        apply_operation(net, "c3", "zoom", active_value="c3_2")
        outcome = optimal_outcome(net)
        # Optimal has c3=c3_2, the active value, so the zoom is applied.
        assert outcome["c3.zoom"] == OPERATION_APPLIED

    def test_operation_follows_component_under_evidence(self, net):
        apply_operation(net, "c3", "zoom", active_value="c3_2")
        outcome = best_completion(net, {"c3": "c3_1"})
        assert outcome["c3.zoom"] == OPERATION_PLAIN

    def test_duplicate_operation_rejected(self, net):
        apply_operation(net, "c3", "zoom", active_value="c3_2")
        with pytest.raises(CPNetError, match="already exists"):
            apply_operation(net, "c3", "zoom", active_value="c3_1")

    def test_unknown_component_rejected(self, net):
        with pytest.raises(UnknownVariableError):
            apply_operation(net, "ghost", "zoom", active_value="x")

    def test_bad_active_value_rejected(self, net):
        with pytest.raises(UnknownValueError):
            apply_operation(net, "c3", "zoom", active_value="nope")

    def test_name_helper(self):
        assert operation_variable_name("ct", "segmentation") == "ct.segmentation"


class TestViewerExtension:
    def test_base_not_duplicated(self, net):
        ext = ViewerExtension(net, "dr-lee")
        ext.apply_operation("c3", "segmentation", active_value="c3_2")
        assert ext.size() == 1  # only the new variable is stored
        assert "c3.segmentation" not in net  # base untouched

    def test_extension_reasoning_includes_base(self, net):
        ext = ViewerExtension(net, "dr-lee")
        ext.apply_operation("c3", "segmentation", active_value="c3_2")
        outcome = ext.optimal_outcome()
        assert outcome["c3"] == "c3_2"
        assert outcome["c3.segmentation"] == OPERATION_APPLIED
        assert len(outcome) == 6

    def test_extension_respects_evidence_on_base_and_extra(self, net):
        ext = ViewerExtension(net, "dr-lee")
        ext.apply_operation("c3", "segmentation", active_value="c3_2")
        outcome = ext.best_completion(
            {"c3": "c3_1", "c3.segmentation": OPERATION_APPLIED}
        )
        assert outcome["c3"] == "c3_1"
        assert outcome["c3.segmentation"] == OPERATION_APPLIED

    def test_two_viewers_do_not_interact(self, net):
        lee = ViewerExtension(net, "dr-lee")
        cho = ViewerExtension(net, "dr-cho")
        lee.apply_operation("c3", "segmentation", active_value="c3_2")
        assert "c3.segmentation" in lee
        assert "c3.segmentation" not in cho
        assert len(cho.optimal_outcome()) == 5

    def test_duplicate_against_base_rejected(self, net):
        ext = ViewerExtension(net, "dr-lee")
        with pytest.raises(ValueError):
            ext.add_variable("c1", ("x", "y"))

    def test_rules_only_on_local_variables(self, net):
        ext = ViewerExtension(net, "dr-lee")
        with pytest.raises(UnknownVariableError):
            ext.add_rule("c1", {}, ("c1_2", "c1_1"))

    def test_promote_to_base(self, net):
        ext = ViewerExtension(net, "dr-lee")
        ext.apply_operation("c3", "segmentation", active_value="c3_2")
        ext.promote_to_base()
        assert "c3.segmentation" in net
        assert ext.size() == 0
        assert optimal_outcome(net)["c3.segmentation"] == OPERATION_APPLIED

    def test_chained_extension_variables(self, net):
        ext = ViewerExtension(net, "dr-lee")
        ext.apply_operation("c3", "segmentation", active_value="c3_2")
        # An operation on the operation variable itself (e.g. recolor the
        # segmentation) chains off the first extension variable.
        ext.apply_operation("c3.segmentation", "fill", active_value=OPERATION_APPLIED)
        outcome = ext.optimal_outcome()
        assert outcome["c3.segmentation.fill"] == OPERATION_APPLIED
