"""Unit tests for conditional preference tables."""

import pytest

from repro.cpnet import CPT, PreferenceRule, Variable
from repro.cpnet import cpt as cpt_module
from repro.errors import IncompleteTableError, UnknownValueError, UnknownVariableError


@pytest.fixture
def parents():
    return (Variable("p", ("p1", "p2")), Variable("q", ("q1", "q2")))


@pytest.fixture
def cpt(parents):
    return CPT(variable=Variable("v", ("v1", "v2")), parents=parents)


class TestRuleConstruction:
    def test_make_sorts_condition(self):
        rule = PreferenceRule.make({"q": "q1", "p": "p1"}, ["v1", "v2"])
        assert rule.condition == (("p", "p1"), ("q", "q1"))

    def test_specificity(self):
        assert PreferenceRule.make({}, ["v1", "v2"]).specificity == 0
        assert PreferenceRule.make({"p": "p1"}, ["v1", "v2"]).specificity == 1

    def test_applies_to(self):
        rule = PreferenceRule.make({"p": "p1"}, ["v1", "v2"])
        assert rule.applies_to({"p": "p1", "q": "q2"})
        assert not rule.applies_to({"p": "p2", "q": "q1"})

    def test_str_unconditional(self):
        rule = PreferenceRule.make({}, ["v1", "v2"])
        assert str(rule) == "[true] : v1 > v2"


class TestCPTValidation:
    def test_rule_with_unknown_parent_rejected(self, cpt):
        with pytest.raises(UnknownVariableError):
            cpt.add_rule({"zz": "p1"}, ["v1", "v2"])

    def test_rule_with_bad_parent_value_rejected(self, cpt):
        with pytest.raises(UnknownValueError):
            cpt.add_rule({"p": "nope"}, ["v1", "v2"])

    def test_order_must_be_permutation(self, cpt):
        with pytest.raises(UnknownValueError):
            cpt.add_rule({}, ["v1"])
        with pytest.raises(UnknownValueError):
            cpt.add_rule({}, ["v1", "v1"])
        with pytest.raises(UnknownValueError):
            cpt.add_rule({}, ["v1", "other"])

    def test_self_parent_rejected(self):
        v = Variable("v", ("v1", "v2"))
        with pytest.raises(ValueError, match="own parent"):
            CPT(variable=v, parents=(v,))

    def test_duplicate_parents_rejected(self, parents):
        with pytest.raises(ValueError, match="duplicate"):
            CPT(variable=Variable("v", ("v1", "v2")), parents=(parents[0], parents[0]))

    def test_validate_empty_table(self, cpt):
        with pytest.raises(IncompleteTableError, match="no rules"):
            cpt.validate()

    def test_validate_complete_via_catchall(self, cpt):
        cpt.add_rule({}, ["v1", "v2"])
        cpt.validate()

    def test_validate_detects_hole(self, cpt):
        cpt.add_rule({"p": "p1"}, ["v1", "v2"])
        with pytest.raises(IncompleteTableError, match="no rule"):
            cpt.validate()

    def test_validate_refuses_huge_space(self, cpt, monkeypatch):
        cpt.add_rule({}, ["v1", "v2"])
        monkeypatch.setattr(cpt_module, "VALIDATION_SPACE_LIMIT", 1)
        with pytest.raises(IncompleteTableError, match="exceeds"):
            cpt.validate()


class TestCPTLookup:
    def test_specific_rule_overrides_catchall(self, cpt):
        cpt.add_rule({}, ["v1", "v2"])
        cpt.add_rule({"p": "p2"}, ["v2", "v1"])
        assert cpt.best_value({"p": "p1", "q": "q1"}) == "v1"
        assert cpt.best_value({"p": "p2", "q": "q1"}) == "v2"

    def test_most_specific_wins(self, cpt):
        cpt.add_rule({}, ["v1", "v2"])
        cpt.add_rule({"p": "p2"}, ["v2", "v1"])
        cpt.add_rule({"p": "p2", "q": "q2"}, ["v1", "v2"])
        assert cpt.best_value({"p": "p2", "q": "q2"}) == "v1"
        assert cpt.best_value({"p": "p2", "q": "q1"}) == "v2"

    def test_ambiguous_tie_raises(self, cpt):
        cpt.add_rule({"p": "p1"}, ["v1", "v2"])
        cpt.add_rule({"q": "q1"}, ["v2", "v1"])
        with pytest.raises(IncompleteTableError, match="ambiguous"):
            cpt.order_for({"p": "p1", "q": "q1"})

    def test_equal_rules_do_not_tie_on_distinct_assignments(self, cpt):
        cpt.add_rule({"p": "p1"}, ["v1", "v2"])
        cpt.add_rule({"q": "q1"}, ["v2", "v1"])
        # Where only one of them applies, lookup succeeds.
        assert cpt.best_value({"p": "p1", "q": "q2"}) == "v1"
        assert cpt.best_value({"p": "p2", "q": "q1"}) == "v2"

    def test_prefers(self, cpt):
        cpt.add_rule({}, ["v1", "v2"])
        assert cpt.prefers({"p": "p1", "q": "q1"}, "v1", "v2")
        assert not cpt.prefers({"p": "p1", "q": "q1"}, "v2", "v1")

    def test_prefers_checks_values(self, cpt):
        cpt.add_rule({}, ["v1", "v2"])
        with pytest.raises(UnknownValueError):
            cpt.prefers({"p": "p1", "q": "q1"}, "bogus", "v1")

    def test_improvements(self):
        cpt = CPT(variable=Variable("v", ("a", "b", "c")), parents=())
        cpt.add_rule({}, ["b", "c", "a"])
        assert cpt.improvements({}, "a") == ("b", "c")
        assert cpt.improvements({}, "c") == ("b",)
        assert cpt.improvements({}, "b") == ()

    def test_parent_space_size(self, cpt):
        assert cpt.parent_space_size() == 4

    def test_iter_parent_assignments(self, cpt):
        assignments = list(cpt.iter_parent_assignments())
        assert len(assignments) == 4
        assert {"p": "p1", "q": "q2"} in assignments
