"""Unit tests for the CP-network structure."""

import pytest

from repro.cpnet import CPNet, figure2_network
from repro.errors import CyclicNetworkError, UnknownVariableError


@pytest.fixture
def chain():
    """a -> b -> c, all binary, preferences following the parent."""
    net = CPNet("chain")
    net.add_variable("a", ("a1", "a2"))
    net.add_rule("a", {}, ("a1", "a2"))
    net.add_variable("b", ("b1", "b2"), parents=("a",))
    net.add_rule("b", {"a": "a1"}, ("b1", "b2"))
    net.add_rule("b", {"a": "a2"}, ("b2", "b1"))
    net.add_variable("c", ("c1", "c2"), parents=("b",))
    net.add_rule("c", {}, ("c1", "c2"))
    return net


class TestStructure:
    def test_len_contains_iter(self, chain):
        assert len(chain) == 3
        assert "a" in chain and "z" not in chain
        assert [v.name for v in chain] == ["a", "b", "c"]

    def test_parents_children(self, chain):
        assert chain.parents("b") == ("a",)
        assert chain.children("a") == ("b",)
        assert chain.children("c") == ()

    def test_edges(self, chain):
        assert set(chain.edges()) == {("a", "b"), ("b", "c")}

    def test_unknown_variable(self, chain):
        with pytest.raises(UnknownVariableError):
            chain.variable("nope")
        with pytest.raises(UnknownVariableError):
            chain.parents("nope")

    def test_duplicate_variable_rejected(self, chain):
        with pytest.raises(ValueError, match="already exists"):
            chain.add_variable("a", ("x", "y"))

    def test_parent_must_exist_first(self):
        net = CPNet()
        with pytest.raises(UnknownVariableError):
            net.add_variable("child", ("x", "y"), parents=("ghost",))

    def test_topological_order(self, chain):
        order = chain.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_repr(self, chain):
        assert "3 variables" in repr(chain)


class TestReparenting:
    def test_set_parents_clears_rules(self, chain):
        chain.set_parents("c", ("a",))
        assert chain.parents("c") == ("a",)
        assert chain.cpt("c").rules == []
        assert chain.children("b") == ()

    def test_cycle_rejected_and_rolled_back(self, chain):
        with pytest.raises(CyclicNetworkError):
            chain.set_parents("a", ("c",))
        # Unchanged after the failed mutation.
        assert chain.parents("a") == ()
        assert chain.children("c") == ()
        assert chain.cpt("a").rules  # original rule survived

    def test_self_cycle_rejected(self, chain):
        with pytest.raises(Exception):
            chain.set_parents("a", ("a",))


class TestRemoval:
    def test_remove_leaf(self, chain):
        chain.remove_variable("c")
        assert "c" not in chain
        assert chain.children("b") == ()

    def test_remove_with_dependents_requires_flag(self, chain):
        with pytest.raises(ValueError, match="condition on it"):
            chain.remove_variable("b")

    def test_remove_with_projection(self, chain):
        chain.remove_variable("b", reparent_children=True)
        assert "b" not in chain
        assert chain.parents("c") == ()
        # c's catch-all rule survived the projection.
        assert chain.cpt("c").best_value({}) == "c1"

    def test_projection_drops_conditions_on_removed(self):
        net = CPNet()
        net.add_variable("a", ("a1", "a2"))
        net.add_rule("a", {}, ("a1", "a2"))
        net.add_variable("b", ("b1", "b2"), parents=("a",))
        net.add_rule("b", {"a": "a1"}, ("b1", "b2"))
        net.add_rule("b", {"a": "a2"}, ("b2", "b1"))
        net.remove_variable("a", reparent_children=True)
        # Both rules project to unconditional rules; the duplicate-free
        # projection keeps both, making lookups ambiguous — which is the
        # documented, surfaced behaviour (authors must re-elicit).
        assert len(net.cpt("b").rules) == 2


class TestOutcomeChecks:
    def test_check_outcome_complete(self, chain):
        outcome = {"a": "a1", "b": "b1", "c": "c2"}
        assert chain.check_outcome(outcome) == outcome

    def test_check_outcome_missing(self, chain):
        with pytest.raises(UnknownVariableError, match="missing"):
            chain.check_outcome({"a": "a1"})

    def test_check_outcome_extra(self, chain):
        with pytest.raises(UnknownVariableError, match="unknown"):
            chain.check_outcome({"a": "a1", "b": "b1", "c": "c1", "z": "z1"})

    def test_check_partial(self, chain):
        assert chain.check_partial({"b": "b2"}) == {"b": "b2"}
        with pytest.raises(UnknownVariableError):
            chain.check_partial({"zz": "b2"})


class TestCopyAndValidate:
    def test_copy_is_deep(self, chain):
        clone = chain.copy()
        clone.add_variable("d", ("d1", "d2"), parents=("c",))
        assert "d" not in chain
        assert clone.name == chain.name

    def test_copy_preserves_semantics(self):
        net = figure2_network()
        clone = net.copy()
        assert set(clone.edges()) == set(net.edges())
        for name in net.variable_names:
            assert clone.variable(name).domain == net.variable(name).domain

    def test_validate_ok(self, chain):
        chain.validate()

    def test_preference_over(self, chain):
        outcome = {"a": "a2", "b": "b1", "c": "c1"}
        assert chain.cpt("b").prefers(outcome, "b2", "b1")
