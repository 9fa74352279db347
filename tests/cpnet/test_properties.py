"""Property-based tests (hypothesis) for the CP-net engine's invariants."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpnet import (
    best_completion,
    dominates,
    improving_flips,
    network_from_dict,
    network_to_dict,
    optimal_outcome,
    outcome_rank_vector,
)
from repro.cpnet.dominance import DOMINATES
from repro.cpnet.examples import random_dag_network
from repro.cpnet.reasoning import is_optimal


nets = st.builds(
    random_dag_network,
    num_variables=st.integers(min_value=1, max_value=12),
    domain_size=st.integers(min_value=2, max_value=4),
    max_parents=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)

tree_nets = st.builds(
    random_dag_network,
    num_variables=st.integers(min_value=1, max_value=12),
    domain_size=st.integers(min_value=2, max_value=3),
    max_parents=st.just(1),
    seed=st.integers(min_value=0, max_value=10_000),
)


small_nets = st.builds(
    random_dag_network,
    num_variables=st.integers(min_value=1, max_value=9),
    domain_size=st.integers(min_value=2, max_value=3),
    max_parents=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
)


@st.composite
def net_and_outcome(draw, source=nets):
    net = draw(source)
    outcome = {
        name: draw(st.sampled_from(net.variable(name).domain))
        for name in net.variable_names
    }
    return net, outcome


@given(nets)
@settings(max_examples=50, deadline=None)
def test_optimal_outcome_has_no_improving_flip(net):
    """The sweep result admits no improving flip — it is a local (hence,
    for acyclic nets, the global) optimum."""
    best = optimal_outcome(net)
    assert list(improving_flips(net, best)) == []
    assert is_optimal(net, best)


@given(net_and_outcome())
@settings(max_examples=50, deadline=None)
def test_completion_preserves_evidence(net_outcome):
    """best_completion never overrides a viewer's explicit choice."""
    net, outcome = net_outcome
    evidence = dict(list(outcome.items())[::2])  # every other variable
    completed = best_completion(net, evidence)
    for name, value in evidence.items():
        assert completed[name] == value


@given(net_and_outcome())
@settings(max_examples=50, deadline=None)
def test_full_evidence_is_identity(net_outcome):
    """With every variable forced, the completion is the evidence itself."""
    net, outcome = net_outcome
    assert best_completion(net, outcome) == outcome


@given(net_and_outcome(source=small_nets))
@settings(max_examples=30, deadline=None)
def test_optimal_dominates_or_equals_any_outcome(net_outcome):
    """For small nets we can afford the flip search: the swept optimum
    dominates every distinct outcome. (Outcome spaces are capped at 3**9
    so the BFS budget always suffices — dominance is NP-hard in general.)"""
    net, outcome = net_outcome
    best = optimal_outcome(net)
    if outcome != best:
        assert dominates(net, best, outcome) == DOMINATES


@given(net_and_outcome())
@settings(max_examples=50, deadline=None)
def test_improving_flip_lowers_rank_vector_somewhere(net_outcome):
    """An improving flip strictly improves the flipped variable's rank."""
    net, outcome = net_outcome
    before = outcome_rank_vector(net, outcome)
    order = net.topological_order()
    for flipped in improving_flips(net, outcome):
        changed = [name for name in outcome if flipped[name] != outcome[name]]
        assert len(changed) == 1
        index = order.index(changed[0])
        after = outcome_rank_vector(net, flipped)
        assert after[index] < before[index]


@given(tree_nets)
@settings(max_examples=50, deadline=None)
def test_serialization_round_trip(net):
    """to_dict → JSON → from_dict preserves structure and optimal outcome."""
    clone = network_from_dict(json.loads(json.dumps(network_to_dict(net))))
    assert set(clone.edges()) == set(net.edges())
    assert optimal_outcome(clone) == optimal_outcome(net)


@given(nets)
@settings(max_examples=30, deadline=None)
def test_validation_passes_for_generated_nets(net):
    """Generators always produce structurally valid, complete networks."""
    net.validate()
