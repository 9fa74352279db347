"""Unit tests for optimal-outcome and best-completion queries."""

import itertools

import pytest

from repro.cpnet import (
    best_completion,
    figure2_network,
    iter_outcomes,
    optimal_outcome,
    outcome_rank_vector,
)
from repro.cpnet.examples import FIGURE2_OPTIMAL, random_dag_network
from repro.cpnet.reasoning import is_optimal
from repro.errors import UnknownValueError, UnknownVariableError


class TestFigure2:
    """The paper's own worked example is the ground truth here."""

    def test_optimal_outcome_matches_paper(self):
        assert optimal_outcome(figure2_network()) == FIGURE2_OPTIMAL

    def test_optimal_outcome_is_optimal(self):
        net = figure2_network()
        assert is_optimal(net, optimal_outcome(net))

    def test_no_other_outcome_is_rank_zero(self):
        net = figure2_network()
        zero = [o for o in iter_outcomes(net) if is_optimal(net, o)]
        assert zero == [FIGURE2_OPTIMAL]

    def test_completion_with_forced_c3(self):
        # Forcing c3 to its dispreferred side flips c4 and c5 with it.
        best = best_completion(figure2_network(), {"c3": "c3_1"})
        assert best == {"c1": "c1_1", "c2": "c2_2", "c3": "c3_1", "c4": "c4_1", "c5": "c5_1"}

    def test_completion_with_forced_roots(self):
        best = best_completion(figure2_network(), {"c1": "c1_2", "c2": "c2_2"})
        # Matching indices -> c3_1 preferred -> c4_1, c5_1.
        assert best == {"c1": "c1_2", "c2": "c2_2", "c3": "c3_1", "c4": "c4_1", "c5": "c5_1"}

    def test_completion_respects_all_evidence(self):
        evidence = {"c1": "c1_2", "c4": "c4_1", "c5": "c5_2"}
        best = best_completion(figure2_network(), evidence)
        for name, value in evidence.items():
            assert best[name] == value

    def test_empty_evidence_equals_optimal(self):
        net = figure2_network()
        assert best_completion(net, {}) == optimal_outcome(net)


class TestEvidenceValidation:
    def test_unknown_variable_rejected(self):
        with pytest.raises(UnknownVariableError):
            best_completion(figure2_network(), {"zz": "c1_1"})

    def test_unknown_value_rejected(self):
        with pytest.raises(UnknownValueError):
            best_completion(figure2_network(), {"c1": "bogus"})


class TestRankVector:
    def test_optimal_is_all_zero(self):
        net = figure2_network()
        assert outcome_rank_vector(net, FIGURE2_OPTIMAL) == (0, 0, 0, 0, 0)

    def test_single_flip_has_one_nonzero(self):
        net = figure2_network()
        worse = dict(FIGURE2_OPTIMAL, c4="c4_1")
        vector = outcome_rank_vector(net, worse)
        assert sum(vector) == 1

    def test_requires_complete_outcome(self):
        with pytest.raises(UnknownVariableError):
            outcome_rank_vector(figure2_network(), {"c1": "c1_1"})


class TestIterOutcomes:
    def test_counts(self):
        net = figure2_network()
        assert sum(1 for _ in iter_outcomes(net)) == 32

    def test_limit(self):
        assert len(list(itertools.islice(iter_outcomes(figure2_network()), 5))) == 5


class TestGeneratedNetworks:
    @pytest.mark.parametrize("size", [1, 10, 100])
    def test_tree_sweep_completes(self, size):
        net = random_dag_network(size, max_parents=1, seed=1)
        outcome = optimal_outcome(net)
        assert len(outcome) == size
        assert is_optimal(net, outcome)

    @pytest.mark.parametrize("size", [1, 10, 100])
    def test_dag_sweep_completes(self, size):
        net = random_dag_network(size, seed=2)
        outcome = optimal_outcome(net)
        assert len(outcome) == size
        assert is_optimal(net, outcome)

    def test_dag_completion_respects_evidence(self):
        net = random_dag_network(50, seed=4)
        evidence = {"v10": net.variable("v10").domain[-1]}
        assert best_completion(net, evidence)["v10"] == evidence["v10"]

    def test_generators_are_deterministic(self):
        a = random_dag_network(30, seed=7)
        b = random_dag_network(30, seed=7)
        assert optimal_outcome(a) == optimal_outcome(b)

    def test_generator_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            random_dag_network(0)
