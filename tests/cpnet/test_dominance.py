"""Unit tests for dominance (improving-flip) queries."""

import itertools

import pytest

from repro.cpnet import compare, dominates, figure2_network, improving_flips, optimal_outcome
from repro.cpnet import dominance
from repro.cpnet.dominance import (
    BETTER,
    DOMINATES,
    EQUAL,
    INCOMPARABLE,
    NOT_DOMINATES,
    UNKNOWN,
    WORSE,
    flipping_sequence,
    worsening_flips,
)
from repro.cpnet.examples import FIGURE2_OPTIMAL


@pytest.fixture
def net():
    return figure2_network()


@pytest.fixture
def worst(net):
    """An outcome with every variable on its dispreferred side."""
    return {"c1": "c1_2", "c2": "c2_1", "c3": "c3_1", "c4": "c4_2", "c5": "c5_2"}


class TestImprovingFlips:
    def test_optimal_has_no_improving_flips(self, net):
        assert list(improving_flips(net, FIGURE2_OPTIMAL)) == []

    def test_flip_count_matches_rank_vector(self, net, worst):
        flips = list(improving_flips(net, worst))
        # c1, c2 are improvable; c3 given (c1_2,c2_1) prefers c3_2 so c3 is
        # improvable; c4,c5 given c3_1 prefer *_1 so both improvable.
        assert len(flips) == 5

    def test_each_flip_changes_one_variable(self, net, worst):
        for flip in improving_flips(net, worst):
            diff = [k for k in worst if flip[k] != worst[k]]
            assert len(diff) == 1

    def test_worsening_flips_are_inverse(self, net):
        worse = list(worsening_flips(net, FIGURE2_OPTIMAL))
        assert len(worse) == 5  # every variable can only get worse at the top
        for outcome in worse:
            assert FIGURE2_OPTIMAL in list(improving_flips(net, outcome))


class TestDominates:
    def test_optimal_dominates_everything_else(self, net, worst):
        assert dominates(net, FIGURE2_OPTIMAL, worst) == DOMINATES

    def test_no_outcome_dominates_optimal(self, net, worst):
        assert dominates(net, worst, FIGURE2_OPTIMAL) == NOT_DOMINATES

    def test_equal_outcomes_do_not_dominate(self, net):
        assert dominates(net, FIGURE2_OPTIMAL, FIGURE2_OPTIMAL) == NOT_DOMINATES

    def test_single_improving_flip_dominates(self, net):
        worse = dict(FIGURE2_OPTIMAL, c4="c4_1")
        assert dominates(net, FIGURE2_OPTIMAL, worse) == DOMINATES

    def test_budget_exhaustion_reports_unknown(self, net, worst, monkeypatch):
        monkeypatch.setattr(dominance, "MAX_VISITED", 1)
        assert dominates(net, FIGURE2_OPTIMAL, worst) == UNKNOWN

    def test_incomparable_pair(self, net):
        # Two single-flip-from-optimal outcomes on independent variables
        # are incomparable: each has exactly one improving flip, to optimal.
        left = dict(FIGURE2_OPTIMAL, c4="c4_1")
        right = dict(FIGURE2_OPTIMAL, c5="c5_1")
        assert dominates(net, left, right) == NOT_DOMINATES
        assert dominates(net, right, left) == NOT_DOMINATES


class TestFlippingSequence:
    def test_sequence_endpoints(self, net, worst):
        path = flipping_sequence(net, FIGURE2_OPTIMAL, worst)
        assert path is not None
        assert path[0] == worst
        assert path[-1] == FIGURE2_OPTIMAL

    def test_sequence_steps_are_single_improving_flips(self, net, worst):
        path = flipping_sequence(net, FIGURE2_OPTIMAL, worst)
        for before, after in zip(path, path[1:]):
            assert after in list(improving_flips(net, before))

    def test_no_sequence_when_not_dominated(self, net, worst):
        assert flipping_sequence(net, worst, FIGURE2_OPTIMAL) is None

    def test_no_sequence_for_equal(self, net):
        assert flipping_sequence(net, FIGURE2_OPTIMAL, FIGURE2_OPTIMAL) is None


class TestCompare:
    def test_better_and_worse(self, net, worst):
        assert compare(net, FIGURE2_OPTIMAL, worst) == BETTER
        assert compare(net, worst, FIGURE2_OPTIMAL) == WORSE

    def test_equal(self, net):
        assert compare(net, FIGURE2_OPTIMAL, dict(FIGURE2_OPTIMAL)) == EQUAL

    def test_incomparable(self, net):
        left = dict(FIGURE2_OPTIMAL, c4="c4_1")
        right = dict(FIGURE2_OPTIMAL, c5="c5_1")
        assert compare(net, left, right) == INCOMPARABLE

    def test_unknown_on_budget_exhaustion(self, net, worst, monkeypatch):
        monkeypatch.setattr(dominance, "MAX_VISITED", 1)
        assert compare(net, FIGURE2_OPTIMAL, worst) == UNKNOWN


class TestDominanceAgainstOptimality:
    def test_optimal_outcome_dominates_random_sample(self, net):
        from repro.cpnet import iter_outcomes

        best = optimal_outcome(net)
        for outcome in itertools.islice(iter_outcomes(net), 16):
            if outcome == best:
                continue
            assert dominates(net, best, outcome) == DOMINATES
