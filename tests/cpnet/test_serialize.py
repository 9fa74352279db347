"""Unit tests for CP-net JSON round-tripping."""

import json

import pytest

from repro.cpnet import (
    figure2_network,
    network_from_dict,
    network_to_dict,
    optimal_outcome,
)
from repro.cpnet.examples import random_dag_network
from repro.errors import CPNetError


def through_json(net):
    return network_from_dict(json.loads(json.dumps(network_to_dict(net))))


class TestRoundTrip:
    def test_figure2_round_trips(self):
        net = figure2_network()
        clone = through_json(net)
        assert clone.name == net.name
        assert set(clone.edges()) == set(net.edges())
        assert optimal_outcome(clone) == optimal_outcome(net)

    def test_random_dag_round_trips(self):
        net = random_dag_network(40, seed=9)
        clone = network_from_dict(network_to_dict(net))
        assert optimal_outcome(clone) == optimal_outcome(net)

    def test_rules_preserved_exactly(self):
        net = figure2_network()
        clone = through_json(net)
        for name in net.variable_names:
            assert clone.cpt(name).rules == net.cpt(name).rules

    def test_json_is_valid_and_versioned(self):
        data = json.loads(json.dumps(network_to_dict(figure2_network())))
        assert data["format"] == 1
        assert len(data["variables"]) == 5

    def test_variables_serialized_in_topological_order(self):
        data = network_to_dict(figure2_network())
        names = [v["name"] for v in data["variables"]]
        assert names.index("c1") < names.index("c3") < names.index("c4")


class TestErrorHandling:
    def test_wrong_version(self):
        with pytest.raises(CPNetError, match="version"):
            network_from_dict({"format": 99, "variables": []})

    def test_non_dict(self):
        with pytest.raises(CPNetError):
            network_from_dict([1, 2])

    def test_missing_variables(self):
        with pytest.raises(CPNetError, match="variables"):
            network_from_dict({"format": 1})

    def test_malformed_variable_entry(self):
        with pytest.raises(CPNetError, match="malformed"):
            network_from_dict({"format": 1, "variables": [{"domain": ["a", "b"]}]})
