"""Reference CP-networks from the paper and generators for scaling studies."""

from __future__ import annotations

import random

from repro.cpnet.elicitation import CPNetBuilder
from repro.cpnet.network import CPNet


def figure2_network() -> CPNet:
    """The example CP-network of the paper's Figure 2.

    Five binary variables. ``c1`` and ``c2`` are roots; ``c3`` depends on
    both; ``c4`` and ``c5`` each depend on ``c3``. Value ``cI_J`` renders
    the paper's :math:`c_I^J`. The tables transcribe Figure 2:

    * ``c1``: :math:`c_1^1 \\succ c_1^2` (unconditional)
    * ``c2``: :math:`c_2^2 \\succ c_2^1` (unconditional)
    * ``c3``: :math:`c_3^1 \\succ c_3^2` when ``c1`` and ``c2`` take matching
      indices, :math:`c_3^2 \\succ c_3^1` otherwise (the XNOR condition)
    * ``c4``/``c5``: follow ``c3``'s index

    The unique optimal outcome is ``c1_1, c2_2, c3_2, c4_2, c5_2``.
    """
    return (
        CPNetBuilder("figure-2")
        .component("c1", ["c1_1", "c1_2"])
        .prefer("c1", ["c1_1", "c1_2"])
        .component("c2", ["c2_1", "c2_2"])
        .prefer("c2", ["c2_2", "c2_1"])
        .component("c3", ["c3_1", "c3_2"], parents=["c1", "c2"])
        .prefer_when("c3", {"c1": "c1_1", "c2": "c2_1"}, ["c3_1", "c3_2"])
        .prefer_when("c3", {"c1": "c1_2", "c2": "c2_2"}, ["c3_1", "c3_2"])
        .prefer_when("c3", {"c1": "c1_1", "c2": "c2_2"}, ["c3_2", "c3_1"])
        .prefer_when("c3", {"c1": "c1_2", "c2": "c2_1"}, ["c3_2", "c3_1"])
        .component("c4", ["c4_1", "c4_2"], parents=["c3"])
        .prefer_when("c4", {"c3": "c3_1"}, ["c4_1", "c4_2"])
        .prefer_when("c4", {"c3": "c3_2"}, ["c4_2", "c4_1"])
        .component("c5", ["c5_1", "c5_2"], parents=["c3"])
        .prefer_when("c5", {"c3": "c3_1"}, ["c5_1", "c5_2"])
        .prefer_when("c5", {"c3": "c3_2"}, ["c5_2", "c5_1"])
        .build()
    )


FIGURE2_OPTIMAL = {
    "c1": "c1_1",
    "c2": "c2_2",
    "c3": "c3_2",
    "c4": "c4_2",
    "c5": "c5_2",
}


def random_dag_network(
    num_variables: int,
    domain_size: int = 2,
    max_parents: int = 2,
    seed: int = 0,
) -> CPNet:
    """Generate a DAG-shaped CP-net (each variable gets up to *max_parents*
    parents among earlier variables) with fully-enumerated CPTs."""
    if num_variables < 1:
        raise ValueError(f"num_variables must be >= 1, got {num_variables}")
    rng = random.Random(seed)
    net = CPNet(name="random-dag")
    for index in range(num_variables):
        var = f"v{index}"
        domain = [f"{var}_{j}" for j in range(domain_size)]
        k = min(index, rng.randint(0, max_parents))
        parents = rng.sample([f"v{i}" for i in range(index)], k) if k else []
        net.add_variable(var, domain, parents=parents)
        cpt = net.cpt(var)
        for assignment in cpt.iter_parent_assignments():
            order = domain[:]
            rng.shuffle(order)
            net.add_rule(var, assignment, order)
    return net
