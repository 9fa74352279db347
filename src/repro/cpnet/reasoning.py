"""Outcome optimization over CP-networks.

Implements the two queries the presentation module issues (paper §4.1):

* :func:`optimal_outcome` — the unique best outcome of an acyclic CP-net,
  found by a single top-down sweep ("traverse the nodes according to a
  topological ordering and set each to its preferred value given the
  already-fixed values of its parents").
* :func:`best_completion` — the best outcome *consistent with evidence*
  (the viewers' explicit presentation choices): project the evidence onto
  the network, then sweep the remaining variables top-down.

Both run in time linear in the number of variables (times CPT lookup).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

from repro.cpnet.network import CPNet
from repro.obs import get_registry

Assignment = Mapping[str, str]


def optimal_outcome(net: CPNet) -> dict[str, str]:
    """Return the preferentially optimal outcome of *net*.

    For an acyclic CP-net this outcome is unique (Boutilier et al. 1999).
    """
    return best_completion(net, {})


def best_completion(net: CPNet, evidence: Assignment) -> dict[str, str]:
    """Return the best outcome of *net* consistent with *evidence*.

    *evidence* maps some variables to forced values (the viewers' recent
    choices). Every other variable takes its most preferred value given
    its parents' (already fixed) values.
    """
    fixed = net.check_partial(evidence)
    outcome: dict[str, str] = {}
    for name in net.topological_order():
        if name in fixed:
            outcome[name] = fixed[name]
        else:
            outcome[name] = net.cpt(name).best_value(outcome)
    get_registry().counter("cpnet.completions").inc()
    return outcome


def iter_outcomes(net: CPNet) -> Iterator[dict[str, str]]:
    """Enumerate complete outcomes of *net* (lexicographic over domains),
    lazily: the space is exponential, so take what you need."""
    names = list(net.variable_names)
    domains = [net.variable(n).domain for n in names]
    for combo in itertools.product(*domains):
        yield dict(zip(names, combo))


def outcome_rank_vector(net: CPNet, outcome: Assignment) -> tuple[int, ...]:
    """Per-variable preference ranks of *outcome*, in topological order.

    Rank 0 means "the most preferred value given the parents". The all-zero
    vector characterizes the optimal outcome; the vector is also a useful
    heuristic measure of how far an outcome is from optimal (it is exactly
    the number of improving flips available at each variable).
    """
    complete = net.check_outcome(outcome)
    ranks = []
    for name in net.topological_order():
        order = net.cpt(name).order_for(complete)
        ranks.append(order.index(complete[name]))
    return tuple(ranks)


def is_optimal(net: CPNet, outcome: Assignment) -> bool:
    """True when *outcome* is the unique optimal outcome of *net*."""
    return all(rank == 0 for rank in outcome_rank_vector(net, outcome))
