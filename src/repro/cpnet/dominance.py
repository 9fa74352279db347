"""Dominance queries via improving-flip search.

``o1`` dominates ``o2`` in a CP-net exactly when there is an *improving
flipping sequence* from ``o2`` to ``o1``: a chain of outcomes, each
obtained from the previous by changing one variable to a value the CPT
prefers given that outcome's parent values. We search the flip graph
breadth-first. Dominance testing is NP-hard for general acyclic nets, so
the search takes a node budget and reports "unknown" when it runs out.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Mapping

from repro.cpnet.network import CPNet

Assignment = Mapping[str, str]

#: Search outcomes for :func:`dominates`.
DOMINATES = "dominates"
NOT_DOMINATES = "not-dominates"
UNKNOWN = "unknown"

#: Outcomes a flip search visits before it answers :data:`UNKNOWN`.
MAX_VISITED = 100_000


def improving_flips(net: CPNet, outcome: Assignment) -> Iterator[dict[str, str]]:
    """Yield every outcome one improving flip away from *outcome*.

    An improving flip changes a single variable to any value strictly
    preferred by its CPT given the (unchanged) values of its parents.
    """
    complete = net.check_outcome(outcome)
    for name in net.variable_names:
        for better in net.cpt(name).improvements(complete, complete[name]):
            flipped = dict(complete)
            flipped[name] = better
            yield flipped


def worsening_flips(net: CPNet, outcome: Assignment) -> Iterator[dict[str, str]]:
    """Yield every outcome one *worsening* flip away from *outcome*."""
    complete = net.check_outcome(outcome)
    for name in net.variable_names:
        order = net.cpt(name).order_for(complete)
        for worse in order[order.index(complete[name]) + 1:]:
            flipped = dict(complete)
            flipped[name] = worse
            yield flipped


def dominates(net: CPNet, better: Assignment, worse: Assignment) -> str:
    """Decide whether *better* dominates *worse*.

    Returns :data:`DOMINATES`, :data:`NOT_DOMINATES` (flip graph exhausted
    without reaching *better*), or :data:`UNKNOWN` (more than
    :data:`MAX_VISITED` outcomes seen).
    Equal outcomes do not dominate each other (the order is strict).
    """
    source = net.check_outcome(worse)
    target = net.check_outcome(better)
    if source == target:
        return NOT_DOMINATES
    target_key = _key(target)
    seen = {_key(source)}
    queue: deque[dict[str, str]] = deque([source])
    while queue:
        if len(seen) > MAX_VISITED:
            return UNKNOWN
        current = queue.popleft()
        for flipped in improving_flips(net, current):
            key = _key(flipped)
            if key == target_key:
                return DOMINATES
            if key not in seen:
                seen.add(key)
                queue.append(flipped)
    return NOT_DOMINATES


def flipping_sequence(
    net: CPNet, better: Assignment, worse: Assignment
) -> list[dict[str, str]] | None:
    """Return an improving flipping sequence from *worse* to *better*.

    The list starts at *worse* and ends at *better*; ``None`` when no
    sequence exists within the node budget.
    """
    source = net.check_outcome(worse)
    target = net.check_outcome(better)
    if source == target:
        return None
    target_key = _key(target)
    parent_of: dict[tuple, tuple | None] = {_key(source): None}
    by_key = {_key(source): source}
    queue: deque[dict[str, str]] = deque([source])
    while queue and len(parent_of) <= MAX_VISITED:
        current = queue.popleft()
        current_key = _key(current)
        for flipped in improving_flips(net, current):
            key = _key(flipped)
            if key in parent_of:
                continue
            parent_of[key] = current_key
            by_key[key] = flipped
            if key == target_key:
                path = [flipped]
                step: tuple | None = current_key
                while step is not None:
                    path.append(by_key[step])
                    step = parent_of[step]
                path.reverse()
                return path
            queue.append(flipped)
    return None


#: Results of :func:`compare`.
BETTER = "better"
WORSE = "worse"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


def compare(net: CPNet, left: Assignment, right: Assignment) -> str:
    """Full ordering query: how do two outcomes relate under the CP-net?

    Returns :data:`BETTER` (left ≻ right), :data:`WORSE` (right ≻ left),
    :data:`EQUAL`, :data:`INCOMPARABLE` (neither dominates — CP-nets are
    partial orders), or :data:`UNKNOWN` if either search exhausted its
    node budget.
    """
    if net.check_outcome(left) == net.check_outcome(right):
        return EQUAL
    forward = dominates(net, left, right)
    if forward == DOMINATES:
        return BETTER
    backward = dominates(net, right, left)
    if backward == DOMINATES:
        return WORSE
    if UNKNOWN in (forward, backward):
        return UNKNOWN
    return INCOMPARABLE


def _key(outcome: Mapping[str, str]) -> tuple:
    return tuple(sorted(outcome.items()))
