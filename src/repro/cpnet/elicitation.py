"""Fluent author-side builder for CP-networks.

The paper stresses that preference elicitation happens *once, off-line,
to the document authors*, "in an intuitive manner". This builder is that
authoring surface: a chain of ``component(...)`` / ``prefer(...)`` /
``prefer_when(...)`` calls that reads like the preference statements the
author would utter.

Example (the unconditional and conditional statements from Figure 2)::

    net = (
        CPNetBuilder("fig2")
        .component("c1", ["c1_1", "c1_2"])
        .prefer("c1", ["c1_1", "c1_2"])
        .component("c3", ["c3_1", "c3_2"], parents=["c1", "c2"])
        .prefer_when("c3", {"c1": "c1_1", "c2": "c1_2"}, ["c3_1", "c3_2"])
        .build()
    )
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import CPNetError
from repro.cpnet.network import CPNet

Assignment = Mapping[str, str]


class CPNetBuilder:
    """Incrementally assemble a validated :class:`~repro.cpnet.network.CPNet`."""

    def __init__(self, name: str = "cpnet") -> None:
        self._net = CPNet(name=name)
        self._built = False

    def component(
        self,
        name: str,
        domain: Iterable[str],
        parents: Iterable[str] = (),
    ) -> "CPNetBuilder":
        """Declare a document component and which components it depends on.

        Parents must be declared first — authoring proceeds top-down, which
        also guarantees the network stays acyclic by construction.
        """
        self._check_open()
        self._net.add_variable(name, domain, parents=parents)
        return self

    def prefer(self, name: str, order: Iterable[str]) -> "CPNetBuilder":
        """State an unconditional preference: ``order[0]`` is best, all else equal."""
        self._check_open()
        self._net.add_rule(name, {}, order)
        return self

    def prefer_when(
        self, name: str, condition: Assignment, order: Iterable[str]
    ) -> "CPNetBuilder":
        """State a conditional preference: when *condition* holds, prefer *order*."""
        self._check_open()
        self._net.add_rule(name, condition, order)
        return self

    def build(self, validate: bool = True) -> CPNet:
        """Finish authoring; by default validates completeness and acyclicity."""
        self._check_open()
        self._built = True
        if validate:
            self._net.validate()
        return self._net

    def _check_open(self) -> None:
        if self._built:
            raise CPNetError("builder already produced its network; create a new builder")
