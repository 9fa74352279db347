"""The CP-network: a DAG of variables with conditional preference tables."""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from repro.errors import CyclicNetworkError, UnknownVariableError
from repro.cpnet.cpt import CPT, Assignment, PreferenceRule
from repro.cpnet.variable import Variable


class CPNet:
    """A conditional-preference network over document components.

    Structure is defined entirely by the per-variable CPTs: variable ``v``
    has an edge from every parent listed in ``CPT(v)``. The graph must be
    acyclic; acyclicity is enforced on every mutation so an instance is
    always a valid (possibly incomplete) CP-net.
    """

    def __init__(self, name: str = "cpnet") -> None:
        self.name = name
        self._variables: dict[str, Variable] = {}
        self._cpts: dict[str, CPT] = {}
        self._children: dict[str, set[str]] = {}
        # Structural version: bumped by every mutation that can change a
        # query result (add/remove variable, re-parenting, new rules).
        # `repro.cpnet.compiled` keys its flattened evaluators on it, so
        # the §4.2 update policies invalidate compilations for free.
        self._version = 0

    # ----- introspection ----------------------------------------------------

    @property
    def structure_version(self) -> int:
        """Monotonic counter of structural mutations (compilation key)."""
        return self._version

    def __len__(self) -> int:
        return len(self._variables)

    def __contains__(self, name: str) -> bool:
        return name in self._variables

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._variables.values())

    @property
    def variable_names(self) -> tuple[str, ...]:
        """All variable names, in insertion order."""
        return tuple(self._variables)

    def variable(self, name: str) -> Variable:
        """Return the variable called *name*."""
        try:
            return self._variables[name]
        except KeyError:
            raise UnknownVariableError(f"no variable {name!r} in network {self.name!r}") from None

    def cpt(self, name: str) -> CPT:
        """Return the CPT of variable *name*."""
        self.variable(name)
        return self._cpts[name]

    def parents(self, name: str) -> tuple[str, ...]:
        """Names of the parents Π(name)."""
        return self.cpt(name).parent_names

    def children(self, name: str) -> tuple[str, ...]:
        """Names of variables whose CPT conditions on *name* (sorted)."""
        self.variable(name)
        return tuple(sorted(self._children.get(name, ())))

    def edges(self) -> list[tuple[str, str]]:
        """All (parent, child) edges."""
        return [
            (parent, child)
            for child in self._variables
            for parent in self._cpts[child].parent_names
        ]

    # ----- mutation -----------------------------------------------------------

    def add_variable(
        self,
        name: str,
        domain: Iterable[str],
        parents: Iterable[str] = (),
        description: str = "",
    ) -> Variable:
        """Add a variable with the given parents (which must already exist).

        The new variable starts with an empty CPT; add rows with
        :meth:`add_rule` before querying.
        """
        if name in self._variables:
            raise ValueError(f"variable {name!r} already exists in network {self.name!r}")
        parent_vars = tuple(self.variable(p) for p in parents)
        variable = Variable(name=name, domain=tuple(domain), description=description)
        self._variables[name] = variable
        self._cpts[name] = CPT(variable=variable, parents=parent_vars)
        self._children.setdefault(name, set())
        for parent in parent_vars:
            self._children[parent.name].add(name)
        # A new node whose parents already exist cannot close a cycle, so
        # no acyclicity re-check is needed — this keeps the §4.2 operation
        # update O(1) in the network size. set_parents() re-checks.
        self._version += 1
        return variable

    def add_rule(self, name: str, condition: Assignment, order: Iterable[str]) -> PreferenceRule:
        """Append a preference rule to CPT(*name*)."""
        rule = self.cpt(name).add_rule(condition, order)
        self._version += 1
        return rule

    def set_parents(self, name: str, parents: Iterable[str]) -> None:
        """Re-parent variable *name*, clearing its CPT rows.

        Raises :class:`CyclicNetworkError` (and leaves the network
        unchanged) if the new edges would create a cycle.
        """
        old_cpt = self.cpt(name)
        parent_vars = tuple(self.variable(p) for p in parents)
        for parent in old_cpt.parents:
            self._children[parent.name].discard(name)
        self._cpts[name] = CPT(variable=self._variables[name], parents=parent_vars)
        for parent in parent_vars:
            self._children[parent.name].add(name)
        try:
            self._assert_acyclic()
        except CyclicNetworkError:
            # Roll back to the previous wiring.
            for parent in parent_vars:
                self._children[parent.name].discard(name)
            self._cpts[name] = old_cpt
            for parent in old_cpt.parents:
                self._children[parent.name].add(name)
            raise
        self._version += 1

    def remove_variable(self, name: str, reparent_children: bool = False) -> None:
        """Remove a variable.

        With ``reparent_children=False`` (default), removal is only allowed
        for variables nothing depends on. With ``reparent_children=True``,
        children lose this parent: their CPT rows are projected by dropping
        conjuncts on the removed variable (most-specific-wins resolves the
        resulting overlaps; ambiguities surface on later lookups).
        """
        self.variable(name)
        dependents = self.children(name)
        if dependents and not reparent_children:
            raise ValueError(
                f"cannot remove {name!r}: {list(dependents)} condition on it "
                "(pass reparent_children=True to project their CPTs)"
            )
        for child in dependents:
            child_cpt = self._cpts[child]
            new_parents = tuple(p for p in child_cpt.parents if p.name != name)
            new_cpt = CPT(variable=child_cpt.variable, parents=new_parents)
            seen: set[tuple] = set()
            for rule in child_cpt.rules:
                condition = {n: v for n, v in rule.condition if n != name}
                key = (tuple(sorted(condition.items())), rule.order)
                if key not in seen:
                    seen.add(key)
                    new_cpt.add_rule(condition, rule.order)
            self._cpts[child] = new_cpt
        for parent_name in self.parents(name):
            self._children[parent_name].discard(name)
        del self._variables[name]
        del self._cpts[name]
        self._children.pop(name, None)
        self._version += 1

    # ----- semantics ------------------------------------------------------------

    def check_outcome(self, outcome: Assignment) -> dict[str, str]:
        """Validate that *outcome* assigns a domain value to every variable."""
        missing = [n for n in self._variables if n not in outcome]
        if missing:
            raise UnknownVariableError(f"outcome is missing variables {missing}")
        extra = [n for n in outcome if n not in self._variables]
        if extra:
            raise UnknownVariableError(f"outcome assigns unknown variables {extra}")
        for name, value in outcome.items():
            self._variables[name].check_value(value)
        return dict(outcome)

    def check_partial(self, partial: Assignment) -> dict[str, str]:
        """Validate a partial assignment (evidence) against the network."""
        for name, value in partial.items():
            self.variable(name).check_value(value)
        return dict(partial)

    def topological_order(self) -> list[str]:
        """Variables ordered parents-before-children (stable: insertion order
        breaks ties)."""
        indegree = {n: len(self._cpts[n].parents) for n in self._variables}
        ready = deque(n for n in self._variables if indegree[n] == 0)
        order: list[str] = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for child in sorted(self._children.get(node, ())):
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(self._variables):
            raise CyclicNetworkError(f"network {self.name!r} contains a cycle")
        return order

    def _assert_acyclic(self) -> None:
        self.topological_order()

    def validate(self) -> None:
        """Full structural validation: acyclicity plus complete CPTs."""
        self.topological_order()
        for cpt in self._cpts.values():
            cpt.validate()

    def copy(self) -> "CPNet":
        """Deep-copy the network (variables are immutable and shared)."""
        clone = CPNet(name=self.name)
        for var_name in self.topological_order():
            variable = self._variables[var_name]
            cpt = self._cpts[var_name]
            clone.add_variable(
                variable.name, variable.domain, cpt.parent_names, variable.description
            )
            for rule in cpt.rules:
                clone.add_rule(variable.name, dict(rule.condition), rule.order)
        return clone

    def __repr__(self) -> str:
        return f"CPNet({self.name!r}, {len(self)} variables, {len(self.edges())} edges)"
