"""Conditional preference tables (CPTs).

A CPT attaches to one variable ``v`` and, for every assignment to the
parents ``Π(v)``, gives a total order over ``D(v)`` — the author's
preference among presentations of that component *given* how the parent
components are presented, all else being equal.

Authoring convenience: a :class:`PreferenceRule` may condition on only a
subset of the parents; the most *specific* applicable rule wins. The
Figure 2 table ``(c1=c11 ∧ c2=c12) ∨ (c1=c21 ∧ c2=c22) : c13 ≻ c23`` is
expressed as two rules with conjunctive conditions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import IncompleteTableError, UnknownValueError, UnknownVariableError
from repro.cpnet.variable import Variable

Assignment = Mapping[str, str]

#: Largest parent space :meth:`CPT.validate` enumerates.
VALIDATION_SPACE_LIMIT = 100_000


@dataclass(frozen=True)
class PreferenceRule:
    """One row of a CPT: *when* ``condition`` holds, prefer ``order``.

    ``condition`` maps parent names to required values; it may mention any
    subset of the parents (an empty condition is an unconditional rule).
    ``order`` is a total order over the target variable's domain, most
    preferred first.
    """

    condition: tuple[tuple[str, str], ...]
    order: tuple[str, ...]

    @classmethod
    def make(cls, condition: Assignment, order: Iterable[str]) -> "PreferenceRule":
        """Build a rule from a condition mapping and an ordered value list."""
        items = tuple(sorted(condition.items()))
        return cls(condition=items, order=tuple(order))

    @property
    def specificity(self) -> int:
        """How many parents the condition mentions (ties break to error)."""
        return len(self.condition)

    def applies_to(self, parent_assignment: Assignment) -> bool:
        """True when every conjunct of the condition holds in *parent_assignment*."""
        return all(parent_assignment.get(name) == value for name, value in self.condition)

    def __str__(self) -> str:
        cond = " & ".join(f"{n}={v}" for n, v in self.condition) or "true"
        return f"[{cond}] : {' > '.join(self.order)}"


@dataclass
class CPT:
    """The conditional preference table of a single variable.

    Parameters
    ----------
    variable:
        The variable this table orders.
    parents:
        The parent variables, in a fixed order.

    Its preference rules (:attr:`rules`, appended by :meth:`add_rule`)
    must together cover every assignment to the parents unambiguously
    (checked by :meth:`validate`).
    """

    variable: Variable
    parents: tuple[Variable, ...]
    rules: list[PreferenceRule] = field(default_factory=list, init=False)
    #: The compiled engine's flat table of this CPT (repro.cpnet.compiled
    #: keeps it here so an edit elsewhere in the net never rebuilds it).
    #: Derived state: not part of the table's value, repr or serialization.
    _flat: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.parents = tuple(self.parents)
        parent_names = [p.name for p in self.parents]
        if len(set(parent_names)) != len(parent_names):
            raise ValueError(f"duplicate parents for {self.variable.name!r}: {parent_names}")
        if self.variable.name in parent_names:
            raise ValueError(f"variable {self.variable.name!r} cannot be its own parent")

    @property
    def parent_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parents)

    def add_rule(self, condition: Assignment, order: Iterable[str]) -> PreferenceRule:
        """Append a rule; returns it. Raises on unknown names/values."""
        rule = PreferenceRule.make(condition, order)
        self._check_rule(rule)
        self.rules.append(rule)
        return rule

    def _check_rule(self, rule: PreferenceRule) -> None:
        by_name = {p.name: p for p in self.parents}
        for name, value in rule.condition:
            parent = by_name.get(name)
            if parent is None:
                raise UnknownVariableError(
                    f"rule for {self.variable.name!r} conditions on {name!r}, "
                    f"which is not among its parents {sorted(by_name)}"
                )
            parent.check_value(value)
        if sorted(rule.order) != sorted(self.variable.domain):
            raise UnknownValueError(
                f"rule order {rule.order!r} must be a permutation of "
                f"D({self.variable.name}) = {self.variable.domain!r}"
            )

    # ----- lookup ---------------------------------------------------------

    def rule_for(self, parent_assignment: Assignment) -> PreferenceRule:
        """Return the single most-specific rule applying to *parent_assignment*.

        Raises :class:`IncompleteTableError` when no rule applies or two
        incomparable rules tie on specificity.
        """
        applicable = [rule for rule in self.rules if rule.applies_to(parent_assignment)]
        if not applicable:
            shown = {name: parent_assignment.get(name) for name in self.parent_names}
            raise IncompleteTableError(
                f"CPT({self.variable.name}) has no rule for parent assignment {shown}"
            )
        best = max(applicable, key=lambda rule: rule.specificity)
        ties = [r for r in applicable if r.specificity == best.specificity]
        if len(ties) > 1:
            raise IncompleteTableError(
                f"CPT({self.variable.name}) is ambiguous for "
                f"{dict(parent_assignment)}: {[str(r) for r in ties]}"
            )
        return best

    def order_for(self, parent_assignment: Assignment) -> tuple[str, ...]:
        """The author's total order over D(variable), most preferred first."""
        return self.rule_for(parent_assignment).order

    def best_value(self, parent_assignment: Assignment) -> str:
        """The most preferred value given the parents."""
        return self.order_for(parent_assignment)[0]

    def prefers(self, parent_assignment: Assignment, left: str, right: str) -> bool:
        """True when *left* is strictly preferred to *right* given the parents."""
        self.variable.check_value(left)
        self.variable.check_value(right)
        order = self.order_for(parent_assignment)
        return order.index(left) < order.index(right)

    def improvements(self, parent_assignment: Assignment, value: str) -> tuple[str, ...]:
        """Values strictly preferred to *value* given the parents (best first)."""
        self.variable.check_value(value)
        order = self.order_for(parent_assignment)
        return order[: order.index(value)]

    # ----- validation -----------------------------------------------------

    def iter_parent_assignments(self) -> Iterator[dict[str, str]]:
        """Enumerate every full assignment to the parents."""
        names = self.parent_names
        domains = [p.domain for p in self.parents]
        for combo in itertools.product(*domains):
            yield dict(zip(names, combo))

    def parent_space_size(self) -> int:
        """Number of distinct full parent assignments."""
        size = 1
        for parent in self.parents:
            size *= len(parent.domain)
        return size

    def validate(self) -> None:
        """Check the table covers the whole parent space unambiguously.

        Enumerates the parent space, so it refuses when that space exceeds
        :data:`VALIDATION_SPACE_LIMIT`; lookups still validate lazily then.
        """
        if not self.rules:
            raise IncompleteTableError(f"CPT({self.variable.name}) has no rules")
        space = self.parent_space_size()
        if space > VALIDATION_SPACE_LIMIT:
            raise IncompleteTableError(
                f"CPT({self.variable.name}) parent space ({space}) exceeds "
                f"validation limit ({VALIDATION_SPACE_LIMIT}); validate lazily instead"
            )
        for assignment in self.iter_parent_assignments():
            self.rule_for(assignment)

    def __str__(self) -> str:
        rows = "; ".join(str(rule) for rule in self.rules)
        return f"CPT({self.variable.name} | {', '.join(self.parent_names)}) {rows}"
