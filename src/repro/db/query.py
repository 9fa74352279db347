"""Predicate objects for row selection, with index-hint extraction.

A :class:`Predicate` evaluates against a row dict. The engine additionally
asks predicates for *equality hints* (``column = constant`` facts implied
by the predicate) so it can route lookups through the primary key or a
secondary index instead of scanning — the classic sargable-predicate trick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

Row = Mapping[str, Any]


class Predicate:
    """Base class: a boolean condition over a row."""

    def matches(self, row: Row) -> bool:
        raise NotImplementedError

    def equality_hints(self) -> dict[str, Any]:
        """``{column: value}`` facts that *must* hold for the predicate.

        Only facts implied by every satisfying row may be returned.
        """
        return {}


@dataclass(frozen=True)
class Eq(Predicate):
    column: str
    value: Any

    def matches(self, row: Row) -> bool:
        return row.get(self.column) == self.value and row.get(self.column) is not None

    def equality_hints(self) -> dict[str, Any]:
        return {self.column: self.value}


class TruePredicate(Predicate):
    """Matches every row (the missing-WHERE-clause predicate)."""

    def matches(self, row: Row) -> bool:
        return True

    def __repr__(self) -> str:
        return "TruePredicate()"


ALL = TruePredicate()
