"""Fuzzy (graded) queries over relational rows — Fagin-style top-k.

Reference [14] of the paper (Fagin, "Fuzzy Queries in Multimedia Database
Systems") scores rows by *graded* predicates in [0, 1] combined with
t-norms, returning the best-k instead of a boolean filter — exactly what
"similar cases" needs: *age about 60*, *lesion diameter at least 8 mm*,
*ward preferably ICU*.

Graded predicates here are small callables built by :func:`about`,
:func:`at_least` and :func:`equals`; combine with
:func:`fuzzy_and` (the min t-norm) / :func:`fuzzy_or`; evaluate
with :class:`FuzzyQuery`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.errors import DatabaseError

Row = Mapping[str, Any]
Grade = Callable[[Row], float]


def _numeric(row: Row, column: str) -> float | None:
    value = row.get(column)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def about(column: str, target: float, tolerance: float) -> Grade:
    """Triangular membership: 1 at *target*, 0 beyond *tolerance* away."""
    if tolerance <= 0:
        raise DatabaseError(f"tolerance must be > 0, got {tolerance}")

    def grade(row: Row) -> float:
        value = _numeric(row, column)
        if value is None:
            return 0.0
        return max(0.0, 1.0 - abs(value - target) / tolerance)

    return grade


def at_least(column: str, threshold: float, ramp: float) -> Grade:
    """0 below ``threshold - ramp``, 1 at/above *threshold*, linear between."""
    if ramp <= 0:
        raise DatabaseError(f"ramp must be > 0, got {ramp}")

    def grade(row: Row) -> float:
        value = _numeric(row, column)
        if value is None:
            return 0.0
        return min(1.0, max(0.0, (value - (threshold - ramp)) / ramp))

    return grade


def equals(column: str, value: Any) -> Grade:
    """Crisp equality embedded in the graded algebra: 1 or 0."""

    def grade(row: Row) -> float:
        return 1.0 if row.get(column) == value else 0.0

    return grade


def fuzzy_and(*grades: Grade) -> Grade:
    """Conjunction under the min t-norm."""
    if not grades:
        raise DatabaseError("fuzzy_and needs at least one predicate")

    def grade(row: Row) -> float:
        return min(g(row) for g in grades)

    return grade


def fuzzy_or(*grades: Grade) -> Grade:
    """Disjunction under the max t-conorm."""
    if not grades:
        raise DatabaseError("fuzzy_or needs at least one predicate")

    def grade(row: Row) -> float:
        return max(g(row) for g in grades)

    return grade


@dataclass(frozen=True)
class ScoredRow:
    """One top-k result."""

    score: float
    row: dict[str, Any]


class FuzzyQuery:
    """Top-k evaluation of one graded predicate over rows."""

    def __init__(self, grade: Grade) -> None:
        self.grade = grade

    def top_k(self, rows: Iterable[Row], k: int = 5) -> list[ScoredRow]:
        """The k best rows by grade (ties broken stably); a row graded 0
        does not rank."""
        if k < 1:
            raise DatabaseError(f"k must be >= 1, got {k}")
        heap: list[tuple[float, int, dict]] = []
        for index, row in enumerate(rows):
            score = self.grade(row)
            if score <= 0.0:
                continue
            entry = (score, -index, dict(row))
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)
        ranked = sorted(heap, key=lambda e: (-e[0], -e[1]))
        return [ScoredRow(score=score, row=row) for score, _, row in ranked]
