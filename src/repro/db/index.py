"""Secondary indexes: hash (dict buckets) and ordered (sorted array).

Indexes map a column value to the set of primary keys of rows holding it.
They are maintained incrementally by the table on every mutation and are
rebuilt from the heap on recovery (indexes are not journaled — they are
derived state).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable

from repro.errors import DatabaseError, DuplicateKeyError


class Index:
    """Base class of secondary indexes over one column."""

    kind: str = "abstract"

    def __init__(self, name: str, column: str, unique: bool = False) -> None:
        self.name = name
        self.column = column
        self.unique = unique

    def _check_unique(self, value: Any, existing: Iterable[Any]) -> None:
        if self.unique and any(True for _ in existing):
            raise DuplicateKeyError(
                f"unique index {self.name!r} already holds {self.column}={value!r}"
            )


class HashIndex(Index):
    """Dict-backed equality index (O(1) point lookups)."""

    kind = "hash"

    def __init__(self, name: str, column: str, unique: bool = False) -> None:
        super().__init__(name, column, unique)
        self._buckets: dict[Any, set[Any]] = {}

    def insert(self, value: Any, pk: Any) -> None:
        if value is None:
            return  # NULLs are not indexed.
        bucket = self._buckets.setdefault(value, set())
        self._check_unique(value, bucket)
        bucket.add(pk)

    def delete(self, value: Any, pk: Any) -> None:
        if value is None:
            return
        bucket = self._buckets.get(value)
        if bucket is not None:
            bucket.discard(pk)
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: Any) -> tuple[Any, ...]:
        return tuple(sorted(self._buckets.get(value, ()), key=repr))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class OrderedIndex(Index):
    """Sorted-array equality index.

    Keys must be mutually comparable (the table's type system guarantees
    this per column). Point operations are O(log n) via bisect.
    """

    kind = "ordered"

    def __init__(self, name: str, column: str, unique: bool = False) -> None:
        super().__init__(name, column, unique)
        self._keys: list[Any] = []
        self._pk_sets: list[set[Any]] = []

    def _locate(self, value: Any) -> int:
        return bisect.bisect_left(self._keys, value)

    def insert(self, value: Any, pk: Any) -> None:
        if value is None:
            return
        pos = self._locate(value)
        if pos < len(self._keys) and self._keys[pos] == value:
            self._check_unique(value, self._pk_sets[pos])
            self._pk_sets[pos].add(pk)
        else:
            self._keys.insert(pos, value)
            self._pk_sets.insert(pos, {pk})

    def delete(self, value: Any, pk: Any) -> None:
        if value is None:
            return
        pos = self._locate(value)
        if pos < len(self._keys) and self._keys[pos] == value:
            self._pk_sets[pos].discard(pk)
            if not self._pk_sets[pos]:
                del self._keys[pos]
                del self._pk_sets[pos]

    def lookup(self, value: Any) -> tuple[Any, ...]:
        pos = self._locate(value)
        if pos < len(self._keys) and self._keys[pos] == value:
            return tuple(sorted(self._pk_sets[pos], key=repr))
        return ()

    def __len__(self) -> int:
        return sum(len(s) for s in self._pk_sets)


def make_index(kind: str, name: str, column: str, unique: bool = False) -> Index:
    """Factory keyed by index kind (``"hash"`` or ``"ordered"``)."""
    if kind == "hash":
        return HashIndex(name, column, unique)
    if kind == "ordered":
        return OrderedIndex(name, column, unique)
    raise DatabaseError(f"unknown index kind {kind!r}; know ['hash', 'ordered']")
