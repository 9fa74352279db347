"""In-memory heap tables with primary-key and secondary-index maintenance.

A table owns its rows (dict keyed by primary key), assigns autoincrement
ids, and keeps every registered secondary index consistent across
insert/update/delete. Durability lives a level up (engine + journal);
the table is deliberately a pure data structure so recovery can replay
operations into it.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.errors import DatabaseError, DuplicateKeyError, SchemaError
from repro.db.index import Index, make_index
from repro.db.query import ALL, Predicate
from repro.db.schema import TableSchema
from repro.obs import get_registry


class Table:
    """One heap table: schema + rows + secondary indexes."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: dict[Any, dict[str, Any]] = {}
        self._indexes: dict[str, Index] = {}
        self._next_id = 1
        obs = get_registry()
        self._m_rows_scanned = obs.counter("db.rows_scanned")
        # Per-table split of the same count; the flat counter stays the
        # cross-table total existing dashboards key on.
        self._m_rows_scanned_table = obs.counter_family(
            "db.table.rows_scanned", ("table",)
        ).labels(schema.name)
        self._m_access = {
            "pk-lookup": obs.counter("db.access.pk_lookup"),
            "full-scan": obs.counter("db.access.full_scan"),
        }

    # ----- basics ----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, pk: Any) -> bool:
        return pk in self._rows

    @property
    def pk_column(self) -> str:
        return self.schema.primary_key.name

    # ----- indexes ----------------------------------------------------------

    def create_index(self, column: str, kind: str = "hash", unique: bool = False) -> Index:
        """Create (and backfill) a secondary index on *column*."""
        self.schema.column(column)
        name = f"{self.name}_{column}_{kind}"
        if name in self._indexes:
            raise DatabaseError(f"index {name!r} already exists")
        index = make_index(kind, name, column, unique)
        for pk, row in self._rows.items():
            index.insert(row.get(column), pk)
        self._indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        try:
            del self._indexes[name]
        except KeyError:
            raise DatabaseError(f"no index {name!r} on table {self.name!r}") from None

    @property
    def indexes(self) -> tuple[Index, ...]:
        return tuple(self._indexes.values())

    def index_on(self, column: str) -> Index | None:
        """Any index over *column* (hash preferred for point lookups)."""
        candidates = [ix for ix in self._indexes.values() if ix.column == column]
        if not candidates:
            return None
        candidates.sort(key=lambda ix: ix.kind != "hash")
        return candidates[0]

    # ----- mutations -------------------------------------------------------------

    def insert(self, row: Mapping[str, Any]) -> dict[str, Any]:
        """Insert a row; returns the stored row (with assigned pk)."""
        validated = self.schema.validate_row(row)
        pk_col = self.pk_column
        if validated[pk_col] is None:
            if not self.schema.primary_key.autoincrement:
                raise SchemaError(f"table {self.name!r}: primary key {pk_col!r} is required")
            validated[pk_col] = self._next_id
        pk = validated[pk_col]
        if pk in self._rows:
            raise DuplicateKeyError(f"table {self.name!r} already has {pk_col}={pk!r}")
        if isinstance(pk, int):
            self._next_id = max(self._next_id, pk + 1)
        # Unique-index checks may raise; do them before touching state.
        for index in self._indexes.values():
            if index.unique:
                value = validated.get(index.column)
                if value is not None and index.lookup(value):
                    raise DuplicateKeyError(
                        f"unique index {index.name!r} already holds "
                        f"{index.column}={value!r}"
                    )
        self._rows[pk] = validated
        for index in self._indexes.values():
            index.insert(validated.get(index.column), pk)
        return dict(validated)

    def update(self, pk: Any, changes: Mapping[str, Any]) -> dict[str, Any]:
        """Apply a partial update to the row with primary key *pk*."""
        row = self._get(pk)
        validated = self.schema.validate_row(changes, partial=True)
        if self.pk_column in validated and validated[self.pk_column] != pk:
            raise SchemaError(f"table {self.name!r}: primary keys are immutable")
        for index in self._indexes.values():
            if index.column in validated:
                new_value = validated[index.column]
                if (
                    index.unique
                    and new_value is not None
                    and new_value != row.get(index.column)
                    and index.lookup(new_value)
                ):
                    raise DuplicateKeyError(
                        f"unique index {index.name!r} already holds "
                        f"{index.column}={new_value!r}"
                    )
        for index in self._indexes.values():
            if index.column in validated:
                index.delete(row.get(index.column), pk)
        row.update(validated)
        for index in self._indexes.values():
            if index.column in validated:
                index.insert(row.get(index.column), pk)
        return dict(row)

    def delete(self, pk: Any) -> dict[str, Any]:
        """Remove and return the row with primary key *pk*."""
        row = self._get(pk)
        for index in self._indexes.values():
            index.delete(row.get(index.column), pk)
        del self._rows[pk]
        return row

    def _get(self, pk: Any) -> dict[str, Any]:
        try:
            return self._rows[pk]
        except KeyError:
            raise DatabaseError(f"table {self.name!r} has no row {self.pk_column}={pk!r}") from None

    # ----- reads -----------------------------------------------------------------

    def get(self, pk: Any) -> dict[str, Any] | None:
        """Point lookup by primary key (None when absent)."""
        row = self._rows.get(pk)
        return dict(row) if row is not None else None

    def select(self, predicate: Predicate = ALL) -> list[dict[str, Any]]:
        """Rows matching *predicate*, index-routed when a hint is available."""
        candidates = self._candidate_rows(predicate)
        return [dict(row) for row in candidates if predicate.matches(row)]

    def count(self, predicate: Predicate) -> int:
        return sum(1 for row in self._candidate_rows(predicate) if predicate.matches(row))

    def scan(self) -> Iterator[dict[str, Any]]:
        """Full-table scan (copies rows; callers can't corrupt the heap)."""
        for row in self._rows.values():
            yield dict(row)

    def _candidate_rows(self, predicate: Predicate) -> list[dict[str, Any]]:
        """Pick the cheapest access path consistent with the predicate.

        Also accounts the chosen access path and the number of candidate
        rows examined (``db.access.*`` / ``db.rows_scanned``).
        """
        hints = predicate.equality_hints()
        pk_col = self.pk_column
        candidates: list[dict[str, Any]] | None = None
        if pk_col in hints:
            self._m_access["pk-lookup"].inc()
            row = self._rows.get(hints[pk_col])
            candidates = [row] if row is not None else []
        else:
            for column, value in hints.items():
                index = self.index_on(column)
                if index is not None:
                    candidates = [self._rows[pk] for pk in index.lookup(value)]
                    break
        if candidates is None:
            self._m_access["full-scan"].inc()
            candidates = list(self._rows.values())
        self._m_rows_scanned.inc(len(candidates))
        self._m_rows_scanned_table.inc(len(candidates))
        return candidates
