"""The database engine: tables + journal + blob store + snapshots.

A :class:`Database` lives in a directory::

    <dir>/snapshot.json   tables (schemas, indexes, rows) at last checkpoint
    <dir>/journal.log     write-ahead journal since that checkpoint
    <dir>/blobs.dat       blob payloads

Mutations are journaled before being applied; explicit transactions give
atomic multi-operation commit/rollback (with in-memory undo), and crash
recovery replays only committed work — see :mod:`repro.db.journal`.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator, Mapping

from repro.errors import DatabaseError, TransactionError
from repro.obs import LATENCY_BUCKETS, get_event_log, get_registry
from repro.db import journal as jrn
from repro.db.blobstore import BlobRef, BlobStore
from repro.db.journal import Journal
from repro.db.query import ALL, Predicate
from repro.db.schema import TableSchema
from repro.db.table import Table

_SNAPSHOT = "snapshot.json"
_JOURNAL = "journal.log"
_BLOBS = "blobs.dat"


class Database:
    """An embedded relational database rooted at a directory.

    Use as a context manager or call :meth:`close` explicitly. A single
    writer is assumed (the interaction server), matching the paper's
    architecture where all fetching/storing "occurs at the server's side".
    """

    def __init__(
        self, directory: str, checkpoint_journal_bytes: int | None = 8 * 1024 * 1024
    ) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        obs = get_registry()
        self._m_queries = obs.counter("db.queries")
        self._m_query_latency = obs.histogram("db.query_latency_s", LATENCY_BUCKETS)
        self._m_commits = obs.counter("db.transactions.committed")
        self._events = get_event_log()
        self._tables: dict[str, Table] = {}
        self.blobs = BlobStore(os.path.join(directory, _BLOBS))
        self._load_snapshot()
        self._journal = Journal(os.path.join(directory, _JOURNAL))
        self._recover()
        self._undo: list[tuple] | None = None
        #: Auto-checkpoint when the journal outgrows this (None = manual only).
        self.checkpoint_journal_bytes = checkpoint_journal_bytes
        self.auto_checkpoints = 0

    # ----- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._journal.in_transaction:
            self.rollback()
        self._journal.close()
        self.blobs.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----- catalog ---------------------------------------------------------------

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._tables))

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise DatabaseError(f"no table {name!r}; know {sorted(self._tables)}") from None

    def create_table(self, schema: TableSchema, if_not_exists: bool = False) -> Table:
        if schema.name in self._tables:
            if if_not_exists:
                return self._tables[schema.name]
            raise DatabaseError(f"table {schema.name!r} already exists")
        with self._autocommit():
            self._journal.log(jrn.CREATE_TABLE, {"schema": schema.to_dict()})
            table = Table(schema)
            self._tables[schema.name] = table
            self._push_undo(("drop_table", schema.name))
        return table

    def drop_table(self, name: str) -> None:
        table = self.table(name)
        with self._autocommit():
            self._journal.log(jrn.DROP_TABLE, {"table": name})
            del self._tables[name]
            self._push_undo(("restore_table", table))

    def create_index(
        self, table_name: str, column: str, kind: str = "hash", unique: bool = False
    ) -> None:
        table = self.table(table_name)
        with self._autocommit():
            self._journal.log(
                jrn.CREATE_INDEX,
                {"table": table_name, "column": column, "kind": kind, "unique": unique},
            )
            index = table.create_index(column, kind=kind, unique=unique)
            self._push_undo(("drop_index", table_name, index.name))

    # ----- transactions -------------------------------------------------------------

    def begin(self) -> None:
        self._journal.begin()
        self._undo = []

    def commit(self) -> None:
        self._journal.commit()
        self._m_commits.inc()
        self._undo = None
        # Replay time is bounded by journal length; compact when it
        # outgrows the configured budget (one snapshot amortizes many
        # commits).
        if (
            self.checkpoint_journal_bytes is not None
            and self._journal.size_bytes > self.checkpoint_journal_bytes
        ):
            self.checkpoint()
            self.auto_checkpoints += 1

    def rollback(self) -> None:
        """Abort: journal the rollback and undo in-memory effects (LIFO)."""
        self._journal.rollback()
        undo = self._undo or []
        self._events.emit("db.rollback", severity="WARN", undo_actions=len(undo))
        for action in reversed(undo):
            self._apply_undo(action)
        self._undo = None

    @contextmanager
    def transaction(self) -> Iterator["Database"]:
        """``with db.transaction():`` — commit on success, rollback on error."""
        self.begin()
        try:
            yield self
        except BaseException:
            self.rollback()
            raise
        else:
            self.commit()

    @contextmanager
    def _autocommit(self) -> Iterator[None]:
        """Wrap a single op in a transaction unless one is already open."""
        if self._journal.in_transaction:
            yield
            return
        self.begin()
        try:
            yield
        except BaseException:
            self.rollback()
            raise
        else:
            self.commit()

    def _push_undo(self, action: tuple) -> None:
        if self._undo is not None:
            self._undo.append(action)

    def _apply_undo(self, action: tuple) -> None:
        kind = action[0]
        if kind == "delete_row":
            _, table, pk = action
            if table in self._tables and pk in self._tables[table]:
                self._tables[table].delete(pk)
        elif kind == "restore_row":
            _, table, row = action
            if table in self._tables:
                pk = row[self._tables[table].pk_column]
                if pk in self._tables[table]:
                    self._tables[table].delete(pk)
                self._tables[table].insert(row)
        elif kind == "drop_table":
            self._tables.pop(action[1], None)
        elif kind == "restore_table":
            table = action[1]
            self._tables[table.name] = table
        elif kind == "drop_index":
            _, table, index_name = action
            if table in self._tables:
                self._tables[table].drop_index(index_name)
        else:  # pragma: no cover - defensive
            raise DatabaseError(f"unknown undo action {kind!r}")

    # ----- DML --------------------------------------------------------------------

    def insert(self, table_name: str, row: Mapping[str, Any]) -> dict[str, Any]:
        table = self.table(table_name)
        with self._autocommit():
            stored = table.insert(row)
            self._journal.log(
                jrn.INSERT, {"table": table_name, "row": table.schema.encode_row(stored)}
            )
            self._push_undo(("delete_row", table_name, stored[table.pk_column]))
        return stored

    def update(self, table_name: str, pk: Any, changes: Mapping[str, Any]) -> dict[str, Any]:
        table = self.table(table_name)
        with self._autocommit():
            before = table.get(pk)
            if before is None:
                raise DatabaseError(f"table {table_name!r} has no row {pk!r}")
            after = table.update(pk, changes)
            self._journal.log(
                jrn.UPDATE,
                {
                    "table": table_name,
                    "pk": table.schema.primary_key.type.encode(pk),
                    "changes": table.schema.encode_row(
                        {k: after[k] for k in changes}
                    ),
                },
            )
            self._push_undo(("restore_row", table_name, before))
        return after

    def delete(self, table_name: str, pk: Any) -> dict[str, Any]:
        table = self.table(table_name)
        with self._autocommit():
            row = table.delete(pk)
            self._journal.log(
                jrn.DELETE,
                {"table": table_name, "pk": table.schema.primary_key.type.encode(pk)},
            )
            self._push_undo(("restore_row", table_name, row))
        return row

    # ----- reads -------------------------------------------------------------------

    def get(self, table_name: str, pk: Any) -> dict[str, Any] | None:
        return self.table(table_name).get(pk)

    def select(self, table_name: str, predicate: Predicate = ALL) -> list[dict[str, Any]]:
        self._m_queries.inc()
        started = perf_counter()
        rows = self.table(table_name).select(predicate)
        self._m_query_latency.observe(perf_counter() - started)
        return rows

    def count(self, table_name: str) -> int:
        """The number of rows in *table_name*."""
        self._m_queries.inc()
        started = perf_counter()
        result = self.table(table_name).count(ALL)
        self._m_query_latency.observe(perf_counter() - started)
        return result

    # ----- blobs ---------------------------------------------------------------------

    def put_blob(self, payload: bytes) -> BlobRef:
        """Store a payload in the blob store (outside row transactions)."""
        return self.blobs.put(payload)

    def get_blob(self, ref: BlobRef | int) -> bytes:
        return self.blobs.get(ref)

    # ----- durability ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Snapshot all tables and truncate the journal."""
        if self._journal.in_transaction:
            raise TransactionError("cannot checkpoint inside a transaction")
        journal_bytes = self._journal.size_bytes
        snapshot = {
            "tables": [
                {
                    "schema": table.schema.to_dict(),
                    "indexes": [
                        {"column": ix.column, "kind": ix.kind, "unique": ix.unique}
                        for ix in table.indexes
                    ],
                    "rows": [table.schema.encode_row(row) for row in table.scan()],
                }
                for table in self._tables.values()
            ]
        }
        tmp = os.path.join(self.directory, _SNAPSHOT + ".tmp")
        with open(tmp, "w", encoding="utf-8") as file:
            json.dump(snapshot, file, separators=(",", ":"))
            file.flush()
            os.fsync(file.fileno())
        os.replace(tmp, os.path.join(self.directory, _SNAPSHOT))
        self._journal.truncate()
        self._journal.checkpoint()
        self._events.emit(
            "db.checkpoint", tables=len(self._tables), journal_bytes=journal_bytes
        )

    def _load_snapshot(self) -> None:
        path = os.path.join(self.directory, _SNAPSHOT)
        if not os.path.exists(path):
            return
        with open(path, encoding="utf-8") as file:
            snapshot = json.load(file)
        for entry in snapshot.get("tables", []):
            schema = TableSchema.from_dict(entry["schema"])
            table = Table(schema)
            self._tables[schema.name] = table
            for raw in entry.get("rows", []):
                table.insert(schema.decode_row(raw))
            for ix in entry.get("indexes", []):
                table.create_index(ix["column"], kind=ix["kind"], unique=ix["unique"])

    def _recover(self) -> None:
        """Apply committed journal operations on top of the snapshot."""
        for record in self._journal.committed_operations():
            data = record.data
            if record.op == jrn.CREATE_TABLE:
                schema = TableSchema.from_dict(data["schema"])
                if schema.name not in self._tables:
                    self._tables[schema.name] = Table(schema)
            elif record.op == jrn.DROP_TABLE:
                self._tables.pop(data["table"], None)
            elif record.op == jrn.CREATE_INDEX:
                table = self._tables.get(data["table"])
                if table is not None:
                    try:
                        table.create_index(
                            data["column"], kind=data["kind"], unique=data["unique"]
                        )
                    except DatabaseError:
                        pass  # snapshot already had it
            elif record.op == jrn.INSERT:
                table = self._tables.get(data["table"])
                if table is not None:
                    row = table.schema.decode_row(data["row"])
                    pk = row[table.pk_column]
                    if pk in table:
                        table.delete(pk)
                    table.insert(row)
            elif record.op == jrn.UPDATE:
                table = self._tables.get(data["table"])
                if table is not None:
                    pk = table.schema.primary_key.type.decode(data["pk"])
                    if pk in table:
                        table.update(pk, table.schema.decode_row(data["changes"]))
            elif record.op == jrn.DELETE:
                table = self._tables.get(data["table"])
                if table is not None:
                    pk = table.schema.primary_key.type.decode(data["pk"])
                    if pk in table:
                        table.delete(pk)
