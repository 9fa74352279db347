"""Tests for engine maintenance: auto-checkpoint and access paths."""

import os

import pytest

from repro.db import Column, Database, Eq, INTEGER, TEXT, TableSchema
from repro.db.query import ALL
from repro.obs import MetricsRegistry, use_registry


def schema():
    return TableSchema(
        "t",
        (
            Column("id", INTEGER, primary_key=True, autoincrement=True),
            Column("ward", TEXT),
        ),
    )


class TestAutoCheckpoint:
    def test_checkpoint_triggers_on_journal_growth(self, tmp_path):
        db = Database(str(tmp_path / "db"), checkpoint_journal_bytes=4096)
        db.create_table(schema())
        for i in range(200):
            db.insert("t", {"ward": f"ward-{i}"})
        assert db.auto_checkpoints >= 1
        # Journal was compacted below the threshold at the last checkpoint.
        assert db._journal.size_bytes < 4096
        db.close()
        with Database(str(tmp_path / "db")) as reopened:
            assert reopened.count("t") == 200

    def test_disabled_when_none(self, tmp_path):
        db = Database(str(tmp_path / "db"), checkpoint_journal_bytes=None)
        db.create_table(schema())
        for i in range(200):
            db.insert("t", {"ward": f"w{i}"})
        assert db.auto_checkpoints == 0
        assert db._journal.size_bytes > 4096
        db.close()

    def test_no_checkpoint_inside_explicit_transaction(self, tmp_path):
        db = Database(str(tmp_path / "db"), checkpoint_journal_bytes=512)
        db.create_table(schema())
        with db.transaction():
            for i in range(100):
                db.insert("t", {"ward": f"w{i}"})
        # The commit at the end may checkpoint, but never mid-transaction.
        assert db.count("t") == 100
        db.close()

    def test_snapshot_file_written(self, tmp_path):
        db = Database(str(tmp_path / "db"), checkpoint_journal_bytes=1024)
        db.create_table(schema())
        for i in range(100):
            db.insert("t", {"ward": "w"})
        assert os.path.exists(str(tmp_path / "db" / "snapshot.json"))
        db.close()


class TestExplain:
    """The access path a select takes (what SQL's EXPLAIN reports), read
    off the ``db.access.*`` and per-table ``rows_scanned`` counters of a
    database reopened from its journal, so the rebuilt index is the one
    exercised."""

    @pytest.fixture
    def db(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            database = Database(str(tmp_path / "db"))
            database.create_table(schema())
            database.create_index("t", "ward")
            for ward in ("icu", "er", "icu", "ward"):
                database.insert("t", {"ward": ward})
            database.close()
            database = Database(str(tmp_path / "db"))
        yield database, registry
        database.close()

    @staticmethod
    def route(db, predicate):
        """``(rows, (pk lookups, full scans, rows scanned))`` of one select."""
        database, registry = db
        names = ("db.access.pk_lookup", "db.access.full_scan", 'db.table.rows_scanned{table="t"}')
        before = registry.snapshot()["counters"]
        rows = database.select("t", predicate)
        after = registry.snapshot()["counters"]
        return rows, tuple(after[name] - before[name] for name in names)

    def test_pk_lookup(self, db):
        rows, deltas = self.route(db, Eq("id", 3))
        assert [row["ward"] for row in rows] == ["icu"]
        assert deltas == (1, 0, 1)

    def test_index_path(self, db):
        rows, deltas = self.route(db, Eq("ward", "icu"))
        assert [row["id"] for row in rows] == [1, 3]
        # Only the two indexed rows were examined, not all four.
        assert deltas == (0, 0, 2)

    def test_full_scan(self, db):
        rows, deltas = self.route(db, ALL)
        assert len(rows) == 4
        assert deltas == (0, 1, 4)
