"""Unit tests for indexes and heap tables."""

import pytest

from repro.db import Column, Eq, INTEGER, TEXT, TableSchema
from repro.db.index import HashIndex, OrderedIndex, make_index
from repro.db.table import Table
from repro.errors import DatabaseError, DuplicateKeyError, SchemaError


def make_table() -> Table:
    return Table(
        TableSchema(
            "pts",
            (
                Column("id", INTEGER, primary_key=True, autoincrement=True),
                Column("name", TEXT, nullable=False),
                Column("ward", TEXT),
                Column("age", INTEGER),
            ),
        )
    )


class TestHashIndex:
    def test_insert_lookup_delete(self):
        ix = HashIndex("ix", "ward")
        ix.insert("a", 1)
        ix.insert("a", 2)
        ix.insert("b", 3)
        assert ix.lookup("a") == (1, 2)
        ix.delete("a", 1)
        assert ix.lookup("a") == (2,)
        assert len(ix) == 2

    def test_nulls_not_indexed(self):
        ix = HashIndex("ix", "ward")
        ix.insert(None, 1)
        assert len(ix) == 0
        ix.delete(None, 1)  # no-op, no error

    def test_unique_violation(self):
        ix = HashIndex("ix", "ward", unique=True)
        ix.insert("a", 1)
        with pytest.raises(DuplicateKeyError):
            ix.insert("a", 2)


class TestOrderedIndex:
    def test_point_lookup(self):
        ix = OrderedIndex("ix", "age")
        for age, pk in [(30, 1), (40, 2), (30, 3)]:
            ix.insert(age, pk)
        assert ix.lookup(30) == (1, 3)
        assert ix.lookup(99) == ()

    def test_delete_compacts_keys(self):
        ix = OrderedIndex("ix", "age")
        ix.insert(10, 1)
        ix.delete(10, 1)
        assert ix.lookup(10) == ()
        assert len(ix) == 0

    def test_unique(self):
        ix = OrderedIndex("ix", "age", unique=True)
        ix.insert(10, 1)
        with pytest.raises(DuplicateKeyError):
            ix.insert(10, 2)

    def test_factory(self):
        assert make_index("hash", "n", "c").kind == "hash"
        assert make_index("ordered", "n", "c").kind == "ordered"
        with pytest.raises(DatabaseError):
            make_index("btree", "n", "c")


class TestTableCrud:
    def test_autoincrement(self):
        table = make_table()
        first = table.insert({"name": "a"})
        second = table.insert({"name": "b"})
        assert (first["id"], second["id"]) == (1, 2)

    def test_explicit_pk_advances_counter(self):
        table = make_table()
        table.insert({"id": 10, "name": "a"})
        assert table.insert({"name": "b"})["id"] == 11

    def test_duplicate_pk(self):
        table = make_table()
        table.insert({"id": 1, "name": "a"})
        with pytest.raises(DuplicateKeyError):
            table.insert({"id": 1, "name": "b"})

    def test_get_returns_copy(self):
        table = make_table()
        pk = table.insert({"name": "a"})["id"]
        row = table.get(pk)
        row["name"] = "mutated"
        assert table.get(pk)["name"] == "a"

    def test_update(self):
        table = make_table()
        pk = table.insert({"name": "a", "age": 30})["id"]
        after = table.update(pk, {"age": 31})
        assert after["age"] == 31
        assert table.get(pk)["name"] == "a"

    def test_update_pk_immutable(self):
        table = make_table()
        pk = table.insert({"name": "a"})["id"]
        with pytest.raises(SchemaError, match="immutable"):
            table.update(pk, {"id": pk + 1})

    def test_update_missing_row(self):
        with pytest.raises(DatabaseError, match="no row"):
            make_table().update(99, {"age": 1})

    def test_delete(self):
        table = make_table()
        pk = table.insert({"name": "a"})["id"]
        table.delete(pk)
        assert table.get(pk) is None
        assert len(table) == 0

    def test_select_and_count(self):
        table = make_table()
        for name, age in [("a", 30), ("b", 40), ("c", 50)]:
            table.insert({"name": name, "age": age})
        assert [r["name"] for r in table.select(Eq("age", 40))] == ["b"]
        assert table.count(Eq("age", 40)) == 1
        assert len(table.select()) == 3


class TestTableIndexing:
    def test_index_backfill(self):
        table = make_table()
        table.insert({"name": "a", "ward": "w1"})
        table.insert({"name": "b", "ward": "w2"})
        table.create_index("ward")
        assert [r["name"] for r in table.select(Eq("ward", "w2"))] == ["b"]

    def test_index_maintained_on_update(self):
        table = make_table()
        pk = table.insert({"name": "a", "ward": "w1"})["id"]
        table.create_index("ward")
        table.update(pk, {"ward": "w2"})
        assert table.index_on("ward").lookup("w1") == ()
        assert table.index_on("ward").lookup("w2") == (pk,)

    def test_index_maintained_on_delete(self):
        table = make_table()
        pk = table.insert({"name": "a", "ward": "w1"})["id"]
        table.create_index("ward")
        table.delete(pk)
        assert table.index_on("ward").lookup("w1") == ()

    def test_unique_index_blocks_insert_and_update(self):
        table = make_table()
        table.create_index("name", unique=True)
        table.insert({"name": "a"})
        with pytest.raises(DuplicateKeyError):
            table.insert({"name": "a"})
        pk = table.insert({"name": "b"})["id"]
        with pytest.raises(DuplicateKeyError):
            table.update(pk, {"name": "a"})

    def test_unique_violation_leaves_state_clean(self):
        table = make_table()
        table.create_index("name", unique=True)
        table.insert({"name": "a"})
        before = len(table)
        with pytest.raises(DuplicateKeyError):
            table.insert({"name": "a"})
        assert len(table) == before
        assert len(table.index_on("name").lookup("a")) == 1

    def test_duplicate_index_rejected(self):
        table = make_table()
        table.create_index("ward")
        with pytest.raises(DatabaseError, match="already exists"):
            table.create_index("ward")

    def test_index_on_unknown_column(self):
        with pytest.raises(SchemaError):
            make_table().create_index("ghost")

    def test_hash_preferred_over_ordered_for_points(self):
        table = make_table()
        table.create_index("ward", kind="ordered")
        table.create_index("ward", kind="hash")
        assert table.index_on("ward").kind == "hash"


class TestRangeScanRouting:
    """Routing on a table whose ``age`` column has an ordered index.

    The index serves equality only: a predicate without an equality
    hint on an indexed column is a full scan.
    """

    def _populated(self, kind="ordered"):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            table = make_table()
            if kind:
                table.create_index("age", kind=kind)
            for i in range(20):
                table.insert({"name": f"p{i}", "age": i})
        return table, registry

    def test_eq_uses_ordered_index(self):
        table, registry = self._populated()
        rows = table.select(Eq("age", 7))
        assert [r["name"] for r in rows] == ["p7"]
        counters = registry.snapshot()["counters"]
        assert counters["db.access.full_scan"] == 0
        # Only the one matching row was examined, not all 20.
        assert counters["db.rows_scanned"] == 1

    def test_equality_hint_still_preferred(self):
        table, registry = self._populated()
        table.select(Eq("id", 3))
        counters = registry.snapshot()["counters"]
        assert counters["db.access.pk_lookup"] == 1
        assert counters["db.rows_scanned"] == 1

    def test_no_ordered_index_falls_back_to_full_scan(self):
        table, registry = self._populated(kind=None)
        rows = table.select(Eq("age", 7))
        assert [r["age"] for r in rows] == [7]
        counters = registry.snapshot()["counters"]
        assert counters["db.access.full_scan"] == 1
        assert counters["db.rows_scanned"] == 20
