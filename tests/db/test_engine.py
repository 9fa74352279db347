"""Unit tests for the database engine: DDL, DML, transactions, recovery."""

import os

import pytest

from repro import obs
from repro.db import Column, Database, Eq, INTEGER, TEXT, TableSchema
from repro.errors import DatabaseError, DuplicateKeyError, TransactionError


def patients_schema() -> TableSchema:
    return TableSchema(
        "patients",
        (
            Column("id", INTEGER, primary_key=True, autoincrement=True),
            Column("name", TEXT, nullable=False),
            Column("age", INTEGER),
        ),
    )


@pytest.fixture
def db(tmp_path):
    database = Database(str(tmp_path / "db"))
    database.create_table(patients_schema())
    yield database
    database.close()


class TestDDL:
    def test_create_and_list(self, db):
        assert db.table_names == ("patients",)
        assert db.table("patients").name == "patients"

    def test_duplicate_create(self, db):
        with pytest.raises(DatabaseError, match="already exists"):
            db.create_table(patients_schema())
        db.create_table(patients_schema(), if_not_exists=True)  # no error

    def test_drop(self, db):
        db.drop_table("patients")
        with pytest.raises(DatabaseError):
            db.table("patients")

    def test_create_index(self, db):
        db.insert("patients", {"name": "a", "age": 30})
        db.create_index("patients", "age", kind="ordered")
        assert db.table("patients").index_on("age") is not None


class TestDML:
    def test_insert_get(self, db):
        row = db.insert("patients", {"name": "alice", "age": 41})
        assert db.get("patients", row["id"])["name"] == "alice"

    def test_update_delete(self, db):
        pk = db.insert("patients", {"name": "alice", "age": 41})["id"]
        db.update("patients", pk, {"age": 42})
        assert db.get("patients", pk)["age"] == 42
        db.delete("patients", pk)
        assert db.get("patients", pk) is None

    def test_update_missing(self, db):
        with pytest.raises(DatabaseError, match="no row"):
            db.update("patients", 99, {"age": 1})

    def test_select_count(self, db):
        for name, age in [("a", 30), ("b", 40)]:
            db.insert("patients", {"name": name, "age": age})
        assert db.table("patients").count(Eq("age", 40)) == 1
        assert db.select("patients", Eq("name", "a"))[0]["age"] == 30


class TestTransactions:
    def test_commit_groups_ops(self, db):
        with db.transaction():
            db.insert("patients", {"name": "a"})
            db.insert("patients", {"name": "b"})
        assert db.count("patients") == 2

    def test_rollback_undoes_inserts(self, db):
        db.begin()
        db.insert("patients", {"name": "a"})
        db.rollback()
        assert db.count("patients") == 0

    def test_rollback_is_a_warning_in_the_flight_recorder(self, tmp_path):
        log = obs.EventLog()
        with obs.use_event_log(log), Database(str(tmp_path / "db")) as db:
            db.create_table(patients_schema())
            db.begin()
            db.insert("patients", {"name": "a"})
            db.rollback()
        [event] = log.filter("db.rollback")
        assert event.severity == "WARN" and event.fields == {"undo_actions": 1}

    def test_rollback_undoes_updates(self, db):
        pk = db.insert("patients", {"name": "a", "age": 30})["id"]
        db.begin()
        db.update("patients", pk, {"age": 99})
        db.rollback()
        assert db.get("patients", pk)["age"] == 30

    def test_rollback_undoes_deletes(self, db):
        pk = db.insert("patients", {"name": "a"})["id"]
        db.begin()
        db.delete("patients", pk)
        db.rollback()
        assert db.get("patients", pk)["name"] == "a"

    def test_rollback_undoes_ddl(self, db):
        db.begin()
        db.create_table(
            TableSchema("temp", (Column("id", INTEGER, primary_key=True),))
        )
        db.rollback()
        with pytest.raises(DatabaseError):
            db.table("temp")

    def test_rollback_undoes_drop(self, db):
        db.insert("patients", {"name": "a"})
        db.begin()
        db.drop_table("patients")
        db.rollback()
        assert db.count("patients") == 1

    def test_transaction_context_rolls_back_on_error(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("patients", {"name": "a"})
                raise RuntimeError("boom")
        assert db.count("patients") == 0

    def test_failed_autocommit_insert_leaves_no_row(self, db):
        db.insert("patients", {"id": 1, "name": "a"})
        with pytest.raises(DuplicateKeyError):
            db.insert("patients", {"id": 1, "name": "b"})
        assert db.count("patients") == 1

    def test_mixed_ops_rollback_in_order(self, db):
        pk = db.insert("patients", {"name": "keep", "age": 1})["id"]
        db.begin()
        db.update("patients", pk, {"age": 2})
        new_pk = db.insert("patients", {"name": "new"})["id"]
        db.update("patients", new_pk, {"age": 9})
        db.delete("patients", pk)
        db.rollback()
        assert db.count("patients") == 1
        assert db.get("patients", pk) == {"id": pk, "name": "keep", "age": 1}


class TestDurability:
    def test_reopen_replays_committed(self, tmp_path):
        path = str(tmp_path / "db")
        with Database(path) as db:
            db.create_table(patients_schema())
            db.insert("patients", {"name": "alice", "age": 41})
        with Database(path) as db:
            assert db.count("patients") == 1
            assert db.select("patients", Eq("name", "alice"))[0]["age"] == 41

    def test_checkpoint_then_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        with Database(path) as db:
            db.create_table(patients_schema())
            db.create_index("patients", "name")
            db.insert("patients", {"name": "alice"})
            db.checkpoint()
            db.insert("patients", {"name": "bob"})
        with Database(path) as db:
            assert db.count("patients") == 2
            # The index came back from the snapshot and indexes both rows.
            assert db.table("patients").index_on("name").lookup("bob")

    def test_torn_journal_tail_loses_only_uncommitted(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.create_table(patients_schema())
        db.insert("patients", {"name": "committed"})
        # Crash mid-transaction: journal has begin+insert but no commit.
        db.begin()
        db.insert("patients", {"name": "uncommitted"})
        db._journal._file.flush()
        os._exit is not None  # (documenting: we simulate crash by not committing)
        db._journal._file.close()
        db.blobs.close()
        with Database(path) as recovered:
            names = [r["name"] for r in recovered.select("patients")]
            assert names == ["committed"]

    def test_open_transaction_rolled_back_on_close(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        db.create_table(patients_schema())
        db.begin()
        db.insert("patients", {"name": "x"})
        db.close()  # must roll back, not leak the transaction
        with Database(path) as db:
            assert db.count("patients") == 0

    def test_checkpoint_inside_transaction_rejected(self, tmp_path):
        with Database(str(tmp_path / "db")) as db:
            db.begin()
            with pytest.raises(TransactionError):
                db.checkpoint()
            db.rollback()

    def test_autoincrement_continues_after_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        with Database(path) as db:
            db.create_table(patients_schema())
            first = db.insert("patients", {"name": "a"})["id"]
        with Database(path) as db:
            second = db.insert("patients", {"name": "b"})["id"]
        assert second > first


class TestBlobsViaEngine:
    def test_put_get(self, db):
        ref = db.put_blob(b"payload")
        assert db.get_blob(ref) == b"payload"

    def test_blob_survives_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        with Database(path) as db:
            ref = db.put_blob(b"payload")
        with Database(path) as db:
            assert db.get_blob(ref) == b"payload"
