"""Property-based tests: the engine against a dict reference model.

Hypothesis drives random operation sequences (insert/update/delete/
commit/rollback) through both the real engine and a trivial in-memory
model; after every operation the visible table contents must match, and
after a simulated reopen the committed state must match too. ``Eq``
selects and counts are checked on every access path the planner has:
the primary key, a hash index, an ordered index and a full scan.
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, Eq, INTEGER, TEXT, TableSchema
from repro.db.blobstore import BlobStore
from repro.errors import DatabaseError, DuplicateKeyError


def schema():
    return TableSchema(
        "t",
        (
            Column("id", INTEGER, primary_key=True),
            Column("v", TEXT),
            Column("hv", TEXT),
            Column("ov", TEXT),
        ),
    )


#: ``v`` and its two indexed copies: full scan, hash index, ordered index.
COPIES = ("v", "hv", "ov")
KEYS = range(10)


def assert_eq_matches_model(db, model: dict[int, str], values: set[str]) -> None:
    """``Eq`` on the pk and on each copy of ``v`` returns what *model* holds.

    Probes every key and every value the run writes, so keys and values
    that were deleted, updated away or never committed are probed too.
    """
    assert db.table("t").index_on("hv").kind == "hash"
    assert db.table("t").index_on("ov").kind == "ordered"
    assert {row["id"]: row["v"] for row in db.select("t")} == model
    for probe in KEYS:
        expected = [probe] if probe in model else []
        assert [row["id"] for row in db.select("t", Eq("id", probe))] == expected
        assert db.table("t").count(Eq("id", probe)) == len(expected)
    for probe in values:
        expected = sorted(k for k, v in model.items() if v == probe)
        for column in COPIES:
            rows = db.select("t", Eq(column, probe))
            assert sorted(row["id"] for row in rows) == expected
            assert all(row[copy] == probe for row in rows for copy in COPIES)
            assert db.table("t").count(Eq(column, probe)) == len(expected)


operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from(KEYS), st.text(max_size=4)),
        st.tuples(st.just("update"), st.sampled_from(KEYS), st.text(max_size=4)),
        st.tuples(st.just("delete"), st.sampled_from(KEYS), st.just("")),
        st.tuples(st.just("begin"), st.just(0), st.just("")),
        st.tuples(st.just("commit"), st.just(0), st.just("")),
        st.tuples(st.just("rollback"), st.just(0), st.just("")),
    ),
    max_size=30,
)


@given(operations)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_engine_matches_dict_model(tmp_path_factory, ops):
    directory = str(tmp_path_factory.mktemp("dbprop"))
    db = Database(directory)
    db.create_table(schema())
    db.create_index("t", "hv")
    db.create_index("t", "ov", kind="ordered")
    committed: dict[int, str] = {}
    pending: dict[int, str] | None = None
    values = {value for _, _, value in ops}

    def visible() -> dict[int, str]:
        return committed if pending is None else pending

    try:
        for op, key, value in ops:
            state = visible()
            if op == "insert":
                if key in state:
                    try:
                        db.insert("t", {"id": key, **dict.fromkeys(COPIES, value)})
                        raise AssertionError("expected DuplicateKeyError")
                    except DuplicateKeyError:
                        pass
                else:
                    db.insert("t", {"id": key, **dict.fromkeys(COPIES, value)})
                    state[key] = value
            elif op == "update":
                if key in state:
                    db.update("t", key, dict.fromkeys(COPIES, value))
                    state[key] = value
                else:
                    try:
                        db.update("t", key, dict.fromkeys(COPIES, value))
                        raise AssertionError("expected DatabaseError")
                    except DatabaseError:
                        pass
            elif op == "delete":
                if key in state:
                    db.delete("t", key)
                    del state[key]
                else:
                    try:
                        db.delete("t", key)
                        raise AssertionError("expected DatabaseError")
                    except DatabaseError:
                        pass
            elif op == "begin" and pending is None:
                db.begin()
                pending = dict(committed)
            elif op == "commit" and pending is not None:
                db.commit()
                committed = pending
                pending = None
            elif op == "rollback" and pending is not None:
                db.rollback()
                pending = None
            # Live view must always match the model's visible state.
            assert_eq_matches_model(db, visible(), values)
        if pending is not None:
            db.rollback()
            pending = None
        assert_eq_matches_model(db, committed, values)
    finally:
        db.close()
    # Reopen: recovery must reproduce exactly the committed state.
    with Database(directory) as reopened:
        assert_eq_matches_model(reopened, committed, values)


@given(st.lists(st.binary(max_size=2048), min_size=1, max_size=12), st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_blobstore_round_trips_random_payloads(tmp_path_factory, payloads, data):
    path = os.path.join(str(tmp_path_factory.mktemp("blobprop")), "blobs.dat")
    with BlobStore(path) as store:
        refs = [store.put(payload) for payload in payloads]
        # Delete a random subset.
        doomed = {
            i for i in range(len(refs)) if data.draw(st.booleans(), label=f"del{i}")
        }
        for index in doomed:
            store.delete(refs[index])
        for index, (ref, payload) in enumerate(zip(refs, payloads)):
            if index in doomed:
                assert ref.blob_id not in store
            else:
                assert store.get(ref) == payload
    # Survives reopen with identical contents.
    with BlobStore(path) as store:
        for index, (ref, payload) in enumerate(zip(refs, payloads)):
            if index not in doomed:
                assert store.get(ref) == payload
