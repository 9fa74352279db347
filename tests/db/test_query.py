"""Unit tests for query predicates."""

from repro.db import Eq
from repro.db.query import ALL

ROW = {"id": 3, "name": "alice", "age": 41, "note": None}


class TestComparisons:
    def test_eq(self):
        assert Eq("name", "alice").matches(ROW)
        assert not Eq("name", "bob").matches(ROW)

    def test_eq_null_never_matches(self):
        assert not Eq("note", None).matches(ROW)

    def test_missing_column(self):
        assert not Eq("ghost", 1).matches(ROW)


class TestCombinators:
    def test_all(self):
        assert ALL.matches(ROW)
        assert ALL.matches({})


class TestHints:
    def test_eq_hint(self):
        assert Eq("id", 3).equality_hints() == {"id": 3}
        assert ALL.equality_hints() == {}
