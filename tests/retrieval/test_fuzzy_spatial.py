"""Unit tests for fuzzy queries and the annotation quadtree."""

import random

import pytest

from repro.db import Column, Database, INTEGER, MultimediaObjectStore, TableSchema
from repro.errors import DatabaseError
from repro.retrieval import (
    AnnotationSpatialIndex,
    FuzzyQuery,
    Quadtree,
    about,
    at_least,
    fuzzy_and,
    fuzzy_or,
)
from repro.retrieval.fuzzy import equals

ROWS = [
    {"name": "alice", "age": 61, "lesion_mm": 9.0, "ward": "icu"},
    {"name": "bob", "age": 40, "lesion_mm": 12.0, "ward": "er"},
    {"name": "carol", "age": 58, "lesion_mm": 3.0, "ward": "icu"},
    {"name": "dave", "age": 64, "lesion_mm": 8.5, "ward": None},
]


class TestMembershipFunctions:
    def test_about_triangular(self):
        grade = about("age", 60, 10)
        assert grade({"age": 60}) == 1.0
        assert grade({"age": 55}) == pytest.approx(0.5)
        assert grade({"age": 75}) == 0.0
        assert grade({"age": None}) == 0.0
        assert grade({}) == 0.0

    def test_at_least_ramp(self):
        grade = at_least("lesion_mm", 8, 4)
        assert grade({"lesion_mm": 9}) == 1.0
        assert grade({"lesion_mm": 6}) == pytest.approx(0.5)
        assert grade({"lesion_mm": 3}) == 0.0

    def test_equals(self):
        grade = equals("ward", "icu")
        assert grade({"ward": "icu"}) == 1.0
        assert grade({"ward": "er"}) == 0.0

    def test_booleans_not_numeric(self):
        assert about("age", 1, 1)({"age": True}) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(DatabaseError):
            about("age", 60, 0)
        with pytest.raises(DatabaseError):
            at_least("x", 1, -1)


class TestCombinators:
    def test_min_t_norm(self):
        grade = fuzzy_and(about("age", 60, 10), at_least("lesion_mm", 8, 4))
        assert grade(ROWS[0]) == pytest.approx(0.9)  # min(0.9, 1.0)

    def test_or_takes_max(self):
        grade = fuzzy_or(equals("ward", "icu"), at_least("lesion_mm", 10, 2))
        assert grade(ROWS[1]) == 1.0  # big lesion, wrong ward
        assert grade(ROWS[2]) == 1.0  # icu, small lesion

    def test_validation(self):
        with pytest.raises(DatabaseError):
            fuzzy_and()
        with pytest.raises(DatabaseError):
            fuzzy_or()


class TestTopK:
    def test_ranked_results(self):
        query = FuzzyQuery(fuzzy_and(about("age", 60, 10), at_least("lesion_mm", 8, 4)))
        results = query.top_k(ROWS, k=3)
        assert [r.row["name"] for r in results] == ["alice", "dave"]
        assert results[0].score > results[1].score

    def test_floor_filters(self):
        # A row graded 0 (bob, 20 years off) never ranks, even with room.
        results = FuzzyQuery(about("age", 60, 10)).top_k(ROWS, k=4)
        assert [r.row["name"] for r in results] == ["alice", "carol", "dave"]
        assert all(r.score > 0 for r in results)

    def test_k_validated(self):
        with pytest.raises(DatabaseError):
            FuzzyQuery(equals("a", 1)).top_k(ROWS, k=0)

    def test_works_over_stored_rows(self, tmp_path):
        with Database(str(tmp_path / "db")) as db:
            db.create_table(
                TableSchema(
                    "pts",
                    [
                        Column("id", INTEGER, primary_key=True, autoincrement=True),
                        Column("age", INTEGER),
                    ],
                )
            )
            for age in (30, 59, 62, 90):
                db.insert("pts", {"age": age})
            rows = db.select("pts")
            best = FuzzyQuery(about("age", 60, 10)).top_k(rows, k=1)
            assert best[0].row["age"] == 59 or best[0].row["age"] == 62


class TestQuadtree:
    @pytest.fixture
    def points(self):
        rng = random.Random(3)
        return [(rng.uniform(0, 200), rng.uniform(0, 200), i) for i in range(300)]

    @pytest.fixture
    def tree(self, points):
        tree = Quadtree(200, 200)
        for x, y, payload in points:
            tree.insert(x, y, payload)
        return tree

    def test_rect_query_matches_brute_force(self, tree, points):
        hits = tree.query_rect(30, 40, 120, 90)
        expected = sorted(p for x, y, p in points if 30 <= x <= 120 and 40 <= y <= 90)
        assert sorted(h.payload for h in hits) == expected

    def test_nearest_matches_brute_force(self, tree, points):
        for probe in ((0, 0), (100, 100), (199, 3)):
            hit = tree.nearest(*probe)
            best = min(points, key=lambda p: (p[0] - probe[0]) ** 2 + (p[1] - probe[1]) ** 2)
            assert hit.payload == best[2]

    def test_empty_tree(self):
        tree = Quadtree(10, 10)
        assert tree.nearest(5, 5) is None
        assert tree.query_rect(0, 0, 10, 10) == []

    def test_out_of_bounds_rejected(self):
        tree = Quadtree(10, 10)
        with pytest.raises(DatabaseError, match="outside"):
            tree.insert(11, 5)

    def test_bad_rectangle(self):
        with pytest.raises(DatabaseError):
            Quadtree(10, 10).query_rect(5, 5, 1, 1)

    def test_duplicate_points_allowed(self):
        tree = Quadtree(10, 10)
        for i in range(20):  # exceeds node capacity at one spot
            tree.insert(5, 5, i)
        assert len(tree.query_rect(5, 5, 5, 5)) == 20


class TestAnnotationIndex:
    def test_from_store_round_trip(self, tmp_path):
        with Database(str(tmp_path / "db")) as db:
            store = MultimediaObjectStore(db)
            store.store_annotation("doc", "ct", "lee", {"type": "text", "text": "a", "x": 10, "y": 20})
            store.store_annotation("doc", "ct", "cho", {"type": "text", "text": "b", "x": 150, "y": 150})
            store.store_annotation("doc", "ct", "lee", {"type": "note"})  # no position
            index = AnnotationSpatialIndex.from_store(store, "doc", "ct", 256, 256)
            assert len(index) == 2
            assert index.skipped == 1
            in_region = index.marks_in_region(0, 0, 100, 100)
            assert [m["text"] for m in in_region] == ["a"]
            assert index.mark_near(140, 160)["text"] == "b"
            assert in_region[0]["viewer"] == "lee"
