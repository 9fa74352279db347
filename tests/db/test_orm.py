"""Unit tests for the multimedia object store (Fig. 7 catalog + ORM)."""

import pytest

from repro.db import (
    AUDIO_OBJECTS_TABLE,
    Column,
    Database,
    IMAGE_OBJECTS_TABLE,
    INTEGER,
    MULTIMEDIA_OBJECTS_TABLE,
    MultimediaObjectStore,
    TEXT,
    TableSchema,
)
from repro.db.types import BLOB
from repro.document import build_sample_medical_record
from repro.errors import DatabaseError


@pytest.fixture
def store(tmp_path):
    db = Database(str(tmp_path / "db"))
    yield MultimediaObjectStore(db)
    db.close()


class TestCatalog:
    def test_builtin_types(self, store):
        names = [t["FLD_NAME"] for t in store.db.select(MULTIMEDIA_OBJECTS_TABLE)]
        assert names == ["Image", "Audio", "Compressed", "Document"]

    def test_catalog_idempotent(self, store):
        # Re-wrapping the same database must not duplicate catalog rows.
        MultimediaObjectStore(store.db)
        assert store.db.count(MULTIMEDIA_OBJECTS_TABLE) == 4

    def test_object_table_dispatch(self, store):
        assert store.object_table_for("Image") == IMAGE_OBJECTS_TABLE
        assert store.object_table_for("Audio") == AUDIO_OBJECTS_TABLE
        with pytest.raises(DatabaseError, match="no multimedia type"):
            store.object_table_for("Video")

    def test_register_new_type(self, store):
        store.db.create_table(
            TableSchema(
                "VIDEO_OBJECTS_TABLE",
                (
                    Column("ID", INTEGER, primary_key=True, autoincrement=True),
                    Column("FLD_CODEC", TEXT),
                    Column("FLD_DATA", BLOB, nullable=False),
                ),
            )
        )
        store.register_type("Video", "video/mp4", "VIDEO_OBJECTS_TABLE")
        obj = store.store("Video", {"FLD_CODEC": "h264"}, b"frames")
        row, payload = store.fetch(obj)
        assert payload == b"frames"
        assert row["FLD_CODEC"] == "h264"

    def test_register_type_requires_table(self, store):
        with pytest.raises(DatabaseError):
            store.register_type("Video", "video/mp4", "NO_SUCH_TABLE")


class TestObjects:
    def test_image_round_trip(self, store):
        obj = store.store_image(b"pixels", quality=3, texts=[{"x": 1, "y": 2, "text": "note"}])
        row, payload = store.fetch(obj)
        assert payload == b"pixels"
        assert row["FLD_QUALITY"] == 3
        assert row["FLD_TEXTS"][0]["text"] == "note"

    def test_image_with_compression_matrix(self, store):
        obj = store.store_image(b"pixels", compression_matrix=b"matrix")
        row, _ = store.fetch(obj)
        assert store.db.get_blob(row["FLD_CM"]) == b"matrix"

    def test_audio_round_trip(self, store):
        obj = store.store_audio(b"samples", filename="note.wav", sectors=[{"t0": 0, "t1": 5}])
        row, payload = store.fetch(obj)
        assert payload == b"samples"
        assert row["FLD_FILENAME"] == "note.wav"

    def test_compressed_round_trip(self, store):
        obj = store.store_compressed(b"stream", header=b"hdr", filename="ct.mlc")
        row, payload = store.fetch(obj)
        assert payload == b"stream"
        assert row["FLD_FILESIZE"] == len(b"stream")
        assert store.db.get_blob(row["FLD_HEADER"]) == b"hdr"

    def test_media_ref_round_trip(self, store):
        obj = store.store_image(b"pixels")
        row, payload = store.fetch(obj.media_ref)
        assert payload == b"pixels"

    def test_fetch_row_skips_payload(self, store):
        obj = store.store_image(b"pixels", quality=1)
        row = store.fetch_row(obj)
        assert row["FLD_QUALITY"] == 1

    def test_bad_media_ref(self, store):
        with pytest.raises(DatabaseError, match="bad media reference"):
            store.fetch("nonsense")
        with pytest.raises(DatabaseError, match="no object"):
            store.fetch(f"{IMAGE_OBJECTS_TABLE}:999")

    def test_delete_removes_row_and_blob(self, store):
        obj = store.store_image(b"pixels")
        ref = store.fetch_row(obj)["FLD_DATA"]
        store.delete(obj)
        with pytest.raises(DatabaseError):
            store.fetch(obj)
        assert ref.blob_id not in store.db.blobs

    def test_list_objects(self, store):
        store.store_image(b"a")
        store.store_image(b"b")
        assert store.db.count(IMAGE_OBJECTS_TABLE) == 2


class TestDocuments:
    def test_round_trip(self, store):
        doc = build_sample_medical_record()
        store.store_document(doc)
        loaded = store.fetch_document(doc.doc_id)
        assert loaded.default_presentation() == doc.default_presentation()
        assert loaded.title == doc.title

    def test_replace_updates_in_place(self, store):
        doc = build_sample_medical_record()
        store.store_document(doc)
        doc.title = "updated title"
        store.store_document(doc)
        assert store.fetch_document(doc.doc_id).title == "updated title"
        assert len(store.list_documents()) == 1

    def test_replace_reclaims_old_blob(self, store):
        doc = build_sample_medical_record()
        store.store_document(doc)
        blobs_before = len(store.db.blobs)
        store.store_document(doc)
        assert len(store.db.blobs) == blobs_before

    def test_missing_document(self, store):
        with pytest.raises(DatabaseError, match="no document"):
            store.fetch_document("ghost")

    def test_documents_survive_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        doc = build_sample_medical_record()
        with Database(path) as db:
            MultimediaObjectStore(db).store_document(doc)
        with Database(path) as db:
            loaded = MultimediaObjectStore(db).fetch_document(doc.doc_id)
            assert loaded.default_presentation() == doc.default_presentation()

    def test_catalog_not_duplicated_on_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        with Database(path) as db:
            MultimediaObjectStore(db)
        with Database(path) as db:
            store = MultimediaObjectStore(db)
            assert store.db.count(MULTIMEDIA_OBJECTS_TABLE) == 4
