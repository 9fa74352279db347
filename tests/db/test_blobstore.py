"""Unit tests for the blob store, including crash-safety behaviour."""

import os

import pytest

from repro.db import BlobStore
from repro.errors import BlobError


@pytest.fixture
def store(tmp_path):
    store = BlobStore(str(tmp_path / "blobs.dat"))
    yield store
    store.close()


class TestPutGet:
    def test_round_trip(self, store):
        ref = store.put(b"hello world")
        assert store.get(ref) == b"hello world"
        assert ref.size == 11

    def test_get_by_id(self, store):
        ref = store.put(b"x")
        assert store.get(ref.blob_id) == b"x"

    def test_empty_payload(self, store):
        ref = store.put(b"")
        assert store.get(ref) == b""

    def test_large_payload(self, store):
        payload = os.urandom(1_000_000)
        assert store.get(store.put(payload)) == payload

    def test_ids_monotonic(self, store):
        refs = [store.put(b"x") for _ in range(5)]
        ids = [r.blob_id for r in refs]
        assert ids == sorted(ids) and len(set(ids)) == 5

    def test_non_bytes_rejected(self, store):
        with pytest.raises(BlobError, match="bytes"):
            store.put("string")

    def test_unknown_blob(self, store):
        with pytest.raises(BlobError, match="no blob"):
            store.get(999)

    def test_contains_len(self, store):
        ref = store.put(b"x")
        assert ref.blob_id in store
        assert len(store) == 1


class TestDeleteVacuum:
    def test_delete(self, store):
        ref = store.put(b"abc")
        store.delete(ref)
        assert ref.blob_id not in store
        with pytest.raises(BlobError):
            store.get(ref)

    def test_double_delete(self, store):
        ref = store.put(b"abc")
        store.delete(ref)
        with pytest.raises(BlobError):
            store.delete(ref)


class TestRecovery:
    def test_reopen_preserves_blobs(self, tmp_path):
        path = str(tmp_path / "blobs.dat")
        with BlobStore(path) as store:
            ref = store.put(b"persisted")
            deleted = store.put(b"gone")
            store.delete(deleted)
        with BlobStore(path) as store:
            assert store.get(ref) == b"persisted"
            assert deleted.blob_id not in store
            # New ids continue after the old ones.
            assert store.put(b"new").blob_id > deleted.blob_id

    def test_torn_tail_discarded(self, tmp_path):
        path = str(tmp_path / "blobs.dat")
        with BlobStore(path) as store:
            good = store.put(b"good data")
            store.put(b"will be torn by the crash")
        # Simulate a torn final write.
        size = os.path.getsize(path)
        with open(path, "r+b") as file:
            file.truncate(size - 7)
        with BlobStore(path) as store:
            assert store.get(good) == b"good data"
            assert len(store) == 1

    def test_corrupt_payload_discarded(self, tmp_path):
        path = str(tmp_path / "blobs.dat")
        with BlobStore(path) as store:
            good = store.put(b"good")
            bad = store.put(b"to be corrupted")
        with open(path, "r+b") as file:
            file.seek(-3, os.SEEK_END)
            file.write(b"!!!")
        with BlobStore(path) as store:
            assert store.get(good) == b"good"
            assert bad.blob_id not in store

    def test_write_after_torn_recovery(self, tmp_path):
        path = str(tmp_path / "blobs.dat")
        with BlobStore(path) as store:
            store.put(b"x" * 100)
        with open(path, "r+b") as file:
            file.truncate(os.path.getsize(path) - 1)
        with BlobStore(path) as store:
            ref = store.put(b"fresh")
            assert store.get(ref) == b"fresh"
