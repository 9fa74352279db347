"""Append-only BLOB store with tombstone deletes.

The paper stores multimedia payloads "as Large Binary Objects (BLOBs),
Oracle data type that allow to store binary objects of size up to 4GB".
This store keeps payloads out of the row heap in a single data file:

* ``put`` appends a record ``[magic][blob_id][length][flags][crc][payload]``
  and returns a :class:`BlobRef` handle;
* ``get`` seeks straight to the payload (the directory is in memory);
* ``delete`` flips the record's tombstone flag in place;
* on open the directory is rebuilt by a single forward scan, verifying
  per-record CRCs — a truncated tail (torn final write) is detected and
  discarded, which is the crash-safety contract.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass

from repro.errors import BlobError
from repro.obs import get_registry

_MAGIC = b"RBLB"
_HEADER = struct.Struct("<4sQQBI")  # magic, blob_id, length, flags, crc32
_FLAG_DELETED = 0x01
#: The Oracle BLOB ceiling the paper cites.
MAX_BLOB_SIZE = 4 * 1024 * 1024 * 1024


@dataclass(frozen=True)
class BlobRef:
    """Handle to a stored blob (what BLOB columns actually hold)."""

    blob_id: int
    size: int

    def __str__(self) -> str:
        return f"blob:{self.blob_id}({self.size}B)"


class BlobStore:
    """Single-file blob storage with crash-safe append semantics."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._offsets: dict[int, tuple[int, int]] = {}  # blob_id -> (record offset, size)
        self._next_id = 1
        self._m_bytes_read = get_registry().counter("db.blob.bytes_read")
        self._file = self._open_and_recover()

    # ----- lifecycle -----------------------------------------------------------

    def _open_and_recover(self) -> io.BufferedRandom:
        exists = os.path.exists(self.path)
        file = open(self.path, "r+b" if exists else "w+b")
        if exists:
            self._scan(file)
        return file

    def _scan(self, file: io.BufferedRandom) -> None:
        """Rebuild the directory; truncate at the first torn/corrupt record."""
        file.seek(0, os.SEEK_END)
        end = file.tell()
        file.seek(0)
        offset = 0
        valid_end = 0
        while offset + _HEADER.size <= end:
            header = file.read(_HEADER.size)
            if len(header) < _HEADER.size:
                break
            magic, blob_id, length, flags, crc = _HEADER.unpack(header)
            if magic != _MAGIC or offset + _HEADER.size + length > end:
                break
            payload = file.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                break
            if not flags & _FLAG_DELETED:
                self._offsets[blob_id] = (offset, length)
            self._next_id = max(self._next_id, blob_id + 1)
            offset += _HEADER.size + length
            valid_end = offset
        if valid_end < end:
            file.truncate(valid_end)
        file.seek(valid_end)

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()

    def __enter__(self) -> "BlobStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----- operations ------------------------------------------------------------

    def put(self, payload: bytes) -> BlobRef:
        """Store *payload*; returns its handle."""
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise BlobError(f"payload must be bytes, got {type(payload).__name__}")
        payload = bytes(payload)
        if len(payload) > MAX_BLOB_SIZE:
            raise BlobError(f"blob of {len(payload)} bytes exceeds the 4 GB limit")
        blob_id = self._next_id
        self._next_id += 1
        self._file.seek(0, os.SEEK_END)
        offset = self._file.tell()
        header = _HEADER.pack(_MAGIC, blob_id, len(payload), 0, zlib.crc32(payload))
        self._file.write(header)
        self._file.write(payload)
        self._file.flush()
        self._offsets[blob_id] = (offset, len(payload))
        return BlobRef(blob_id=blob_id, size=len(payload))

    def get(self, ref: BlobRef | int) -> bytes:
        """Fetch a blob payload by handle or id."""
        blob_id = ref.blob_id if isinstance(ref, BlobRef) else ref
        try:
            offset, length = self._offsets[blob_id]
        except KeyError:
            raise BlobError(f"no blob with id {blob_id}") from None
        self._file.seek(offset + _HEADER.size)
        payload = self._file.read(length)
        if len(payload) != length:
            raise BlobError(f"blob {blob_id} is truncated on disk")
        self._m_bytes_read.inc(length)
        return payload

    def delete(self, ref: BlobRef | int) -> None:
        """Tombstone a blob (its record stays in the file)."""
        blob_id = ref.blob_id if isinstance(ref, BlobRef) else ref
        try:
            offset, length = self._offsets.pop(blob_id)
        except KeyError:
            raise BlobError(f"no blob with id {blob_id}") from None
        # Rewrite just the flags byte (offset of flags within the header).
        flags_offset = offset + _HEADER.size - 5  # 1 flags byte + 4 crc bytes from end
        self._file.seek(flags_offset)
        self._file.write(bytes([_FLAG_DELETED]))
        self._file.flush()

    def __contains__(self, blob_id: int) -> bool:
        return blob_id in self._offsets

    def __len__(self) -> int:
        return len(self._offsets)
