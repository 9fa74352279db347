"""Object ↔ row mapping for multimedia objects.

"The objects and their corresponding methods are imported from the
database to their respective Java classes" — here, Python objects. The
:class:`MultimediaObjectStore` routes every object through the Figure 7
type catalog: the catalog row names the object table, payloads go to the
blob store, and typed helpers cover the paper's object kinds (images,
audio, compressed streams, whole documents).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import DatabaseError
from repro.db.blobstore import BlobRef
from repro.db.catalog import (
    ANNOTATIONS_TABLE,
    DOCUMENT_OBJECTS_TABLE,
    MULTIMEDIA_OBJECTS_TABLE,
    VIEWER_PROFILES_TABLE,
    create_multimedia_catalog,
)
from repro.db.engine import Database
from repro.db.query import Eq
from repro.document.document import MultimediaDocument
from repro.document.serialize import document_from_json, document_to_json


@dataclass(frozen=True)
class StoredObject:
    """Identity of a stored multimedia object."""

    type_name: str
    object_table: str
    object_id: int

    @property
    def media_ref(self) -> str:
        """The ``"<table>:<id>"`` reference presentations carry."""
        return f"{self.object_table}:{self.object_id}"


class MultimediaObjectStore:
    """High-level store/fetch interface over the Figure 7 schema."""

    def __init__(self, db: Database) -> None:
        self.db = db
        create_multimedia_catalog(db)

    # ----- type catalog -------------------------------------------------------

    def register_type(
        self,
        name: str,
        mime: str,
        object_table: str,
    ) -> dict[str, Any]:
        """Add a new multimedia type (its object table must already exist)."""
        self.db.table(object_table)  # raises if missing
        return self.db.insert(
            MULTIMEDIA_OBJECTS_TABLE,
            {
                "FLD_NAME": name,
                "FLD_MIME": mime,
                "FLD_ACCESSTYPE": "blob",
                "OBJECTTABLES": object_table,
                "DESCRIPTION": "",
            },
        )

    def object_table_for(self, type_name: str) -> str:
        rows = self.db.select(MULTIMEDIA_OBJECTS_TABLE, Eq("FLD_NAME", type_name))
        if not rows:
            raise DatabaseError(f"no multimedia type {type_name!r} registered")
        return rows[0]["OBJECTTABLES"]

    # ----- generic object operations ----------------------------------------------

    def store(
        self, type_name: str, fields: dict[str, Any], payload: bytes
    ) -> StoredObject:
        """Store one object: payload to the blob store, fields + ref to the
        type's object table. Atomic (single transaction)."""
        object_table = self.object_table_for(type_name)
        ref = self.db.put_blob(payload)
        with self.db.transaction():
            row = self.db.insert(object_table, {**fields, "FLD_DATA": ref})
        return StoredObject(type_name=type_name, object_table=object_table, object_id=row["ID"])

    def fetch(self, handle: StoredObject | str) -> tuple[dict[str, Any], bytes]:
        """Return (row, payload) for a stored object or a media_ref string."""
        object_table, object_id = self._resolve(handle)
        row = self.db.get(object_table, object_id)
        if row is None:
            raise DatabaseError(f"no object {object_id} in {object_table!r}")
        ref = row.get("FLD_DATA")
        payload = self.db.get_blob(ref) if isinstance(ref, BlobRef) else b""
        return row, payload

    def fetch_row(self, handle: StoredObject | str) -> dict[str, Any]:
        """Row only — no payload transfer (metadata browsing)."""
        object_table, object_id = self._resolve(handle)
        row = self.db.get(object_table, object_id)
        if row is None:
            raise DatabaseError(f"no object {object_id} in {object_table!r}")
        return row

    def delete(self, handle: StoredObject | str) -> None:
        """Delete an object row and its blob payload."""
        object_table, object_id = self._resolve(handle)
        row = self.db.delete(object_table, object_id)
        ref = row.get("FLD_DATA")
        if isinstance(ref, BlobRef):
            self.db.blobs.delete(ref)

    def _resolve(self, handle: StoredObject | str) -> tuple[str, int]:
        if isinstance(handle, StoredObject):
            return handle.object_table, handle.object_id
        table, sep, raw_id = handle.partition(":")
        if not sep or not raw_id.isdigit():
            raise DatabaseError(f"bad media reference {handle!r} (want 'TABLE:id')")
        return table, int(raw_id)

    # ----- typed helpers (the paper's object kinds) ------------------------------------

    def store_image(
        self,
        payload: bytes,
        quality: int = 0,
        texts: list[dict[str, Any]] | None = None,
        compression_matrix: bytes | None = None,
    ) -> StoredObject:
        """Store an image (Fig. 7 IMAGE_OBJECTS_TABLE shape)."""
        object_table = self.object_table_for("Image")
        data_ref = self.db.put_blob(payload)
        cm_ref = self.db.put_blob(compression_matrix) if compression_matrix else None
        with self.db.transaction():
            row = self.db.insert(
                object_table,
                {
                    "FLD_QUALITY": quality,
                    "FLD_TEXTS": texts or [],
                    "FLD_CM": cm_ref,
                    "FLD_DATA": data_ref,
                },
            )
        return StoredObject("Image", object_table, row["ID"])

    def store_audio(
        self,
        payload: bytes,
        filename: str = "",
        sectors: list[dict[str, Any]] | None = None,
    ) -> StoredObject:
        """Store an audio fragment (Fig. 7 AUDIO_OBJECTS_TABLE shape)."""
        object_table = self.object_table_for("Audio")
        data_ref = self.db.put_blob(payload)
        with self.db.transaction():
            row = self.db.insert(
                object_table,
                {"FLD_FILENAME": filename, "FLD_SECTORS": sectors or [], "FLD_DATA": data_ref},
            )
        return StoredObject("Audio", object_table, row["ID"])

    def store_compressed(
        self, payload: bytes, header: bytes, filename: str = ""
    ) -> StoredObject:
        """Store a multi-layer codec stream (Fig. 7 CMP_OBJECTS_TABLE shape)."""
        object_table = self.object_table_for("Compressed")
        data_ref = self.db.put_blob(payload)
        header_ref = self.db.put_blob(header)
        with self.db.transaction():
            row = self.db.insert(
                object_table,
                {
                    "FLD_FILENAME": filename,
                    "FLD_FILESIZE": len(payload),
                    "FLD_CURRENTPOSITION": 0,
                    "FLD_HEADER": header_ref,
                    "FLD_DATA": data_ref,
                },
            )
        return StoredObject("Compressed", object_table, row["ID"])

    # ----- documents -----------------------------------------------------------------------

    def store_document(self, document: MultimediaDocument) -> StoredObject:
        """Store (or replace) a whole document by its doc_id."""
        payload = document_to_json(document).encode("utf-8")
        existing = self.db.select(DOCUMENT_OBJECTS_TABLE, Eq("FLD_DOCID", document.doc_id))
        data_ref = self.db.put_blob(payload)
        with self.db.transaction():
            if existing:
                old_ref = existing[0]["FLD_DATA"]
                row = self.db.update(
                    DOCUMENT_OBJECTS_TABLE,
                    existing[0]["ID"],
                    {"FLD_TITLE": document.title, "FLD_DATA": data_ref},
                )
            else:
                old_ref = None
                row = self.db.insert(
                    DOCUMENT_OBJECTS_TABLE,
                    {"FLD_DOCID": document.doc_id, "FLD_TITLE": document.title, "FLD_DATA": data_ref},
                )
        if isinstance(old_ref, BlobRef):
            self.db.blobs.delete(old_ref)
        return StoredObject("Document", DOCUMENT_OBJECTS_TABLE, row["ID"])

    def fetch_document(self, doc_id: str) -> MultimediaDocument:
        """Load a document by its doc_id."""
        rows = self.db.select(DOCUMENT_OBJECTS_TABLE, Eq("FLD_DOCID", doc_id))
        if not rows:
            raise DatabaseError(f"no document {doc_id!r} stored")
        payload = self.db.get_blob(rows[0]["FLD_DATA"])
        return document_from_json(payload)

    def list_documents(self) -> list[dict[str, Any]]:
        """Document directory rows (id, doc_id, title) without payloads."""
        return [
            {"ID": r["ID"], "FLD_DOCID": r["FLD_DOCID"], "FLD_TITLE": r["FLD_TITLE"]}
            for r in sorted(self.db.select(DOCUMENT_OBJECTS_TABLE), key=lambda r: r["ID"])
        ]

    # ----- annotations (discussion results "stored in the file", §1) ------------------

    def store_annotation(
        self, doc_id: str, component: str, viewer: str, data: dict[str, Any]
    ) -> dict[str, Any]:
        """Persist one discussion mark (text/line/etc.) on a component."""
        return self.db.insert(
            ANNOTATIONS_TABLE,
            {
                "FLD_DOCID": doc_id,
                "FLD_COMPONENT": component,
                "FLD_VIEWER": viewer,
                "FLD_DATA": data,
            },
        )

    def annotations_for(
        self, doc_id: str, component: str | None = None
    ) -> list[dict[str, Any]]:
        """All stored annotations of a document (optionally one component),
        in insertion order — the record of past consultations."""
        rows = self.db.select(ANNOTATIONS_TABLE, Eq("FLD_DOCID", doc_id))
        if component is not None:
            rows = [row for row in rows if row["FLD_COMPONENT"] == component]
        return sorted(rows, key=lambda row: row["ID"])

    # ----- viewer profiles (optional long-term learning, §4) ---------------------

    def save_profile(self, profile: "object") -> None:
        """Persist a :class:`~repro.presentation.profile.ViewerProfile`."""
        data = profile.to_dict()
        existing = self.db.select(
            VIEWER_PROFILES_TABLE, Eq("FLD_VIEWER", profile.viewer_id)
        )
        if existing:
            self.db.update(VIEWER_PROFILES_TABLE, existing[0]["ID"], {"FLD_DATA": data})
        else:
            self.db.insert(
                VIEWER_PROFILES_TABLE,
                {"FLD_VIEWER": profile.viewer_id, "FLD_DATA": data},
            )

    def load_profile(self, viewer_id: str):
        """Load a viewer's profile, creating an empty one if none exists."""
        from repro.presentation.profile import ViewerProfile

        rows = self.db.select(VIEWER_PROFILES_TABLE, Eq("FLD_VIEWER", viewer_id))
        if rows:
            return ViewerProfile.from_dict(rows[0]["FLD_DATA"])
        return ViewerProfile(viewer_id)
