"""Query-by-example over stored images.

Descriptors live in their own table next to the Fig. 7 object tables (the
same "add new types as the system evolves" mechanism), so the index
survives restarts and can be rebuilt from stored payloads at any time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatabaseError
from repro.db.engine import Database
from repro.db.orm import MultimediaObjectStore, StoredObject
from repro.db.query import Eq
from repro.db.schema import Column, TableSchema
from repro.db.types import INTEGER, JSONB, TEXT
from repro.media.image.image import Image
from repro.retrieval.features import descriptor_similarity, image_descriptor

IMAGE_FEATURES_TABLE = "IMAGE_FEATURES_TABLE"


def image_features_schema() -> TableSchema:
    return TableSchema(
        name=IMAGE_FEATURES_TABLE,
        columns=(
            Column("ID", INTEGER, primary_key=True, autoincrement=True),
            Column("FLD_MEDIAREF", TEXT, nullable=False),
            Column("FLD_LABEL", TEXT),
            Column("FLD_VECTOR", JSONB, nullable=False),
        ),
    )


@dataclass(frozen=True)
class SimilarImage:
    """One query hit."""

    media_ref: str
    label: str | None
    similarity: float  # (0, 1], 1 = identical signature


class SimilarImageIndex:
    """Content-based index over the image object table."""

    def __init__(self, store: MultimediaObjectStore) -> None:
        self.store = store
        self.db: Database = store.db
        self.db.create_table(image_features_schema(), if_not_exists=True)
        existing = self.db.table(IMAGE_FEATURES_TABLE)
        if existing.index_on("FLD_MEDIAREF") is None:
            self.db.create_index(IMAGE_FEATURES_TABLE, "FLD_MEDIAREF", kind="hash")

    # ----- registration ---------------------------------------------------------

    def add(self, handle: StoredObject | str, label: str | None = None) -> np.ndarray:
        """Compute and persist the descriptor of a stored image."""
        media_ref = handle.media_ref if isinstance(handle, StoredObject) else handle
        _, payload = self.store.fetch(media_ref)
        descriptor = image_descriptor(Image.from_bytes(payload))
        existing = self.db.select(IMAGE_FEATURES_TABLE, Eq("FLD_MEDIAREF", media_ref))
        row = {
            "FLD_MEDIAREF": media_ref,
            "FLD_LABEL": label,
            "FLD_VECTOR": descriptor.tolist(),
        }
        if existing:
            self.db.update(IMAGE_FEATURES_TABLE, existing[0]["ID"], row)
        else:
            self.db.insert(IMAGE_FEATURES_TABLE, row)
        return descriptor

    def add_image(self, image: Image, label: str | None = None) -> StoredObject:
        """Store a new image and index it in one step."""
        handle = self.store.store_image(image.to_bytes())
        self.add(handle, label=label)
        return handle

    def remove(self, media_ref: str) -> None:
        rows = self.db.select(IMAGE_FEATURES_TABLE, Eq("FLD_MEDIAREF", media_ref))
        if not rows:
            raise DatabaseError(f"no indexed image {media_ref!r}")
        for row in rows:
            self.db.delete(IMAGE_FEATURES_TABLE, row["ID"])

    def __len__(self) -> int:
        return self.db.count(IMAGE_FEATURES_TABLE)

    # ----- querying ------------------------------------------------------------------

    def query(self, example: Image, k: int = 5) -> list[SimilarImage]:
        """The *k* most similar stored images to an example image."""
        if k < 1:
            raise DatabaseError(f"k must be >= 1, got {k}")
        probe = image_descriptor(example)
        hits = []
        for row in self.db.select(IMAGE_FEATURES_TABLE):
            similarity = descriptor_similarity(probe, np.array(row["FLD_VECTOR"]))
            hits.append(
                SimilarImage(
                    media_ref=row["FLD_MEDIAREF"],
                    label=row["FLD_LABEL"],
                    similarity=similarity,
                )
            )
        hits.sort(key=lambda hit: (-hit.similarity, hit.media_ref))
        return hits[:k]
