"""Embedded object-relational database (the paper's Oracle substitute).

The paper stores multimedia objects in an Oracle object-relational
database as BLOBs, behind JDBC (Figs. 1 and 7). This package is a
self-contained replacement exposing the same operations:

* typed tables with primary keys and secondary indexes
  (:mod:`repro.db.table`, :mod:`repro.db.index`),
* BLOB storage for payloads up to the paper's 4 GB Oracle limit
  (:mod:`repro.db.blobstore`),
* a write-ahead journal giving atomic commit/rollback and crash recovery
  (:mod:`repro.db.journal`),
* equality predicates routed through the primary key or a secondary
  index (:mod:`repro.db.query`),
* the exact Figure 7 schema plus the object↔row mapping layer
  (:mod:`repro.db.catalog`, :mod:`repro.db.orm`).
"""

from repro.db.blobstore import BlobStore
from repro.db.catalog import (
    AUDIO_OBJECTS_TABLE,
    CMP_OBJECTS_TABLE,
    DOCUMENT_OBJECTS_TABLE,
    IMAGE_OBJECTS_TABLE,
    MULTIMEDIA_OBJECTS_TABLE,
    create_multimedia_catalog,
)
from repro.db.engine import Database
from repro.db.orm import MultimediaObjectStore, StoredObject
from repro.db.query import Eq, Predicate
from repro.db.schema import Column, TableSchema
from repro.db.types import BLOB, BOOLEAN, INTEGER, JSONB, REAL, TEXT

__all__ = [
    "AUDIO_OBJECTS_TABLE",
    "BLOB",
    "BOOLEAN",
    "BlobStore",
    "CMP_OBJECTS_TABLE",
    "Column",
    "DOCUMENT_OBJECTS_TABLE",
    "Database",
    "Eq",
    "IMAGE_OBJECTS_TABLE",
    "INTEGER",
    "JSONB",
    "MULTIMEDIA_OBJECTS_TABLE",
    "MultimediaObjectStore",
    "Predicate",
    "REAL",
    "StoredObject",
    "TEXT",
    "TableSchema",
    "create_multimedia_catalog",
]
