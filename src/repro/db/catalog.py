"""The Figure 7 database schema for multimedia objects.

``MULTIMEDIA_OBJECTS_TABLE`` is the type catalog: one row per supported
multimedia type, carrying the name of the *object table* holding objects
of that type. "This approach was adopted in order to allow addition of
new data types as the system evolves" — which is exactly how the
``DOCUMENT`` type (whole multimedia documents as JSON blobs) is added on
top of the paper's image/audio/compressed-object tables.
"""

from __future__ import annotations

from repro.db.engine import Database
from repro.db.schema import Column, TableSchema
from repro.db.types import BLOB, INTEGER, JSONB, TEXT

#: Table names, verbatim from Figure 7 (plus the document extension).
MULTIMEDIA_OBJECTS_TABLE = "MULTIMEDIA_OBJECTS_TABLE"
IMAGE_OBJECTS_TABLE = "IMAGE_OBJECTS_TABLE"
AUDIO_OBJECTS_TABLE = "AUDIO_OBJECTS_TABLE"
CMP_OBJECTS_TABLE = "CMP_OBJECTS_TABLE"
DOCUMENT_OBJECTS_TABLE = "DOCUMENT_OBJECTS_TABLE"
ANNOTATIONS_TABLE = "ANNOTATIONS_TABLE"


def multimedia_objects_schema() -> TableSchema:
    """The type catalog: list of supported multimedia types."""
    return TableSchema(
        name=MULTIMEDIA_OBJECTS_TABLE,
        columns=(
            Column("ID", INTEGER, primary_key=True, autoincrement=True),
            Column("FLD_NAME", TEXT, nullable=False),
            Column("FLD_MIME", TEXT, nullable=False),
            Column("FLD_ACCESSTYPE", TEXT, nullable=False),
            Column("OBJECTTABLES", TEXT, nullable=False),
            Column("DESCRIPTION", TEXT),
        ),
    )


def image_objects_schema() -> TableSchema:
    """Images: quality level, text annotations, compression matrix, payload."""
    return TableSchema(
        name=IMAGE_OBJECTS_TABLE,
        columns=(
            Column("ID", INTEGER, primary_key=True, autoincrement=True),
            Column("FLD_QUALITY", INTEGER),
            Column("FLD_TEXTS", JSONB),
            Column("FLD_CM", BLOB),
            Column("FLD_DATA", BLOB, nullable=False),
        ),
    )


def audio_objects_schema() -> TableSchema:
    """Audio fragments: filename, segment annotations, payload."""
    return TableSchema(
        name=AUDIO_OBJECTS_TABLE,
        columns=(
            Column("ID", INTEGER, primary_key=True, autoincrement=True),
            Column("FLD_FILENAME", TEXT),
            Column("FLD_SECTORS", JSONB),
            Column("FLD_DATA", BLOB, nullable=False),
        ),
    )


def cmp_objects_schema() -> TableSchema:
    """Compressed (multi-layer codec) objects: header + progressive payload."""
    return TableSchema(
        name=CMP_OBJECTS_TABLE,
        columns=(
            Column("ID", INTEGER, primary_key=True, autoincrement=True),
            Column("FLD_FILENAME", TEXT),
            Column("FLD_FILESIZE", INTEGER),
            Column("FLD_CURRENTPOSITION", INTEGER),
            Column("FLD_HEADER", BLOB),
            Column("FLD_DATA", BLOB, nullable=False),
        ),
    )


def document_objects_schema() -> TableSchema:
    """Whole multimedia documents (tree + CP-net) as JSON blobs."""
    return TableSchema(
        name=DOCUMENT_OBJECTS_TABLE,
        columns=(
            Column("ID", INTEGER, primary_key=True, autoincrement=True),
            Column("FLD_DOCID", TEXT, nullable=False),
            Column("FLD_TITLE", TEXT),
            Column("FLD_DATA", BLOB, nullable=False),
        ),
    )


def annotations_schema() -> TableSchema:
    """Discussion results stored with the record: "The results of the
    discussions, either in forms of text, or marks on the images ... may
    be stored in the file ... for future search and reference" (paper §1).
    """
    return TableSchema(
        name=ANNOTATIONS_TABLE,
        columns=(
            Column("ID", INTEGER, primary_key=True, autoincrement=True),
            Column("FLD_DOCID", TEXT, nullable=False),
            Column("FLD_COMPONENT", TEXT, nullable=False),
            Column("FLD_VIEWER", TEXT, nullable=False),
            Column("FLD_DATA", JSONB, nullable=False),
        ),
    )


#: Built-in type registrations: (type name, mime, access, object table, description).
BUILTIN_TYPES = (
    ("Image", "image/jpeg", "blob", IMAGE_OBJECTS_TABLE, "Raster images (CT, X-ray, ...)"),
    ("Audio", "audio/wav", "blob", AUDIO_OBJECTS_TABLE, "Voice and audio fragments"),
    ("Compressed", "application/x-mlc", "blob", CMP_OBJECTS_TABLE, "Multi-layer codec streams"),
    ("Document", "application/json", "blob", DOCUMENT_OBJECTS_TABLE, "Multimedia documents"),
)


def create_multimedia_catalog(db: Database) -> None:
    """Create the Figure 7 tables (idempotent) and register built-in types."""
    created_catalog = MULTIMEDIA_OBJECTS_TABLE not in db.table_names
    db.create_table(multimedia_objects_schema(), if_not_exists=True)
    db.create_table(image_objects_schema(), if_not_exists=True)
    db.create_table(audio_objects_schema(), if_not_exists=True)
    db.create_table(cmp_objects_schema(), if_not_exists=True)
    db.create_table(document_objects_schema(), if_not_exists=True)
    db.create_table(annotations_schema(), if_not_exists=True)
    if created_catalog:
        db.create_index(MULTIMEDIA_OBJECTS_TABLE, "FLD_NAME", kind="hash", unique=True)
        db.create_index(DOCUMENT_OBJECTS_TABLE, "FLD_DOCID", kind="hash", unique=True)
        db.create_index(ANNOTATIONS_TABLE, "FLD_DOCID", kind="hash")
        for name, mime, access, object_table, description in BUILTIN_TYPES:
            db.insert(
                MULTIMEDIA_OBJECTS_TABLE,
                {
                    "FLD_NAME": name,
                    "FLD_MIME": mime,
                    "FLD_ACCESSTYPE": access,
                    "OBJECTTABLES": object_table,
                    "DESCRIPTION": description,
                },
            )
