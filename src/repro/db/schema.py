"""Table schemas: column definitions, primary keys, row validation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import SchemaError
from repro.db.types import INTEGER, ColumnType, type_by_name
from repro.util.validation import check_identifier


@dataclass(frozen=True)
class Column:
    """One column of a table.

    ``primary_key`` columns are implicitly non-nullable; an INTEGER primary
    key may be ``autoincrement`` (row ids assigned by the engine).
    """

    name: str
    type: ColumnType
    nullable: bool = True
    primary_key: bool = False
    autoincrement: bool = False

    def __post_init__(self) -> None:
        check_identifier(self.name, "column name")
        if self.autoincrement and not (self.primary_key and self.type is INTEGER):
            raise SchemaError(
                f"column {self.name!r}: autoincrement requires an INTEGER primary key"
            )

    def validate(self, value: Any) -> Any:
        if value is None:
            if self.primary_key or not self.nullable:
                raise SchemaError(f"column {self.name!r} may not be NULL")
            return None
        return self.type.validate(value, self.name)


@dataclass(frozen=True)
class TableSchema:
    """An ordered set of columns with exactly one primary key."""

    name: str
    columns: tuple[Column, ...]
    _by_name: dict[str, Column] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_identifier(self.name, "table name")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} needs at least one column")
        object.__setattr__(self, "columns", tuple(self.columns))
        by_name: dict[str, Column] = {}
        for column in self.columns:
            if column.name in by_name:
                raise SchemaError(f"table {self.name!r} has duplicate column {column.name!r}")
            by_name[column.name] = column
        pks = [c for c in self.columns if c.primary_key]
        if len(pks) != 1:
            raise SchemaError(
                f"table {self.name!r} must have exactly one primary-key column, has {len(pks)}"
            )
        object.__setattr__(self, "_by_name", by_name)

    @property
    def primary_key(self) -> Column:
        return next(c for c in self.columns if c.primary_key)

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def validate_row(self, row: Mapping[str, Any], partial: bool = False) -> dict[str, Any]:
        """Validate a row (or, with ``partial=True``, an update fragment).

        Full rows are completed with NULLs for omitted nullable columns;
        unknown keys are always an error.
        """
        unknown = [k for k in row if k not in self._by_name]
        if unknown:
            raise SchemaError(f"table {self.name!r}: unknown columns {unknown}")
        if partial:
            return {name: self._by_name[name].validate(value) for name, value in row.items()}
        validated: dict[str, Any] = {}
        for column in self.columns:
            if column.name in row:
                validated[column.name] = column.validate(row[column.name])
            elif column.autoincrement:
                validated[column.name] = None  # engine assigns
            else:
                validated[column.name] = column.validate(None)
        return validated

    # ----- persistence ---------------------------------------------------------

    def encode_row(self, row: Mapping[str, Any]) -> dict[str, Any]:
        return {
            name: self._by_name[name].type.encode(value) for name, value in row.items()
        }

    def decode_row(self, raw: Mapping[str, Any]) -> dict[str, Any]:
        return {
            name: self._by_name[name].type.decode(value)
            for name, value in raw.items()
            if name in self._by_name
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "columns": [
                {
                    "name": c.name,
                    "type": c.type.name,
                    "nullable": c.nullable,
                    "primary_key": c.primary_key,
                    "autoincrement": c.autoincrement,
                }
                for c in self.columns
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TableSchema":
        columns = tuple(
            Column(
                name=entry["name"],
                type=type_by_name(entry["type"]),
                nullable=entry.get("nullable", True),
                primary_key=entry.get("primary_key", False),
                autoincrement=entry.get("autoincrement", False),
            )
            for entry in data["columns"]
        )
        return cls(name=data["name"], columns=columns)
