"""An in-memory column-store table with filtering, projection, and aggregation.

Tables store rows as a set of typed :class:`~repro.storage.column.Column`
objects.  They support the operations the VOCALExplore storage manager needs
from its metadata database: append, filter by predicate expression, project,
sort, group-and-count, and optional primary-key enforcement.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import DuplicateKeyError, SchemaError
from .column import Column
from .expressions import Expression

__all__ = ["Table"]


class Table:
    """A named collection of equally sized typed columns."""

    def __init__(
        self,
        name: str,
        schema: Mapping[str, str],
        primary_key: str | None = None,
    ) -> None:
        """Create an empty table.

        Args:
            name: Table name used by catalogs and snapshots.
            schema: Ordered mapping of column name to logical type
                ("int", "float", "bool", "str").
            primary_key: Optional column whose values must be unique.
        """
        if not schema:
            raise SchemaError("a table requires at least one column")
        if primary_key is not None and primary_key not in schema:
            raise SchemaError(f"primary key {primary_key!r} is not a column of {name!r}")
        self.name = name
        self.primary_key = primary_key
        self._columns: dict[str, Column] = {
            col_name: Column(col_name, col_type) for col_name, col_type in schema.items()
        }
        self._key_index: dict[Any, int] = {}

    # ------------------------------------------------------------------ basics
    @property
    def schema(self) -> dict[str, str]:
        """Mapping of column name to logical type."""
        return {name: column.type_name for name, column in self._columns.items()}

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    def __len__(self) -> int:
        first = next(iter(self._columns.values()))
        return len(first)

    def __repr__(self) -> str:
        return f"Table(name={self.name!r}, rows={len(self)}, columns={self.column_names})"

    def __contains__(self, key: Any) -> bool:
        """Membership test on the primary key."""
        if self.primary_key is None:
            raise SchemaError(f"table {self.name!r} has no primary key")
        return key in self._key_index

    # ------------------------------------------------------------------ writes
    def insert(self, row: Mapping[str, Any]) -> int:
        """Insert one row; returns the new row's index.

        Raises:
            SchemaError: if the row's keys do not exactly match the schema.
            DuplicateKeyError: if the primary key value already exists.
        """
        missing = set(self._columns) - set(row)
        extra = set(row) - set(self._columns)
        if missing or extra:
            raise SchemaError(
                f"row does not match schema of {self.name!r}: "
                f"missing={sorted(missing)}, unexpected={sorted(extra)}"
            )
        if self.primary_key is not None:
            key = row[self.primary_key]
            if key in self._key_index:
                raise DuplicateKeyError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
        index = len(self)
        for name, column in self._columns.items():
            column.append(row[name])
        if self.primary_key is not None:
            self._key_index[row[self.primary_key]] = index
        return index

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> list[int]:
        """Insert several rows; returns their indices."""
        return [self.insert(row) for row in rows]

    def update(self, index: int, values: Mapping[str, Any]) -> None:
        """Overwrite a subset of columns of the row at ``index``."""
        unknown = set(values) - set(self._columns)
        if unknown:
            raise SchemaError(f"unknown columns in update: {sorted(unknown)}")
        if self.primary_key is not None and self.primary_key in values:
            old_key = self._columns[self.primary_key].get(index)
            new_key = values[self.primary_key]
            if new_key != old_key:
                if new_key in self._key_index:
                    raise DuplicateKeyError(
                        f"duplicate primary key {new_key!r} in table {self.name!r}"
                    )
                del self._key_index[old_key]
                self._key_index[new_key] = index
        for name, value in values.items():
            self._columns[name].set(index, value)

    # ------------------------------------------------------------------- reads
    def row(self, index: int) -> dict[str, Any]:
        """Return the row at ``index`` as a dict."""
        return {name: column.get(index) for name, column in self._columns.items()}

    def rows(self) -> Iterator[dict[str, Any]]:
        """Iterate over all rows as dicts."""
        for index in range(len(self)):
            yield self.row(index)

    def column(self, name: str) -> np.ndarray:
        """Return a read-only array of one column's values."""
        if name not in self._columns:
            raise SchemaError(f"unknown column {name!r} in table {self.name!r}")
        return self._columns[name].values()

    def get_by_key(self, key: Any) -> dict[str, Any]:
        """Return the row whose primary key equals ``key``."""
        if self.primary_key is None:
            raise SchemaError(f"table {self.name!r} has no primary key")
        if key not in self._key_index:
            raise KeyError(f"key {key!r} not found in table {self.name!r}")
        return self.row(self._key_index[key])

    def _column_arrays(self) -> dict[str, np.ndarray]:
        return {name: column.values() for name, column in self._columns.items()}

    def filter(self, predicate: Expression) -> "Table":
        """Return a new table containing only rows matching ``predicate``."""
        if len(self) == 0:
            return self._empty_copy()
        mask = np.asarray(predicate.evaluate(self._column_arrays()), dtype=bool)
        if mask.shape != (len(self),):
            raise SchemaError(
                f"predicate produced mask of shape {mask.shape}, expected ({len(self)},)"
            )
        return self.take(np.flatnonzero(mask))

    def filter_indices(self, predicate: Expression) -> np.ndarray:
        """Return the row indices matching ``predicate``."""
        if len(self) == 0:
            return np.empty(0, dtype=np.int64)
        mask = np.asarray(predicate.evaluate(self._column_arrays()), dtype=bool)
        return np.flatnonzero(mask)

    def take(self, indices: Sequence[int] | np.ndarray) -> "Table":
        """Return a new table with the rows at ``indices`` in order."""
        result = self._empty_copy()
        for name, column in self._columns.items():
            result._columns[name] = column.take(indices)
        if result.primary_key is not None:
            key_column = result._columns[result.primary_key]
            result._key_index = {key_column.get(i): i for i in range(len(key_column))}
        return result

    def project(self, columns: Sequence[str]) -> "Table":
        """Return a new table restricted to ``columns``."""
        unknown = set(columns) - set(self._columns)
        if unknown:
            raise SchemaError(f"unknown columns in projection: {sorted(unknown)}")
        schema = {name: self._columns[name].type_name for name in columns}
        key = self.primary_key if self.primary_key in columns else None
        result = Table(self.name, schema, primary_key=key)
        for name in columns:
            result._columns[name] = self._columns[name].copy()
        if key is not None:
            key_column = result._columns[key]
            result._key_index = {key_column.get(i): i for i in range(len(key_column))}
        return result

    def sort_by(self, column: str, descending: bool = False) -> "Table":
        """Return a new table sorted by one column (stable sort)."""
        values = self.column(column)
        order = np.argsort(values, kind="stable")
        if descending:
            order = order[::-1]
        return self.take(order)

    # ------------------------------------------------------------- aggregation
    def count_by(self, column: str) -> dict[Any, int]:
        """Return the number of rows for each distinct value of ``column``."""
        values = self.column(column)
        counts: dict[Any, int] = {}
        for value in values:
            key = value.item() if isinstance(value, np.generic) else value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def distinct(self, column: str) -> list[Any]:
        """Return the distinct values of ``column`` in first-seen order."""
        seen: dict[Any, None] = {}
        for value in self.column(column):
            key = value.item() if isinstance(value, np.generic) else value
            seen.setdefault(key, None)
        return list(seen)

    def to_records(self) -> list[dict[str, Any]]:
        """Materialise the table as a list of row dicts."""
        return list(self.rows())

    # ---------------------------------------------------------------- snapshot
    def to_arrays(self, arrays: dict[str, np.ndarray], prefix: str) -> dict[str, Any]:
        """Stage every column into ``arrays`` under ``prefix + name``.

        Returns the JSON schema document that :meth:`from_arrays` needs to
        rebuild the table from those arrays.
        """
        for name, column in self._columns.items():
            values = column.values()
            if column.type_name == "str":
                arrays[prefix + name] = np.asarray([str(v) for v in values], dtype=np.str_)
            else:
                arrays[prefix + name] = np.asarray(values)
        return {
            "name": self.name,
            "primary_key": self.primary_key,
            "schema": self.schema,
            "row_count": len(self),
        }

    @classmethod
    def from_arrays(
        cls, doc: Mapping[str, Any], arrays: Mapping[str, np.ndarray], prefix: str
    ) -> "Table":
        """Rebuild a table staged by :meth:`to_arrays`.

        Rows go back through :meth:`insert`, so the primary-key index is
        rebuilt and still enforced.
        """
        schema = doc["schema"]
        table = cls(doc["name"], schema, primary_key=doc.get("primary_key"))
        columns = {name: arrays[prefix + name] for name in schema}
        casts = {"int": int, "float": float, "bool": bool, "str": str}
        for index in range(int(doc["row_count"])):
            table.insert(
                {
                    name: casts[type_name](columns[name][index])
                    for name, type_name in schema.items()
                }
            )
        return table

    # ---------------------------------------------------------------- internal
    def _empty_copy(self) -> "Table":
        return Table(self.name, self.schema, primary_key=self.primary_key)
