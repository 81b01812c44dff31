"""Field checks and the snapshot codec shared by the video and label stores.

Both stores keep a plain list of frozen records, and a record's position in
that list is its id.  Each store declares its own table layout (name, id
column, and an ordered ``{column: type}`` schema with types ``"int"``,
``"float"`` or ``"str"``); the helpers here only apply it.

In a checkpoint snapshot a store is one table document in ``state.json``
(``name``, ``primary_key``, ``schema``, ``row_count``) plus one
``arrays.npz`` member per column, named ``prefix + column`` and typed int64,
float64 or fixed-width unicode (``<U1`` when the column is empty).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..exceptions import CheckpointError, SchemaError

__all__ = ["check_field", "stage_table", "load_table"]

_NUMBERS = {"int": (int, np.integer), "float": (int, float, np.integer, np.floating)}
_CASTS = {"int": int, "float": float, "str": str}
_DTYPES = {"int": np.int64, "float": np.float64, "str": np.str_}
_KINDS = {"int": "i", "float": "f", "str": "U"}


def check_field(name: str, type_name: str, value: Any) -> Any:
    """Return ``value`` as the Python type of ``type_name``.

    Raises:
        SchemaError: if ``value`` is not of that type.  ``None`` is never
            accepted, and neither is ``bool`` for a number.  A string may
            not hold NUL: the snapshot's unicode arrays drop trailing NULs.
    """
    accepted = _NUMBERS.get(type_name, str)
    if isinstance(value, accepted) and not isinstance(value, bool):
        if accepted is str and "\x00" in value:
            raise SchemaError(f"{name} may not contain NUL characters")
        return _CASTS[type_name](value)
    raise SchemaError(f"{name} expects {type_name}, got {type(value).__name__}")


def stage_table(
    arrays: dict[str, np.ndarray],
    prefix: str,
    name: str,
    key: str,
    schema: Mapping[str, str],
    records: Sequence[Any],
) -> dict[str, Any]:
    """Stage ``records`` into ``arrays`` one column at a time; returns the table doc.

    The ``key`` column holds each record's position; every other column is
    read from the record attribute of the same name.
    """
    for column, type_name in schema.items():
        if column == key:
            values: Any = range(len(records))
        else:
            values = [getattr(record, column) for record in records]
        arrays[prefix + column] = np.asarray(values, dtype=_DTYPES[type_name])
    return {"name": name, "primary_key": key, "schema": dict(schema), "row_count": len(records)}


def load_table(
    doc: Mapping[str, Any],
    arrays: Mapping[str, np.ndarray],
    prefix: str,
    name: str,
    key: str,
    schema: Mapping[str, str],
) -> list[tuple]:
    """Rows of a table staged by :func:`stage_table`, as tuples in schema order.

    Raises:
        CheckpointError: if the doc's name, id column or schema differ from
            the given layout, a column is missing, short or wrongly typed,
            or the ids are not ``0..row_count-1`` in order.
    """
    if (doc.get("name"), doc.get("primary_key"), doc.get("schema")) != (name, key, dict(schema)):
        raise CheckpointError(f"snapshot table {doc.get('name')!r} does not match the {name!r} layout")
    count = doc.get("row_count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise CheckpointError(f"snapshot table {name!r} has an invalid row count {count!r}")
    columns = []
    for column, type_name in schema.items():
        values = arrays.get(prefix + column)
        if values is None or values.shape != (count,) or values.dtype.kind != _KINDS[type_name]:
            raise CheckpointError(
                f"snapshot column {prefix + column!r} is missing or does not hold "
                f"{count} {type_name} values"
            )
        columns.append(values.tolist())
    if columns[list(schema).index(key)] != list(range(count)):
        raise CheckpointError(f"snapshot table {name!r} ids are not dense 0..{count - 1}")
    return list(zip(*columns))
