"""Tests for the typed columns of the record stores.

A store declares an ordered ``{column: type}`` schema.  ``check_field``
enforces a column's type on every value the store accepts, and
``stage_table``/``load_table`` carry each column through a snapshot as one
int64, float64 or fixed-width unicode array.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import SchemaError
from repro.storage.records import check_field, load_table, stage_table
from repro.storage.video_store import VideoStore


class Row:
    """A record with an ``x`` attribute; its id column is its position."""

    def __init__(self, x):
        self.x = x


def column_roundtrip(type_name, values):
    """Stage ``values`` as column ``x`` and load them back."""
    schema = {"id": "int", "x": type_name}
    arrays = {}
    doc = stage_table(arrays, "t__", "t", "id", schema, [Row(value) for value in values])
    return [x for _, x in load_table(doc, arrays, "t__", "t", "id", schema)]


def staged_column(store, column):
    arrays = {}
    store.to_arrays(arrays, "table__videos__")
    return arrays["table__videos__" + column]


class TestColumnBasics:
    def test_empty_column_has_zero_length(self):
        arrays = {}
        stage_table(arrays, "t__", "t", "id", {"id": "int", "x": "float", "s": "str"}, [])
        assert {name: (len(array), array.dtype.str) for name, array in arrays.items()} == {
            "t__id": (0, "<i8"),
            "t__x": (0, "<f8"),
            "t__s": (0, "<U1"),
        }

    def test_append_and_get(self):
        store = VideoStore()
        store.add("a.mp4", 3.0)
        store.add("b.mp4", 5.0)
        durations = staged_column(store, "duration")
        assert len(durations) == 2
        assert durations[0] == 3.0
        assert durations[1] == 5.0

    def test_extend_from_constructor(self):
        assert column_roundtrip("float", [1.0, 2.5, 3.25]) == [1.0, 2.5, 3.25]

    def test_growth_beyond_initial_capacity(self):
        store = VideoStore()
        for i in range(100):
            store.add(f"{i}.mp4", 1.0 + i)
        assert staged_column(store, "duration").tolist() == [1.0 + i for i in range(100)]
        assert staged_column(store, "vid").tolist() == list(range(100))


class TestColumnTypes:
    def test_int_column_rejects_float(self):
        with pytest.raises(SchemaError):
            check_field("x", "int", 1.5)

    def test_int_column_rejects_bool(self):
        with pytest.raises(SchemaError):
            check_field("x", "int", True)

    def test_float_column_accepts_int(self):
        value = check_field("x", "float", 2)
        assert value == 2.0
        assert isinstance(value, float)

    def test_float_column_rejects_string(self):
        with pytest.raises(SchemaError):
            check_field("x", "float", "3.5")

    def test_str_column_rejects_int(self):
        with pytest.raises(SchemaError):
            check_field("x", "str", 7)

    def test_none_rejected(self):
        for type_name in ("int", "float", "str"):
            with pytest.raises(SchemaError):
                check_field("x", type_name, None)

    def test_numpy_scalars_accepted(self):
        assert check_field("x", "int", np.int64(12)) == 12
        assert check_field("x", "float", np.float32(0.5)) == 0.5
        assert check_field("x", "str", np.str_("walk")) == "walk"

    def test_get_returns_python_scalars(self):
        assert type(check_field("x", "int", np.int64(3))) is int
        assert type(check_field("x", "float", np.int64(3))) is float
        assert type(check_field("x", "str", np.str_("a"))) is str

    def test_nul_character_rejected(self):
        # A fixed-width unicode array drops trailing NULs, so a string holding
        # one would not survive a snapshot.
        for value in ("walk\x00", "a\x00b"):
            with pytest.raises(SchemaError):
                check_field("x", "str", value)


class TestColumnProperties:
    @given(st.lists(st.integers(min_value=-(2**31), max_value=2**31)))
    def test_int_roundtrip(self, values):
        assert column_roundtrip("int", values) == values

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32)))
    def test_float_roundtrip(self, values):
        assert column_roundtrip("float", values) == pytest.approx(values)

    @given(st.lists(st.text(max_size=20)))
    def test_str_roundtrip(self, values):
        accepted = []
        for value in values:
            if "\x00" in value:
                with pytest.raises(SchemaError):
                    check_field("x", "str", value)
            else:
                accepted.append(check_field("x", "str", value))
        assert column_roundtrip("str", accepted) == accepted
