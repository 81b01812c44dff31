"""Tests for the column-store table."""

import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import DuplicateKeyError, SchemaError
from repro.storage.expressions import col
from repro.storage.table import Table

SCHEMA = {"vid": "int", "duration": "float", "label": "str", "active": "bool"}


def make_table(rows=()):
    table = Table("videos", SCHEMA, primary_key="vid")
    for row in rows:
        table.insert(row)
    return table


def row(vid, duration=10.0, label="a", active=True):
    return {"vid": vid, "duration": duration, "label": label, "active": active}


class TestTableConstruction:
    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", {})

    def test_primary_key_must_be_column(self):
        with pytest.raises(SchemaError):
            Table("t", {"a": "int"}, primary_key="b")

    def test_schema_exposed(self):
        table = make_table()
        assert table.schema == SCHEMA
        assert table.column_names == list(SCHEMA)


class TestInsert:
    def test_insert_returns_incrementing_index(self):
        table = make_table()
        assert table.insert(row(0)) == 0
        assert table.insert(row(1)) == 1
        assert len(table) == 2

    def test_missing_column_rejected(self):
        table = make_table()
        with pytest.raises(SchemaError):
            table.insert({"vid": 0, "duration": 1.0, "label": "a"})

    def test_extra_column_rejected(self):
        table = make_table()
        bad = row(0)
        bad["extra"] = 1
        with pytest.raises(SchemaError):
            table.insert(bad)

    def test_duplicate_primary_key_rejected(self):
        table = make_table([row(0)])
        with pytest.raises(DuplicateKeyError):
            table.insert(row(0))

    def test_insert_many(self):
        table = make_table()
        indices = table.insert_many([row(0), row(1), row(2)])
        assert indices == [0, 1, 2]

    def test_contains_uses_primary_key(self):
        table = make_table([row(5)])
        assert 5 in table
        assert 6 not in table

    def test_contains_without_primary_key_raises(self):
        table = Table("t", {"a": "int"})
        table.insert({"a": 1})
        with pytest.raises(SchemaError):
            1 in table


class TestReads:
    def test_row_roundtrip(self):
        table = make_table([row(0, 3.5, "walk", False)])
        assert table.row(0) == {"vid": 0, "duration": 3.5, "label": "walk", "active": False}

    def test_rows_iterates_all(self):
        table = make_table([row(i) for i in range(4)])
        assert [r["vid"] for r in table.rows()] == [0, 1, 2, 3]

    def test_get_by_key(self):
        table = make_table([row(3, label="x"), row(7, label="y")])
        assert table.get_by_key(7)["label"] == "y"

    def test_get_by_missing_key(self):
        table = make_table([row(0)])
        with pytest.raises(KeyError):
            table.get_by_key(99)

    def test_column_returns_values(self):
        table = make_table([row(0, label="a"), row(1, label="b")])
        assert list(table.column("label")) == ["a", "b"]

    def test_unknown_column_raises(self):
        table = make_table([row(0)])
        with pytest.raises(SchemaError):
            table.column("missing")


class TestUpdate:
    def test_update_changes_values(self):
        table = make_table([row(0, label="a")])
        table.update(0, {"label": "b", "duration": 2.0})
        assert table.row(0)["label"] == "b"
        assert table.row(0)["duration"] == 2.0

    def test_update_unknown_column_rejected(self):
        table = make_table([row(0)])
        with pytest.raises(SchemaError):
            table.update(0, {"missing": 1})

    def test_update_primary_key_reindexes(self):
        table = make_table([row(0)])
        table.update(0, {"vid": 9})
        assert 9 in table
        assert 0 not in table

    def test_update_primary_key_duplicate_rejected(self):
        table = make_table([row(0), row(1)])
        with pytest.raises(DuplicateKeyError):
            table.update(0, {"vid": 1})


class TestFilterProjectSort:
    def test_filter_returns_matching_rows(self):
        table = make_table([row(i, duration=float(i)) for i in range(6)])
        subset = table.filter(col("duration") >= 3.0)
        assert [r["vid"] for r in subset.rows()] == [3, 4, 5]

    def test_filter_empty_table(self):
        table = make_table()
        assert len(table.filter(col("vid") == 0)) == 0

    def test_filter_preserves_key_lookup(self):
        table = make_table([row(i) for i in range(4)])
        subset = table.filter(col("vid") > 1)
        assert subset.get_by_key(3)["vid"] == 3

    def test_filter_indices(self):
        table = make_table([row(i, label="a" if i % 2 else "b") for i in range(4)])
        indices = table.filter_indices(col("label") == "a")
        assert list(indices) == [1, 3]

    def test_take_orders_rows(self):
        table = make_table([row(i) for i in range(4)])
        taken = table.take([2, 0])
        assert [r["vid"] for r in taken.rows()] == [2, 0]

    def test_project_restricts_columns(self):
        table = make_table([row(0)])
        projected = table.project(["vid", "label"])
        assert projected.column_names == ["vid", "label"]
        assert projected.row(0) == {"vid": 0, "label": "a"}

    def test_project_unknown_column(self):
        table = make_table([row(0)])
        with pytest.raises(SchemaError):
            table.project(["vid", "missing"])

    def test_project_drops_primary_key_when_not_selected(self):
        table = make_table([row(0)])
        projected = table.project(["label"])
        assert projected.primary_key is None

    def test_sort_by_ascending_and_descending(self):
        table = make_table([row(0, duration=3.0), row(1, duration=1.0), row(2, duration=2.0)])
        ascending = table.sort_by("duration")
        descending = table.sort_by("duration", descending=True)
        assert [r["vid"] for r in ascending.rows()] == [1, 2, 0]
        assert [r["vid"] for r in descending.rows()] == [0, 2, 1]


class TestAggregation:
    def test_count_by(self):
        table = make_table([row(0, label="a"), row(1, label="b"), row(2, label="a")])
        assert table.count_by("label") == {"a": 2, "b": 1}

    def test_distinct_preserves_first_seen_order(self):
        table = make_table([row(0, label="b"), row(1, label="a"), row(2, label="b")])
        assert table.distinct("label") == ["b", "a"]

    def test_to_records(self):
        table = make_table([row(0), row(1)])
        records = table.to_records()
        assert len(records) == 2
        assert records[0]["vid"] == 0


def through_npz(arrays):
    """Round-trip staged arrays through the snapshot's ``.npz`` encoding."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    buffer.seek(0)
    with np.load(buffer, allow_pickle=False) as payload:
        return {name: payload[name] for name in payload.files}


def snapshot_roundtrip(table, prefix="table__videos__"):
    arrays = {}
    doc = table.to_arrays(arrays, prefix)
    return Table.from_arrays(doc, through_npz(arrays), prefix)


class TestTableSnapshotCodec:
    def test_roundtrip_preserves_rows_and_schema(self):
        table = make_table(
            [row(0, 10.5, "walk", True), row(7, 3.25, "eat", False), row(3, 0.0, "", True)]
        )
        restored = snapshot_roundtrip(table)
        assert restored.name == "videos"
        assert restored.schema == SCHEMA
        assert restored.primary_key == "vid"
        assert restored.to_records() == table.to_records()
        for record in restored.to_records():
            assert type(record["vid"]) is int
            assert type(record["duration"]) is float
            assert type(record["label"]) is str
            assert type(record["active"]) is bool

    def test_stages_one_array_per_column_under_prefix(self):
        arrays = {}
        doc = make_table([row(0), row(1)]).to_arrays(arrays, "t__")
        assert list(arrays) == ["t__vid", "t__duration", "t__label", "t__active"]
        assert doc == {
            "name": "videos",
            "primary_key": "vid",
            "schema": SCHEMA,
            "row_count": 2,
        }

    def test_roundtrip_empty_table(self):
        table = Table("empty", {"a": "int"}, primary_key="a")
        restored = snapshot_roundtrip(table, "table__empty__")
        assert len(restored) == 0
        assert restored.schema == {"a": "int"}
        assert restored.primary_key == "a"

    def test_primary_key_still_enforced_after_restore(self):
        restored = snapshot_roundtrip(make_table([row(0), row(1)]))
        assert 1 in restored
        assert restored.get_by_key(1)["vid"] == 1
        with pytest.raises(DuplicateKeyError):
            restored.insert(row(1))

    def test_restored_table_accepts_new_inserts(self):
        restored = snapshot_roundtrip(make_table([row(0), row(1)]))
        restored.insert(row(2, label="rest"))
        assert len(restored) == 3
        assert restored.get_by_key(2)["label"] == "rest"

    def test_table_without_primary_key(self):
        table = Table("log", {"x": "float", "tag": "str"})
        table.insert_many([{"x": 1.5, "tag": "a"}, {"x": 1.5, "tag": "a"}])
        restored = snapshot_roundtrip(table, "log__")
        assert restored.primary_key is None
        assert restored.to_records() == table.to_records()


class TestTableProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), unique=True, max_size=50))
    def test_primary_key_lookup_consistent(self, vids):
        table = make_table([row(v) for v in vids])
        for vid in vids:
            assert table.get_by_key(vid)["vid"] == vid

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    def test_filter_partition(self, durations, threshold):
        table = make_table([row(i, duration=d) for i, d in enumerate(durations)])
        below = table.filter(col("duration") < threshold)
        at_or_above = table.filter(col("duration") >= threshold)
        assert len(below) + len(at_or_above) == len(table)
