"""Tests for a record store's snapshot table.

``stage_table`` turns a store's records into one table document (``name``,
``primary_key``, ``schema``, ``row_count``) plus one array per column, and
``load_table`` reads them back as rows after checking them against the
store's layout.  The id column holds each record's position.
"""

import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import CheckpointError, UnknownVideoError
from repro.storage.label_store import LabelStore
from repro.storage.records import load_table, stage_table
from repro.storage.video_store import VideoStore
from repro.types import Label, VideoRecord

SCHEMA = {"vid": "int", "duration": "float", "label": "str"}


class Row:
    def __init__(self, duration=10.0, label="a", vid=-1):
        self.vid = vid
        self.duration = duration
        self.label = label


def stage(records, prefix="t__"):
    arrays = {}
    doc = stage_table(arrays, prefix, "videos", "vid", SCHEMA, records)
    return doc, arrays


def load(doc, arrays, prefix="t__"):
    return load_table(doc, arrays, prefix, "videos", "vid", SCHEMA)


def through_npz(arrays):
    """Round-trip staged arrays through the snapshot's ``.npz`` encoding."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    buffer.seek(0)
    with np.load(buffer, allow_pickle=False) as payload:
        return {name: payload[name] for name in payload.files}


def restored_videos(count):
    source = VideoStore()
    for i in range(count):
        source.add(f"{i}.mp4", 1.0 + i)
    arrays = {}
    doc = source.to_arrays(arrays, "table__videos__")
    restored = VideoStore()
    restored.from_arrays(doc, through_npz(arrays), "table__videos__")
    return restored


class TestTableConstruction:
    def test_empty_schema_rejected(self):
        doc, arrays = stage([Row()])
        with pytest.raises(CheckpointError):
            load({**doc, "schema": {}}, arrays)

    def test_primary_key_must_be_column(self):
        doc, arrays = stage([Row()])
        for key in ("duration", "missing"):
            with pytest.raises(CheckpointError):
                load({**doc, "primary_key": key}, arrays)

    def test_schema_exposed(self):
        assert VideoStore().to_arrays({}, "v__")["schema"] == {
            "vid": "int",
            "path": "str",
            "duration": "float",
            "start_time": "float",
            "fps": "float",
        }
        doc = LabelStore().to_arrays({}, "l__")
        assert (doc["primary_key"], list(doc["schema"])) == (
            "label_id",
            ["label_id", "vid", "start", "end", "label"],
        )


class TestInsert:
    def test_insert_returns_incrementing_index(self):
        # The id column is each record's position, whatever the record says.
        doc, arrays = stage([Row(vid=7), Row(vid=7), Row(vid=3)])
        assert arrays["t__vid"].tolist() == [0, 1, 2]
        assert [row[0] for row in load(doc, arrays)] == [0, 1, 2]

    def test_missing_column_rejected(self):
        doc, arrays = stage([Row()])
        del arrays["t__label"]
        with pytest.raises(CheckpointError):
            load(doc, arrays)

    def test_extra_column_rejected(self):
        doc, arrays = stage([Row()])
        arrays["t__extra"] = np.array([1])
        with pytest.raises(CheckpointError):
            load({**doc, "schema": {**SCHEMA, "extra": "int"}}, arrays)

    def test_duplicate_primary_key_rejected(self):
        doc, arrays = stage([Row(), Row()])
        with pytest.raises(CheckpointError):
            load(doc, {**arrays, "t__vid": np.array([0, 0])})

    def test_insert_many(self):
        doc, arrays = stage([Row(duration=float(i)) for i in range(5)])
        assert doc["row_count"] == 5
        assert all(len(array) == 5 for array in arrays.values())

    def test_contains_uses_primary_key(self):
        restored = restored_videos(3)
        assert all(vid in restored for vid in range(3))
        assert 3 not in restored


class TestReads:
    def test_row_roundtrip(self):
        doc, arrays = stage([Row(3.5, "walk")])
        ((vid, duration, label),) = load(doc, through_npz(arrays))
        assert (vid, duration, label) == (0, 3.5, "walk")
        assert [type(value) for value in (vid, duration, label)] == [int, float, str]

    def test_rows_iterates_all(self):
        doc, arrays = stage([Row(label=name) for name in "abcd"])
        assert [row[2] for row in load(doc, arrays)] == ["a", "b", "c", "d"]

    def test_get_by_key(self):
        restored = restored_videos(4)
        assert restored.get(2) == VideoRecord(vid=2, path="2.mp4", duration=3.0)

    def test_get_by_missing_key(self):
        restored = restored_videos(2)
        with pytest.raises(UnknownVideoError):
            restored.get(2)

    def test_column_returns_values(self):
        _, arrays = stage([Row(label="a"), Row(label="b")])
        assert arrays["t__label"].tolist() == ["a", "b"]


class TestTableSnapshotCodec:
    def test_roundtrip_preserves_rows_and_schema(self):
        records = [Row(10.5, "walk"), Row(3.25, "eat"), Row(0.0, "")]
        doc, arrays = stage(records)
        assert doc["schema"] == SCHEMA
        rows = load(doc, through_npz(arrays))
        assert rows == [(0, 10.5, "walk"), (1, 3.25, "eat"), (2, 0.0, "")]

    def test_stages_one_array_per_column_under_prefix(self):
        doc, arrays = stage([Row(), Row()], prefix="x__")
        assert list(arrays) == ["x__vid", "x__duration", "x__label"]
        assert doc == {"name": "videos", "primary_key": "vid", "schema": SCHEMA, "row_count": 2}

    def test_roundtrip_empty_table(self):
        doc, arrays = stage([])
        assert doc["row_count"] == 0
        assert load(doc, through_npz(arrays)) == []

    def test_primary_key_still_enforced_after_restore(self):
        doc, arrays = stage([Row(), Row(), Row()])
        with pytest.raises(CheckpointError):
            load(doc, {**arrays, "t__vid": np.array([1, 0, 2])})

    def test_restored_table_accepts_new_inserts(self):
        source = LabelStore()
        source.add_many([Label(0, 0.0, 1.0, "walk"), Label(1, 1.0, 2.0, "eat")])
        arrays = {}
        doc = source.to_arrays(arrays, "table__labels__")
        restored = LabelStore()
        restored.from_arrays(doc, through_npz(arrays), "table__labels__")
        assert restored.add(Label(2, 0.0, 1.0, "rest")) == 2
        assert restored.class_counts() == {"walk": 1, "eat": 1, "rest": 1}


class TestCorruptTable:
    @pytest.mark.parametrize("count", [-1, True, "1", None, 1.0], ids=repr)
    def test_invalid_row_count_rejected(self, count):
        doc, arrays = stage([Row()])
        with pytest.raises(CheckpointError):
            load({**doc, "row_count": count}, arrays)

    @pytest.mark.parametrize(
        "column, values",
        [("vid", np.array([0.0])), ("duration", np.array(["1.0"])), ("label", np.array([1]))],
        ids=["int-as-float", "float-as-str", "str-as-int"],
    )
    def test_wrongly_typed_column_rejected(self, column, values):
        doc, arrays = stage([Row()])
        with pytest.raises(CheckpointError):
            load(doc, {**arrays, "t__" + column: values})

    def test_two_dimensional_column_rejected(self):
        doc, arrays = stage([Row()])
        with pytest.raises(CheckpointError):
            load(doc, {**arrays, "t__duration": np.array([[1.0]])})


class TestTableProperties:
    @given(st.integers(min_value=0, max_value=50))
    def test_primary_key_lookup_consistent(self, count):
        restored = restored_videos(count)
        for vid in range(count):
            assert restored.get(vid).vid == vid
        assert restored.add("next.mp4", 1.0).vid == count
