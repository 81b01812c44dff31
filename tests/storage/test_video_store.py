"""Tests for the video metadata store."""

import numpy as np
import pytest

from repro.exceptions import CheckpointError, SchemaError, UnknownVideoError
from repro.storage.video_store import VideoStore
from repro.types import VideoRecord


def field_types(fields):
    """Test id naming each overridden field and the type of its value."""
    return ",".join(f"{name}={type(value).__name__}" for name, value in fields.items())


def staged(store):
    """Stage ``store`` into a snapshot bundle; returns ``(doc, arrays)``."""
    arrays = {}
    return store.to_arrays(arrays, "table__videos__"), arrays


def snapshot_roundtrip(store):
    """Restore a fresh store from ``store``'s staged snapshot part."""
    loaded = VideoStore()
    loaded.from_arrays(*staged(store), "table__videos__")
    return loaded


class TestVideoStore:
    def test_add_assigns_incrementing_vids(self):
        store = VideoStore()
        first = store.add("a.mp4", 10.0)
        second = store.add("b.mp4", 20.0)
        assert (first.vid, second.vid) == (0, 1)
        assert len(store) == 2

    def test_get_returns_record(self):
        store = VideoStore()
        added = store.add("a.mp4", 12.5, start_time=3600.0, fps=25.0)
        fetched = store.get(added.vid)
        assert fetched == added
        assert fetched.duration == 12.5
        assert fetched.fps == 25.0

    def test_get_unknown_vid_raises(self):
        store = VideoStore()
        with pytest.raises(UnknownVideoError):
            store.get(7)

    def test_contains(self):
        store = VideoStore()
        record = store.add("a.mp4", 10.0)
        assert record.vid in store
        assert 99 not in store

    def test_contains_accepts_numpy_ints_only(self):
        store = VideoStore()
        store.add("a.mp4", 10.0)
        assert np.int64(0) in store
        assert 0.0 not in store
        assert "0" not in store
        assert False not in store
        with pytest.raises(UnknownVideoError):
            store.get(False)

    def test_add_records_assigns_fresh_vids(self):
        store = VideoStore()
        originals = [
            VideoRecord(vid=55, path="x.mp4", duration=5.0),
            VideoRecord(vid=77, path="y.mp4", duration=6.0),
        ]
        added = store.add_records(originals)
        assert [record.vid for record in added] == [0, 1]
        assert [record.path for record in added] == ["x.mp4", "y.mp4"]

    def test_all_and_vids_in_insertion_order(self):
        store = VideoStore()
        for i in range(5):
            store.add(f"{i}.mp4", 10.0)
        assert store.vids() == [0, 1, 2, 3, 4]
        assert [record.path for record in store.all()] == [f"{i}.mp4" for i in range(5)]

    def test_total_duration(self):
        store = VideoStore()
        store.add("a.mp4", 10.0)
        store.add("b.mp4", 2.5)
        assert store.total_duration() == pytest.approx(12.5)

    def test_total_duration_empty(self):
        assert VideoStore().total_duration() == 0.0

    def test_get_out_of_range_raises(self):
        store = VideoStore()
        store.add("a.mp4", 10.0)
        for vid in (-1, len(store)):
            with pytest.raises(UnknownVideoError):
                store.get(vid)
            assert vid not in store

    def test_snapshot_roundtrip(self):
        store = VideoStore()
        store.add("a.mp4", 10.0, start_time=1.0, fps=30.0)
        store.add("b.mp4", 20.0, start_time=2.0, fps=24.0)
        loaded = snapshot_roundtrip(store)
        assert len(loaded) == 2
        assert loaded.all() == store.all()
        # New vids continue after the restored rows.
        assert loaded.add("c.mp4", 5.0).vid == 2
        assert loaded.vids() == [0, 1, 2]


class TestVideoStoreFieldTypes:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"path": 7},
            {"path": None},
            {"path": b"a.mp4"},
            {"path": "a.mp4\x00"},
            {"duration": "10"},
            {"duration": True},
            {"duration": None},
            {"start_time": False},
            {"fps": "30"},
        ],
        ids=field_types,
    )
    def test_wrongly_typed_field_is_rejected_before_storing(self, kwargs):
        store = VideoStore()
        journaled = []
        store.journal_sink = journaled.append
        fields = {"path": "a.mp4", "duration": 10.0, **kwargs}
        with pytest.raises(SchemaError):
            store.add(**fields)
        assert len(store) == 0
        assert journaled == []

    def test_numpy_and_int_numbers_are_stored_as_float(self):
        store = VideoStore()
        record = store.add(np.str_("a.mp4"), np.float32(2.5), start_time=np.int64(3), fps=25)
        assert record == VideoRecord(vid=0, path="a.mp4", duration=2.5, start_time=3.0, fps=25.0)
        assert type(record.path) is str
        assert type(record.start_time) is float


class TestVideoStoreSnapshot:
    def test_empty_store_roundtrip(self):
        loaded = snapshot_roundtrip(VideoStore())
        assert len(loaded) == 0
        assert loaded.all() == []
        assert loaded.add("a.mp4", 1.0).vid == 0

    def test_restore_replaces_contents_without_journaling(self):
        source = VideoStore()
        source.add("a.mp4", 10.0)
        doc, arrays = staged(source)
        target = VideoStore()
        target.add("x.mp4", 1.0)
        target.add("y.mp4", 1.0)
        journaled = []
        target.journal_sink = journaled.append
        target.from_arrays(doc, arrays, "table__videos__")
        assert target.all() == source.all()
        assert journaled == []


class TestVideoStoreCorruptSnapshot:
    @staticmethod
    def assert_rejected(doc, arrays):
        store = VideoStore()
        store.add("kept.mp4", 4.0)
        before = store.all()
        with pytest.raises(CheckpointError):
            store.from_arrays(doc, arrays, "table__videos__")
        assert store.all() == before

    def populated(self):
        store = VideoStore()
        for i in range(3):
            store.add(f"{i}.mp4", 10.0 + i)
        return staged(store)

    def test_duplicate_ids(self):
        doc, arrays = self.populated()
        arrays["table__videos__vid"] = np.array([0, 1, 1])
        self.assert_rejected(doc, arrays)

    def test_non_dense_ids(self):
        doc, arrays = self.populated()
        arrays["table__videos__vid"] = np.array([0, 2, 5])
        self.assert_rejected(doc, arrays)

    def test_wrong_schema(self):
        doc, arrays = self.populated()
        self.assert_rejected({**doc, "schema": {**doc["schema"], "fps": "int"}}, arrays)
        self.assert_rejected({**doc, "primary_key": "path"}, arrays)
        self.assert_rejected({**doc, "name": "labels"}, arrays)

    def test_short_or_missing_array(self):
        doc, arrays = self.populated()
        self.assert_rejected(doc, {**arrays, "table__videos__duration": np.array([1.0, 2.0])})
        self.assert_rejected({**doc, "row_count": 4}, arrays)
        del arrays["table__videos__path"]
        self.assert_rejected(doc, arrays)

    def test_wrongly_typed_array(self):
        doc, arrays = self.populated()
        self.assert_rejected(doc, {**arrays, "table__videos__path": np.array([1, 2, 3])})
