"""Tests for the label store."""

import numpy as np
import pytest

from repro.exceptions import CheckpointError, SchemaError
from repro.storage.label_store import LabelStore
from repro.types import ClipSpec, Label


def label(vid, start=0.0, end=1.0, name="walk"):
    return Label(vid=vid, start=start, end=end, label=name)


def field_types(fields):
    """Test id naming each overridden field and the type of its value."""
    return ",".join(f"{name}={type(value).__name__}" for name, value in fields.items())


def staged(store):
    """Stage ``store`` into a snapshot bundle; returns ``(doc, arrays)``."""
    arrays = {}
    return store.to_arrays(arrays, "table__labels__"), arrays


def snapshot_roundtrip(store):
    """Restore a fresh store from ``store``'s staged snapshot part."""
    restored = LabelStore()
    restored.from_arrays(*staged(store), "table__labels__")
    return restored


class TestLabelStore:
    def test_add_returns_incrementing_ids(self):
        store = LabelStore()
        assert store.add(label(0)) == 0
        assert store.add(label(1)) == 1
        assert len(store) == 2

    def test_all_preserves_insertion_order(self):
        store = LabelStore()
        store.add(label(0, name="a"))
        store.add(label(1, name="b"))
        assert [entry.label for entry in store.all()] == ["a", "b"]

    def test_add_many(self):
        store = LabelStore()
        ids = store.add_many([label(0), label(1), label(2)])
        assert ids == [0, 1, 2]

    def test_labeled_vids_distinct(self):
        store = LabelStore()
        store.add(label(3))
        store.add(label(3, 2.0, 3.0))
        store.add(label(5))
        assert store.labeled_vids() == [3, 5]

    def test_class_counts(self):
        store = LabelStore()
        for name in ["a", "a", "b", "c", "a"]:
            store.add(label(0, name=name))
        assert store.class_counts() == {"a": 3, "b": 1, "c": 1}

    def test_classes_first_seen_order(self):
        store = LabelStore()
        for name in ["b", "a", "b", "c"]:
            store.add(label(0, name=name))
        assert store.classes() == ["b", "a", "c"]

    def test_labeled_clips(self):
        store = LabelStore()
        store.add(label(0, 1.0, 2.0))
        clips = store.labeled_clips()
        assert clips == [ClipSpec(0, 1.0, 2.0)]

    def test_diversity_smax_empty(self):
        assert LabelStore().diversity_smax() == 0.0

    def test_diversity_smax_uniform(self):
        store = LabelStore()
        for name in ["a", "b", "c", "a", "b", "c"]:
            store.add(label(0, name=name))
        assert store.diversity_smax() == pytest.approx(1.0 / 3.0)

    def test_diversity_smax_skewed(self):
        store = LabelStore()
        for name in ["a"] * 8 + ["b", "c"]:
            store.add(label(0, name=name))
        assert store.diversity_smax() == pytest.approx(0.8)

    def test_snapshot_roundtrip(self):
        store = LabelStore()
        store.add(label(0, 1.0, 2.0, "walk"))
        store.add(label(3, 0.0, 1.0, "eat"))
        loaded = snapshot_roundtrip(store)
        assert len(loaded) == 2
        assert loaded.all() == store.all()
        assert loaded.class_counts() == {"walk": 1, "eat": 1}
        # New ids continue after the restored rows.
        assert loaded.add(label(9)) == 2
        assert loaded.since(2) == [label(9)]

    def test_empty_store_roundtrip(self):
        loaded = snapshot_roundtrip(LabelStore())
        assert len(loaded) == 0
        assert loaded.revision == 0
        assert loaded.all() == []
        assert loaded.add(label(0)) == 0

    def test_restore_replaces_contents_without_journaling(self):
        source = LabelStore()
        source.add(label(0, name="walk"))
        doc, arrays = staged(source)
        target = LabelStore()
        target.add_many([label(1), label(2), label(3)])
        journaled = []
        target.journal_sink = journaled.append
        target.from_arrays(doc, arrays, "table__labels__")
        assert target.all() == source.all()
        assert target.revision == 1
        assert journaled == []


class TestRevision:
    def test_revision_ticks_per_label(self):
        store = LabelStore()
        assert store.revision == 0
        store.add(label(0))
        store.add(label(1))
        assert store.revision == 2
        store.add_many([label(2), label(3)])
        assert store.revision == 4

    def test_since_returns_appended_tail(self):
        store = LabelStore()
        store.add(label(0, name="walk"))
        checkpoint = store.revision
        store.add(label(1, name="eat"))
        store.add(label(2, name="rest"))
        tail = store.since(checkpoint)
        assert [entry.label for entry in tail] == ["eat", "rest"]
        assert [entry.vid for entry in tail] == [1, 2]

    def test_since_current_revision_is_empty(self):
        store = LabelStore()
        store.add(label(0))
        assert store.since(store.revision) == []
        assert store.since(store.revision + 5) == []

    def test_since_zero_equals_all(self):
        store = LabelStore()
        store.add_many([label(0), label(1), label(2)])
        assert store.since(0) == store.all()

    def test_restore_restores_revision(self):
        store = LabelStore()
        store.add_many([label(0), label(1)])
        loaded = snapshot_roundtrip(store)
        assert loaded.revision == 2
        loaded.add(label(2))
        assert loaded.revision == 3
        assert [entry.vid for entry in loaded.since(2)] == [2]


class TestLabelFieldTypes:
    @pytest.mark.parametrize(
        "fields",
        [
            {"vid": 1.0},
            {"vid": True},
            {"vid": None},
            {"vid": "0"},
            {"start": "0"},
            {"start": False},
            {"end": None},
            {"label": 3},
            {"label": None},
            {"label": b"walk"},
            {"label": "walk\x00"},
        ],
        ids=field_types,
    )
    def test_wrongly_typed_field_is_rejected_before_storing(self, fields):
        store = LabelStore()
        journaled = []
        store.journal_sink = journaled.append
        with pytest.raises(SchemaError):
            store.add(Label(**{"vid": 0, "start": 0.0, "end": 1.0, "label": "walk", **fields}))
        assert len(store) == 0
        assert store.revision == 0
        assert journaled == []

    def test_numbers_are_normalised(self):
        store = LabelStore()
        journaled = []
        store.journal_sink = journaled.append
        store.add(Label(vid=np.int64(2), start=1, end=np.float32(2.5), label=np.str_("eat")))
        (stored,) = store.all()
        assert stored == Label(vid=2, start=1.0, end=2.5, label="eat")
        assert [type(value) for value in (stored.vid, stored.start, stored.end, stored.label)] == [
            int, float, float, str
        ]
        assert journaled[0]["vid"] == 2 and journaled[0]["revision"] == 1


class TestLabelStoreCorruptSnapshot:
    @staticmethod
    def assert_rejected(doc, arrays):
        store = LabelStore()
        store.add(label(7, name="kept"))
        before = store.all()
        with pytest.raises(CheckpointError):
            store.from_arrays(doc, arrays, "table__labels__")
        assert store.all() == before
        assert store.revision == 1

    @staticmethod
    def populated():
        store = LabelStore()
        store.add_many([label(0, name="a"), label(1, name="b"), label(2, name="c")])
        return staged(store)

    def test_duplicate_ids(self):
        doc, arrays = self.populated()
        self.assert_rejected(doc, {**arrays, "table__labels__label_id": np.array([0, 0, 1])})

    def test_non_dense_ids(self):
        doc, arrays = self.populated()
        self.assert_rejected(doc, {**arrays, "table__labels__label_id": np.array([1, 2, 3])})

    def test_wrong_schema(self):
        doc, arrays = self.populated()
        self.assert_rejected({**doc, "schema": {**doc["schema"], "label": "int"}}, arrays)
        self.assert_rejected({**doc, "primary_key": "vid"}, arrays)

    def test_short_or_missing_array(self):
        doc, arrays = self.populated()
        self.assert_rejected(doc, {**arrays, "table__labels__end": np.array([1.0])})
        self.assert_rejected({**doc, "row_count": 2}, arrays)
        self.assert_rejected({**doc, "row_count": "3"}, arrays)
        self.assert_rejected(doc, {k: v for k, v in arrays.items() if not k.endswith("label")})
