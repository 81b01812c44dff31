"""Tests for the label store."""

import pytest

from repro.storage.label_store import LabelStore
from repro.storage.table import Table
from repro.types import ClipSpec, Label


def label(vid, start=0.0, end=1.0, name="walk"):
    return Label(vid=vid, start=start, end=end, label=name)


def snapshot_roundtrip(store):
    """Stage ``store`` into a snapshot bundle and restore a fresh store from it."""
    arrays = {}
    doc = store.to_arrays(arrays, "table__labels__")
    restored = LabelStore()
    restored.restore_table(Table.from_arrays(doc, arrays, "table__labels__"))
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

    def test_for_video(self):
        store = LabelStore()
        store.add(label(0, name="a"))
        store.add(label(1, name="b"))
        store.add(label(0, 5.0, 6.0, "c"))
        names = [entry.label for entry in store.for_video(0)]
        assert names == ["a", "c"]

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

    def test_count_for_class_missing(self):
        assert LabelStore().count_for_class("x") == 0

    def test_covers_overlapping_clip(self):
        store = LabelStore()
        store.add(label(0, 2.0, 4.0))
        assert store.covers(ClipSpec(0, 3.0, 5.0))
        assert not store.covers(ClipSpec(0, 4.5, 5.0))
        assert not store.covers(ClipSpec(1, 2.0, 4.0))

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
        # New ids continue after the restored maximum.
        assert loaded.add(label(9)) == 2


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
