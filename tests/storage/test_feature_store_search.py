"""Tests for FeatureStore vector search: attach_index, search, invalidation."""

import numpy as np
import pytest

from repro.exceptions import MissingFeatureError
from repro.storage.feature_store import FeatureStore
from repro.types import ClipSpec


def filled_store(n=60, dim=8, seed=0, fid="r3d"):
    rng = np.random.default_rng(seed)
    store = FeatureStore()
    vids = np.arange(n, dtype=np.int64)
    starts = np.zeros(n)
    ends = np.ones(n)
    vectors = rng.standard_normal((n, dim))
    store.add_batch(fid, vids, starts, ends, vectors)
    return store, vectors


class TestSearch:
    def test_default_backend_is_exact(self):
        store, __ = filled_store()
        assert store.index_backend("r3d") == "exact"
        assert store.index_backend("unknown") == "exact"

    def test_search_returns_nearest_rows(self):
        store, vectors = filled_store()
        distances, rows = store.search("r3d", vectors[13], k=1)
        assert rows[0, 0] == 13
        assert distances[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_search_batch_shapes(self):
        store, vectors = filled_store()
        distances, rows = store.search("r3d", vectors[:5], k=4)
        assert distances.shape == (5, 4) and rows.shape == (5, 4)

    def test_rows_convert_to_clips(self):
        store, vectors = filled_store()
        __, rows = store.search("r3d", vectors[7], k=2)
        clips = store.clips_at("r3d", rows[0])
        assert clips[0] == ClipSpec(7, 0.0, 1.0)

    def test_clips_at_maps_padding_to_none(self):
        store, vectors = filled_store(n=2)
        __, rows = store.search("r3d", vectors[0], k=5)
        clips = store.clips_at("r3d", rows[0])
        assert clips[2:] == [None, None, None]

    def test_unknown_extractor_raises(self):
        store = FeatureStore()
        with pytest.raises(MissingFeatureError):
            store.search("nope", np.zeros(4), k=1)

    def test_empty_shard_raises(self):
        store = FeatureStore()
        store.attach_index("r3d", "exact")
        with pytest.raises(MissingFeatureError):
            store.search("r3d", np.zeros(4), k=1)


class TestAttachIndex:
    def test_backend_switch_takes_effect(self):
        store, vectors = filled_store(n=200)
        store.attach_index("r3d", "lsh", seed=0)
        assert store.index_backend("r3d") == "lsh"
        distances, rows = store.search("r3d", vectors[3], k=1)
        assert rows[0, 0] == 3  # its own bucket always contains it

    def test_attach_before_any_vector(self):
        store = FeatureStore()
        store.attach_index("r3d", "ivf-flat", seed=0)
        assert store.index_backend("r3d") == "ivf-flat"
        store.add_batch(
            "r3d", np.arange(10), np.zeros(10), np.ones(10),
            np.random.default_rng(0).standard_normal((10, 4)),
        )
        __, rows = store.search("r3d", store.columns("r3d")[3][4], k=1)
        assert rows[0, 0] == 4

    def test_attach_does_not_fabricate_extractor(self):
        # A config probe with an unknown fid must not create a phantom shard
        # that would leak into extractors() and the snapshot.
        store, __ = filled_store()
        store.attach_index("typo_extractor", "lsh")
        assert store.extractors() == ["r3d"]
        assert list(store.to_arrays({}, "shard__")["shards"]) == ["r3d"]

    def test_reattach_same_spec_keeps_built_index(self):
        store, vectors = filled_store()
        store.search("r3d", vectors[0], k=1)  # builds lazily
        shard = store._shards["r3d"]
        built = shard._vindex
        store.attach_index("r3d", "exact")
        assert shard._vindex is built

    def test_attach_different_spec_drops_built_index(self):
        store, vectors = filled_store()
        store.search("r3d", vectors[0], k=1)
        shard = store._shards["r3d"]
        store.attach_index("r3d", "lsh", seed=1)
        assert shard._vindex is None


class TestWriteInvalidation:
    def test_add_batch_rows_visible_to_next_search(self):
        store, vectors = filled_store(n=40)
        store.search("r3d", vectors[0], k=1)  # build the index
        rng = np.random.default_rng(99)
        fresh = rng.standard_normal((5, vectors.shape[1]))
        store.add_batch(
            "r3d", np.arange(100, 105), np.zeros(5), np.ones(5), fresh
        )
        distances, rows = store.search("r3d", fresh[2], k=1)
        assert rows[0, 0] == 42  # 40 existing + index 2 of the new batch
        assert distances[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_single_add_visible_to_next_search(self):
        store, vectors = filled_store(n=20)
        store.search("r3d", vectors[0], k=1)
        from repro.types import FeatureVector

        new_vector = np.full(vectors.shape[1], 123.0)
        store.add(FeatureVector("r3d", 500, 0.0, 1.0, new_vector))
        __, rows = store.search("r3d", new_vector, k=1)
        assert store.clips_at("r3d", rows[0])[0].vid == 500

    def test_search_results_deterministic_after_rebuild(self):
        for backend in ("exact", "ivf-flat", "lsh"):
            runs = []
            for __ in range(2):
                store, vectors = filled_store(n=120)
                store.attach_index("r3d", backend, seed=7)
                runs.append(store.search("r3d", vectors[:10], k=5))
            assert np.array_equal(runs[0][1], runs[1][1])
            assert np.array_equal(runs[0][0], runs[1][0])

    def test_restore_drops_index_and_rebuilds(self):
        store, vectors = filled_store(n=30)
        store.attach_index("r3d", "ivf-flat", nlist=4)
        store.search("r3d", vectors[0], k=1)
        arrays = {}
        doc = store.to_arrays(arrays, "shard__")
        restored = FeatureStore()
        restored.from_arrays(doc, arrays, "shard__")
        assert restored._shards["r3d"]._vindex is None
        assert restored.index_backend("r3d") == "ivf-flat"
        __, rows = restored.search("r3d", vectors[11], k=1)
        assert rows[0, 0] == 11
