"""Storage Manager facade.

The paper's Storage Manager "stores and retrieves all persisted data, which
includes video metadata, labels, features, and models".  This facade bundles
the four concrete stores and routes their writes into one write-ahead
journal.  Sessions persist through the checkpoint snapshot
(:mod:`repro.core.checkpoint`), in which each store stages its own part.
"""

from __future__ import annotations

from .feature_store import FeatureStore
from .label_store import LabelStore
from .model_registry import ModelRegistry
from .video_store import VideoStore

__all__ = ["StorageManager"]


class StorageManager:
    """Single owner of all persisted state for one exploration workspace."""

    def __init__(
        self,
        videos: VideoStore | None = None,
        labels: LabelStore | None = None,
        features: FeatureStore | None = None,
        models: ModelRegistry | None = None,
    ) -> None:
        self.videos = videos if videos is not None else VideoStore()
        self.labels = labels if labels is not None else LabelStore()
        self.features = features if features is not None else FeatureStore()
        self.models = models if models is not None else ModelRegistry()
        self._journal_sink = None

    # --------------------------------------------------------------- journaling
    @property
    def journal_sink(self):
        """The write-ahead sink shared by all four stores (None when detached)."""
        return self._journal_sink

    def attach_journal(self, sink) -> None:
        """Route every store write into ``sink`` (a write-ahead journal).

        Labels, videos, fresh feature rows, model registrations, and vector
        index attach/sync events are emitted as JSON records keyed by the
        stores' monotonic counters; see ``repro.storage.durability.replay``
        for the idempotent inverse.
        """
        self._journal_sink = sink
        self.videos.journal_sink = sink
        self.labels.journal_sink = sink
        self.features.journal_sink = sink
        self.models.journal_sink = sink

    def detach_journal(self) -> None:
        """Stop journaling store writes (used during recovery replay)."""
        self._journal_sink = None
        self.videos.journal_sink = None
        self.labels.journal_sink = None
        self.features.journal_sink = None
        self.models.journal_sink = None

    def summary(self) -> dict[str, int]:
        """Return row counts for each store (useful for progress reporting)."""
        return {
            "videos": len(self.videos),
            "labels": len(self.labels),
            "feature_extractors": len(self.features.extractors()),
            "feature_vectors": sum(
                self.features.count(fid) for fid in self.features.extractors()
            ),
            "models": len(self.models),
        }
