"""Storage subsystem: the VOCALExplore Storage Manager and its stores.

Public entry points:

* :class:`StorageManager` — facade bundling the four concrete stores.
* :class:`VideoStore`, :class:`LabelStore`, :class:`FeatureStore`,
  :class:`ModelRegistry` — the concrete stores.  The video and label stores
  keep plain lists of frozen records whose position is their id; the feature
  store keeps one columnar shard per extractor.
* :class:`~repro.storage.durability.CheckpointManager` and friends — the
  durable checkpoint/restore subsystem (write-ahead journal, atomic
  generation snapshots, crash recovery).

There is one on-disk format: the checkpoint snapshot (``state.json`` plus
``arrays.npz``, see :mod:`repro.core.checkpoint`) next to the journal.  Each
store stages its own part of it (``to_arrays``) and refills itself in place
on resume.
"""

from .durability import CheckpointManager, replay_records
from .feature_store import FeatureStore
from .label_store import LabelStore
from .model_registry import ModelRegistry
from .storage_manager import StorageManager
from .video_store import VideoStore

__all__ = [
    "VideoStore",
    "LabelStore",
    "FeatureStore",
    "ModelRegistry",
    "StorageManager",
    "CheckpointManager",
    "replay_records",
]
