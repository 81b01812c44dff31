"""Storage subsystem: embedded column store plus the VOCALExplore stores.

Public entry points:

* :class:`StorageManager` — facade bundling the four concrete stores.
* :class:`VideoStore`, :class:`LabelStore`, :class:`FeatureStore`,
  :class:`ModelRegistry` — the concrete stores.
* :class:`Table`, :class:`Column`, :func:`col`, :func:`lit` — the embedded
  column store and its predicate-expression DSL.
* :class:`~repro.storage.durability.CheckpointManager` and friends — the
  durable checkpoint/restore subsystem (write-ahead journal, atomic
  generation snapshots, crash recovery).

There is one on-disk format: the checkpoint snapshot (``state.json`` plus
``arrays.npz``, see :mod:`repro.core.checkpoint`) next to the journal.  Each
store stages its own part of it (``to_arrays``) and refills itself in place
on resume.
"""

from .column import Column, ColumnType
from .durability import CheckpointManager, replay_records
from .expressions import Expression, col, lit
from .feature_store import FeatureStore
from .label_store import LabelStore
from .model_registry import ModelRegistry
from .storage_manager import StorageManager
from .table import Table
from .video_store import VideoStore

__all__ = [
    "Column",
    "ColumnType",
    "Expression",
    "col",
    "lit",
    "Table",
    "VideoStore",
    "LabelStore",
    "FeatureStore",
    "ModelRegistry",
    "StorageManager",
    "CheckpointManager",
    "replay_records",
]
