"""Model registry.

Stores trained models (the paper saves PyTorch checkpoints to disk; here
models are in-memory objects) together with the metadata the Model Manager
needs to serve the "latest model per feature extractor" while a newer one is
still training.  Models reach disk only through :func:`model_document`: every
registration is journaled with it, and checkpoint snapshots stage the serving
model of each feature through it.
"""

from __future__ import annotations

import threading
from typing import Any

from ..exceptions import ModelError, StorageError
from ..types import TrainedModelInfo
from .durability.codec import encode_array

__all__ = ["ModelRegistry"]


def model_document(model, encode_params=None) -> dict | None:
    """JSON-serialisable document reconstructing a trained model, or None.

    Only parametric models are representable; currently the softmax linear
    probe (``SoftmaxRegression``), which covers everything the session
    trains.  ``repro.storage.durability.replay.rebuild_model`` is the
    inverse.  This is the single place the document's field list lives —
    journal records and snapshot state both build through it, differing only
    in ``encode_params`` (inline base64 by default; snapshots stage the
    array in their binary bundle and encode a reference).
    """
    # Local import: repro.models imports the storage package at module load.
    from ..models.linear import SoftmaxRegression

    if isinstance(model, SoftmaxRegression) and model.is_fitted:
        encode = encode_params if encode_params is not None else encode_array
        return {
            "kind": "softmax",
            "classes": list(model.classes),
            "dim": int(model._feature_mean.shape[0]),
            "l2_regularization": model.l2_regularization,
            "max_iterations": model.max_iterations,
            "tolerance": model.tolerance,
            "params": encode(model.get_parameters()),
        }
    return None


class ModelRegistry:
    """Versioned registry of trained models, keyed by feature-extractor name."""

    def __init__(self) -> None:
        self._models: dict[int, Any] = {}
        self._info: dict[int, TrainedModelInfo] = {}
        self._latest_by_feature: dict[str, int] = {}
        self._versions_by_feature: dict[str, int] = {}
        self._next_id = 0
        # Training actions can complete concurrently on the thread-pool
        # execution engine's workers; id allocation must stay atomic.
        self._lock = threading.Lock()
        #: Optional write-ahead sink (``repro.storage.durability``): every
        #: registration is journaled with the model's parameters, keyed by
        #: its per-feature version.
        self.journal_sink = None

    def __len__(self) -> int:
        return len(self._models)

    # ------------------------------------------------------------------ writes
    def register(
        self,
        feature_name: str,
        model: Any,
        classes: list[str],
        num_labels: int,
        created_at: float,
    ) -> TrainedModelInfo:
        """Register a newly trained model and mark it as the latest for its feature."""
        with self._lock:
            model_id = self._next_id
            self._next_id += 1
            version = self._versions_by_feature.get(feature_name, 0) + 1
            self._versions_by_feature[feature_name] = version
            info = TrainedModelInfo(
                model_id=model_id,
                feature_name=feature_name,
                version=version,
                classes=list(classes),
                num_labels=num_labels,
                created_at=created_at,
            )
            self._models[model_id] = model
            self._info[model_id] = info
            self._latest_by_feature[feature_name] = model_id
            if self.journal_sink is not None:
                document = model_document(model)
                if document is None:
                    raise StorageError(
                        f"model registered for {feature_name!r} is not journalable "
                        f"({type(model).__name__}); durable checkpointing supports "
                        "parametric models exposing get_parameters()"
                    )
                self.journal_sink(
                    {
                        "type": "model",
                        "model_id": model_id,
                        "feature": feature_name,
                        "version": version,
                        "classes": list(classes),
                        "num_labels": num_labels,
                        "created_at": created_at,
                        "model": document,
                    }
                )
            return info

    def restore_entry(self, info: TrainedModelInfo, model: Any) -> None:
        """Re-insert a recovered registration under its original id/version.

        Used by checkpoint recovery and journal replay; never journals.

        Raises:
            StorageError: when the id or version would move the registry
                backwards (recovery must replay in registration order).
        """
        with self._lock:
            if info.model_id in self._models:
                raise StorageError(f"model id {info.model_id} is already registered")
            known = self._versions_by_feature.get(info.feature_name, 0)
            if info.version <= known:
                raise StorageError(
                    f"cannot restore {info.feature_name!r} v{info.version}: "
                    f"registry already at v{known}"
                )
            self._models[info.model_id] = model
            self._info[info.model_id] = info
            self._latest_by_feature[info.feature_name] = info.model_id
            self._versions_by_feature[info.feature_name] = info.version
            self._next_id = max(self._next_id, info.model_id + 1)

    # ------------------------------------------------------------------- reads
    def latest(self, feature_name: str) -> tuple[Any, TrainedModelInfo] | None:
        """Return the most recently registered model for ``feature_name`` (or None)."""
        model_id = self._latest_by_feature.get(feature_name)
        if model_id is None:
            return None
        return self._models[model_id], self._info[model_id]

    def latest_version(self, feature_name: str) -> int:
        """Version of the most recent model for ``feature_name`` (0 when none).

        Monotonically increasing per feature, so it doubles as a cheap cache
        key: derived state computed against version ``v`` stays valid until
        ``latest_version`` reports something newer (registered models are
        never mutated in place).
        """
        return self._versions_by_feature.get(feature_name, 0)

    def get(self, model_id: int) -> tuple[Any, TrainedModelInfo]:
        """Return a model and its metadata by id."""
        if model_id not in self._models:
            raise ModelError(f"model {model_id} is not registered")
        return self._models[model_id], self._info[model_id]

    def info(self, model_id: int) -> TrainedModelInfo:
        """Return the metadata for ``model_id``."""
        if model_id not in self._info:
            raise ModelError(f"model {model_id} is not registered")
        return self._info[model_id]

    def history(self, feature_name: str) -> list[TrainedModelInfo]:
        """Return all registered models for one feature, oldest first."""
        return sorted(
            (info for info in self._info.values() if info.feature_name == feature_name),
            key=lambda info: info.version,
        )

    def features_with_models(self) -> list[str]:
        """Feature names that have at least one trained model."""
        return list(self._latest_by_feature)
