"""Video metadata store.

Tracks every video registered through ``AddVideo`` (or bulk loading) and hands
out stable integer video ids.  The store is a plain list of frozen
:class:`~repro.types.VideoRecord` rows whose position is their ``vid``, and it
stages itself as one table of a checkpoint snapshot.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..exceptions import UnknownVideoError
from ..types import VideoRecord
from .records import check_field, load_table, stage_table

__all__ = ["VideoStore"]

_SCHEMA = {
    "vid": "int",
    "path": "str",
    "duration": "float",
    "start_time": "float",
    "fps": "float",
}


class VideoStore:
    """Registry of :class:`~repro.types.VideoRecord` rows keyed by ``vid``."""

    TABLE_NAME = "videos"

    def __init__(self) -> None:
        self._records: list[VideoRecord] = []
        #: Optional write-ahead sink (``repro.storage.durability``): every
        #: registered video is journaled under its assigned vid.
        self.journal_sink = None

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, vid: object) -> bool:
        return (
            isinstance(vid, (int, np.integer))
            and not isinstance(vid, bool)
            and 0 <= vid < len(self._records)
        )

    # ------------------------------------------------------------------ writes
    def add(
        self,
        path: str,
        duration: float,
        start_time: float = 0.0,
        fps: float = 30.0,
    ) -> VideoRecord:
        """Register one video and return its record (with an assigned ``vid``).

        Raises:
            SchemaError: if a field has the wrong type; nothing is stored
                or journaled.
        """
        record = VideoRecord(
            vid=len(self._records),
            path=check_field("path", "str", path),
            duration=check_field("duration", "float", duration),
            start_time=check_field("start_time", "float", start_time),
            fps=check_field("fps", "float", fps),
        )
        self._records.append(record)
        if self.journal_sink is not None:
            self.journal_sink(
                {
                    "type": "video",
                    "vid": record.vid,
                    "path": record.path,
                    "duration": record.duration,
                    "start_time": record.start_time,
                    "fps": record.fps,
                }
            )
        return record

    def add_records(self, records: Iterable[VideoRecord]) -> list[VideoRecord]:
        """Register pre-built records, preserving their durations and paths.

        The store assigns fresh vids; the returned records carry the assigned ids.
        """
        return [
            self.add(record.path, record.duration, record.start_time, record.fps)
            for record in records
        ]

    # ------------------------------------------------------------------- reads
    def get(self, vid: int) -> VideoRecord:
        """Return the record for ``vid``.

        Raises:
            UnknownVideoError: if the vid has not been registered.
        """
        if vid not in self:
            raise UnknownVideoError(f"video {vid} is not registered")
        return self._records[vid]

    def all(self) -> list[VideoRecord]:
        """Return every registered video in insertion order."""
        return list(self._records)

    def vids(self) -> list[int]:
        """Return all registered video ids in insertion order."""
        return list(range(len(self._records)))

    def total_duration(self) -> float:
        """Sum of all video durations in seconds."""
        return float(np.sum([record.duration for record in self._records]))

    # ---------------------------------------------------------------- snapshot
    def to_arrays(self, arrays: dict, prefix: str) -> dict:
        """Stage one array per column into ``arrays``; returns the table doc."""
        return stage_table(arrays, prefix, self.TABLE_NAME, "vid", _SCHEMA, self._records)

    def from_arrays(self, doc: dict, arrays, prefix: str) -> None:
        """Refill the store in place from a table staged by :meth:`to_arrays`.

        Managers hold references to this store, so recovery refills it
        rather than swapping in a new one; the journal sink is left
        untouched and not invoked.

        Raises:
            CheckpointError: if the table does not match this store's layout;
                the store is left unchanged.
        """
        rows = load_table(doc, arrays, prefix, self.TABLE_NAME, "vid", _SCHEMA)
        self._records = [VideoRecord(*row) for row in rows]
