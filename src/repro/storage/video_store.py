"""Video metadata store.

Tracks every video registered through ``AddVideo`` (or bulk loading) and hands
out stable integer video ids.  Backed by a column-store table so metadata can
be filtered with predicate expressions and captured in checkpoint snapshots.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..exceptions import UnknownVideoError
from ..types import VideoRecord
from .table import Table

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
        self._table = Table(self.TABLE_NAME, _SCHEMA, primary_key="vid")
        self._next_vid = 0
        #: Optional write-ahead sink (``repro.storage.durability``): every
        #: registered video is journaled under its assigned vid.
        self.journal_sink = None

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, vid: int) -> bool:
        return vid in self._table

    # ------------------------------------------------------------------ writes
    def add(
        self,
        path: str,
        duration: float,
        start_time: float = 0.0,
        fps: float = 30.0,
    ) -> VideoRecord:
        """Register one video and return its record (with an assigned ``vid``)."""
        record = VideoRecord(
            vid=self._next_vid,
            path=path,
            duration=float(duration),
            start_time=float(start_time),
            fps=float(fps),
        )
        self._table.insert(
            {
                "vid": record.vid,
                "path": record.path,
                "duration": record.duration,
                "start_time": record.start_time,
                "fps": record.fps,
            }
        )
        self._next_vid += 1
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
        try:
            row = self._table.get_by_key(vid)
        except KeyError as exc:
            raise UnknownVideoError(f"video {vid} is not registered") from exc
        return VideoRecord(
            vid=row["vid"],
            path=row["path"],
            duration=row["duration"],
            start_time=row["start_time"],
            fps=row["fps"],
        )

    def all(self) -> list[VideoRecord]:
        """Return every registered video in insertion order."""
        return [self.get(int(vid)) for vid in self._table.column("vid")]

    def vids(self) -> list[int]:
        """Return all registered video ids in insertion order."""
        return [int(v) for v in self._table.column("vid")]

    def total_duration(self) -> float:
        """Sum of all video durations in seconds."""
        if len(self._table) == 0:
            return 0.0
        return float(np.sum(self._table.column("duration")))

    def sample_vids(self, count: int, rng: np.random.Generator, exclude: Sequence[int] = ()) -> list[int]:
        """Sample up to ``count`` distinct vids uniformly at random, skipping ``exclude``."""
        excluded = set(exclude)
        available = [vid for vid in self.vids() if vid not in excluded]
        if not available:
            return []
        count = min(count, len(available))
        chosen = rng.choice(len(available), size=count, replace=False)
        return [available[int(i)] for i in chosen]

    # ---------------------------------------------------------------- snapshot
    def to_arrays(self, arrays: dict, prefix: str) -> dict:
        """Stage the video table into a snapshot bundle (see :meth:`Table.to_arrays`)."""
        return self._table.to_arrays(arrays, prefix)

    def restore_table(self, table: Table) -> None:
        """Adopt a rebuilt video table in place (checkpoint recovery).

        Managers hold references to this store, so recovery refills it
        rather than swapping in a new one; the journal sink is left
        untouched and not invoked.
        """
        self._table = table
        vids = self._table.column("vid")
        self._next_vid = int(np.max(vids)) + 1 if len(vids) else 0
