"""Label store.

Persists every ``AddLabel`` call and answers the queries the Active Learning
Manager needs: per-class counts (for the skew test and the S_max diversity
metric), the full label list (for training), and per-video lookups (so already
labeled clips are not sampled again).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from ..types import ClipSpec, Label
from .expressions import col
from .table import Table

__all__ = ["LabelStore"]

_SCHEMA = {
    "label_id": "int",
    "vid": "int",
    "start": "float",
    "end": "float",
    "label": "str",
}


class LabelStore:
    """Append-only store of user-provided labels."""

    TABLE_NAME = "labels"

    def __init__(self) -> None:
        self._table = Table(self.TABLE_NAME, _SCHEMA, primary_key="label_id")
        self._next_id = 0
        self._revision = 0
        #: Optional write-ahead sink (``repro.storage.durability``): every
        #: stored label is journaled, keyed by the post-write revision.
        self.journal_sink = None

    def __len__(self) -> int:
        return len(self._table)

    @property
    def revision(self) -> int:
        """Monotonically increasing write counter (one tick per stored label).

        Because the store is append-only, a consumer that cached derived state
        at revision ``r`` can catch up by processing only ``since(r)``; the
        Model Manager's design-matrix cache relies on this.
        """
        return self._revision

    # ------------------------------------------------------------------ writes
    def add(self, label: Label) -> int:
        """Store one label; returns its id."""
        label_id = self._next_id
        self._table.insert(
            {
                "label_id": label_id,
                "vid": label.vid,
                "start": label.start,
                "end": label.end,
                "label": label.label,
            }
        )
        self._next_id += 1
        self._revision += 1
        if self.journal_sink is not None:
            self.journal_sink(
                {
                    "type": "label",
                    "label_id": label_id,
                    "vid": label.vid,
                    "start": label.start,
                    "end": label.end,
                    "label": label.label,
                    "revision": self._revision,
                }
            )
        return label_id

    def add_many(self, labels: Iterable[Label]) -> list[int]:
        """Store several labels; returns their ids."""
        return [self.add(label) for label in labels]

    # ------------------------------------------------------------------- reads
    def all(self) -> list[Label]:
        """Return every stored label in insertion order."""
        return [
            Label(vid=row["vid"], start=row["start"], end=row["end"], label=row["label"])
            for row in self._table.rows()
        ]

    def since(self, revision: int) -> list[Label]:
        """Labels appended after ``revision``, in insertion order.

        ``since(self.revision)`` is always empty; ``since(0)`` equals
        :meth:`all`.  Revisions tick once per stored label, so the labels
        newer than revision ``r`` are exactly the rows inserted at positions
        ``r`` onwards.
        """
        if revision >= self._revision:
            return []
        # Direct row indexing: materialising only the appended tail keeps this
        # O(new labels), not O(all labels).
        return [
            Label(vid=row["vid"], start=row["start"], end=row["end"], label=row["label"])
            for row in (
                self._table.row(index)
                for index in range(max(0, revision), len(self._table))
            )
        ]

    def for_video(self, vid: int) -> list[Label]:
        """Return the labels applied to video ``vid``."""
        subset = self._table.filter(col("vid") == vid)
        return [
            Label(vid=row["vid"], start=row["start"], end=row["end"], label=row["label"])
            for row in subset.rows()
        ]

    def labeled_clips(self) -> list[ClipSpec]:
        """Return the clip of every stored label (possibly with duplicates)."""
        return [label.clip for label in self.all()]

    def labeled_vids(self) -> list[int]:
        """Return the distinct vids that carry at least one label."""
        return [int(v) for v in self._table.distinct("vid")]

    def class_counts(self) -> dict[str, int]:
        """Return the number of labels per class."""
        return dict(Counter(str(v) for v in self._table.column("label")))

    def classes(self) -> list[str]:
        """Return the distinct class names in first-seen order."""
        return [str(v) for v in self._table.distinct("label")]

    def count_for_class(self, label: str) -> int:
        """Return the number of labels with class ``label``."""
        return self.class_counts().get(label, 0)

    def covers(self, clip: ClipSpec) -> bool:
        """Return True when some stored label overlaps ``clip``."""
        for label in self.for_video(clip.vid):
            if label.clip.overlaps(clip):
                return True
        return False

    def diversity_smax(self) -> float:
        """Fraction of labels belonging to the most-seen class (paper's S_max).

        Returns 0.0 when no labels have been collected.
        """
        counts = self.class_counts()
        total = sum(counts.values())
        if total == 0:
            return 0.0
        return max(counts.values()) / total

    # ---------------------------------------------------------------- snapshot
    def to_arrays(self, arrays: dict, prefix: str) -> dict:
        """Stage the label table into a snapshot bundle (see :meth:`Table.to_arrays`)."""
        return self._table.to_arrays(arrays, prefix)

    def restore_table(self, table: Table) -> None:
        """Adopt a rebuilt label table in place (checkpoint recovery).

        Managers hold references to this store, so recovery refills it
        rather than swapping in a new one; the journal sink is left
        untouched and not invoked.
        """
        self._table = table
        ids = self._table.column("label_id")
        self._next_id = int(max(ids)) + 1 if len(ids) else 0
        self._revision = len(self._table)
