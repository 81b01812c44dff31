"""Label store.

Persists every ``AddLabel`` call and answers the queries the Active Learning
Manager needs: per-class counts (for the skew test and the S_max diversity
metric), the full label list (for training), the appended tail since a
revision (for incremental training), and the labeled vids (so already labeled
videos are not sampled again).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ..types import ClipSpec, Label
from .records import check_field, load_table, stage_table

__all__ = ["LabelStore"]

_SCHEMA = {
    "label_id": "int",
    "vid": "int",
    "start": "float",
    "end": "float",
    "label": "str",
}


class LabelStore:
    """Append-only store of user-provided labels; a label's position is its id."""

    TABLE_NAME = "labels"

    def __init__(self) -> None:
        self._labels: list[Label] = []
        #: Optional write-ahead sink (``repro.storage.durability``): every
        #: stored label is journaled, keyed by the post-write revision.
        self.journal_sink = None

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def revision(self) -> int:
        """Monotonically increasing write counter (one tick per stored label).

        Because the store is append-only, a consumer that cached derived state
        at revision ``r`` can catch up by processing only ``since(r)``; the
        Model Manager's design-matrix cache relies on this.
        """
        return len(self._labels)

    # ------------------------------------------------------------------ writes
    def add(self, label: Label) -> int:
        """Store one label; returns its id.

        Raises:
            SchemaError: if a field has the wrong type; nothing is stored
                or journaled.
        """
        stored = Label(
            vid=check_field("vid", "int", label.vid),
            start=check_field("start", "float", label.start),
            end=check_field("end", "float", label.end),
            label=check_field("label", "str", label.label),
        )
        label_id = len(self._labels)
        self._labels.append(stored)
        if self.journal_sink is not None:
            self.journal_sink(
                {
                    "type": "label",
                    "label_id": label_id,
                    "vid": stored.vid,
                    "start": stored.start,
                    "end": stored.end,
                    "label": stored.label,
                    "revision": self.revision,
                }
            )
        return label_id

    def add_many(self, labels: Iterable[Label]) -> list[int]:
        """Store several labels; returns their ids."""
        return [self.add(label) for label in labels]

    # ------------------------------------------------------------------- reads
    def all(self) -> list[Label]:
        """Return every stored label in insertion order."""
        return list(self._labels)

    def since(self, revision: int) -> list[Label]:
        """Labels appended after ``revision``, in insertion order.

        ``since(self.revision)`` is always empty; ``since(0)`` equals
        :meth:`all`.  Revisions tick once per stored label, so the labels
        newer than revision ``r`` are exactly those at positions ``r``
        onwards.
        """
        return self._labels[max(0, revision):]

    def labeled_clips(self) -> list[ClipSpec]:
        """Return the clip of every stored label (possibly with duplicates)."""
        return [label.clip for label in self._labels]

    def labeled_vids(self) -> list[int]:
        """Return the distinct vids that carry at least one label."""
        return list(dict.fromkeys(label.vid for label in self._labels))

    def class_counts(self) -> dict[str, int]:
        """Return the number of labels per class."""
        return dict(Counter(label.label for label in self._labels))

    def classes(self) -> list[str]:
        """Return the distinct class names in first-seen order."""
        return list(dict.fromkeys(label.label for label in self._labels))

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
        """Stage one array per column into ``arrays``; returns the table doc."""
        return stage_table(arrays, prefix, self.TABLE_NAME, "label_id", _SCHEMA, self._labels)

    def from_arrays(self, doc: dict, arrays, prefix: str) -> None:
        """Refill the store in place from a table staged by :meth:`to_arrays`.

        Managers hold references to this store, so recovery refills it
        rather than swapping in a new one; the journal sink is left
        untouched and not invoked.  The revision becomes the restored
        label count.

        Raises:
            CheckpointError: if the table does not match this store's layout;
                the store is left unchanged.
        """
        rows = load_table(doc, arrays, prefix, self.TABLE_NAME, "label_id", _SCHEMA)
        self._labels = [Label(*row[1:]) for row in rows]
