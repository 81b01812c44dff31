"""Seeded scripted users and bit-identity fingerprints for serving tests.

A :class:`ScriptedUser` replays a deterministic exploration script — explore,
label the returned clips, interleave similarity searches and predictions,
finish the iteration — against any *session adapter*.  Two base adapters
ship here: :class:`LocalSessionAdapter` drives a
:class:`~repro.serving.manager.SessionManager` in-process, and
:class:`RemoteSessionAdapter` drives a live server through a
:class:`~repro.serving.client.ServingClient`; two *wrapper* adapters —
:class:`FlakyAdapter` (deterministic injected sheds) and
:class:`RetryingAdapter` (a :class:`~repro.serving.resilience.RetryPolicy`
around any adapter) — compose with them to script
retry-then-succeed sequences.  Because every decision the
user makes (batch sizes, label choices, search targets) is derived from its
seed and step index alone, the same script produces the same session state
through either path — which is what the serving tests and the benchmark's
bit-identity gate rely on.

:func:`session_fingerprint` reduces a session's *entire* durable state —
label/video tables, feature shards, model parameters, design-matrix caches,
bandit accumulators, RNG states, simulated clock, and per-iteration latency
records — to one SHA-256 digest, by reusing the checkpoint codec
(:func:`repro.core.checkpoint.capture_state`).  Equal digests mean an
evicted-and-restored session is bit-identical to one that never left memory.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import zlib
from typing import Callable, Sequence

import numpy as np

from ..core.checkpoint import capture_state
from ..exceptions import AdmissionError
from ..types import Label
from .resilience import RetryPolicy

__all__ = [
    "FlakyAdapter",
    "LocalSessionAdapter",
    "RemoteSessionAdapter",
    "RetryingAdapter",
    "ScriptedUser",
    "session_fingerprint",
]


def _step_seed(seed: int, name: str, index: int) -> int:
    """Stable per-step RNG seed (hash()-free, so PYTHONHASHSEED-independent)."""
    return zlib.crc32(f"{seed}:{name}:{index}".encode("utf-8")) & 0x7FFFFFFF


# ----------------------------------------------------------------- adapters
class LocalSessionAdapter:
    """Drives one named session directly through a :class:`SessionManager`.

    Each call acquires the session for exactly one operation, so the manager
    is free to evict it between steps — the property tests exploit this.
    """

    def __init__(self, manager, name: str) -> None:
        self.manager = manager
        self.name = name

    def explore(self, batch_size: int) -> list[tuple[int, float, float]]:
        """One Explore step; returns the clips to label as plain tuples."""
        with self.manager.acquire(self.name, create=False) as vocal:
            result = vocal.explore(batch_size)
            return [(s.vid, s.start, s.end) for s in result.segments]

    def label(self, labels: Sequence[tuple[int, float, float, str]], finish: bool) -> int:
        """Durably store labels; optionally finish the iteration."""
        with self.manager.acquire(self.name, create=False) as vocal:
            vocal.session.add_labels(
                [Label(vid, start, end, name) for vid, start, end, name in labels]
            )
            if finish and vocal.session.iteration_open:
                vocal.finish_iteration()
            return len(labels)

    def search(self, clip: tuple[int, float, float], k: int) -> list[tuple]:
        """Similarity search for a clip; returns ``(vid, start, end, distance)``."""
        with self.manager.acquire(self.name, create=False) as vocal:
            hits = vocal.search((clip[0], clip[1], clip[2]), k=k)
            return [(h.vid, h.start, h.end, h.distance) for h in hits]

    def predict(self, vid: int, start: float, end: float) -> int:
        """Predict over a window; returns the number of segments covered."""
        with self.manager.acquire(self.name, create=False) as vocal:
            return len(vocal.watch(vid, start, end))


class RemoteSessionAdapter:
    """Drives one named session on a live server via :class:`ServingClient`."""

    def __init__(self, client, name: str) -> None:
        self.client = client
        self.name = name

    def explore(self, batch_size: int) -> list[tuple[int, float, float]]:
        """One Explore step over the wire."""
        result = self.client.explore(self.name, batch_size=batch_size)
        return [(s["vid"], s["start"], s["end"]) for s in result["segments"]]

    def label(self, labels: Sequence[tuple[int, float, float, str]], finish: bool) -> int:
        """Durably store labels over the wire (response is the durable ack)."""
        result = self.client.label(self.name, labels, finish=finish)
        return int(result["stored"])

    def search(self, clip: tuple[int, float, float], k: int) -> list[tuple]:
        """Similarity search over the wire."""
        result = self.client.search(self.name, clip=clip, k=k)
        return [(h["vid"], h["start"], h["end"], h["distance"]) for h in result["hits"]]

    def predict(self, vid: int, start: float, end: float) -> int:
        """Prediction over the wire."""
        result = self.client.predict(self.name, vid=vid, start=start, end=end)
        return len(result["segments"])


class FlakyAdapter:
    """Wraps a session adapter, shedding calls on a deterministic schedule.

    Raises :class:`~repro.exceptions.AdmissionError` *before* delegating on
    every call whose 1-based count is not a multiple of ``period`` — so with
    the default ``period=2`` every operation fails once and succeeds when
    retried, the canonical retry-then-succeed sequence.  Failing before the
    delegate means a shed call never touched the session, exactly like a
    server-side admission shed.
    """

    def __init__(self, inner, period: int = 2) -> None:
        """Wrap ``inner``; every ``period``-th call goes through."""
        if period < 2:
            raise ValueError(f"period must be >= 2, got {period}")
        self.inner = inner
        self.period = int(period)
        #: Calls attempted (including shed ones).
        self.calls = 0
        #: Calls shed with an injected ``AdmissionError``.
        self.failures = 0

    def _admit(self, op: str) -> None:
        self.calls += 1
        if self.calls % self.period != 0:
            self.failures += 1
            raise AdmissionError(
                f"injected shed on {op!r} (call {self.calls}); retry later"
            )

    def explore(self, batch_size: int) -> list[tuple[int, float, float]]:
        """Explore, shed on the injection schedule."""
        self._admit("explore")
        return self.inner.explore(batch_size)

    def label(self, labels: Sequence[tuple[int, float, float, str]], finish: bool) -> int:
        """Label, shed on the injection schedule."""
        self._admit("label")
        return self.inner.label(labels, finish)

    def search(self, clip: tuple[int, float, float], k: int) -> list[tuple]:
        """Search, shed on the injection schedule."""
        self._admit("search")
        return self.inner.search(clip, k)

    def predict(self, vid: int, start: float, end: float) -> int:
        """Predict, shed on the injection schedule."""
        self._admit("predict")
        return self.inner.predict(vid, start, end)


class RetryingAdapter:
    """Retries shed operations around any session adapter.

    Applies a :class:`~repro.serving.resilience.RetryPolicy` to
    :class:`~repro.exceptions.AdmissionError` from the wrapped adapter —
    the workload-layer analogue of the client's retry loop, usable both
    in-process (:class:`LocalSessionAdapter`) and over the wire.  ``sleep``
    is injectable so tests retry without wall-clock delays.
    """

    def __init__(
        self,
        inner,
        policy: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        """Wrap ``inner`` with a retry policy (a default one when omitted)."""
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy(seed=0)
        self._sleep = sleep
        #: Retries performed across all operations.
        self.retries = 0

    def _with_retries(self, fn, *args):
        attempt = 1
        started = time.monotonic()
        while True:
            try:
                return fn(*args)
            except AdmissionError:
                if not self.policy.should_retry(attempt, time.monotonic() - started):
                    raise
                self.retries += 1
                self._sleep(self.policy.delay(attempt))
                attempt += 1

    def explore(self, batch_size: int) -> list[tuple[int, float, float]]:
        """Explore with retries."""
        return self._with_retries(self.inner.explore, batch_size)

    def label(self, labels: Sequence[tuple[int, float, float, str]], finish: bool) -> int:
        """Label with retries."""
        return self._with_retries(self.inner.label, labels, finish)

    def search(self, clip: tuple[int, float, float], k: int) -> list[tuple]:
        """Search with retries."""
        return self._with_retries(self.inner.search, clip, k)

    def predict(self, vid: int, start: float, end: float) -> int:
        """Predict with retries."""
        return self._with_retries(self.inner.predict, vid, start, end)


# ------------------------------------------------------------- scripted user
class ScriptedUser:
    """A deterministic exploration script bound to one session name.

    The script is fixed at construction from ``(seed, name)``: a sequence of
    labeling cycles, each an ``explore`` step, zero or more ``search`` /
    ``predict`` reads, and a ``label`` step that finishes the iteration.
    Per-step choices that depend on runtime data (which label to assign,
    which returned clip to search near) come from a per-step RNG seeded by
    ``(seed, name, step_index)``, so they depend only on the adapter's
    responses — replaying the same script through any adapter yields the
    same session state.

    Steps where ``closes_iteration`` is true leave the session with a closed
    iteration — the only points where it may be checkpointed or evicted.
    """

    def __init__(
        self,
        name: str,
        seed: int,
        vocabulary: Sequence[str],
        cycles: int = 3,
    ) -> None:
        """Build the script.

        Args:
            name: Session name this user drives.
            seed: Base seed; the whole script is a pure function of
                ``(seed, name)``.
            vocabulary: Labels the user may assign.
            cycles: Number of explore→label iterations in the script.
        """
        if not vocabulary:
            raise ValueError("scripted user needs a non-empty vocabulary")
        self.name = name
        self.seed = seed
        self.vocabulary = list(vocabulary)
        plan_rng = random.Random(_step_seed(seed, name, -1))
        self.steps: list[dict] = []
        for _ in range(cycles):
            self.steps.append({"op": "explore", "batch_size": plan_rng.randint(2, 4)})
            for extra in ("search", "predict"):
                if plan_rng.random() < 0.4:
                    self.steps.append({"op": extra})
            self.steps.append({"op": "label"})
        #: Steps after which the session's iteration is closed (safe to
        #: checkpoint / evict).  ``explore`` opens an iteration and the
        #: cycle's ``label`` step finishes it, so only label steps qualify —
        #: search/predict reads in between run mid-iteration.
        self.closed_boundaries = [
            index for index, step in enumerate(self.steps) if step["op"] == "label"
        ]
        self._pending: list[tuple[int, float, float]] = []
        #: Normalised record of every executed step and its outcome —
        #: comparable across adapters (all values are simulated-deterministic).
        self.history: list[tuple] = []
        #: Labels the adapter has acknowledged as durably stored, in order.
        self.acked_labels: list[tuple[int, float, float, str]] = []

    def __len__(self) -> int:
        return len(self.steps)

    def run_step(self, adapter, index: int) -> None:
        """Execute step ``index`` of the script against ``adapter``."""
        step = self.steps[index]
        rng = random.Random(_step_seed(self.seed, self.name, index))
        op = step["op"]
        if op == "explore":
            self._pending = adapter.explore(step["batch_size"])
            self.history.append(("explore", tuple(self._pending)))
        elif op == "label":
            if not self._pending:
                self.history.append(("label", 0))
                return
            labels = [
                (vid, start, end, rng.choice(self.vocabulary))
                for vid, start, end in self._pending
            ]
            stored = adapter.label(labels, finish=True)
            self.acked_labels.extend(labels)
            self._pending = []
            self.history.append(("label", stored, tuple(labels)))
        elif op == "search":
            if not self._pending:
                self.history.append(("search", None))
                return
            clip = rng.choice(self._pending)
            hits = adapter.search(clip, k=rng.randint(3, 6))
            self.history.append(("search", clip, tuple(hits)))
        elif op == "predict":
            if not self._pending:
                self.history.append(("predict", None))
                return
            vid, start, end = rng.choice(self._pending)
            count = adapter.predict(vid, start, end)
            self.history.append(("predict", (vid, start, end), count))
        else:  # pragma: no cover - plan only emits the four ops above
            raise ValueError(f"unknown scripted op {op!r}")

    def run(self, adapter, start: int = 0, stop: int | None = None) -> "ScriptedUser":
        """Execute steps ``[start, stop)`` (the whole script by default)."""
        stop = len(self.steps) if stop is None else stop
        for index in range(start, stop):
            self.run_step(adapter, index)
        return self


# ---------------------------------------------------------------- fingerprint
def session_fingerprint(vocal) -> str:
    """SHA-256 digest of a session's complete durable state.

    Hashes exactly the snapshot payload (the checkpoint codec, video/label
    tables and feature shards included), so the digest covers labels, model
    parameters, bandit state, RNGs, the simulated clock, and per-iteration
    latency records.  Two sessions with equal digests are bit-identical as
    far as any future ``explore`` can observe.

    Raises:
        CheckpointError: when the session has an open iteration (finish it
            first; fingerprints are defined at iteration boundaries).
    """
    state, arrays = capture_state(vocal.session, None)
    digest = hashlib.sha256(json.dumps(state, sort_keys=True).encode("utf-8"))
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()
