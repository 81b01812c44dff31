"""Span recording around the public functions of each ``repro`` package.

:class:`Tracer` patches wrappers onto the program's classes and modules for
the duration of a traced run and removes them afterwards, so nothing under
``src/`` changes.  A wrapper records a span — name, start, end, parent span
and the id of the iteration or request it belongs to — only while a *root*
span is open on its thread (the benchmark's own ``iteration`` and ``read``
spans in the loops, the ``request`` span around each served request).
Root names are outside :data:`LAYERS`, so a root's own time counts as
``other``.  Work outside a root, such as held-out F1 evaluation, runs
untraced.

Spans stay in memory; :func:`layer_report` turns them into per-layer counts,
busy time and self time (a span's duration minus the time its children
cover).
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

#: Share of the traced wall time the layers' self times must cover.
MIN_COVERAGE = 0.95

#: Span layers, one per ``repro`` package a wrapper sits in.
LAYERS = (
    "video", "features", "models", "alm", "index", "storage", "scheduler",
    "session", "serving",
)

#: Root span of one served request; not a layer, so its self time is ``other``.
REQUEST_ROOT = "request"


class Span:
    """One recorded call: name, interval, parent and iteration/request id."""

    __slots__ = ("name", "start", "end", "parent", "ctx")

    def __init__(self, name: str, start: float, parent: "Span | None", ctx) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.ctx = ctx

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_record(self, ids: dict) -> dict:
        """JSON form; ``ids`` maps ``id(span)`` to its index in the dump."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": ids.get(id(self.parent)) if self.parent is not None else None,
            "ctx": self.ctx,
        }


def layer_of(name: str) -> str:
    """Package layer a span name belongs to; ``other`` for benchmark spans."""
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "other"


class Tracer:
    """Records spans from wrappers installed around ``repro`` functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: Counters read from call arguments and results.
        self.counts = {"lbfgs_iters": 0, "lbfgs_fevals": 0, "index_queries": 0}
        #: Distinct (decoder, clip) pairs decoded inside roots.
        self.decoded_clips: set[tuple] = set()
        #: Per-instance stats objects seen inside roots, kept by identity.
        self.training_stats: dict[int, object] = {}
        self.pipeline_stats: dict[int, object] = {}

    # ------------------------------------------------------------------ spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_root(self, name: str, ctx) -> Span:
        """Start a root span that is not pushed on any thread's stack."""
        span = Span(name, time.perf_counter(), None, ctx)
        self.spans.append(span)
        return span

    @staticmethod
    def close(span: Span) -> None:
        span.end = time.perf_counter()

    @contextmanager
    def root(self, name: str, ctx):
        """A root span on this thread; wrapped calls inside become its children."""
        span = self.open_root(name, ctx)
        with self.attach(span):
            try:
                yield span
            finally:
                self.close(span)

    @contextmanager
    def attach(self, parent: Span):
        """Make ``parent`` the current span of this thread for the block."""
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """``fn`` recording a span called ``name`` whenever a root is open.

        A call nested directly in a span of the same name (a subclass calling
        its parent's method) is not recorded twice.  ``hook(args, result)``
        runs after a recorded call.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if not stack or stack[-1].name == name:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = Span(name, time.perf_counter(), parent, parent.ctx)
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def patch_attr(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`remove`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def patch(self, owner: object, attr: str, name: str, hook: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a recording wrapper (undone by :meth:`remove`)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.patch_attr(owner, attr, self.wrap(name, original, hook))

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ hooks
    def _count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] += amount

    def _on_decode(self, args, result) -> None:
        decoder, clip = args[0], args[1]
        key = (id(decoder), clip.vid, clip.start, clip.end)
        with self._lock:
            self.decoded_clips.add(key)

    def _on_minimize(self, args, result) -> None:
        self._count("lbfgs_iters", int(getattr(result, "nit", 0)))
        self._count("lbfgs_fevals", int(getattr(result, "nfev", 0)))

    def _on_search(self, args, result) -> None:
        queries = args[1]
        self._count("index_queries", int(len(queries)) if getattr(queries, "ndim", 1) > 1 else 1)

    def _on_models(self, args, result) -> None:
        stats = args[0].stats
        with self._lock:
            self.training_stats[id(stats)] = stats

    def _on_features(self, args, result) -> None:
        stats = args[0].pipeline_stats
        with self._lock:
            self.pipeline_stats[id(stats)] = stats

    def install(self) -> "Tracer":
        """Wrap the public functions of every ``repro`` package."""
        from repro.alm.manager import ActiveLearningManager
        from repro.core.api import VOCALExplore
        from repro.core.session import ExplorationSession
        from repro.features.feature_manager import FeatureManager
        from repro.features.pretrained import ConcatExtractor, SimulatedExtractor
        from repro.index.exact import ExactIndex
        from repro.index.ivf_flat import IVFFlatIndex
        from repro.index.lsh import LSHIndex
        from repro.models import linear
        from repro.models.model_manager import ModelManager
        from repro.scheduler.scheduler import TaskScheduler
        from repro.serving.manager import CorpusSessionFactory
        from repro.storage.durability.manager import CheckpointManager
        from repro.storage.feature_store import FeatureStore
        from repro.video.decoder import Decoder

        patches = [
            (Decoder, "decode", "video.decode", self._on_decode),
            (SimulatedExtractor, "extract", "features.embed", None),
            (ConcatExtractor, "extract", "features.embed", None),
            (FeatureManager, "ensure_video_features", "features.eager", self._on_features),
            (FeatureManager, "ensure_clip_features", "features.foreground", self._on_features),
            (linear.SoftmaxRegression, "fit", "models.fit", None),
            (linear, "minimize", "models.lbfgs", self._on_minimize),
            (ModelManager, "train_if_possible", "models.train", self._on_models),
            (ModelManager, "cross_validate", "models.cv", self._on_models),
            (ModelManager, "predict_clips", "models.predict", None),
            (ModelManager, "predict_matrix", "models.predict", None),
            (ActiveLearningManager, "select_segments", "alm.select", None),
            (ActiveLearningManager, "ensure_candidate_pool", "alm.pool", None),
            (ActiveLearningManager, "decide_acquisition", "alm.skew", None),
            (ExactIndex, "search", "index.search", self._on_search),
            (IVFFlatIndex, "search", "index.search", self._on_search),
            (LSHIndex, "search", "index.search", self._on_search),
            (FeatureStore, "matrix", "storage.gather", None),
            (CheckpointManager, "commit", "storage.journal_commit", None),
            (VOCALExplore, "checkpoint", "storage.snapshot", None),
            (VOCALExplore, "resume", "storage.restore", None),
            (TaskScheduler, "run_background_window", "scheduler.window", None),
            (TaskScheduler, "run_foreground", "scheduler.foreground", None),
            (VOCALExplore, "explore", "session.explore", None),
            (VOCALExplore, "finish_iteration", "session.finish", None),
            (ExplorationSession, "add_labels", "session.label", None),
            (VOCALExplore, "search", "session.search", None),
            (VOCALExplore, "watch", "session.predict", None),
            (CorpusSessionFactory, "build", "serving.build", None),
        ]
        for owner, attr, name, hook in patches:
            self.patch(owner, attr, name, hook)
        return self


# ---------------------------------------------------------------- arithmetic
def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus its direct children's."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            child_time[key] = child_time.get(key, 0.0) + span.duration
    return {id(span): span.duration - child_time.get(id(span), 0.0) for span in spans}


def layer_report(spans: Sequence[Span], roots: Iterable[str]) -> dict:
    """Per-name calls and busy time, per-layer self time, and coverage.

    ``roots`` names the spans whose total duration is the traced wall time.
    Coverage is the share of that wall time spent in the self time of
    spans that belong to a ``repro`` layer; the rest is reported as
    ``other``: the roots' own time, such as the simulated user's labelling
    in the loops, or decoding, admission and the hand-off to a worker thread
    for a served request.
    """
    roots = set(roots)
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    layers = {layer: 0.0 for layer in LAYERS}
    layers["other"] = 0.0
    wall = 0.0
    for span in spans:
        if span.name in roots and span.parent is None:
            wall += span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + span.duration
        layers[layer_of(span.name)] += selfs[id(span)]
    covered = sum(value for layer, value in layers.items() if layer != "other")
    return {
        "calls": calls,
        "busy_s": busy,
        "self_s": layers,
        "wall_s": wall,
        "coverage": covered / wall if wall > 0 else 0.0,
    }


def dump_spans(spans: Sequence[Span]) -> list[dict]:
    """Spans as JSON records, parents referenced by index."""
    ids = {id(span): index for index, span in enumerate(spans)}
    return [span.to_record(ids) for span in spans]
