"""Tests for the benchmark's own logic: tails, span arithmetic, seeded inputs."""

from __future__ import annotations

import collections
import random

import pytest

from perfbench import loops, serve
from perfbench.common import derive_seed, percentile, summarize, tail_percentile
from perfbench.tracing import REQUEST_ROOT, Span, Tracer, layer_report, self_times


# ------------------------------------------------------------------- tails
@pytest.mark.parametrize(
    "count, expected",
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_interpolates_between_ranks():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 100.0) == 4.0
    assert percentile(samples, 50.0) == pytest.approx(2.5)


def test_summarize_reports_tail_percentile_and_count():
    stats = summarize([float(i) for i in range(1, 101)])
    assert stats["tail_pct"] == 90.0
    assert stats["n"] == 100
    assert stats["p50"] == pytest.approx(50.5)
    assert stats["tail"] == pytest.approx(90.1)
    with pytest.raises(ValueError):
        summarize([1.0] * 19)


# -------------------------------------------------------------- span maths
def _span(name, start, end, parent=None):
    span = Span(name, start, parent, None)
    span.end = end
    return span


def test_self_time_subtracts_direct_children_only():
    root = _span("iteration", 0.0, 10.0)
    child = _span("session.explore", 1.0, 4.0, root)
    grandchild = _span("alm.select", 2.0, 3.0, child)
    other_child = _span("session.finish", 5.0, 9.0, root)
    selfs = self_times([root, child, grandchild, other_child])
    assert selfs[id(root)] == pytest.approx(3.0)
    assert selfs[id(child)] == pytest.approx(2.0)
    assert selfs[id(grandchild)] == pytest.approx(1.0)
    assert selfs[id(other_child)] == pytest.approx(4.0)


def test_layer_report_coverage_and_other():
    root = _span("iteration", 0.0, 10.0)
    spans = [
        root,
        _span("session.explore", 1.0, 4.0, root),
        _span("models.fit", 5.0, 9.5, root),
    ]
    report = layer_report(spans, roots=("iteration",))
    assert report["wall_s"] == pytest.approx(10.0)
    assert report["self_s"]["session"] == pytest.approx(3.0)
    assert report["self_s"]["models"] == pytest.approx(4.5)
    assert report["self_s"]["other"] == pytest.approx(2.5)
    assert report["coverage"] == pytest.approx(0.75)
    assert report["calls"]["models.fit"] == 1


def test_request_root_time_is_other_not_serving():
    root = _span(REQUEST_ROOT, 0.0, 10.0)
    execute = _span("serving.execute", 1.0, 9.0, root)
    spans = [root, execute, _span("session.explore", 2.0, 8.0, execute)]
    report = layer_report(spans, roots=(REQUEST_ROOT,))
    assert report["self_s"]["serving"] == pytest.approx(2.0)
    assert report["self_s"]["other"] == pytest.approx(2.0)
    assert report["coverage"] == pytest.approx(0.8)


class _Toy:
    def outer(self, depth):
        return self.inner(depth) + 1

    def inner(self, depth):
        return self.inner(depth - 1) if depth else 0


def test_tracer_records_nesting_only_inside_roots():
    tracer = Tracer()
    tracer.patch(_Toy, "outer", "session.outer")
    tracer.patch(_Toy, "inner", "models.inner")
    try:
        toy = _Toy()
        assert toy.outer(2) == 1
        assert tracer.spans == []  # no root open: untraced
        with tracer.root("iteration", 7) as root:
            toy.outer(2)
    finally:
        tracer.remove()
    names = [span.name for span in tracer.spans]
    # The recursive inner calls collapse into one span.
    assert names == ["iteration", "session.outer", "models.inner"]
    outer, inner = tracer.spans[1], tracer.spans[2]
    assert outer.parent is root and inner.parent is outer
    assert inner.ctx == 7
    assert "outer" in _Toy.__dict__ and not hasattr(_Toy.__dict__["outer"], "__wrapped__")


# ---------------------------------------------------------- seeded inputs
def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(3, "a", 1) == derive_seed(3, "a", 1)
    assert derive_seed(3, "a", 1) != derive_seed(4, "a", 1)
    assert derive_seed(3, "a", 1) != derive_seed(3, "a", 2)


def test_loop_inputs_are_a_pure_function_of_the_seed():
    for name in loops.LOOPS:
        assert loops.plan(name, 5, 25) == loops.plan(name, 5, 25)
        assert loops.plan(name, 5, 25)["session_seeds"] != loops.plan(name, 6, 25)["session_seeds"]
    clips = [(vid, float(vid), vid + 1.0) for vid in range(20)]
    assert loops.read_plan(11, clips) == loops.read_plan(11, clips)
    assert loops.read_plan(11, clips) != loops.read_plan(12, clips)


def test_serve_inputs_are_a_pure_function_of_the_seed():
    first, again, other = serve.plan(5, 20), serve.plan(5, 20), serve.plan(6, 20)
    assert first == again

    def cycles(plan):
        return [plan["closed"]["cycles"]] + [rung["cycles"] for rung in plan["ladder"]]

    def arrivals(plan):
        return [c["at"] for rung in plan["ladder"] for c in rung["cycles"]]

    def picks(plan):
        return [[c["session"] for c in phase] for phase in cycles(plan)]

    def scripts(plan):
        return [[(c["search"], c["predict"], c["choice_seed"]) for c in phase] for phase in cycles(plan)]

    assert arrivals(first) != arrivals(other)
    assert picks(first) != picks(other)
    assert scripts(first) != scripts(other)
    # Each session's work and the sample counts do not depend on the seed,
    # so the tail percentiles are fixed.
    for mine, theirs in zip(cycles(first), cycles(other)):
        assert len(mine) == len(theirs)
        assert sorted(c["session"] for c in mine) == sorted(c["session"] for c in theirs)
        for op in ("search", "predict"):
            assert sum(c[op] for c in mine) == sum(c[op] for c in theirs)
    assert len(first["closed"]["cycles"]) == 70
    assert sum(c["search"] + c["predict"] for c in first["closed"]["cycles"]) >= 40
    assert all(c["at"] == 0.0 for c in first["closed"]["cycles"])


def test_max_rate_interpolates_to_the_limit_crossing():
    rungs = [
        {"rate_rps": 2.0, "load": 0.5, "passed": True},
        {"rate_rps": 4.0, "load": 1.5, "passed": False},
    ]
    assert serve.max_rate(rungs) == pytest.approx(3.0)
    assert serve.max_rate(rungs[:1]) == 2.0
    assert serve.max_rate([{"rate_rps": 2.0, "load": 2.0, "passed": False}]) == pytest.approx(1.0)


def test_counted_client_tallies_each_outcome():
    from repro.exceptions import AdmissionError

    class Client:
        def ping(self):
            return {"pong": True}

        def explore(self):
            raise AdmissionError("overloaded")

        def label(self):
            raise ConnectionError("reset")

    tally = collections.Counter()
    client = serve._Counted(Client(), tally)
    assert client.ping() == {"pong": True}
    with pytest.raises(AdmissionError):
        client.explore()
    with pytest.raises(ConnectionError):
        client.label()
    assert tally == {"sent": 3, "succeeded": 1, "shed": 1, "failed": 1}


def test_oracle_labels_repeat_for_the_same_corpus():
    from repro.core.oracle import OracleUser
    from repro.datasets.catalog import build_dataset
    from repro.types import ClipSpec

    def labels():
        dataset = build_dataset("deer", seed=serve.SHAPE["dataset_seed"])
        rng = random.Random(derive_seed(5, "clips"))
        clips = []
        for video in dataset.train_corpus.videos()[:10]:
            start = rng.uniform(0.0, video.record.duration - 1.0)
            clips.append(ClipSpec(video.record.vid, start, start + 1.0))
        return [label.label for label in OracleUser(dataset.train_corpus).label_clips(clips)]

    assert labels() == labels()
