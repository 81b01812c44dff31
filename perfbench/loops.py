"""Closed-loop workloads: one simulated labelling user per session.

Each session runs ``explore → label (oracle) → finish_iteration`` through
the public :class:`repro.VOCALExplore` API, then a burst of post-session
reads (similarity search and ``watch`` predictions) on its final state.
Sessions run back to back, each with a seed derived from the workload seed.

On the simulated engine ``finish_iteration()`` runs the labelling-window
work (JIT training, per-arm cross-validation, eager extraction)
synchronously in the caller's thread, so the label step's wall time is the
host compute a deployment must fit inside the user's labelling window.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass

from .common import derive_seed, median, peak_rss_mb, summarize, tail_notes
from .report import layer_metrics
from .tracing import MIN_COVERAGE, Tracer, dump_spans, layer_report

#: Explore batch size B and clip duration t (the paper's defaults).
BATCH_SIZE = 5
CLIP_DURATION = 1.0
#: Set-ups (dataset build plus session construction) timed per run;
#: ``setup_s`` is their median.
SETUP_REPEATS = 11
#: Post-session reads per session: 40% search, 60% predict.  Searches cost
#: several times a prediction, so an even mix would put the median on the
#: boundary between the two and make it jump from run to run.
READS_PER_SESSION = 50
#: The corpus is fixed, as the paper's datasets are; the workload seed
#: drives the sessions that explore it.
DATASET_SEED = 0
#: Steps of the first session replayed to check that a seed repeats exactly.
REPLAY_STEPS = 8


@dataclass(frozen=True)
class LoopSpec:
    """One closed-loop workload."""

    dataset: str
    scale: str
    strategy: str
    feature: str | None
    steps: int
    #: Wall seconds one session takes on the reference host; sets how many
    #: sessions a run of ``--seconds`` holds.
    session_seconds: float


LOOPS = {
    "loop-deer": LoopSpec("deer", "scaled", "ve-full", None, 30, 2.5),
    "loop-k20-lazy": LoopSpec("k20-skew", "paper", "ve-partial", "mvit", 50, 6.5),
}


def plan(name: str, seed: int, seconds: float) -> dict:
    """The run's inputs, a pure function of ``(name, seed, seconds)``."""
    spec = LOOPS[name]
    sessions = max(2, round(seconds / spec.session_seconds))
    return {
        "dataset_seed": DATASET_SEED,
        "session_seeds": [derive_seed(seed, name, "session", i) for i in range(sessions)],
    }


def read_plan(session_seed: int, labelled: list[tuple]) -> list[tuple]:
    """Post-session reads: ``(op, clip, k)`` chosen from the labelled clips."""
    rng = random.Random(derive_seed(session_seed, "reads"))
    reads = []
    for index in range(READS_PER_SESSION):
        clip = rng.choice(labelled)
        op = "search" if index % 5 in (0, 2) else "predict"
        reads.append((op, clip, rng.randint(3, 6)))
    return reads


class _Session:
    """Builds and drives one session, recording timings and its trajectory."""

    def __init__(self, spec: LoopSpec, dataset, session_seed: int) -> None:
        from repro.config import SchedulerConfig, VocalExploreConfig
        from repro.core.api import VOCALExplore
        from repro.core.oracle import OracleUser

        config = VocalExploreConfig(
            scheduler=SchedulerConfig(strategy=spec.strategy), seed=session_seed
        )
        self.vocal = VOCALExplore.for_corpus(
            dataset.train_corpus,
            vocabulary=dataset.class_names,
            feature_qualities=dataset.feature_qualities,
            config=config,
            candidate_features=[spec.feature] if spec.feature else None,
        )
        self.vocal.session.force_feature = spec.feature
        self.spec = spec
        self.seed = session_seed
        self.oracle = OracleUser(dataset.train_corpus)
        self.explore_ms: list[float] = []
        self.label_ms: list[float] = []
        self.iteration_ms: list[float] = []
        self.read_ms: list[float] = []
        self.trajectory: list[tuple] = []
        self.reads: list[tuple] = []
        self.fingerprints: dict[int, str] = {}
        self.operations = 0

    def run(self, steps: int, tracer: Tracer | None, fingerprint_at=()) -> "_Session":
        from repro.serving.workload import session_fingerprint

        vocal = self.vocal
        for step in range(1, steps + 1):
            scope = tracer.root("iteration", (self.seed, step)) if tracer else nullcontext()
            with scope:
                t0 = time.perf_counter()
                result = vocal.explore(BATCH_SIZE, CLIP_DURATION)
                t1 = time.perf_counter()
                labels = self.oracle.label_clips([seg.clip for seg in result.segments])
                t2 = time.perf_counter()
                vocal.session.add_labels(labels)
                summary = vocal.finish_iteration()
                t3 = time.perf_counter()
            self.operations += 3
            self.explore_ms.append((t1 - t0) * 1e3)
            self.label_ms.append((t3 - t2) * 1e3)
            self.iteration_ms.append((t3 - t0) * 1e3)
            self.trajectory.append(
                (
                    summary.acquisition,
                    summary.feature_name,
                    tuple((lab.vid, lab.start, lab.end, lab.label) for lab in labels),
                    summary.visible_latency,
                )
            )
            if step in fingerprint_at:
                self.fingerprints[step] = session_fingerprint(vocal)
        return self

    def run_reads(self, tracer: Tracer | None) -> None:
        labelled = sorted({entry[:3] for step in self.trajectory for entry in step[2]})
        for op, (vid, start, end), k in read_plan(self.seed, labelled):
            scope = tracer.root("read", (self.seed, op)) if tracer else nullcontext()
            with scope:
                t0 = time.perf_counter()
                if op == "search":
                    hits = self.vocal.search((vid, start, end), k=k)
                    outcome = tuple((h.vid, h.start, h.end) for h in hits)
                else:
                    outcome = tuple(
                        (s.vid, s.start, s.end, s.predicted_label)
                        for s in self.vocal.watch(vid, start, end)
                    )
                t1 = time.perf_counter()
            self.operations += 1
            self.read_ms.append((t1 - t0) * 1e3)
            self.reads.append((op, vid, start, end, outcome))

    def feature(self) -> str:
        return self.spec.feature or self.vocal.session.alm.current_feature()

    def close(self) -> None:
        """Release the session; its timings and trajectory stay readable."""
        self.vocal.close()
        self.vocal = None


def _build_dataset(spec: LoopSpec, dataset_seed: int):
    from repro.datasets.catalog import build_dataset

    return build_dataset(spec.dataset, seed=dataset_seed, scale=spec.scale)


def _run_session(spec, dataset, session_seed: int, tracer, prefix: bool) -> tuple[_Session, dict]:
    """Run one session and its reads; returns it and its outcome.

    ``prefix`` also fingerprints the state after :data:`REPLAY_STEPS` steps.
    """
    from repro.experiments.evaluation import ModelEvaluator
    from repro.serving.workload import session_fingerprint

    session = _Session(spec, dataset, session_seed)
    session.run(spec.steps, tracer, fingerprint_at=(REPLAY_STEPS,) if prefix else ())
    evaluator = ModelEvaluator(dataset, seed=session_seed)
    outcome = {
        "trajectory": session.trajectory,
        "fingerprint": session_fingerprint(session.vocal),
        "sim_visible_s": session.vocal.cumulative_visible_latency(),
        "prefix_fingerprint": session.fingerprints.get(REPLAY_STEPS),
        "f1": evaluator.evaluate_manager(session.vocal.session.models, session.feature()),
    }
    session.run_reads(tracer)
    outcome["reads"] = session.reads
    session.close()
    return session, outcome


def _check(mismatches: list[str], label: str, left, right) -> None:
    if left != right:
        mismatches.append(label)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one loop workload; returns the result document."""
    spec = LOOPS[name]
    inputs = plan(name, seed, seconds)
    seeds = inputs["session_seeds"]
    setup_s = []
    for index in range(SETUP_REPEATS):
        gc.collect()  # the previous repeat's garbage is not this set-up's cost
        started = time.perf_counter()
        dataset = _build_dataset(spec, inputs["dataset_seed"])
        _Session(spec, dataset, seeds[index % len(seeds)]).close()
        setup_s.append(time.perf_counter() - started)
    mismatches: list[str] = []

    # Traced runs alternate each untraced session with its traced repeat, so
    # host drift does not fall on one side of the tracing overhead.
    tracer = Tracer() if trace else None
    sessions, outcomes, traced_sessions, traced = [], {}, [], {}
    for x in seeds:
        session, outcomes[x] = _run_session(spec, dataset, x, None, prefix=x == seeds[0])
        sessions.append(session)
        if tracer is not None:
            tracer.install()
            try:
                session, traced[x] = _run_session(spec, dataset, x, tracer, prefix=False)
            finally:
                tracer.remove()
            traced_sessions.append(session)

    # The same seed must repeat exactly: replay a prefix of the first session.
    replay = _Session(spec, dataset, seeds[0]).run(REPLAY_STEPS, None, (REPLAY_STEPS,))
    first = outcomes[seeds[0]]
    _check(mismatches, "replay trajectory", replay.trajectory, first["trajectory"][:REPLAY_STEPS])
    _check(mismatches, "replay fingerprint", replay.fingerprints[REPLAY_STEPS], first["prefix_fingerprint"])
    replay.close()

    explore = [v for s in sessions for v in s.explore_ms]
    label = [v for s in sessions for v in s.label_ms]
    iteration = [v for s in sessions for v in s.iteration_ms]
    reads = [v for s in sessions for v in s.read_ms]
    loop_wall_s = sum(iteration) / 1e3
    iterations = len(iteration)
    attempted = sum(s.operations for s in sessions) + replay.operations
    doc = {
        "inputs": {"dataset_seed": inputs["dataset_seed"], "session_seeds": seeds},
        "samples": {
            "explore": summarize(explore),
            "iteration": summarize(iteration),
            "label": summarize(label),
            "read": summarize(reads),
        },
        "attempted": attempted,
        "failed": 0,
        "mismatches": mismatches,
    }

    if not trace:
        samples = doc["samples"]
        f1 = [outcomes[x]["f1"] for x in seeds]
        sim = [outcomes[x]["sim_visible_s"] for x in seeds]
        doc["metrics"] = {
            "setup_s": median(setup_s),
            "explore_p50_ms": samples["explore"]["p50"],
            "explore_tail_ms": samples["explore"]["tail"],
            "iterations_per_s": iterations / loop_wall_s,
            "iteration_tail_ms": samples["iteration"]["tail"],
            "label_tail_ms": samples["label"]["tail"],
            "read_p50_ms": samples["read"]["p50"],
            "read_tail_ms": samples["read"]["tail"],
            "peak_rss_mb": peak_rss_mb(),
            "f1_final": sum(f1) / len(f1),
            "sim_visible_s": sum(sim) / len(sim),
        }
        doc["notes"] = tail_notes(samples)
        doc["log"] = [f"label p50 {samples['label']['p50']:.3f} ms (not gated, see README)"]
        return doc

    for x in seeds:
        for key in ("trajectory", "fingerprint", "sim_visible_s", "f1", "reads"):
            _check(mismatches, f"traced {key} of session {x}", traced[x][key], outcomes[x][key])
    traced_wall = sum(v for s in traced_sessions for v in s.iteration_ms + s.read_ms) / 1e3
    untraced_wall = (sum(iteration) + sum(reads)) / 1e3
    report = layer_report(tracer.spans, roots=("iteration", "read"))
    if report["coverage"] < MIN_COVERAGE:
        mismatches.append(f"layer spans cover {report['coverage']:.3f} of the traced wall time")
    doc["trace"] = report
    doc["metrics"] = layer_metrics(report, tracer, traced_wall / untraced_wall - 1.0)
    doc["spans"] = dump_spans(tracer.spans)
    return doc
