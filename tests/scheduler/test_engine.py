"""Tests for the pluggable execution engines.

Covers the thread-pool engine's dispatch/preemption/accounting semantics,
its equivalence with the simulated engine on seeded workloads (the
property test the issue calls for), and the engine factory.
"""

import random
import threading

import pytest

from repro.exceptions import SchedulerError
from repro.scheduler.clock import SimulatedClock
from repro.scheduler.engine import (
    ENGINE_NAMES,
    SimulatedEngine,
    ThreadPoolEngine,
    WallClock,
    build_engine,
)
from repro.scheduler.scheduler import TaskScheduler
from repro.scheduler.tasks import Task, TaskKind

#: Wall seconds per cost-model second in these tests.  The windows'
#: slack (0.1-0.6 units) must absorb thread start-up and OS scheduling
#: jitter: at 2e-3 that slack was ~1 ms, which a loaded 2-core host misses.
SCALE = 2e-2


@pytest.fixture
def thread_scheduler():
    engine = ThreadPoolEngine(num_workers=2, time_scale=SCALE, checkpoint_interval=0.25)
    scheduler = TaskScheduler(engine=engine)
    scheduler.begin_iteration(1)
    yield scheduler
    engine.shutdown()


class TestWallClock:
    def test_reports_scaled_elapsed_time(self):
        clock = WallClock(time_scale=SCALE)
        before = clock.now
        clock.advance(1.0)  # one cost-model second == SCALE wall seconds
        assert clock.now - before >= 1.0

    def test_advance_to_and_validation(self):
        clock = WallClock(time_scale=SCALE)
        target = clock.now + 0.5
        assert clock.advance_to(target) >= target
        assert clock.advance_to(target - 10.0) >= target  # no-op when past
        with pytest.raises(SchedulerError):
            clock.advance(-1.0)
        with pytest.raises(SchedulerError):
            WallClock(time_scale=0.0)


class TestBuildEngine:
    def test_builds_both_engines(self):
        assert set(ENGINE_NAMES) == {"simulated", "threads"}
        simulated = build_engine("simulated")
        assert isinstance(simulated, SimulatedEngine)
        assert simulated.shard_executor() is None
        threads = build_engine("threads", num_workers=3, time_scale=SCALE)
        try:
            assert isinstance(threads, ThreadPoolEngine)
            assert threads.num_workers == 3
            assert threads.shard_executor() is not None
        finally:
            threads.shutdown()

    def test_unknown_engine_rejected(self):
        with pytest.raises(SchedulerError):
            build_engine("fibers")

    def test_thread_engine_validation(self):
        with pytest.raises(SchedulerError):
            ThreadPoolEngine(num_workers=0)
        with pytest.raises(SchedulerError):
            ThreadPoolEngine(checkpoint_interval=0.0)

    def test_simulated_engine_accepts_shared_clock(self):
        clock = SimulatedClock(start=5.0)
        scheduler = TaskScheduler(engine=SimulatedEngine(clock))
        assert scheduler.clock is clock


class TestThreadPoolForeground:
    def test_foreground_measures_wall_latency_and_runs_action(self, thread_scheduler):
        seen = []
        thread_scheduler.run_foreground(Task(TaskKind.MODEL_TRAINING, 1.0, action=seen.append))
        record = thread_scheduler.current_iteration
        # Measured wall time: at least the performed cost, not wildly more.
        assert record.visible_latency >= 1.0
        assert record.visible_by_kind[TaskKind.MODEL_TRAINING] >= 1.0
        assert len(seen) == 1 and seen[0] >= 1.0

    def test_payload_receives_cost_slices(self, thread_scheduler):
        slices = []
        thread_scheduler.run_foreground(
            Task(TaskKind.FEATURE_EXTRACTION, 1.0, payload=slices.append)
        )
        assert sum(slices) == pytest.approx(1.0)
        assert all(s <= 0.25 + 1e-9 for s in slices)  # checkpoint-sized


class TestThreadPoolWindow:
    def test_priority_order_and_completion(self):
        engine = ThreadPoolEngine(num_workers=1, time_scale=SCALE)
        scheduler = TaskScheduler(engine=engine)
        scheduler.begin_iteration(1)
        order = []
        try:
            scheduler.submit(
                Task(TaskKind.EAGER_FEATURE_EXTRACTION, 0.5, action=lambda t: order.append("eager"))
            )
            scheduler.submit(
                Task(TaskKind.MODEL_TRAINING, 0.5, action=lambda t: order.append("train"))
            )
            scheduler.submit(
                Task(TaskKind.FEATURE_EVALUATION, 0.5, action=lambda t: order.append("eval"))
            )
            completed = scheduler.run_background_window(5.0)
            assert order == ["train", "eval", "eager"]
            assert len(completed) == 3
        finally:
            engine.shutdown()

    def test_workers_run_concurrently(self, thread_scheduler):
        # Two 1.0-unit tasks on two workers: busy time ~2.0 units inside a
        # ~1.0-unit window is only possible with real overlap.
        thread_scheduler.submit(Task(TaskKind.MODEL_TRAINING, 1.0))
        thread_scheduler.submit(Task(TaskKind.FEATURE_EVALUATION, 1.0))
        completed = thread_scheduler.run_background_window(1.6)
        assert len(completed) == 2
        record = thread_scheduler.current_iteration
        assert record.background_time_used == pytest.approx(2.0, abs=0.2)

    def test_pause_and_play_across_windows(self, thread_scheduler):
        finished = []
        thread_scheduler.submit(Task(TaskKind.MODEL_TRAINING, 4.0, action=finished.append))
        thread_scheduler.run_background_window(1.5)
        assert finished == []
        assert thread_scheduler.has_pending(TaskKind.MODEL_TRAINING)
        thread_scheduler.begin_iteration(2)
        thread_scheduler.run_background_window(4.0)
        assert len(finished) == 1
        assert not thread_scheduler.has_pending()

    def test_availability_time_respected(self, thread_scheduler):
        completions = []
        thread_scheduler.submit(
            Task(TaskKind.MODEL_TRAINING, 0.5, action=completions.append), available_at=2.0
        )
        completed = thread_scheduler.run_background_window(6.0)
        assert len(completed) == 1
        assert completions[0] >= 2.5  # not started before its availability time

    def test_idle_factory_fills_window(self, thread_scheduler):
        created = []

        def factory():
            if len(created) >= 3:
                return None
            task = Task(TaskKind.EAGER_FEATURE_EXTRACTION, 0.5)
            created.append(task)
            return task

        thread_scheduler.idle_task_factory = factory
        completed = thread_scheduler.run_background_window(3.0)
        assert len(created) == 3
        assert len(completed) == 3

    def test_idle_capacity_accounted(self, thread_scheduler):
        # Empty window on 2 workers: idle capacity is ~2x the window length.
        thread_scheduler.run_background_window(1.0)
        record = thread_scheduler.current_iteration
        assert record.background_time_used == pytest.approx(0.0)
        assert record.background_idle_time == pytest.approx(2.0, abs=0.1)

    def test_actions_run_on_worker_threads(self, thread_scheduler):
        threads = []
        thread_scheduler.submit(
            Task(TaskKind.MODEL_TRAINING, 0.5, action=lambda t: threads.append(threading.current_thread().name))
        )
        thread_scheduler.run_background_window(1.5)
        assert threads and threads[0].startswith("repro-engine")


class TestThreadPoolDrain:
    def test_drain_completes_everything_as_visible(self, thread_scheduler):
        thread_scheduler.submit(Task(TaskKind.MODEL_TRAINING, 1.0))
        thread_scheduler.submit(Task(TaskKind.FEATURE_EVALUATION, 0.5))
        completed = thread_scheduler.drain()
        assert len(completed) == 2
        assert not thread_scheduler.has_pending()
        record = thread_scheduler.current_iteration
        assert record.visible_latency == pytest.approx(1.5, abs=0.2)
        assert record.background_time_used == pytest.approx(0.0)

    def test_drain_advances_past_deferred_tasks(self, thread_scheduler):
        done = []
        thread_scheduler.submit(
            Task(TaskKind.MODEL_TRAINING, 0.5, action=done.append), available_at=1.0
        )
        completed = thread_scheduler.drain()
        assert len(completed) == 1
        assert done[0] >= 1.5

    def test_shutdown_is_idempotent(self):
        engine = ThreadPoolEngine(num_workers=1, time_scale=SCALE)
        engine.shutdown()
        engine.shutdown()


class TestWorkerErrors:
    def test_failing_action_propagates_without_losing_siblings(self, thread_scheduler):
        def boom(at_time):
            raise RuntimeError("action failed")

        survivor_done = []
        thread_scheduler.submit(Task(TaskKind.MODEL_TRAINING, 0.3, action=boom))
        thread_scheduler.submit(
            Task(TaskKind.EAGER_FEATURE_EXTRACTION, 5.0, action=survivor_done.append)
        )
        with pytest.raises(RuntimeError, match="action failed"):
            thread_scheduler.run_background_window(2.0)
        # The long sibling was paused and requeued, not silently dropped.
        assert thread_scheduler.has_pending(TaskKind.EAGER_FEATURE_EXTRACTION)
        assert survivor_done == []
        # The engine is still usable after the error.
        completed = thread_scheduler.run_background_window(6.0)
        assert [record.kind for record in completed] == [TaskKind.EAGER_FEATURE_EXTRACTION]


def _seeded_workload(seed: int) -> list[Task]:
    """A reproducible mixed workload of immediately-available tasks.

    Availability times are deliberately kept at zero: a wall clock reaches a
    deferred task's availability boundary a hair later than the discrete
    simulated clock, so staggered availabilities are a (documented)
    divergence point between the engines.  What IS pinned as identical —
    priority ordering, task-id tie-breaking, and pause-and-play requeues
    across window boundaries — drives everything below.
    """
    rng = random.Random(seed)
    kinds = [
        TaskKind.MODEL_TRAINING,
        TaskKind.FEATURE_EVALUATION,
        TaskKind.FEATURE_EXTRACTION,
        TaskKind.EAGER_FEATURE_EXTRACTION,
    ]
    return [
        Task(
            kind=rng.choice(kinds),
            duration=round(rng.uniform(0.2, 1.5), 3),
            description=f"task-{seed}-{index}",
        )
        for index in range(12)
    ]


def _completion_order(scheduler: TaskScheduler) -> list[str]:
    return [record.description for record in scheduler.completed_tasks()]


class TestEngineEquivalence:
    """Property test: SimulatedEngine and ThreadPoolEngine(workers=1) complete
    seeded workloads in identical task orders."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_single_worker_matches_simulated_completion_order(self, seed):
        # Several small windows force preemptions and requeues mid-workload.
        windows = [2.5, 2.5, 2.5]

        simulated = TaskScheduler(engine=SimulatedEngine())
        simulated.begin_iteration(1)
        for task in _seeded_workload(seed):
            simulated.submit(task)
        for window in windows:
            simulated.run_background_window(window)
        simulated.drain()
        expected = _completion_order(simulated)
        assert len(expected) == 12

        engine = ThreadPoolEngine(num_workers=1, time_scale=1e-3)
        threaded = TaskScheduler(engine=engine)
        threaded.begin_iteration(1)
        try:
            for task in _seeded_workload(seed):
                threaded.submit(task)
            for window in windows:
                threaded.run_background_window(window)
            threaded.drain()
            assert _completion_order(threaded) == expected
        finally:
            engine.shutdown()


class TestIdleAccountingRegression:
    """Regression tests for idle-time accounting around ``close_iteration``.

    The scenario from the issue: the idle-task factory returns ``None``
    mid-window while a deferred task exists.  Every second of the window must
    land in exactly one bucket (busy or idle) of exactly one record — idle
    spans must never be double-counted, and records frozen by
    ``close_iteration`` must never absorb later window time.
    """

    def test_factory_none_mid_window_counts_idle_exactly_once(self):
        scheduler = TaskScheduler(engine=SimulatedEngine())
        scheduler.begin_iteration(1)
        factory_calls = []
        scheduler.idle_task_factory = lambda: factory_calls.append(1) or None
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 2.0), available_at=4.0)
        scheduler.run_background_window(10.0)
        record = scheduler.current_iteration
        # Idle 0->4 while waiting, busy 4->6, idle 6->10: never double-counted.
        assert record.background_idle_time == pytest.approx(8.0)
        assert record.background_time_used == pytest.approx(2.0)
        assert record.background_idle_time + record.background_time_used == pytest.approx(10.0)
        assert len(factory_calls) == 2

    def test_window_after_close_never_mutates_frozen_record(self):
        scheduler = TaskScheduler(engine=SimulatedEngine())
        scheduler.begin_iteration(1)
        scheduler.idle_task_factory = lambda: None
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 2.0), available_at=4.0)
        scheduler.run_background_window(3.0)
        frozen = scheduler.current_iteration
        assert frozen.background_idle_time == pytest.approx(3.0)
        scheduler.close_iteration()

        # Factory still returns None mid-window; the deferred task completes.
        scheduler.run_background_window(4.0)
        overflow = scheduler.current_iteration
        assert overflow is not frozen
        assert overflow.iteration == frozen.iteration
        # The frozen record keeps exactly its pre-close accounting...
        assert frozen.background_idle_time == pytest.approx(3.0)
        assert frozen.background_time_used == pytest.approx(0.0)
        # ...and the overflow record accounts the second window exactly once.
        assert overflow.background_idle_time == pytest.approx(2.0)
        assert overflow.background_time_used == pytest.approx(2.0)
        total_idle = sum(r.background_idle_time for r in scheduler.iteration_records())
        total_busy = sum(r.background_time_used for r in scheduler.iteration_records())
        assert total_idle + total_busy == pytest.approx(7.0)

    def test_thread_engine_idle_never_double_counted(self):
        engine = ThreadPoolEngine(num_workers=1, time_scale=5e-3)
        scheduler = TaskScheduler(engine=engine)
        scheduler.begin_iteration(1)
        scheduler.idle_task_factory = lambda: None
        try:
            scheduler.submit(Task(TaskKind.MODEL_TRAINING, 1.0), available_at=2.0)
            scheduler.run_background_window(4.0)
            record = scheduler.current_iteration
            busy = record.background_time_used
            idle = record.background_idle_time
            # The task ran (possibly preempted near the deadline under timing
            # noise) and never consumed more than its cost.
            assert 0.2 <= busy <= 1.0 + 1e-6
            # One worker, 4-unit window: capacity is 4 units, split exactly
            # once between busy and idle (within timer tolerance) — the
            # double-counting regression would push the sum past capacity.
            assert busy + idle == pytest.approx(4.0, abs=0.3)
        finally:
            engine.shutdown()
