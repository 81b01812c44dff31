"""Serving workload: Zipf-popular sessions against a server process.

The server runs in its own process, started as ``python -m repro.cli
serve --dataset deer`` (the traced run starts :mod:`perfbench.server_launcher`,
which installs the wrappers and then runs the same CLI entry point).  It hosts 16 named sessions with 4 resident, so the working set
is four times the residency cache and cold sessions are restored from disk.

One generator process drives it, each thread through its own
:class:`repro.serving.ServingClient` connection.  A cycle picks a session and
runs ``explore``, then ``search`` and ``predict`` on 40% of cycles each, then
``label`` with ``finish=true`` using the oracle's labels.  A session runs one
cycle at a time, as one user would.  Each session's number of cycles is its
Zipf(1.0) share of the total, so every seed serves the same work.

The end-to-end metrics come from a *closed* phase: one user sending its next
cycle as soon as the last one finished.  The traced run adds the
*open-loop* ladder, driven by two threads: Poisson arrivals at rising fixed
rates, every request timed from its due time (the cycle's arrival for
``explore``, the previous reply for the requests after it), the generator's
own lateness reported as lag, and a rung where the generator fell behind by
more than :data:`MAX_LAG_S` reported as invalid.  The ladder climbs until a
rung misses :data:`LIMIT_MS` and gives the rate where the explore and label
tails cross it.  Its figures vary too much between runs on a two-core host
to gate on (see ``perfbench/README.md``), so they are per-layer metrics.
"""

from __future__ import annotations

import collections
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from .common import BENCH_ENV, derive_seed, median, peak_rss_mb, percentile, summarize, tail_notes
from .report import REQUEST_CLASSES
from .tracing import MIN_COVERAGE

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_tmp"

#: Everything that shapes the served work (part of the config key).
SHAPE = {
    "dataset": "deer",
    # The corpus is fixed, as the paper's datasets are; the workload seed
    # drives everything a user does with it.
    "dataset_seed": 0,
    "sessions": 16,
    "resident": 4,
    "server_workers": 2,
    "generator_threads": 2,
    "zipf_s": 1.0,
    "batch_size": 5,
    # Share of a session's cycles that search, and that predict.
    "p_search": 0.4,
    "p_predict": 0.4,
    "search_k": 5,
    # Closed phase (the end-to-end metrics): users, and cycles per second of
    # ``--seconds``.
    "closed_users": 1,
    "closed_cycles": 3.5,
    # Open-loop ladder (traced run): offered request rates, climbed until a
    # rung misses the limit, and the cycles of each rung per second of
    # ``--seconds``.
    "ladder_rps": (4.0, 8.0, 12.0, 18.0, 27.0, 40.0, 60.0, 90.0),
    "rung_cycles": 0.75,
    "limit_ms": 1000.0,
    "setup_repeats": 5,
}
REQUESTS_PER_CYCLE = 2.0 + SHAPE["p_search"] + SHAPE["p_predict"]
LIMIT_MS = SHAPE["limit_ms"]
#: Generator lateness beyond which a step is invalid.
MAX_LAG_S = 0.25
_BANNER = re.compile(r"serving dataset \S+ on ([\d.]+):(\d+)")


# --------------------------------------------------------------------- inputs
def session_names() -> list[str]:
    return [f"user{index:02d}" for index in range(SHAPE["sessions"])]


def _cycles(rng: random.Random, count: int, rate: float | None) -> list[dict]:
    """``count`` cycles in a seeded order, with Poisson arrivals at ``rate``
    req/s (``None``: a closed loop, each cycle sent when its user is free).

    Each session's cycle count is its Zipf share (largest remainders
    rounded up), and a session's ``j``-th cycle predicts when ``j % 5`` is 1
    or 3 and searches when it is 2 or 4, so every seed serves the same work
    to the same sessions; the seed decides the interleaving, the arrival
    times and each read's target.
    """
    names = session_names()
    weights = [1.0 / (rank + 1) ** SHAPE["zipf_s"] for rank in range(len(names))]
    shares = [count * w / sum(weights) for w in weights]
    quota = [int(share) for share in shares]
    for rank in sorted(range(len(names)), key=lambda r: quota[r] - shares[r])[: count - sum(quota)]:
        quota[rank] += 1
    # A session's cycles are spread evenly over the phase from a seeded
    # offset, so cold sessions (an explore that restores from disk) come at
    # the same rate for every seed; a plain shuffle moved the share of
    # restoring explores across the median and made it jump between runs.
    slots = []
    for name, n in zip(names, quota):
        offset = rng.random()
        slots += [((k + offset) / n, name) for k in range(n)]
    picks = [name for _, name in sorted(slots)]
    seen: collections.Counter = collections.Counter()
    at, cycles = 0.0, []
    for session in picks:
        if rate is not None:
            at += rng.expovariate(rate / REQUESTS_PER_CYCLE)
        step = seen[session] % 5
        seen[session] += 1
        cycles.append(
            {
                "at": at,
                "session": session,
                "search": step in (2, 4),
                "predict": step in (1, 3),
                "choice_seed": rng.getrandbits(31),
            }
        )
    return cycles


def plan(seed: int, seconds: float) -> dict:
    """The run's inputs, a pure function of ``(seed, seconds)``.

    The closed phase holds ``closed_cycles × seconds`` cycles; each ladder
    rung holds ``rung_cycles × seconds``.  Cycle counts, each session's
    share and the number of reads are fixed by ``seconds``; the seed decides
    the order, the arrival times and each read's target.
    """
    rng = random.Random(derive_seed(seed, "serve-zipf", "plan"))
    closed = _cycles(rng, round(SHAPE["closed_cycles"] * seconds), None)
    rungs = [
        {"rate_rps": rate, "cycles": _cycles(rng, round(SHAPE["rung_cycles"] * seconds), rate)}
        for rate in SHAPE["ladder_rps"]
    ]
    return {
        "dataset_seed": SHAPE["dataset_seed"],
        "closed": {"rate_rps": None, "cycles": closed},
        "ladder": rungs,
    }


# --------------------------------------------------------------------- server
class Server:
    """A server child process: the CLI's ``serve``, or the traced launcher."""

    def __init__(self, root: Path, dataset_seed: int, trace_out: Path | None) -> None:
        args = [
            "--dataset", SHAPE["dataset"], "--root", str(root),
            "--max-resident", str(SHAPE["resident"]),
            "--workers", str(SHAPE["server_workers"]), "--seed", str(dataset_seed),
        ]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *args]
        else:
            launcher = ROOT / "perfbench" / "server_launcher.py"
            command = [sys.executable, str(launcher), "--out", str(trace_out), *args]
        env = {**os.environ, **BENCH_ENV, "PYTHONPATH": str(ROOT / "src")}
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True
        )
        line = self.process.stdout.readline()
        match = _BANNER.search(line)
        if match is None:
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self, client) -> None:
        """Graceful shutdown through the protocol; waits for the exit."""
        client.shutdown()
        self.process.communicate(timeout=60)
        if self.process.returncode != 0:
            raise RuntimeError(f"server exited with {self.process.returncode}")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate(timeout=30)


def _start(root: Path, dataset_seed: int, trace_out: Path | None):
    """Start a server over a fresh root and open every session; returns
    ``(server, seconds taken)``."""
    from repro.serving import ServingClient

    shutil.rmtree(root, ignore_errors=True)
    started = time.perf_counter()
    server = Server(root, dataset_seed, trace_out)
    try:
        with ServingClient(server.host, server.port, timeout=120.0) as client:
            for name in session_names():
                client.open(name)
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - started


# ------------------------------------------------------------------ generator
class _Counted:
    """A client whose requests are tallied: sent, succeeded, failed, shed."""

    def __init__(self, client, tally: collections.Counter) -> None:
        self._client = client
        self._tally = tally

    def __getattr__(self, op: str):
        call = getattr(self._client, op)

        def counted(*args, **kwargs):
            from repro.exceptions import AdmissionError

            self._tally["sent"] += 1
            try:
                reply = call(*args, **kwargs)
            except AdmissionError:
                self._tally["shed"] += 1
                raise
            except Exception:
                self._tally["failed"] += 1
                raise
            self._tally["succeeded"] += 1
            return reply

        return counted


class _Generator:
    """Replays planned cycles, one connection per generator thread."""

    def __init__(self, server: Server, oracle) -> None:
        self.server = server
        self.oracle = oracle
        self.acked: dict[str, list[tuple]] = collections.defaultdict(list)
        self.history: dict[str, list[tuple]] = collections.defaultdict(list)
        self.errors: list[str] = []

    def run_step(self, step: dict, threads: int) -> dict:
        from repro.serving import ServingClient

        cond = threading.Condition()
        pending = list(step["cycles"])
        busy: set[str] = set()
        free_at: dict[str, float] = {}
        samples = {kind: [] for kind in ("explore", "label", "read", "iteration", "sent")}
        counts: collections.Counter = collections.Counter()
        lags: list[float] = []
        start = time.perf_counter() + 0.05

        def take(worker_free: float):
            with cond:
                while pending:
                    now = time.perf_counter() - start
                    for index, cycle in enumerate(pending):
                        if cycle["at"] > now:
                            break
                        if cycle["session"] not in busy:
                            del pending[index]
                            busy.add(cycle["session"])
                            eligible = max(cycle["at"], free_at.get(cycle["session"], 0.0), worker_free)
                            lags.append(max(0.0, now - eligible))
                            return cycle
                    waits = [c["at"] - now for c in pending if c["at"] > now]
                    cond.wait(min(waits) if waits else 0.05)
                return None

        def release(cycle) -> None:
            with cond:
                busy.discard(cycle["session"])
                free_at[cycle["session"]] = time.perf_counter() - start
                cond.notify_all()

        def worker() -> None:
            worker_free = 0.0
            tally: collections.Counter = collections.Counter()
            try:
                with ServingClient(self.server.host, self.server.port, timeout=120.0) as raw:
                    client = _Counted(raw, tally)
                    while True:
                        cycle = take(worker_free)
                        if cycle is None:
                            return
                        try:
                            self._cycle(client, cycle, start, samples, step["rate_rps"] is None)
                        finally:
                            release(cycle)
                        worker_free = time.perf_counter() - start
            except Exception as exc:  # reported as a failed run, never swallowed
                with cond:
                    self.errors.append(f"{type(exc).__name__}: {exc}")
                    pending.clear()
                    cond.notify_all()
            finally:
                with cond:
                    counts.update(tally)

        workers = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        elapsed = time.perf_counter() - start
        return {"samples": samples, "counts": counts, "lags": lags, "elapsed_s": elapsed, **step}

    def _cycle(self, client, cycle: dict, start: float, samples: dict, closed: bool) -> None:
        from repro.types import ClipSpec

        name = cycle["session"]
        rng = random.Random(cycle["choice_seed"])
        sent = time.perf_counter()
        due = sent if closed else start + cycle["at"]
        reply = client.explore(name, batch_size=SHAPE["batch_size"])
        done = time.perf_counter()
        samples["explore"].append((done - due) * 1e3)
        samples["sent"].append(("explore", (done - sent) * 1e3))
        clips = [(s["vid"], s["start"], s["end"]) for s in reply["segments"]]
        self.history[name].append(("explore", tuple(clips)))
        for op in ("search", "predict"):
            if not cycle[op] or not clips:
                continue
            vid, begin, end = rng.choice(clips)
            due = time.perf_counter()
            if op == "search":
                hits = client.search(name, clip=(vid, begin, end), k=SHAPE["search_k"])["hits"]
                outcome = tuple((h["vid"], h["start"], h["end"]) for h in hits)
            else:
                segments = client.predict(name, vid=vid, start=begin, end=end)["segments"]
                outcome = len(segments)
            done = time.perf_counter()
            samples["read"].append((done - due) * 1e3)
            samples["sent"].append((op, (done - due) * 1e3))
            self.history[name].append((op, vid, begin, end, outcome))
        labels = [
            (lab.vid, lab.start, lab.end, lab.label)
            for lab in self.oracle.label_clips([ClipSpec(*clip) for clip in clips])
        ]
        due = time.perf_counter()
        ack = client.label(name, labels, finish=True)
        done = time.perf_counter()
        if not ack.get("durable") or ack.get("stored") != len(labels):
            raise RuntimeError(f"label ack for {name} is not durable: {ack}")
        self.acked[name].extend(labels)
        samples["label"].append((done - due) * 1e3)
        samples["sent"].append(("label", (done - due) * 1e3))
        samples["iteration"].append((done - (sent if closed else start + cycle["at"])) * 1e3)


def _step_verdict(result: dict) -> dict:
    """One ladder step against the latency limit, with backlog and lag.

    A step has too few cycles for a tail with ten samples beyond it, so the
    step check uses each class's 75th percentile.  Explore is timed from the
    cycle's arrival, so a growing backlog shows as explore latency past the
    limit.  The step's load is the worse of the two over the limit; it passes
    at or below 1.
    """
    samples = result["samples"]
    verdict = {"rate_rps": result["rate_rps"], "cycles": len(result["cycles"])}
    figures = []
    for kind in ("explore", "label"):
        tail = percentile(samples[kind], 75.0)
        verdict[f"{kind}_p75_ms"] = tail
        figures.append(tail)
    verdict["lag_max_ms"] = max(result["lags"], default=0.0) * 1e3
    verdict["valid"] = verdict["lag_max_ms"] <= MAX_LAG_S * 1e3
    verdict["load"] = max(figures) / LIMIT_MS if verdict["valid"] else float("inf")
    verdict["passed"] = verdict["load"] <= 1.0
    return verdict


def max_rate(verdicts: list[dict]) -> float:
    """Highest ladder rate meeting the limit, interpolated to the crossing.

    Between the last passing step and the first failing one the rate is
    interpolated linearly to where the step load crosses 1, so the result
    moves smoothly with the system's speed instead of jumping between
    rungs.  Below the first rung it scales that rung's rate by its load;
    when every step passes it is the top rung's rate.
    """
    previous = None
    for verdict in verdicts:
        if not verdict["passed"]:
            if previous is None or verdict["load"] == float("inf"):
                return verdict["rate_rps"] / verdict["load"] if previous is None else previous["rate_rps"]
            share = (1.0 - previous["load"]) / (verdict["load"] - previous["load"])
            return previous["rate_rps"] + share * (verdict["rate_rps"] - previous["rate_rps"])
        previous = verdict
    return verdicts[-1]["rate_rps"]


# ---------------------------------------------------------------- verification
def _inspect(dataset, root: Path, dataset_seed: int) -> dict:
    """Each session's stored labels, simulated latency and F1, from disk."""
    from repro.experiments.evaluation import ModelEvaluator
    from repro.serving import CorpusSessionFactory

    factory = CorpusSessionFactory(dataset, root, base_seed=dataset_seed)
    sessions = {}
    for name in session_names():
        vocal = factory.build(name)
        vocal.resume()
        session = vocal.session
        models = session.models
        feature = session.current_feature()
        f1 = None
        if models.has_model(feature):
            f1 = ModelEvaluator(dataset, seed=factory.session_seed(name)).evaluate_manager(models, feature)
        sessions[name] = {
            "labels": collections.Counter(
                (lab.vid, lab.start, lab.end, lab.label) for lab in session.storage.labels.all()
            ),
            "sim_visible_s": vocal.cumulative_visible_latency(),
            "f1": f1,
        }
        vocal.close()
    return sessions


def _load_pass(dataset, inputs: dict, trace_out: Path | None, setups: int, ladder: bool) -> dict:
    """Set up (``setups`` times), run the closed phase and optionally the
    ladder, shut down, and inspect every session from disk."""
    from repro.core.oracle import OracleUser
    from repro.serving import ServingClient

    WORK_DIR.mkdir(exist_ok=True)
    setup_s = []
    for attempt in range(setups):
        root = WORK_DIR / f"serve-{os.getpid()}-{attempt}"
        server, seconds = _start(root, inputs["dataset_seed"], trace_out)
        setup_s.append(seconds)
        if attempt < setups - 1:
            with ServingClient(server.host, server.port, timeout=120.0) as client:
                server.stop(client)
            shutil.rmtree(root, ignore_errors=True)
    generator = _Generator(server, OracleUser(dataset.train_corpus))
    try:
        closed = generator.run_step(inputs["closed"], SHAPE["closed_users"])
        history = {name: len(entries) for name, entries in generator.history.items()}
        rungs = []
        for rung in inputs["ladder"] if ladder and not generator.errors else ():
            rungs.append(generator.run_step(rung, SHAPE["generator_threads"]))
            if generator.errors or not _step_verdict(rungs[-1])["passed"]:
                break
        rss = server.peak_rss_mb()
        with ServingClient(server.host, server.port, timeout=120.0) as client:
            stats = client.stats()
            server.stop(client)
    except BaseException:
        server.kill()
        raise
    sessions = _inspect(dataset, root, inputs["dataset_seed"])
    shutil.rmtree(root, ignore_errors=True)
    return {
        "setup_s": setup_s,
        "closed": closed,
        "closed_history": {name: generator.history[name][:n] for name, n in history.items()},
        "rungs": rungs,
        "generator": generator,
        "rss_mb": rss,
        "stats": stats,
        "sessions": sessions,
    }


def _check(run: dict, mismatches: list[str], tag: str) -> None:
    generator = run["generator"]
    mismatches.extend(f"{tag}: {error}" for error in generator.errors)
    for name, info in run["sessions"].items():
        if info["labels"] != collections.Counter(generator.acked.get(name, [])):
            mismatches.append(f"{tag}: stored labels of {name} differ from the acked labels")
    quarantines = run["stats"]["manager"].get("quarantines", 0)
    if quarantines:
        mismatches.append(f"{tag}: {quarantines} sessions quarantined")


def _step_log(name: str, result: dict) -> str:
    """Requests sent, succeeded, failed and shed in one phase or rung."""
    counts = result["counts"]
    return (
        f"{name}: cycles {len(result['cycles'])}, requests sent {counts['sent']}, "
        f"succeeded {counts['succeeded']}, failed {counts['failed']}, shed {counts['shed']}, "
        f"wall {result['elapsed_s']:.1f} s"
    )


def _failed(result: dict) -> int:
    return result["counts"]["failed"] + result["counts"]["shed"]


def _rung_log(verdict: dict) -> str:
    return (
        f"  explore p75 {verdict['explore_p75_ms']:.1f} ms, label p75 {verdict['label_p75_ms']:.1f} ms, "
        f"generator lag max {verdict['lag_max_ms']:.1f} ms, load {verdict['load']:.2f}, "
        + ("passed" if verdict["passed"] else "failed")
        + ("" if verdict["valid"] else " (INVALID: the generator fell behind its schedule)")
    )


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the serving workload; returns the result document."""
    from repro.datasets.catalog import build_dataset

    inputs = plan(seed, seconds)
    dataset = build_dataset(SHAPE["dataset"], seed=inputs["dataset_seed"])
    mismatches: list[str] = []
    plain = _load_pass(dataset, inputs, None, 1 if trace else SHAPE["setup_repeats"], ladder=False)
    _check(plain, mismatches, "untraced")
    closed = plain["closed"]
    doc = {
        "inputs": {"dataset_seed": inputs["dataset_seed"]},
        "attempted": max(1, closed["counts"]["sent"]),
        "failed": _failed(closed),
        "mismatches": mismatches,
        "log": [_step_log("closed phase", closed)],
    }
    if not trace:
        samples = {kind: summarize(closed["samples"][kind]) for kind in ("explore", "label", "iteration", "read")}
        sessions = list(plain["sessions"].values())
        f1 = [info["f1"] for info in sessions if info["f1"] is not None]
        doc["samples"] = samples
        doc["metrics"] = {
            "setup_s": median(plain["setup_s"]),
            "explore_p50_ms": samples["explore"]["p50"],
            "explore_tail_ms": samples["explore"]["tail"],
            "iterations_per_s": len(closed["cycles"]) / closed["elapsed_s"],
            "iteration_tail_ms": samples["iteration"]["tail"],
            "label_tail_ms": samples["label"]["tail"],
            "read_p50_ms": samples["read"]["p50"],
            "read_tail_ms": samples["read"]["tail"],
            "peak_rss_mb": plain["rss_mb"],
            "f1_final": sum(f1) / len(f1),
            "sim_visible_s": sum(info["sim_visible_s"] for info in sessions) / len(sessions),
        }
        doc["notes"] = tail_notes(samples)
        doc["log"].append(f"label p50 {samples['label']['p50']:.3f} ms (not gated, see README)")
        return doc

    # Traced run: the closed phase again, then the open-loop ladder, on the
    # traced server.  Every reply of the closed phase must repeat.
    trace_out = WORK_DIR / f"trace-{os.getpid()}.json"
    traced = _load_pass(dataset, inputs, trace_out, 1, ladder=True)
    _check(traced, mismatches, "traced")
    if traced["closed_history"] != plain["closed_history"]:
        mismatches.append("traced closed-phase replies differ from the untraced ones")
    verdicts = [_step_verdict(rung) for rung in traced["rungs"]]
    if not all(verdict["valid"] for verdict in verdicts):
        mismatches.append("invalid ladder: the generator fell behind its schedule")
    for rung, verdict in zip(traced["rungs"], verdicts):
        doc["log"] += [_step_log(f"rung {rung['rate_rps']:g} req/s", rung), _rung_log(verdict)]
    for step in [traced["closed"], *traced["rungs"]]:
        doc["attempted"] += step["counts"]["sent"]
        doc["failed"] += _failed(step)
    if verdicts and verdicts[-1]["passed"]:
        doc["log"].append("every rung met the limit: the ladder max rate is its top rate, not a crossing")
    dump = json.loads(trace_out.read_text())
    trace_out.unlink()
    if dump["report"]["coverage"] < MIN_COVERAGE:
        mismatches.append(f"layer spans cover {dump['report']['coverage']:.3f} of the traced wall time")
    doc["metrics"] = _serving_layer_metrics(plain, traced, dump, verdicts)
    doc["trace"] = dump["report"]
    doc["spans"] = dump["spans"]
    return doc


def _serving_layer_metrics(plain: dict, traced: dict, dump: dict, verdicts: list[dict]) -> dict:
    """Per-layer metrics of the traced pass plus the serving layer's own."""
    values = dict(dump["metrics"])
    server = dump["server_ms"]
    for cls in REQUEST_CLASSES:
        stats = summarize(server[cls]) if len(server.get(cls, ())) >= 20 else None
        values[f"serving.server_p50_ms.{cls}"] = stats["p50"] if stats else 0.0
        values[f"serving.server_tail_ms.{cls}"] = stats["tail"] if stats else 0.0
    # Client-observed time beyond the worker's execution: framing, admission
    # and the hand-off to and from a worker thread (queueing).
    steps = [traced["closed"], *traced["rungs"]]
    client = [ms for step in steps for _, ms in step["samples"]["sent"]]
    values["serving.wait_ms"] = median(client) - median(dump["execute_ms"])
    manager = traced["stats"]["manager"]
    explores = len(server.get("explore", ()))
    values["serving.evictions"] = manager["evictions"]
    values["serving.restores"] = manager["restores"]
    values["serving.sheds"] = manager["residency_sheds"]
    values["serving.restore_ratio"] = manager["restores"] / explores if explores else 0.0
    lags = [lag * 1e3 for step in traced["rungs"] for lag in step["lags"]]
    values["serving.generator_lag_p50_ms"] = median(lags)
    values["serving.generator_lag_max_ms"] = max(lags)
    values["serving.ladder_max_rate_rps"] = max_rate(verdicts)
    plain_ms = sum(ms for _, ms in plain["closed"]["samples"]["sent"])
    traced_ms = sum(ms for _, ms in traced["closed"]["samples"]["sent"])
    values["trace.overhead_ratio"] = traced_ms / plain_ms - 1.0
    return values
