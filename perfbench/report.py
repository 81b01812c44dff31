"""Metric catalog and the result line every run prints."""

from __future__ import annotations

import json
import sys

from .tracing import LAYERS

#: End-to-end metrics (``--trace 0``), in print order, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("explore_p50_ms", "ms"),
    ("explore_tail_ms", "ms"),
    ("iterations_per_s", "1/s"),
    ("iteration_tail_ms", "ms"),
    ("label_tail_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("f1_final", "macro-F1"),
    ("sim_visible_s", "sim_s"),
)

#: Wrapped spans reported as call counts and busy seconds.
_SPAN_CALLS = (
    "video.decode", "features.embed", "models.fit", "models.cv", "alm.select",
    "index.search", "storage.journal_commit", "storage.snapshot", "storage.restore",
)
_SPAN_SECONDS = (
    "video.decode", "features.embed", "features.eager", "features.foreground",
    "models.fit", "models.train", "models.cv", "models.predict",
    "alm.select", "alm.pool", "alm.skew", "index.search", "storage.gather",
    "storage.journal_commit", "storage.snapshot", "storage.restore",
    "scheduler.window", "scheduler.foreground", "session.explore", "session.finish",
)
REQUEST_CLASSES = ("explore", "label", "search", "predict")

#: Per-layer metrics (``--trace 1``) with their units.
PER_LAYER = (
    tuple((f"{name}.calls", "count") for name in _SPAN_CALLS)
    + tuple((f"{name}.s", "s") for name in _SPAN_SECONDS)
    + (
        ("video.decode.unique_ratio", "ratio"),
        ("features.clips_extracted", "count"),
        ("models.lbfgs.iters", "count"),
        ("models.lbfgs.fevals", "count"),
        ("models.cv.cache_hit_ratio", "ratio"),
        ("models.design.hit_ratio", "ratio"),
        ("index.search.queries", "count"),
    )
    + tuple((f"serving.server_p50_ms.{c}", "ms") for c in REQUEST_CLASSES)
    + tuple((f"serving.server_tail_ms.{c}", "ms") for c in REQUEST_CLASSES)
    + (
        ("serving.wait_ms", "ms"),
        ("serving.evictions", "count"),
        ("serving.restores", "count"),
        ("serving.sheds", "count"),
        ("serving.restore_ratio", "ratio"),
        ("serving.generator_lag_p50_ms", "ms"),
        ("serving.generator_lag_max_ms", "ms"),
        ("serving.ladder_max_rate_rps", "req/s"),
    )
    + tuple((f"self.{layer}_s", "s") for layer in LAYERS + ("other",))
    + (
        ("trace.wall_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    )
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(report: dict, tracer, overhead_ratio: float) -> dict:
    """Per-layer metric values from a layer report and the tracer's counters.

    Serving metrics default to zero; the serve workload overwrites them.
    """
    calls, busy = report["calls"], report["busy_s"]
    values = {f"{name}.calls": calls.get(name, 0) for name in _SPAN_CALLS}
    values.update({f"{name}.s": busy.get(name, 0.0) for name in _SPAN_SECONDS})
    training = list(tracer.training_stats.values())
    cv_hits = sum(s.cv_cache_hits for s in training)
    cv_rounds = sum(s.cv_rounds for s in training)
    design_hits = sum(s.design_hits for s in training)
    design_total = design_hits + sum(s.design_extensions + s.design_rebuilds for s in training)
    values.update(
        {
            "video.decode.unique_ratio": _ratio(len(tracer.decoded_clips), calls.get("video.decode", 0)),
            "features.clips_extracted": sum(
                s.clips_processed for s in tracer.pipeline_stats.values()
            ),
            "models.lbfgs.iters": tracer.counts["lbfgs_iters"],
            "models.lbfgs.fevals": tracer.counts["lbfgs_fevals"],
            "models.cv.cache_hit_ratio": _ratio(cv_hits, cv_hits + cv_rounds),
            "models.design.hit_ratio": _ratio(design_hits, design_total),
            "index.search.queries": tracer.counts["index_queries"],
        }
    )
    values.update({name: 0.0 for name, unit in PER_LAYER if name.startswith("serving.")})
    values.update({f"self.{layer}_s": secs for layer, secs in report["self_s"].items()})
    values["trace.wall_s"] = report["wall_s"]
    values["trace.coverage"] = report["coverage"]
    values["trace.overhead_ratio"] = overhead_ratio
    return values


def result_line(correct: bool, attempted: int, failed: int, values: dict, catalog) -> str:
    """The final JSON line: every metric of ``catalog`` with its unit."""
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in catalog}
    return json.dumps(
        {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed), "metrics": metrics}
    )


def print_metrics(values: dict, catalog, notes: dict) -> None:
    """Human-readable metric lines, with tail percentile and sample counts."""
    for name, unit in catalog:
        note = notes.get(name, "")
        sys.stdout.write(f"  {name:<34} {float(values[name]):>14.6g} {unit:<9} {note}\n")
