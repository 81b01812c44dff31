#!/usr/bin/env python3
"""Traced server for the ``serve-zipf`` workload.

Installs the benchmark's wrappers, then runs ``repro.cli serve`` itself in
this process, so the server's layers are traced where they run and the
server is built exactly as the untraced run builds it.  Each request is a
root span (``request``, from receipt to reply on the event loop, outside
every layer) whose child ``serving.execute`` is the worker-thread execution;
the session layers nest below that.  The root's own time — decoding,
admission, the hand-off to a worker and back — is therefore reported as
``other``.  When the server stops, the spans, the per-layer report and the
server-side latency of every request are written to ``--out``.

Usage (normally started by ``perfbench/serve.py``)::

    python3 perfbench/server_launcher.py --out trace.json \
        --dataset deer --root DIR --max-resident 4 --workers 2

Every argument but ``--out`` goes to ``repro.cli serve``.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.report import REQUEST_CLASSES, layer_metrics  # noqa: E402
from perfbench.tracing import REQUEST_ROOT, Tracer, dump_spans, layer_report  # noqa: E402


def _trace_server(tracer: Tracer, server_ms: dict, execute_ms: list) -> None:
    """Wrap the server's request boundary: decode, serve, execute."""
    from repro.serving import server as server_module

    current = contextvars.ContextVar("perfbench_request", default=None)
    by_doc: dict[int, object] = {}
    decode_line = server_module.decode_line
    serve_request = server_module.ExploreServer._serve_request
    execute = tracer.wrap("serving.execute", server_module.ExploreServer._execute)

    def traced_decode(line):
        doc = decode_line(line)
        span = current.get()
        if span is not None and isinstance(doc, dict):
            span.ctx = (doc.get("session"), doc.get("id"), doc.get("op"))
            by_doc[id(doc)] = span
        return doc

    @functools.wraps(serve_request)
    async def traced_serve(self, loop, line):
        span = tracer.open_root(REQUEST_ROOT, None)
        token = current.set(span)
        try:
            return await serve_request(self, loop, line)
        finally:
            current.reset(token)
            tracer.close(span)
            op = span.ctx[2] if span.ctx else None
            if op in REQUEST_CLASSES:
                server_ms[op].append(span.duration * 1e3)

    @functools.wraps(execute)
    def traced_execute(self, op, doc, deadline=None):
        parent = by_doc.pop(id(doc), None)
        if parent is None:
            return execute(self, op, doc, deadline)
        started = time.perf_counter()
        try:
            with tracer.attach(parent):
                return execute(self, op, doc, deadline)
        finally:
            if op in REQUEST_CLASSES:
                execute_ms.append((time.perf_counter() - started) * 1e3)

    tracer.patch_attr(server_module, "decode_line", traced_decode)
    tracer.patch_attr(server_module.ExploreServer, "_serve_request", traced_serve)
    tracer.patch_attr(server_module.ExploreServer, "_execute", traced_execute)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced repro.cli serve for perfbench")
    parser.add_argument("--out", required=True)
    args, serve_args = parser.parse_known_args(argv)

    from repro import cli

    tracer = Tracer().install()
    server_ms = {cls: [] for cls in REQUEST_CLASSES}
    execute_ms: list[float] = []
    _trace_server(tracer, server_ms, execute_ms)
    try:
        status = cli.main(["serve", *serve_args])
    finally:
        tracer.remove()
    report = layer_report(tracer.spans, roots=(REQUEST_ROOT,))
    dump = {
        "report": report,
        "metrics": layer_metrics(report, tracer, 0.0),
        "server_ms": server_ms,
        "execute_ms": execute_ms,
        "spans": dump_spans(tracer.spans),
    }
    Path(args.out).write_text(json.dumps(dump, default=str))
    return status


if __name__ == "__main__":
    sys.exit(main())
