#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload loop-deer --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full result (samples, notes, host fingerprint, spans) is written under
``.perfbench_out/``.  The exit code is non-zero on any correctness mismatch.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("loop-deer", "loop-k20-lazy", "serve-zipf")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 10:
        parser.error("--seconds below 10 leaves too few samples for the tails")
    return args


def _run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            sys.stdout.write(f"== {name} trace={trace}\n")
            sys.stdout.flush()
            status |= subprocess.run(command, check=False).returncode
    return status


def _config_key(name: str, seconds: int, trace: int) -> str:
    """Digest of everything besides the seed that shapes a run's work."""
    from perfbench import common, loops, serve

    shape = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "env": common.BENCH_ENV,
        "loops": {key: vars(spec) for key, spec in loops.LOOPS.items()},
        "loop_consts": [loops.BATCH_SIZE, loops.SETUP_REPEATS, loops.READS_PER_SESSION, loops.REPLAY_STEPS],
        "serve": serve.SHAPE,
    }
    text = json.dumps(shape, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {ROOT / 'src'}; nothing to measure\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common

    if any(os.environ.get(key) != value for key, value in common.BENCH_ENV.items()):
        # Hash seed and BLAS threads must be fixed before the interpreter
        # and numpy start, so run again under the benchmark's environment.
        env = {**os.environ, **common.BENCH_ENV}
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    if args.workload == "all":
        return _run_all(args)

    from perfbench import loops, report, serve

    module = serve if args.workload == "serve-zipf" else loops
    doc = module.run(args.workload, args.seed, args.seconds, bool(args.trace))
    correct = not doc["mismatches"]
    catalog = report.PER_LAYER if args.trace else report.END_TO_END
    host = common.host_fingerprint()
    key = _config_key(args.workload, args.seconds, args.trace)

    out = sys.stdout
    out.write(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}\n")
    out.write(f"config {key} host {json.dumps(host, sort_keys=True)}\n")
    for line in doc.get("log", ()):
        out.write(f"  {line}\n")
    report.print_metrics(doc["metrics"], catalog, doc.get("notes", {}))
    for mismatch in doc["mismatches"]:
        out.write(f"MISMATCH: {mismatch}\n")

    OUT_DIR.mkdir(exist_ok=True)
    dump = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config_key": key, "host": host, "correct": correct,
        **{k: v for k, v in doc.items() if k != "metrics"},
        "metrics": {name: doc["metrics"][name] for name, _ in catalog},
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dump, default=str))
    out.write(report.result_line(correct, doc["attempted"], doc["failed"], doc["metrics"], catalog) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
