"""Statistics, seeds and host facts shared by every workload.

Nothing here imports :mod:`repro`, so the pure helpers are testable without
the program under test.
"""

from __future__ import annotations

import os
import platform
import zlib
from typing import Iterable, Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a percentile before it may be reported.
TAIL_MIN_BEYOND = 10

#: Environment every benchmark process runs under: hash randomisation off
#: (set iteration order feeds the exploration loop) and one BLAS thread, so
#: results and timings do not depend on the host's default thread count.
BENCH_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def derive_seed(seed: int, *parts: object) -> int:
    """A stable 31-bit seed from the workload seed and a path of names."""
    key = ":".join([str(int(seed))] + [str(part) for part in parts])
    return zlib.crc32(key.encode("utf-8")) & 0x7FFFFFFF


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it.
    """
    chosen = None
    for pct in TAIL_LADDER:
        if count * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            chosen = pct
    return chosen


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``samples`` (not necessarily sorted)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def summarize(samples: Sequence[float]) -> dict:
    """Median and tail of a latency sample, with the tail's percentile and count."""
    count = len(samples)
    pct = tail_percentile(count)
    if pct is None:
        raise ValueError(f"{count} samples are too few for a median with ten beyond it")
    return {
        "p50": percentile(samples, 50.0),
        "tail": percentile(samples, pct),
        "tail_pct": pct,
        "n": count,
    }


def tail_notes(samples: dict) -> dict:
    """``<kind>_tail_ms`` → "p<pct> of n=<count>" for each summarized sample."""
    return {
        f"{kind}_tail_ms": "p{tail_pct:g} of n={n}".format(**stats) for kind, stats in samples.items()
    }


def median(values: Iterable[float]) -> float:
    """Median of a non-empty iterable."""
    return percentile(list(values), 50.0)


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")


def host_fingerprint() -> dict:
    """Facts about the host and libraries that every result is tied to."""
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        deps = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{deps.get('name', 'unknown')} {deps.get('version', '')}".strip()
    except (TypeError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }
