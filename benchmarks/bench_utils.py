"""Importable benchmark helpers.

Kept out of ``conftest.py`` so benchmark modules never import the ambiguous
module name ``conftest`` (with both ``tests/`` and ``benchmarks/`` on
``sys.path`` in a whole-repo pytest run, that name resolves to whichever
directory was collected first).

Every bench records its headline numbers into the untracked
``.bench_state/bench_results.json`` at the repository root (override the
location with ``REPRO_BENCH_JSON``) as ``name -> {wall_s, speedup,
identity_ok}``, so a bench run never dirties a tracked file; the CI bench
smoke prints and uploads the file on every push.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from repro.core.executor import default_worker_count
from repro.experiments.config import scale_from_env

__all__ = [
    "bench_results_path",
    "record_bench",
    "run_once",
    "print_speedup_table",
]


#: Default results file: under the repository's gitignored ``.bench_state/``.
DEFAULT_RESULTS = (
    Path(__file__).resolve().parents[1] / ".bench_state" / "bench_results.json"
)


def bench_results_path() -> Path:
    """Where bench results accumulate (``REPRO_BENCH_JSON`` overrides)."""
    return Path(os.environ.get("REPRO_BENCH_JSON", "").strip() or DEFAULT_RESULTS)


def record_bench(
    name: str,
    wall_s: float,
    speedup: Optional[float] = None,
    identity_ok: Optional[bool] = None,
    **extra,
) -> dict:
    """Merge one bench's result into the shared results JSON.

    ``speedup`` is the bench's own headline ratio (block vs per-series loop
    for the throughput smoke, serial vs process for the parallel bench);
    ``identity_ok`` records whether the bench's bitwise-identity assertion
    held. Read-modify-write keeps results from every bench module of one
    ``pytest benchmarks/`` run in a single file.
    """
    path = bench_results_path()
    results: dict = {}
    if path.exists():
        try:
            results = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):  # pragma: no cover - corrupt file
            results = {}
    entry = {"wall_s": round(float(wall_s), 4), "scale": scale_from_env(default="small")}
    if speedup is not None:
        entry["speedup"] = round(float(speedup), 3)
    if identity_ok is not None:
        entry["identity_ok"] = bool(identity_ok)
    entry.update(extra)
    results[name] = entry
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return entry


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def run_best_of(benchmark, fn, rounds=3):
    """Run *fn* ``rounds`` times (after one untimed warm-up) under
    pytest-benchmark timing.

    Record ``benchmark.stats.stats.min`` afterwards: the recorded walls are
    compared across PRs, and a warm best-of estimate keeps cold caches and
    scheduler noise on a shared box from masquerading as a regression
    (single-shot timings on this workload vary by ±5-10%).
    """
    return benchmark.pedantic(fn, rounds=rounds, iterations=1, warmup_rounds=1)


def print_speedup_table(
    header: str,
    serial_s: float,
    thread_s: float,
    process_s: float,
    n_workers: int,
    identity_subject: str,
) -> None:
    """Serial/thread/process wall-clock table shared by the parallel benches.

    Prints the honest single-CPU caveat when no speedup is physically
    possible; *identity_subject* names what the accompanying bitwise
    identity check covered.
    """
    cpus = default_worker_count()
    print()
    print(f"{header} | {cpus} CPU(s) available, {n_workers} workers requested")
    print(f"  serial   {serial_s:8.2f}s   1.00x")
    print(f"  thread   {thread_s:8.2f}s   {serial_s / thread_s:.2f}x")
    print(f"  process  {process_s:8.2f}s   {serial_s / process_s:.2f}x")
    if cpus == 1:
        print("  (single-CPU machine: no parallel speedup is physically possible;")
        print(f"   {identity_subject} across backends is still fully verified)")
