"""Live-monitoring service smoke: fold throughput + push-vs-batch identity.

Two cells:

* **throughput** — sustained window ingestion through a
  :class:`~repro.service.MonitoringSession` under a fully hostile arrival
  plan (complete shuffle, 30% duplication, micro-bursts).  Records
  windows/sec and the p99 single-window fold latency; the fold path holds
  integer count state only, so p99 should sit in the tens of microseconds
  at small window widths.
* **identity** — the session's :meth:`finalize` under that hostile plan vs
  the in-order batch :class:`~repro.core.streaming.StreamingExperiment`.
  Every outcome key must be **bitwise-identical** — this is the PR's
  acceptance gate, asserted here and recorded as ``identity_ok``.

Records ``{wall_s, windows_per_s, p99_fold_us, identity_ok}`` into the file
``bench_utils.bench_results_path()`` names.

Run:  REPRO_SCALE=tiny PYTHONPATH=src python -m pytest -q -s benchmarks/bench_service.py
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.experiments.config import scale_from_env

from bench_utils import record_bench

WINDOW_WIDTH = 16


def _fingerprint(result) -> str:
    keys = [
        (o.strategy, o.replication, o.improvement, o.distortion,
         o.glitch_index_dirty, o.glitch_index_treated, o.cost_fraction,
         tuple(sorted((g.name, v) for g, v in o.dirty_fractions.items())),
         tuple(sorted((g.name, v) for g, v in o.treated_fractions.items())))
        for o in result.outcomes
    ]
    return hashlib.sha1(repr(keys).encode()).hexdigest()


def _windows(scale):
    from repro.data.slab import SlabFeed
    from repro.experiments.config import SCALES

    feed = SlabFeed(SCALES[scale].generator, None, seed=0)
    try:
        return list(feed.iter_stream_windows(width=WINDOW_WIDTH))
    finally:
        feed.cleanup()


def test_session_fold_throughput_and_identity():
    """Hostile push delivery: measure the folds, then prove the bits."""
    from repro.cleaning.registry import strategy_by_name
    from repro.core.streaming import StreamingExperiment
    from repro.experiments.config import experiment_config
    from repro.service import MonitoringSession, arrival_schedule

    scale = scale_from_env(default="small")
    cfg = experiment_config(scale)
    strategies = [strategy_by_name("strategy1"), strategy_by_name("strategy4")]

    windows = _windows(scale)
    plan = arrival_schedule(
        windows, seed=99, reorder=1.0, duplicate=0.3, burst=3
    )

    # --- throughput + per-fold latency ---------------------------------
    session = MonitoringSession(config=cfg)
    fold_walls = np.empty(len(plan))
    t0 = time.perf_counter()
    for i, window in enumerate(plan):
        f0 = time.perf_counter()
        session.ingest(window)
        fold_walls[i] = time.perf_counter() - f0
    ingest_wall = time.perf_counter() - t0
    windows_per_s = len(plan) / max(ingest_wall, 1e-9)
    p99_fold_us = float(np.quantile(fold_walls, 0.99) * 1e6)

    # --- identity vs the in-order batch engine -------------------------
    t0 = time.perf_counter()
    push = session.finalize(strategies)
    finalize_wall = time.perf_counter() - t0
    batch = StreamingExperiment.from_scale(scale, seed=0, config=cfg).run(
        strategies
    )
    identity_ok = _fingerprint(push) == _fingerprint(batch.result)

    record_bench(
        "bench_service",
        wall_s=ingest_wall + finalize_wall,
        identity_ok=identity_ok,
        windows_per_s=round(windows_per_s, 1),
        p99_fold_us=round(p99_fold_us, 1),
        n_windows=len(windows),
        n_deliveries=len(plan),
        n_duplicates=session.scorer.n_duplicates,
    )
    print()
    print(
        f"Service ingestion ({scale}): {len(plan)} deliveries of "
        f"{len(windows)} windows ({session.scorer.n_duplicates} dups refused) "
        f"in {ingest_wall:.2f}s = {windows_per_s:,.0f} windows/s, "
        f"p99 fold {p99_fold_us:.0f}us; finalize {finalize_wall:.2f}s, "
        f"push-vs-batch identity={'ok' if identity_ok else 'FAILED'}"
    )
    assert session.scorer.n_duplicates > 0
    assert identity_ok
