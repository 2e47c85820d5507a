"""Cluster backend smoke: localhost scaling, coordinator overhead, recovery.

Four cells:

* **scaling** — the Figure-6 experiment on serial vs ``cluster:1`` vs
  ``cluster:2`` localhost workers; every point must be bitwise-identical
  to the serial reference, and the curve is recorded so the coordinator's
  dispatch cost is visible across PRs.
* **overhead** — the same run on ``cluster:2`` vs ``process:2``, zero
  faults: the TCP coordinator's no-fault overhead vs the in-box pool.
  Target **<10%**; asserted only when the process wall is large enough
  for the ratio to mean anything (tiny CI runs record, larger runs gate).
* **Table 1 identity** — all three paper blocks via one incremental sweep
  on the cluster backend, fingerprint-equal to serial block by block.
* **kill-half recovery** — 2 workers, one killed mid-run: the map must
  finish on the survivor with bitwise-identical outcomes; the recovery
  wall and re-dispatch counters are recorded.

Records ``{wall_s, speedup, identity_ok, ...}`` into the file
``bench_utils.bench_results_path()`` names.

Run:  REPRO_SCALE=tiny PYTHONPATH=src python -m pytest -q -s benchmarks/bench_cluster.py
"""

from __future__ import annotations

import hashlib
import threading
import time

from repro.experiments.config import scale_from_env

from bench_utils import record_bench


def _fingerprint(result) -> str:
    keys = [
        (o.strategy, o.replication, o.improvement, o.distortion,
         o.glitch_index_dirty, o.glitch_index_treated, o.cost_fraction,
         tuple(sorted((g.name, v) for g, v in o.dirty_fractions.items())),
         tuple(sorted((g.name, v) for g, v in o.treated_fractions.items())))
        for o in result.outcomes
    ]
    return hashlib.sha1(repr(keys).encode()).hexdigest()


def _best_of(fn, rounds=2):
    """One untimed warm-up, then the best of *rounds* timed runs."""
    fn()
    walls = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        walls.append(time.perf_counter() - t0)
    return min(walls), out


def _figure6_inputs():
    from repro.cleaning.registry import strategy_by_name
    from repro.experiments.config import build_population, experiment_config

    scale = scale_from_env(default="small")
    bundle = build_population(scale=scale, seed=0)
    cfg = experiment_config(scale)
    strategies = [strategy_by_name("strategy1"), strategy_by_name("strategy4")]
    return scale, bundle, cfg, strategies


def test_cluster_scaling_and_identity():
    """Serial vs 1 vs 2 localhost workers: same bits, recorded curve."""
    from repro.core.cluster import ClusterBackend
    from repro.experiments.paper import run_figure6

    scale, bundle, cfg, strategies = _figure6_inputs()

    def run(backend=None):
        return run_figure6(bundle, config=cfg, strategies=strategies,
                           backend=backend)

    serial_wall, serial = _best_of(run)
    reference = _fingerprint(serial)

    curve = {"serial": round(serial_wall, 4)}
    identity_ok = True
    degraded = 0
    for n in (1, 2):
        backend = ClusterBackend(n_workers=n)
        try:
            wall, result = _best_of(lambda: run(backend))
        finally:
            backend.close()
        curve[f"cluster:{n}"] = round(wall, 4)
        identity_ok = identity_ok and _fingerprint(result) == reference
        degraded += (backend.last_map_stats or {}).get("n_degraded_units", 0)

    record_bench(
        "bench_cluster_scaling",
        wall_s=curve["cluster:2"],
        speedup=serial_wall / max(curve["cluster:2"], 1e-9),
        identity_ok=identity_ok,
        curve=curve,
    )
    print()
    print(f"Cluster scaling ({scale}): " + ", ".join(
        f"{k} {v:.2f}s" for k, v in curve.items()
    ) + f", identity={'ok' if identity_ok else 'FAILED'}")
    assert identity_ok
    assert degraded == 0  # the curve measured real remote execution


def test_cluster_overhead_vs_process():
    """No faults: the TCP coordinator must stay close to the in-box pool."""
    from repro.core.cluster import ClusterBackend
    from repro.core.executor import ProcessBackend
    from repro.experiments.paper import run_figure6

    scale, bundle, cfg, strategies = _figure6_inputs()

    def run(backend):
        return run_figure6(bundle, config=cfg, strategies=strategies,
                           backend=backend)

    process_wall, process_result = _best_of(
        lambda: run(ProcessBackend(n_workers=2, min_units=1))
    )
    backend = ClusterBackend(n_workers=2, min_units=1)
    try:
        cluster_wall, cluster_result = _best_of(lambda: run(backend))
    finally:
        backend.close()

    identity_ok = _fingerprint(cluster_result) == _fingerprint(process_result)
    overhead = cluster_wall / max(process_wall, 1e-9)
    record_bench(
        "bench_cluster_overhead",
        wall_s=cluster_wall,
        identity_ok=identity_ok,
        overhead_ratio=round(overhead, 4),
        process_wall_s=round(process_wall, 4),
    )
    print()
    print(
        f"Cluster coordinator overhead ({scale}): process:2 {process_wall:.3f}s, "
        f"cluster:2 {cluster_wall:.3f}s ({(overhead - 1) * 100:+.1f}%, "
        f"target <10%), identity={'ok' if identity_ok else 'FAILED'}"
    )
    assert identity_ok
    # Sub-second walls are dominated by pool/worker start-up noise; the
    # recorded ratio is always the signal, the gate fires at bench scale.
    if process_wall >= 0.5:
        assert overhead < 1.10


def test_table1_identity_on_cluster():
    """All three Table 1 blocks through the cluster sweep, block-for-block
    identical to serial."""
    from repro.core.cluster import ClusterBackend
    from repro.experiments.paper import run_table1

    scale, bundle, cfg, _ = _figure6_inputs()

    serial = run_table1(bundle, base_config=cfg)
    reference = {name: _fingerprint(serial[name]) for name in serial.keys()}

    backend = ClusterBackend(n_workers=2)
    t0 = time.perf_counter()
    try:
        clustered = run_table1(bundle, backend=backend, base_config=cfg)
    finally:
        backend.close()
    wall = time.perf_counter() - t0

    identity_ok = all(
        _fingerprint(clustered[name]) == reference[name] for name in reference
    )
    record_bench(
        "bench_cluster_table1",
        wall_s=wall,
        identity_ok=identity_ok,
        n_blocks=len(reference),
    )
    print()
    print(
        f"Table 1 on cluster:2 ({scale}): {len(reference)} blocks in "
        f"{wall:.2f}s, identity={'ok' if identity_ok else 'FAILED'}"
    )
    assert identity_ok


def test_kill_half_recovery_wall():
    """Kill one of two workers mid-run: finish on the survivor, same bits."""
    from repro.core.cluster import ClusterBackend, start_local_workers
    from repro.experiments.paper import run_figure6

    scale, bundle, cfg, strategies = _figure6_inputs()

    def run(backend=None):
        return run_figure6(bundle, config=cfg, strategies=strategies,
                           backend=backend)

    reference = _fingerprint(run())

    workers = start_local_workers(2)
    backend = ClusterBackend(
        addresses=[w.address for w in workers], lease_ttl=2.0
    )
    try:
        clean_wall, clean = _best_of(lambda: run(backend), rounds=1)
        assert _fingerprint(clean) == reference

        killer = threading.Timer(
            max(0.05, 0.3 * clean_wall), workers[0].terminate
        )
        killer.start()
        t0 = time.perf_counter()
        try:
            survived = run(backend)
        finally:
            killer.cancel()
        recovery_wall = time.perf_counter() - t0
    finally:
        backend.close()
        for w in workers:
            w.terminate()

    stats = backend.last_map_stats or {}
    identity_ok = _fingerprint(survived) == reference
    record_bench(
        "bench_cluster_kill_half",
        wall_s=recovery_wall,
        identity_ok=identity_ok,
        clean_wall_s=round(clean_wall, 4),
        n_dead_links=stats.get("n_dead_links", 0),
        n_requeued=stats.get("n_requeued", 0),
        n_degraded_units=stats.get("n_degraded_units", 0),
    )
    print()
    print(
        f"Kill-half recovery ({scale}): clean {clean_wall:.2f}s, one worker "
        f"killed mid-run -> {recovery_wall:.2f}s "
        f"({stats.get('n_requeued', 0)} unit(s) re-dispatched, "
        f"{stats.get('n_dead_links', 0)} dead link(s)), "
        f"identity={'ok' if identity_ok else 'FAILED'}"
    )
    assert identity_ok
    assert stats.get("n_degraded_units", 0) == 0  # survivor finished the map
