"""Resilience smoke: wrapper overhead with zero faults + identity under faults.

Two cells:

* **overhead** — the same in-memory experiment run with the retry wrapper
  disabled (``REPRO_RETRIES=1`` makes :func:`~repro.core.resilience.resilient`
  return the unit function unchanged) vs enabled (default three attempts),
  zero faults injected either way.  The wrapper is a no-op closure on the
  hot path, so the target is **<2% wall overhead**. The overhead is the
  median of per-pair ``wrapped / bare`` wall ratios over
  :data:`OVERHEAD_PAIRS` back-to-back pairs, alternating which side runs
  first, so slow drift of a shared host cancels within each pair and one
  noisy run moves no more than one ratio. The assertion still allows 15%:
  single ~0.1 s runs at tiny scale wobble by ±5-10%.
* **identity under faults** — a streaming (spilling) run and a
  catalog-backed sweep repeated under the representative deterministic
  plan ``unit:2,slab.torn:1,catalog.locked:1``.  Every injected failure
  must be absorbed — retried, regenerated, or re-dispatched — with
  outcomes **bitwise-identical** to the clean runs.

Records ``{wall_s, overhead_ratio, identity_ok}`` into the file
``bench_utils.bench_results_path()`` names.

Run:  REPRO_SCALE=tiny PYTHONPATH=src python -m pytest -q -s benchmarks/bench_faults.py
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time

from repro.experiments.config import scale_from_env

from bench_utils import record_bench

FAULT_PLAN = "unit:2,slab.torn:1,catalog.locked:1"

#: Timed (bare, wrapped) pairs behind the overhead median.
OVERHEAD_PAIRS = 9


def _fingerprint(result) -> str:
    keys = [
        (o.strategy, o.replication, o.improvement, o.distortion,
         o.glitch_index_dirty, o.glitch_index_treated, o.cost_fraction,
         tuple(sorted((g.name, v) for g, v in o.dirty_fractions.items())),
         tuple(sorted((g.name, v) for g, v in o.treated_fractions.items())))
        for o in result.outcomes
    ]
    return hashlib.sha1(repr(keys).encode()).hexdigest()


def _timed(fn, retries):
    """Wall and result of one run of *fn* with ``REPRO_RETRIES`` set to
    *retries* (``None`` unsets it: the default three attempts)."""
    if retries is None:
        os.environ.pop("REPRO_RETRIES", None)
    else:
        os.environ["REPRO_RETRIES"] = retries
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def test_retry_wrapper_overhead():
    """Retries enabled vs disabled, zero faults: same bits, ~same wall."""
    from repro.cleaning.registry import strategy_by_name
    from repro.core.framework import ExperimentRunner
    from repro.experiments.config import build_population, experiment_config

    scale = scale_from_env(default="small")
    bundle = build_population(scale=scale, seed=0)
    cfg = experiment_config(scale)
    strategies = [strategy_by_name("strategy1"), strategy_by_name("strategy4")]

    def run():
        runner = ExperimentRunner(bundle.dirty, bundle.ideal, config=cfg)
        return runner.run(strategies)

    bare_retries = "1"  # wrapper compiled away
    wrapped_retries = None  # default: 3 attempts
    saved = os.environ.get("REPRO_RETRIES")
    bare_walls, wrapped_walls, ratios = [], [], []
    try:
        # One untimed warm-up of each side, then pairs that alternate
        # which side runs first.
        _, bare = _timed(run, bare_retries)
        _, wrapped = _timed(run, wrapped_retries)
        for i in range(OVERHEAD_PAIRS):
            if i % 2 == 0:
                bare_wall, _ = _timed(run, bare_retries)
                wrapped_wall, _ = _timed(run, wrapped_retries)
            else:
                wrapped_wall, _ = _timed(run, wrapped_retries)
                bare_wall, _ = _timed(run, bare_retries)
            bare_walls.append(bare_wall)
            wrapped_walls.append(wrapped_wall)
            ratios.append(wrapped_wall / max(bare_wall, 1e-9))
    finally:
        if saved is None:
            os.environ.pop("REPRO_RETRIES", None)
        else:
            os.environ["REPRO_RETRIES"] = saved

    identity_ok = _fingerprint(bare) == _fingerprint(wrapped)
    overhead = statistics.median(ratios)
    bare_wall = statistics.median(bare_walls)
    wrapped_wall = statistics.median(wrapped_walls)
    record_bench(
        "bench_faults_overhead",
        wall_s=wrapped_wall,
        identity_ok=identity_ok,
        overhead_ratio=round(overhead, 4),
        bare_wall_s=round(bare_wall, 4),
    )
    print()
    print(
        f"Retry wrapper overhead ({scale}): median bare {bare_wall:.3f}s, "
        f"wrapped {wrapped_wall:.3f}s, median pair ratio "
        f"{(overhead - 1) * 100:+.1f}% over {OVERHEAD_PAIRS} pairs "
        f"(target <2%), identity={'ok' if identity_ok else 'FAILED'}"
    )
    assert identity_ok
    # Target is <2%; the gate is loose only because single wall clocks on
    # a shared box wobble — the recorded median ratio is the signal.
    assert overhead < 1.15


def test_identity_under_faults(tmp_path):
    """A representative fault plan must not move a single float."""
    from repro.cleaning.registry import strategy_by_name
    from repro.core.streaming import StreamingExperiment
    from repro.experiments.config import experiment_config
    from repro.experiments.sweep import SweepCell, run_sweep
    from repro.store.catalog import Catalog
    from repro.testing.faults import FaultPlan, install_plan

    scale = scale_from_env(default="small")
    strategies = (strategy_by_name("strategy1"), strategy_by_name("strategy4"))
    cfg = experiment_config(scale)
    cells = [
        SweepCell(name=f"cell{i}", config=cfg.variant(seed=5 + i),
                  strategies=strategies, scale=scale, seed=0)
        for i in range(2)
    ]

    def stream(spill_dir):
        engine = StreamingExperiment.from_scale(
            scale, seed=0, spill_dir=os.fspath(spill_dir)
        )
        return engine.run(list(strategies))

    clean_stream = _fingerprint(stream(tmp_path / "clean-slabs"))
    with Catalog(os.fspath(tmp_path / "clean.sqlite")) as cat:
        clean_sweep = run_sweep(cells, catalog=cat, name="faults")
    clean_cells = {c.name: _fingerprint(clean_sweep[c.name]) for c in cells}

    previous = install_plan(FaultPlan.parse(FAULT_PLAN))
    t0 = time.perf_counter()
    try:
        faulted_stream = _fingerprint(stream(tmp_path / "faulted-slabs"))
        with Catalog(os.fspath(tmp_path / "faulted.sqlite")) as cat:
            faulted_sweep = run_sweep(cells, catalog=cat, name="faults")
    finally:
        install_plan(previous)
    faulted_wall = time.perf_counter() - t0

    identity_ok = faulted_stream == clean_stream and all(
        _fingerprint(faulted_sweep[c.name]) == clean_cells[c.name]
        for c in cells
    )
    record_bench(
        "bench_faults_identity",
        wall_s=faulted_wall,
        identity_ok=identity_ok,
        fault_plan=FAULT_PLAN,
        sweep_failed=faulted_sweep.n_failed,
    )
    print()
    print(
        f"Identity under faults ({scale}, plan {FAULT_PLAN!r}): "
        f"faulted pass {faulted_wall:.2f}s, "
        f"{faulted_sweep.n_failed} failed cells, "
        f"identity={'ok' if identity_ok else 'FAILED'}"
    )
    assert faulted_sweep.n_failed == 0
    assert identity_ok
