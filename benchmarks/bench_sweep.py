"""Incremental-sweep smoke: cold grouped sweep vs warm vs one-cell edit.

One sweep (the three Figure 6 panels over a shared population recipe) run
three ways against a single catalog:

* **cold** — nothing cached; the planner groups the cells by shared recipe
  and must build the population **exactly once** (asserted via the
  planner's build counter) instead of once per cell;
* **warm** — the identical sweep again; every cell must be served from the
  catalog with **zero recomputes** and no population build;
* **one-cell edit** — one panel's config changes; the planner must
  recompute **exactly the invalidated cell** and serve the rest.

Every variant's outcomes are asserted bitwise-identical to per-cell
from-scratch runs (``build_population`` + ``ExperimentRunner``, no catalog,
no sharing) — the sweep engine is a scheduler, never a numerics change.

Records ``{wall_s, speedup, identity_ok}`` (warm-over-cold) plus the cold /
edited walls and the recompute counters into the file
``bench_utils.bench_results_path()`` names.

Run:  REPRO_SCALE=tiny PYTHONPATH=src python -m pytest -q -s benchmarks/bench_sweep.py
"""

from __future__ import annotations

import hashlib
import os
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


def test_sweep_cold_warm_invalidated(tmp_path):
    """The planner's three-way contract: build once, serve all, redo one."""
    from repro.core.framework import ExperimentRunner
    from repro.experiments.config import build_population, experiment_config
    from repro.experiments.sweep import (
        SweepCell,
        cell_strategies,
        figure6_cells,
        run_sweep,
    )
    from repro.store.catalog import Catalog

    scale = scale_from_env(default="small")
    base = experiment_config(scale)
    cells = figure6_cells(scale=scale, seed=0, base_config=base)

    # Per-cell from-scratch reference: rebuild the population for every
    # cell, no catalog, no sharing — the layout the planner replaces.
    reference = {}
    t0 = time.perf_counter()
    for cell in cells:
        bundle = build_population(scale=scale, seed=0)
        runner = ExperimentRunner(bundle.dirty, bundle.ideal, config=cell.config)
        reference[cell.name] = _fingerprint(runner.run(cell_strategies(cell)))
    scratch_wall = time.perf_counter() - t0

    with Catalog(os.fspath(tmp_path / "catalog.sqlite")) as cat:
        t0 = time.perf_counter()
        cold = run_sweep(cells, catalog=cat, name="fig6")
        cold_wall = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm = run_sweep(cells, catalog=cat, name="fig6")
        warm_wall = time.perf_counter() - t0

        edited = list(cells)
        edited[1] = SweepCell(
            name=cells[1].name,
            config=cells[1].config.variant(sigma_k=2.5),
            scale=scale,
            seed=0,
        )
        t0 = time.perf_counter()
        one = run_sweep(edited, catalog=cat, name="fig6")
        one_wall = time.perf_counter() - t0

    identity_ok = all(
        _fingerprint(cold[name]) == reference[name]
        and _fingerprint(warm[name]) == reference[name]
        for name in reference
    ) and all(
        _fingerprint(one[c.name]) == reference[c.name]
        for c in edited
        if c.name != cells[1].name
    )
    speedup = cold_wall / max(warm_wall, 1e-9)
    record_bench(
        "bench_sweep",
        wall_s=warm_wall,
        speedup=speedup,
        identity_ok=identity_ok,
        scratch_wall_s=round(scratch_wall, 4),
        cold_wall_s=round(cold_wall, 4),
        one_cell_wall_s=round(one_wall, 4),
        cold_builds=cold.n_builds,
        warm_recomputed=warm.n_recomputed,
        one_cell_recomputed=one.n_recomputed,
    )
    print()
    print(
        f"Incremental sweep ({scale}, {len(cells)} cells): "
        f"scratch {scratch_wall:.2f}s, cold {cold_wall:.2f}s "
        f"({cold.n_builds} build), warm {warm_wall:.4f}s ({speedup:.0f}x, "
        f"{warm.n_recomputed} recomputed), one-cell edit {one_wall:.2f}s "
        f"({one.n_recomputed} recomputed: {one.recomputed()}), "
        f"identity={'ok' if identity_ok else 'FAILED'}"
    )
    # The grouping contract: one shared population build for the whole
    # cold sweep (the from-scratch layout builds it once per cell).
    assert cold.n_builds == 1
    assert cold.n_recomputed == len(cells)
    # The serving contract: a warm unchanged sweep recomputes nothing.
    assert warm.n_recomputed == 0 and warm.n_builds == 0
    assert warm.n_hits == len(cells)
    # The invalidation contract: a single-cell config edit recomputes
    # exactly the invalidated cell, and the diff names it.
    assert one.recomputed() == [cells[1].name]
    assert one.n_hits == len(cells) - 1
    assert list(one.diff.changed) == [cells[1].name]
    # And none of it is allowed to move a float.
    assert identity_ok
