"""Cleaning-throughput smoke: columnar block path vs per-series loop.

Runs the same experiment twice — once on per-series pairs (the sampled
pairs with their blocks dropped, the reference path) and once on the default
columnar fast path — and asserts the two contracts the SampleBlock layer
makes:

* **identity**: every ``StrategyOutcome`` field is bitwise-identical between
  the two layouts;
* **throughput**: the block path's wall clock does not regress below the
  loop path's (best-of-N on both sides to keep the tiny CI scale stable).

Runs at tiny scale inside the CI bench smoke on every push, and records
``{wall_s, speedup, identity_ok}`` into the file
``bench_utils.bench_results_path()`` names.

Run:  REPRO_SCALE=tiny PYTHONPATH=src python -m pytest -q -s benchmarks/bench_block.py
"""

from __future__ import annotations

import time

from repro.cleaning.registry import paper_strategies
from repro.core.framework import ExperimentRunner, run_pair_panels_stream
from repro.sampling import replication
from repro.sampling.replication import generate_test_pairs

from bench_utils import record_bench

#: Best-of rounds per path — enough to iron out CI timer noise at tiny scale.
ROUNDS = 3


def _run_block(bundle, config):
    runner = ExperimentRunner(bundle.dirty, bundle.ideal, config=config)
    return runner.run(paper_strategies())


def _run_loop(bundle, config):
    pairs = (
        replication.TestPair(index=p.index, dirty=p.dirty, ideal=p.ideal)
        for p in generate_test_pairs(
            bundle.dirty,
            bundle.ideal,
            config.n_replications,
            config.sample_size,
            seed=config.seed,
        )
    )
    return run_pair_panels_stream(pairs, [paper_strategies()], config)[0]


def _timed_best(run, bundle, config, rounds=ROUNDS):
    result, best = None, float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        result = run(bundle, config)
        best = min(best, time.perf_counter() - start)
    return result, best


def _outcome_key(o):
    return (
        o.strategy,
        o.replication,
        o.improvement,
        o.distortion,
        o.glitch_index_dirty,
        o.glitch_index_treated,
        o.cost_fraction,
        tuple(sorted((g.name, v) for g, v in o.dirty_fractions.items())),
        tuple(sorted((g.name, v) for g, v in o.treated_fractions.items())),
    )


def test_block_fastpath_identity_and_throughput(bundle, config):
    # Warm both paths once (imports, allocator, BLAS thread spin-up) so the
    # timed rounds compare steady-state work.
    _run_block(bundle, config)
    _run_loop(bundle, config)

    loop_result, loop_s = _timed_best(_run_loop, bundle, config)
    block_result, block_s = _timed_best(_run_block, bundle, config)

    loop_keys = [_outcome_key(o) for o in loop_result.outcomes]
    block_keys = [_outcome_key(o) for o in block_result.outcomes]
    identity_ok = loop_keys == block_keys
    speedup = loop_s / block_s
    record_bench(
        "bench_block",
        wall_s=block_s,
        speedup=speedup,
        identity_ok=identity_ok,
        loop_wall_s=round(loop_s, 4),
    )
    print()
    print(
        f"Block fast path: R={config.n_replications}, B={config.sample_size} | "
        f"loop {loop_s:.3f}s, block {block_s:.3f}s, {speedup:.2f}x, "
        f"identity={'ok' if identity_ok else 'FAILED'}"
    )
    # The identity contract: the columnar layout replays the exact same
    # floating-point computation — not approximately, identically.
    assert identity_ok
    # The throughput contract: the fast path must not regress below the
    # per-series loop it replaces.
    assert speedup >= 1.0, f"block path slower than loop: {speedup:.2f}x"
