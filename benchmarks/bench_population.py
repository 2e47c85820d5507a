"""Serial vs parallel population build (generate -> inject -> identify_ideal).

Measures the wall clock of `build_population` through the serial, thread and
process backends, verifies all three produce a *bitwise identical* bundle
(values, injection ledger, dirty/ideal split, fitted limits — the sharded
pipeline's determinism contract), and prints the speedup table. Two of the
three stages (generate and inject) are shard-parallel with per-series
pre-spawned streams, so on a machine with W free cores the process backend
approaches W× on that per-series work; identification runs serially after
them. On a single-core box the table will honestly show ~1× and the
identity check still exercises the sharded path end to end.

Run:  REPRO_SCALE=small PYTHONPATH=src python -m pytest -q -s benchmarks/bench_population.py
"""

from __future__ import annotations

import time

from repro.core.executor import ProcessBackend, SerialBackend, ThreadBackend
from repro.experiments.config import build_population

from bench_utils import print_speedup_table, run_once

#: Worker count the acceptance experiment pins (capped by available CPUs
#: inside the backends' ``map``).
N_WORKERS = 4


def _build(scale, backend):
    return build_population(scale=scale, seed=0, backend=backend)


def _timed(scale, backend):
    start = time.perf_counter()
    bundle = _build(scale, backend)
    return bundle, time.perf_counter() - start


def test_population_build_speedup(benchmark, scale):
    serial_bundle, serial_s = _timed(scale, SerialBackend())
    thread_bundle, thread_s = _timed(scale, ThreadBackend(N_WORKERS))
    process_bundle = run_once(
        benchmark, lambda: _build(scale, ProcessBackend(N_WORKERS))
    )
    process_s = benchmark.stats.stats.total

    # The determinism contract: every backend builds the exact same bundle —
    # not statistically equivalent, identical. `fingerprint` covers values,
    # injection ledger, dirty/ideal split and fitted limits.
    reference = serial_bundle.fingerprint()
    assert thread_bundle.fingerprint() == reference
    assert process_bundle.fingerprint() == reference

    print_speedup_table(
        f"Population build: scale={scale}, {len(serial_bundle.population)} series",
        serial_s,
        thread_s,
        process_s,
        N_WORKERS,
        identity_subject="bundle-identity",
    )
