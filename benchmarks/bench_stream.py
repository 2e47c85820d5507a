"""Out-of-core smoke: streaming slab engine vs materialised block path.

Runs the same oversized-population experiment twice — once through
``build_population`` + ``ExperimentRunner`` (the in-memory block path) and
once through the streaming slab engine — in **separate subprocesses**, so
each path's peak RSS is its own high-water mark, and asserts the two
contracts the engine makes *for every selectable distortion distance*
(EMD, KL, KS via ``ExperimentConfig(distance=...)``):

* **identity**: the outcome lists are bitwise-identical (compared by
  fingerprint across the process boundary);
* **memory**: the streaming path's workload peak RSS (the high-water delta
  above the post-import baseline) is *strictly below* the block path's —
  the whole point of running out of core.

The population is deliberately oversized relative to the replication needs
(thousands of series, a handful of replications), which is exactly the
regime the paper's stream setting describes: the block path materialises
everything, the engine touches at most ``2 x R x B`` series plus one spilled
shard at a time.

Records ``{wall_s, block_wall_s, rss_ratio, identity_ok}`` per distance
into the file ``bench_utils.bench_results_path()`` names.

Run:  REPRO_SCALE=small PYTHONPATH=src python -m pytest -q -s benchmarks/bench_stream.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.config import scale_from_env

from bench_utils import record_bench

#: Oversized-population settings per scale: many series, few replications.
#: (generator kwargs, n_replications, sample_size)
OVERSIZED = {
    "tiny": (
        dict(n_rnc=4, towers_per_rnc=10, sectors_per_tower=60,
             series_length=60, min_length=60),
        2,
        10,
    ),
    "small": (
        dict(n_rnc=4, towers_per_rnc=10, sectors_per_tower=100,
             series_length=170, min_length=170),
        3,
        20,
    ),
}
OVERSIZED["paper"] = OVERSIZED["small"]

_CHILD = r"""
import hashlib, json, resource, sys, time
mode, payload = sys.argv[1], json.loads(sys.argv[2])
from repro.cleaning.registry import strategy_by_name
from repro.core.framework import ExperimentConfig, ExperimentRunner
from repro.core.streaming import StreamingExperiment
from repro.data.generator import GeneratorConfig
from repro.experiments.config import build_population

gen = GeneratorConfig(**payload["generator"])
cfg = ExperimentConfig(
    n_replications=payload["R"], sample_size=payload["B"], seed=0,
    distance=payload.get("distance"),
)
strategies = [strategy_by_name(n) for n in payload["strategies"]]


def peak_rss_kb():
    # ru_maxrss survives fork+exec on Linux, so a child spawned from a fat
    # pytest process inherits the parent's high-water mark; prefer the
    # resettable VmHWM watermark when /proc exposes it.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def reset_peak():
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


reset_peak()
rss0 = peak_rss_kb()  # post-import residency: the workload baseline
t0 = time.perf_counter()
if mode == "block":
    bundle = build_population(scale="tiny", seed=0, generator_config=gen)
    result = ExperimentRunner(bundle.dirty, bundle.ideal, config=cfg).run(strategies)
else:
    result = StreamingExperiment(
        generator_config=gen, seed=0, config=cfg,
        shard_size=payload["shard_size"],
    ).run(strategies).result
wall = time.perf_counter() - t0
rss1 = peak_rss_kb()

keys = [
    (o.strategy, o.replication, o.improvement, o.distortion,
     o.glitch_index_dirty, o.glitch_index_treated, o.cost_fraction,
     tuple(sorted((g.name, v) for g, v in o.dirty_fractions.items())),
     tuple(sorted((g.name, v) for g, v in o.treated_fractions.items())))
    for o in result.outcomes
]
print(json.dumps({
    "wall_s": wall,
    "rss_kb": rss1,
    "rss_delta_kb": rss1 - rss0,
    "fingerprint": hashlib.sha1(repr(keys).encode()).hexdigest(),
}))
"""


def _run_child(mode: str, payload: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, json.dumps(payload)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("distance", [None, "kl", "ks"], ids=["emd", "kl", "ks"])
def test_streaming_memory_and_identity(distance):
    generator, n_replications, sample_size = OVERSIZED[scale_from_env(default="small")]
    n_series = (
        generator["n_rnc"]
        * generator["towers_per_rnc"]
        * generator["sectors_per_tower"]
    )
    payload = {
        "generator": generator,
        "R": n_replications,
        "B": sample_size,
        # The engine's memory knob: keep each slab ~1/16 of the population.
        "shard_size": max(50, n_series // 16),
        "strategies": ["strategy1", "strategy4"],
        "distance": distance,
    }
    block = _run_child("block", payload)
    stream = _run_child("stream", payload)

    label = distance or "emd"
    identity_ok = block["fingerprint"] == stream["fingerprint"]
    rss_ratio = stream["rss_delta_kb"] / max(block["rss_delta_kb"], 1)
    wall_ratio = stream["wall_s"] / block["wall_s"]
    record_bench(
        f"bench_stream[{label}]",
        wall_s=stream["wall_s"],
        identity_ok=identity_ok,
        block_wall_s=round(block["wall_s"], 4),
        wall_ratio=round(wall_ratio, 3),
        block_rss_delta_kb=block["rss_delta_kb"],
        stream_rss_delta_kb=stream["rss_delta_kb"],
        rss_ratio=round(rss_ratio, 3),
    )
    print()
    print(
        f"Streaming vs block (oversized population, distance={label}): "
        f"block {block['wall_s']:.2f}s / {block['rss_delta_kb'] / 1024:.0f} MiB peak, "
        f"stream {stream['wall_s']:.2f}s / {stream['rss_delta_kb'] / 1024:.0f} MiB peak "
        f"(rss {rss_ratio:.2f}x, wall {wall_ratio:.2f}x), "
        f"identity={'ok' if identity_ok else 'FAILED'}"
    )
    # The identity contract: the engine replays the exact same floats.
    assert identity_ok
    # The memory contract: out-of-core must beat materialise-everything —
    # for the new divergence distances exactly as for the paper's EMD.
    assert stream["rss_delta_kb"] < block["rss_delta_kb"], (
        f"streaming peak RSS {stream['rss_delta_kb']} KiB not below "
        f"block {block['rss_delta_kb']} KiB"
    )
