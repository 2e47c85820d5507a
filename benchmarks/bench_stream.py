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

A second, in-process cell ablates the *distance layer itself*: streamed
(``statistical_distortion_stream`` — frozen-grid count folding / ECDF
sketches, no pooled arrays) against pooled
(``Distance.pairwise``) for EMD, KL, JS and KS on one synthetic panel,
asserting the exact-regime identity contract and recording the walls.

Records ``{wall_s, block_wall_s, rss_ratio, identity_ok}`` per distance and
the ablation cell into the file ``bench_utils.bench_results_path()`` names.

Run:  REPRO_SCALE=small PYTHONPATH=src python -m pytest -q -s benchmarks/bench_stream.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
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


#: Distance-ablation panel sizes: (reference rows, candidate rows, dims).
_ABLATION_SHAPE = {"tiny": (2_000, 1_500, 3), "small": (20_000, 15_000, 3)}
_ABLATION_SHAPE["paper"] = _ABLATION_SHAPE["small"]


def test_distance_ablation_streamed_vs_pooled():
    """EMD vs KL vs JS vs KS, streamed vs pooled, one synthetic panel.

    The exact-regime contract (identity frame, candidates inside the
    reference support): the streamed value must equal the pooled value
    **bitwise** for every distance — frozen-grid count folding and exact
    sketch merging are lossless. Walls are recorded per distance so the
    relative cost of the divergences stays visible across PRs.
    """
    from repro.core.distortion import slab_streams, statistical_distortion_stream
    from repro.distance import distance_by_name

    n_ref, n_cand, dims = _ABLATION_SHAPE[scale_from_env(default="small")]
    rng = np.random.default_rng(0)
    p = rng.gamma(1.5, 2.0, size=(n_ref, dims)) + rng.normal(0, 1, size=(n_ref, dims))
    perm = rng.permutation(n_ref)
    qs = [p[perm][:n_cand], p[perm[::-1]][:n_cand]]
    width = max(256, n_ref // 16)

    configs = {
        "emd": dict(n_bins=8, standardize=False, exact_1d=False),
        "kl": dict(n_bins=8, binning="uniform", standardize=False),
        "js": dict(n_bins=8, binning="uniform", standardize=False),
        "ks": {},
    }
    cell = {}
    print()
    for name, kwargs in configs.items():
        distance = distance_by_name(name, **kwargs)
        t0 = time.perf_counter()
        pooled = distance.pairwise(p, qs)
        pooled_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref_slabs, paired = slab_streams(p, qs, width)
        streamed = statistical_distortion_stream(
            ref_slabs, paired, n_candidates=2, distance=distance
        )
        stream_wall = time.perf_counter() - t0
        identical = streamed == pooled
        cell[name] = {
            "pooled_wall_s": round(pooled_wall, 4),
            "stream_wall_s": round(stream_wall, 4),
            "value": round(pooled[0], 6),
            "identity_ok": identical,
        }
        print(
            f"  {name:3s}: pooled {pooled_wall:6.3f}s, streamed {stream_wall:6.3f}s, "
            f"value {pooled[0]:.4f}, streamed==pooled: {identical}"
        )
        assert identical, f"{name}: streamed {streamed} != pooled {pooled}"
    record_bench(
        "bench_stream_distances",
        wall_s=sum(v["stream_wall_s"] for v in cell.values()),
        identity_ok=all(v["identity_ok"] for v in cell.values()),
        **{f"{k}_{kk}": vv for k, v in cell.items() for kk, vv in v.items()},
    )
