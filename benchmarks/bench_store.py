"""Persistent-store smoke: experiment catalog reuse + mmap-vs-npz spill.

Two cells, mirroring the two halves of the storage layer:

* **cold vs warm catalog** — the same ``run_experiment`` call twice against
  one :class:`~repro.store.catalog.Catalog`. The cold pass builds the
  population and scores the cell; the warm pass must be served from the
  catalog (``cat.hits == 1``) with a **bitwise-identical** outcome list and
  without building the population at all. Records the warm-over-cold
  speedup — the headline win of recipe-keyed reuse.
* **mmap vs npz spill** — one spilled population scanned selectively
  (per-shard lengths plus a single values row), once through the columnar
  memory-mapped format (:mod:`repro.store.shards`) and once through an
  ``.npz`` copy of the same data (the PR 4 format, rebuilt here for
  comparison). A prep subprocess materialises and spills both formats;
  each scan then runs in its own **fresh** subprocess (materialising in the
  measuring process would leave freed allocator pages resident, hiding the
  npz copies under the old watermark). The mmap path faults in just the
  touched pages, while ``np.load`` materialises whole member arrays. The
  checksum of the scanned bytes must agree across formats (``float64``
  round-trips bitwise through both); the RSS ratio is recorded without a
  strict threshold — at tiny scale the deltas sit near allocator noise.

Records ``{wall_s, speedup, identity_ok}`` (catalog cell) and
``{rss_ratio, identity_ok}`` (spill cell) into the file
``bench_utils.bench_results_path()`` names.

Run:  REPRO_SCALE=tiny PYTHONPATH=src python -m pytest -q -s benchmarks/bench_store.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

from repro.experiments.config import scale_from_env

from bench_utils import record_bench

#: Spill-bench population per scale: (generator kwargs, shard_size).
SPILL_SIZES = {
    "tiny": (
        dict(n_rnc=2, towers_per_rnc=5, sectors_per_tower=20,
             series_length=60, min_length=60),
        25,
    ),
    "small": (
        dict(n_rnc=4, towers_per_rnc=10, sectors_per_tower=20,
             series_length=170, min_length=170),
        100,
    ),
}
SPILL_SIZES["paper"] = SPILL_SIZES["small"]


def _fingerprint(result) -> str:
    """Bitwise identity of an outcome list (the bench_stream reduction)."""
    keys = [
        (o.strategy, o.replication, o.improvement, o.distortion,
         o.glitch_index_dirty, o.glitch_index_treated, o.cost_fraction,
         tuple(sorted((g.name, v) for g, v in o.dirty_fractions.items())),
         tuple(sorted((g.name, v) for g, v in o.treated_fractions.items())))
        for o in result.outcomes
    ]
    return hashlib.sha1(repr(keys).encode()).hexdigest()


def test_catalog_cold_vs_warm(tmp_path):
    """A repeated sweep cell is a catalog hit, bitwise-identical, and fast."""
    from repro.experiments.paper import run_experiment
    from repro.store.catalog import Catalog

    scale = scale_from_env(default="small")
    with Catalog(os.fspath(tmp_path / "catalog.sqlite")) as cat:
        t0 = time.perf_counter()
        cold = run_experiment(scale=scale, seed=0, catalog=cat)
        cold_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_experiment(scale=scale, seed=0, catalog=cat)
        warm_wall = time.perf_counter() - t0
        hits, misses = cat.hits, cat.misses

    identity_ok = _fingerprint(cold) == _fingerprint(warm)
    speedup = cold_wall / max(warm_wall, 1e-9)
    record_bench(
        "bench_store_catalog",
        wall_s=warm_wall,
        speedup=speedup,
        identity_ok=identity_ok,
        cold_wall_s=round(cold_wall, 4),
        catalog_hits=hits,
        catalog_misses=misses,
    )
    print()
    print(
        f"Catalog reuse ({scale}): cold {cold_wall:.2f}s, warm {warm_wall:.4f}s "
        f"({speedup:.0f}x), hits={hits}, misses={misses}, "
        f"identity={'ok' if identity_ok else 'FAILED'}"
    )
    # The reuse contract: exactly one miss (the cold pass), one hit (the
    # warm pass), and the served outcome is the stored one, bit for bit.
    assert identity_ok
    assert (hits, misses) == (1, 1)


_PREP = r"""
import glob, json, os, sys
import numpy as np
payload = json.loads(sys.argv[1])
from repro.data.generator import GeneratorConfig
from repro.data.slab import SlabFeed
from repro.store.shards import read_shard

feed = SlabFeed(
    generator_config=GeneratorConfig(**payload["generator"]),
    seed=0, shard_size=payload["shard_size"], spill=True,
    spill_dir=payload["dir"],
)
for _source, _series in feed.iter_series(spill=True):
    pass
paths = sorted(glob.glob(os.path.join(payload["dir"], "*.slab")))
for p in paths:
    # The same shards in the legacy whole-array format, for comparison.
    h = read_shard(p)
    np.savez(p + ".npz", lengths=np.asarray(h.lengths),
             values=np.asarray(h.values), truth=np.asarray(h.truth))
print(json.dumps({"n_shards": len(paths)}))
"""

_SCAN = r"""
import glob, hashlib, json, os, resource, sys, time
import numpy as np
mode, spill_dir = sys.argv[1], sys.argv[2]
from repro.store.shards import read_shard

paths = sorted(glob.glob(os.path.join(
    spill_dir, "*.npz" if mode == "npz" else "*.slab")))


def peak_rss_kb():
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


resettable = reset_peak()
rss0 = peak_rss_kb()
t0 = time.perf_counter()
digest = hashlib.sha1()
for p in paths:
    # The selective scan: per-series lengths plus one values row — the
    # access pattern of a consumer that inspects a shard without draining it.
    if mode == "npz":
        with np.load(p) as z:
            digest.update(np.asarray(z["lengths"]).tobytes())
            digest.update(np.asarray(z["values"][0]).tobytes())
    else:
        h = read_shard(p)
        digest.update(np.asarray(h.lengths).tobytes())
        digest.update(np.asarray(h.values[0]).tobytes())
wall = time.perf_counter() - t0
rss1 = peak_rss_kb()
print(json.dumps({
    "wall_s": wall,
    "rss_delta_kb": rss1 - rss0,
    "resettable": resettable,
    "checksum": digest.hexdigest(),
    "n_shards": len(paths),
}))
"""


def _run_child(script: str, *argv: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_spill_scan_mmap_vs_npz(tmp_path):
    """Selective scans over the two spill formats: same bytes, less memory."""
    generator, shard_size = SPILL_SIZES[scale_from_env(default="small")]
    payload = {
        "generator": generator, "shard_size": shard_size,
        "dir": str(tmp_path),
    }
    _run_child(_PREP, json.dumps(payload))
    mmap = _run_child(_SCAN, "mmap", str(tmp_path))
    npz = _run_child(_SCAN, "npz", str(tmp_path))

    identity_ok = mmap["checksum"] == npz["checksum"]
    rss_ratio = mmap["rss_delta_kb"] / max(npz["rss_delta_kb"], 1)
    record_bench(
        "bench_store_spill_scan",
        wall_s=mmap["wall_s"],
        identity_ok=identity_ok,
        npz_wall_s=round(npz["wall_s"], 4),
        mmap_rss_delta_kb=mmap["rss_delta_kb"],
        npz_rss_delta_kb=npz["rss_delta_kb"],
        rss_ratio=round(rss_ratio, 3),
        n_shards=mmap["n_shards"],
    )
    print()
    print(
        f"Spill scan over {mmap['n_shards']} shards: "
        f"mmap {mmap['wall_s']:.3f}s / {mmap['rss_delta_kb']} KiB peak, "
        f"npz {npz['wall_s']:.3f}s / {npz['rss_delta_kb']} KiB peak "
        f"(mmap/npz rss {rss_ratio:.2f}x), "
        f"identity={'ok' if identity_ok else 'FAILED'}"
    )
    # The format contract: both spill formats serve the same float64 bytes.
    # The RSS ratio is recorded, not asserted — at tiny scale the deltas sit
    # within allocator noise, and the memory contract proper is covered by
    # bench_stream's oversized-population cell.
    assert identity_ok
