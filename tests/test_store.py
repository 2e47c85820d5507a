"""Persistent store tests: columnar shard files, spill hygiene, the catalog.

Covers the storage layer end to end — shard round-trips on edge shapes
(empty, zero-length, ragged, non-finite cells) stay bitwise through the
memory map; ``load_slab`` refuses stale or foreign spill files; tmp
stragglers never count as store contents; eviction trades disk for compute
without changing a number; and the SQLite catalog serves repeated sweep
cells back bitwise-identically without rebuilding the population.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile

import numpy as np
import pytest

from repro.cleaning.registry import paper_strategies
from repro.core.framework import ExperimentConfig
from repro.core.streaming import StreamingExperiment
from repro.data.generator import GeneratorConfig
from repro.data.slab import SlabFeed, load_slab
from repro.data.topology import NodeId
from repro.errors import (
    DataShapeError,
    ExperimentError,
    StoreError,
    StoreWarning,
    ValidationError,
)
from repro.experiments.config import experiment_config
from repro.experiments.paper import run_experiment, run_figure6, run_table1
from repro.store.catalog import (
    CATALOG_BUDGET_ENV_VAR,
    CATALOG_ENV_VAR,
    Catalog,
    experiment_key,
    population_recipe_key,
    resolve_catalog,
)
from repro.store.shards import SHARD_SUFFIX, read_shard, write_shard


def _key(o):
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


def _keys(result):
    return [_key(o) for o in result.outcomes]


def _nodes(n):
    return [NodeId(0, 0, k) for k in range(n)]


# ---------------------------------------------------------------------------
# Shard file round-trips
# ---------------------------------------------------------------------------


class TestShardRoundTrip:
    def test_uniform_bitwise(self, tmp_path):
        path = str(tmp_path / f"shard{SHARD_SUFFIX}")
        rng = np.random.default_rng(0)
        values = rng.normal(size=(12, 3))
        truth = rng.normal(size=(12, 3))
        lengths = np.array([4, 4, 4], dtype=np.int64)
        write_shard(path, lengths, values, truth=truth, fingerprint="fp",
                    attributes=("a", "b", "c"))
        handle = read_shard(path)
        assert handle.fingerprint == "fp"
        assert handle.attributes == ("a", "b", "c")
        assert handle.n_series == 3
        assert handle.uniform
        assert np.asarray(handle.values).tobytes() == values.tobytes()
        assert np.asarray(handle.truth).tobytes() == truth.tobytes()
        assert np.asarray(handle.lengths).tobytes() == lengths.tobytes()

    def test_empty_shard(self, tmp_path):
        path = str(tmp_path / f"empty{SHARD_SUFFIX}")
        write_shard(
            path,
            np.empty(0, dtype=np.int64),
            np.empty((0, 3)),
            fingerprint="fp",
        )
        handle = read_shard(path)
        assert handle.n_series == 0
        assert handle.series([]) == []
        assert handle.block([]).values.shape == (0, 0, 3)

    def test_zero_length_series(self, tmp_path):
        path = str(tmp_path / f"zl{SHARD_SUFFIX}")
        values = np.arange(15.0).reshape(5, 3)
        lengths = np.array([0, 5, 0], dtype=np.int64)
        write_shard(path, lengths, values)
        series = read_shard(path).series(_nodes(3))
        assert [s.length for s in series] == [0, 5, 0]
        assert series[1].values.tobytes() == values.tobytes()

    def test_ragged_nonfinite_bitwise(self, tmp_path):
        """NaN payloads, signed zeros and infinities survive the map."""
        path = str(tmp_path / f"ragged{SHARD_SUFFIX}")
        values = np.array(
            [
                [np.nan, -0.0, np.inf],
                [0.0, -np.inf, 5e-324],  # smallest subnormal
                [1.0, np.nan, -0.0],
            ]
        )
        lengths = np.array([1, 2], dtype=np.int64)
        write_shard(path, lengths, values)
        handle = read_shard(path)
        assert not handle.uniform
        series = handle.series(_nodes(2))
        restored = np.concatenate([s.values for s in series])
        assert restored.tobytes() == values.tobytes()

    def test_series_are_zero_copy_views(self, tmp_path):
        path = str(tmp_path / f"zc{SHARD_SUFFIX}")
        values = np.arange(24.0).reshape(8, 3)
        write_shard(path, np.array([4, 4], dtype=np.int64), values)
        handle = read_shard(path)
        series = handle.series(_nodes(2))
        assert all(np.shares_memory(s.values, handle.values) for s in series)
        block = handle.block(_nodes(2))
        assert np.shares_memory(block.values, handle.values)

    def test_block_requires_uniform(self, tmp_path):
        path = str(tmp_path / f"rg{SHARD_SUFFIX}")
        write_shard(
            path, np.array([1, 2], dtype=np.int64), np.arange(9.0).reshape(3, 3)
        )
        with pytest.raises(DataShapeError):
            read_shard(path).block(_nodes(2))

    def test_shape_validation(self, tmp_path):
        path = str(tmp_path / f"bad{SHARD_SUFFIX}")
        with pytest.raises(DataShapeError):
            write_shard(path, np.array([3], dtype=np.int64), np.zeros((2, 3)))
        with pytest.raises(DataShapeError):
            write_shard(
                path, np.array([2], dtype=np.int64), np.zeros((2, 3)),
                truth=np.zeros((1, 3)),
            )

    def test_write_is_atomic(self, tmp_path):
        path = str(tmp_path / f"atomic{SHARD_SUFFIX}")
        write_shard(path, np.array([1], dtype=np.int64), np.zeros((1, 3)))
        assert os.listdir(tmp_path) == [os.path.basename(path)]


class TestShardRejection:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / f"legacy{SHARD_SUFFIX}"
        path.write_bytes(b"PK\x03\x04 definitely a zip")
        with pytest.raises(StoreError, match="not a columnar shard"):
            read_shard(str(path))

    def test_truncated_header(self, tmp_path):
        good = tmp_path / f"good{SHARD_SUFFIX}"
        write_shard(str(good), np.array([1], dtype=np.int64), np.zeros((1, 3)))
        torn = tmp_path / f"torn{SHARD_SUFFIX}"
        torn.write_bytes(good.read_bytes()[:14])
        with pytest.raises(StoreError, match="truncated"):
            read_shard(str(torn))

    def test_truncated_segment(self, tmp_path):
        good = tmp_path / f"good{SHARD_SUFFIX}"
        write_shard(str(good), np.array([4], dtype=np.int64), np.zeros((4, 3)))
        torn = tmp_path / f"torn{SHARD_SUFFIX}"
        torn.write_bytes(good.read_bytes()[:-16])
        with pytest.raises(StoreError, match="past end of file"):
            read_shard(str(torn))

    def test_missing_file(self, tmp_path):
        with pytest.raises(StoreError, match="unreadable"):
            read_shard(str(tmp_path / "absent.slab"))

    def test_oversized_header_length(self, tmp_path):
        path = tmp_path / f"huge{SHARD_SUFFIX}"
        write_shard(str(path), np.array([2], dtype=np.int64), np.zeros((2, 3)))
        data = bytearray(path.read_bytes())
        data[10:18] = struct.pack("<Q", 1 << 62)
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="header length"):
            read_shard(str(path))

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda h: [h], id="list-header"),
            pytest.param(lambda h: {**h, "segments": 5}, id="segments-not-list"),
            pytest.param(lambda h: {**h, "attributes": 5}, id="attributes-not-list"),
            pytest.param(lambda h: _seg(h, 0, name=None), id="segment-without-name"),
            pytest.param(lambda h: _seg(h, 1, name="colour"), id="unknown-segment"),
            pytest.param(lambda h: _seg(h, 1, name="lengths"), id="repeated-segment"),
            pytest.param(lambda h: _seg(h, 1, dtype="<c16"), id="unknown-dtype"),
            pytest.param(lambda h: _seg(h, 1, dtype="<f4"), id="float32-values"),
            pytest.param(lambda h: _seg(h, 1, shape=[-1, 3]), id="negative-shape"),
            pytest.param(lambda h: _seg(h, 1, shape=[2.5, 3]), id="float-shape"),
            pytest.param(lambda h: _seg(h, 1, shape=[7]), id="values-1d"),
            pytest.param(lambda h: _seg(h, 0, shape=[1]), id="lengths-cut"),
            pytest.param(lambda h: _seg(h, 2, shape=[6, 3]), id="truth-misshaped"),
        ],
    )
    def test_malformed_header(self, tmp_path, mutate):
        path = tmp_path / f"bad{SHARD_SUFFIX}"
        write_shard(
            str(path),
            np.array([3, 4], dtype=np.int64),
            np.zeros((7, 3)),
            truth=np.ones((7, 3)),
        )
        _rewrite_header(path, mutate)
        with pytest.raises(StoreError):
            read_shard(str(path))

    def test_bad_shard_in_spill_dir_regenerates_bitwise(self, tmp_path):
        cfg = ExperimentConfig(n_replications=2, sample_size=10, seed=11)
        strategies = paper_strategies()
        clean = StreamingExperiment.from_scale(
            "tiny", seed=0, config=cfg, spill_dir=str(tmp_path / "clean")
        ).run(strategies)
        spill = tmp_path / "reused"
        StreamingExperiment.from_scale(
            "tiny", seed=0, config=cfg, spill_dir=str(spill)
        ).run(strategies)
        bad = sorted(spill.iterdir())[1]
        _rewrite_header(bad, lambda h: [h])
        with pytest.warns(StoreWarning, match="unreadable"):
            again = StreamingExperiment.from_scale(
                "tiny", seed=0, config=cfg, spill_dir=str(spill)
            ).run(strategies)
        assert _keys(again.result) == _keys(clean.result)
        assert read_shard(str(bad)).fingerprint  # overwritten with a good shard


def _seg(header, index, **changes):
    """*header* with segment *index*'s fields replaced (``None`` drops one)."""
    segments = [dict(spec) for spec in header["segments"]]
    for key, value in changes.items():
        if value is None:
            del segments[index][key]
        else:
            segments[index][key] = value
    return {**header, "segments": segments}


def _rewrite_header(path, mutate):
    """Replace a shard file's JSON header by ``mutate(header)``, keeping the
    segment bytes at the same 64-byte alignment after it."""

    def aligned(offset):
        return -(-offset // 64) * 64

    data = path.read_bytes()
    (header_len,) = struct.unpack("<Q", data[10:18])
    header = json.loads(data[18 : 18 + header_len])
    segments = data[aligned(18 + header_len) :]
    raw = json.dumps(mutate(header)).encode()
    prefix = data[:10] + struct.pack("<Q", len(raw)) + raw
    padding = b"\0" * (aligned(len(prefix)) - len(prefix))
    path.write_bytes(prefix + padding + segments)


# ---------------------------------------------------------------------------
# load_slab fingerprint validation (the stale-spill bugfix)
# ---------------------------------------------------------------------------


_TINY_GEN = GeneratorConfig(
    n_rnc=1, towers_per_rnc=2, sectors_per_tower=5,
    series_length=12, min_length=12,
)


class TestStaleSpill:
    def test_reused_spill_dir_never_serves_wrong_population(self, tmp_path):
        """Regression: a spill dir reused across seeds must regenerate, not
        silently serve the other population's bytes."""
        spill_dir = str(tmp_path)
        feed_a = SlabFeed(generator_config=_TINY_GEN, seed=0, spill_dir=spill_dir)
        for _source, _series in feed_a.iter_series():
            pass
        planted = {
            e.name: (tmp_path / e.name).read_bytes()
            for e in os.scandir(spill_dir)
        }
        assert planted  # seed-0 shards are on disk

        # Same directory, different seed: the recipes disagree with the files.
        feed_b = SlabFeed(generator_config=_TINY_GEN, seed=1, spill_dir=spill_dir)
        reference = SlabFeed(generator_config=_TINY_GEN, seed=1, spill=False)
        for (src_b, got), (_, want) in zip(
            feed_b.iter_series(), reference.iter_series()
        ):
            assert [s.values.tobytes() for s in got] == [
                s.values.tobytes() for s in want
            ]
            # The stale file was overwritten with seed-1 data, not left behind.
            assert (
                (tmp_path / os.path.basename(src_b.store_path)).read_bytes()
                != planted[os.path.basename(src_b.store_path)]
            )

    def test_legacy_file_at_store_path_regenerated(self, tmp_path):
        """A pre-PR-6 ``.npz`` (or any foreign bytes) at the store path is
        treated as stale: regenerated from the recipe and overwritten."""
        feed = SlabFeed(
            generator_config=_TINY_GEN, seed=0, spill_dir=str(tmp_path)
        )
        source = feed.sources[0]
        reference = load_slab(source, spill=False)
        with open(source.store_path, "wb") as fh:
            fh.write(b"PK\x03\x04 old npz spill")
        served = load_slab(source, spill=False)
        assert [s.values.tobytes() for s in served] == [
            s.values.tobytes() for s in reference
        ]
        # Stale implies overwrite even with spill=False: the replacement file
        # is a well-formed shard carrying the recipe's fingerprint.
        from repro.store.shards import recipe_fingerprint

        assert read_shard(source.store_path).fingerprint == recipe_fingerprint(
            source
        )

    def test_spilled_shard_reload_is_bitwise(self, tmp_path):
        feed = SlabFeed(
            generator_config=_TINY_GEN, seed=3, spill_dir=str(tmp_path)
        )
        source = feed.sources[0]
        first = load_slab(source, spill=True)
        again = load_slab(source)  # served from the store this time
        assert [s.values.tobytes() for s in again] == [
            s.values.tobytes() for s in first
        ]
        assert [s.truth.tobytes() for s in again] == [
            s.truth.tobytes() for s in first
        ]
        # And it really is the store serving: every series is a zero-copy
        # view into the mapped segment, not a regenerated array.
        assert all(isinstance(s.values.base, np.memmap) for s in again)


# ---------------------------------------------------------------------------
# Spill hygiene: tmp stragglers, eviction, disk budget
# ---------------------------------------------------------------------------


class TestSpillHygiene:
    def _spilled_feed(self, tmp_path, **kwargs):
        feed = SlabFeed(
            generator_config=_TINY_GEN, seed=0, spill_dir=str(tmp_path),
            shard_size=3, **kwargs,
        )
        for _ in feed.iter_series():
            pass
        return feed

    def test_spilled_bytes_ignores_tmp_stragglers(self, tmp_path):
        feed = self._spilled_feed(tmp_path)
        before = feed.spilled_bytes()
        assert before > 0
        straggler = tmp_path / f"slab-00000{SHARD_SUFFIX}.tmp99999"
        straggler.write_bytes(b"x" * 4096)
        assert feed.spilled_bytes() == before

    def test_sweep_tmp_removes_stragglers_only(self, tmp_path):
        feed = self._spilled_feed(tmp_path)
        straggler = tmp_path / f"slab-00001{SHARD_SUFFIX}.tmp4242"
        straggler.write_bytes(b"x" * 1024)
        n_shards = len(feed._shard_files())
        assert feed.sweep_tmp() == 1024
        assert not straggler.exists()
        assert len(feed._shard_files()) == n_shards

    def test_cleanup_on_external_dir_sweeps_but_keeps_shards(self, tmp_path):
        feed = self._spilled_feed(tmp_path)
        straggler = tmp_path / f"slab-00000{SHARD_SUFFIX}.tmp7"
        straggler.write_bytes(b"x")
        feed.cleanup()
        assert not straggler.exists()
        assert feed.spilled_bytes() > 0  # caller-owned dir: shards survive

    def test_cleanup_on_owned_dir_removes_everything(self):
        feed = SlabFeed(generator_config=_TINY_GEN, seed=0)
        for _ in feed.iter_series():
            pass
        assert os.path.isdir(feed.spill_dir)
        feed.cleanup()
        assert not os.path.isdir(feed.spill_dir)

    def test_evict_to_budget_oldest_first_and_bitwise_reload(self, tmp_path):
        feed = self._spilled_feed(tmp_path)
        reference = [
            [s.values.tobytes() for s in series]
            for _, series in feed.iter_series(spill=False)
        ]
        total = feed.spilled_bytes()
        files = sorted(e.name for e in feed._shard_files())
        assert len(files) > 1
        # Backdate the first shard so "oldest first" is deterministic.
        oldest = tmp_path / files[0]
        os.utime(oldest, ns=(1, 1))
        freed = feed.evict(budget=total - 1)
        assert freed > 0
        assert feed.n_evicted >= 1
        assert not oldest.exists()
        assert feed.spilled_bytes() <= total - 1
        # Evicted shards regenerate bitwise from their recipes.
        regenerated = [
            [s.values.tobytes() for s in series]
            for _, series in feed.iter_series(spill=False)
        ]
        assert regenerated == reference

    def test_disk_budget_enforced_after_each_pass(self, tmp_path):
        feed = self._spilled_feed(tmp_path, disk_budget=0)
        assert feed.spilled_bytes() == 0
        assert feed.n_evicted > 0

    def test_disk_budget_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_BUDGET", "0")
        feed = SlabFeed(generator_config=_TINY_GEN, seed=0, spill_dir=str(tmp_path))
        assert feed.disk_budget == 0

    def test_negative_disk_budget_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            SlabFeed(
                generator_config=_TINY_GEN, seed=0, spill_dir=str(tmp_path),
                disk_budget=-1,
            )

    @pytest.mark.parametrize("raw", ["1e9", "lots", "-1"])
    def test_malformed_disk_budget_env_var_rejected(
        self, tmp_path, monkeypatch, raw
    ):
        monkeypatch.setenv("REPRO_DISK_BUDGET", raw)
        with pytest.raises(ValidationError, match="REPRO_DISK_BUDGET"):
            SlabFeed(generator_config=_TINY_GEN, seed=0, spill_dir=str(tmp_path))

    @pytest.mark.parametrize(
        "budget", [True, 2.5, float("nan"), 1e9], ids=["bool", "float", "nan", "1e9"]
    )
    def test_non_integer_disk_budget_rejected(self, tmp_path, budget):
        with pytest.raises(ValidationError, match="disk_budget"):
            SlabFeed(
                generator_config=_TINY_GEN, seed=0, spill_dir=str(tmp_path),
                disk_budget=budget,
            )

    def test_rejected_disk_budget_leaves_no_spill_dir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(ValidationError):
            SlabFeed(generator_config=_TINY_GEN, seed=0, disk_budget=2.5)
        assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# Catalog keys
# ---------------------------------------------------------------------------


class TestCatalogKeys:
    def test_recipe_key_is_seed_sensitive(self):
        from repro.data.glitch_injection import GlitchInjectionConfig

        inj = GlitchInjectionConfig()
        k0 = population_recipe_key(_TINY_GEN, inj, 0)
        assert k0 == population_recipe_key(_TINY_GEN, inj, 0)
        assert k0 != population_recipe_key(_TINY_GEN, inj, 1)
        assert k0.startswith("recipe:")

    def test_recipe_key_rejects_live_generator(self):
        from repro.data.glitch_injection import GlitchInjectionConfig

        with pytest.raises(ValidationError):
            population_recipe_key(
                _TINY_GEN, GlitchInjectionConfig(), np.random.default_rng(0)
            )

    def test_experiment_key_ignores_execution_choices(self):
        """Backend, workers and the streaming selector never change a float,
        so they must not change the key either — that is what makes a block
        hit valid for a streaming request."""
        cfg = experiment_config("tiny")
        strategies = paper_strategies()
        base = experiment_key("recipe:x", cfg, strategies)
        for variant in (
            cfg.variant(backend="thread"),
            cfg.variant(n_workers=4),
            cfg.variant(streaming=True),
        ):
            assert experiment_key("recipe:x", variant, strategies) == base
        # Outcome-determining fields do change it.
        assert experiment_key("recipe:x", cfg.variant(seed=9), strategies) != base
        assert (
            experiment_key("recipe:x", cfg.variant(distance="kl"), strategies)
            != base
        )
        assert experiment_key("recipe:y", cfg, strategies) != base
        assert experiment_key("recipe:x", cfg, strategies[:2]) != base

    def test_experiment_key_salted_by_code_version(self, monkeypatch):
        """Bumping ``REPRO_CODE_SALT`` moves every key — the coarse hammer
        for 'the numerics changed, recompute the world'."""
        from repro.store.catalog import CODE_SALT_ENV_VAR, code_salt

        cfg = experiment_config("tiny")
        strategies = paper_strategies()
        monkeypatch.delenv(CODE_SALT_ENV_VAR, raising=False)
        base = experiment_key("recipe:x", cfg, strategies)
        assert code_salt()  # never empty: defaults to the baked version
        monkeypatch.setenv(CODE_SALT_ENV_VAR, "bumped")
        assert experiment_key("recipe:x", cfg, strategies) != base

    def test_distance_key_name_resolves_defaults(self):
        """Default-constructed registry distances key by name; customised or
        unregistered instances have no name (the conservative bypass)."""
        from repro.distance import distance_by_name
        from repro.distance.emd import EarthMoverDistance
        from repro.store.catalog import distance_key_name

        assert distance_key_name(None) is None
        assert distance_key_name(distance_by_name("emd")) == "emd"
        assert distance_key_name(EarthMoverDistance()) == "emd"
        assert distance_key_name(distance_by_name("kl")) == "kl"
        assert distance_key_name(EarthMoverDistance(n_bins=32)) is None
        assert distance_key_name(EarthMoverDistance(standardize=False)) is None

    def test_experiment_key_distance_name_override(self):
        """An instance resolved to its registry name keys identically to the
        config's name selector — one cell, not two."""
        cfg = experiment_config("tiny")
        strategies = paper_strategies()
        named = experiment_key("recipe:x", cfg.variant(distance="kl"), strategies)
        overridden = experiment_key(
            "recipe:x", cfg, strategies, distance_name="kl"
        )
        assert overridden == named
        assert overridden != experiment_key("recipe:x", cfg, strategies)


# ---------------------------------------------------------------------------
# Catalog storage
# ---------------------------------------------------------------------------


class TestCatalog:
    def test_wal_pragmas_applied(self, tmp_path):
        with Catalog(tmp_path / "cat.sqlite") as cat:
            assert (
                cat._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
            )
            assert cat._conn.execute("PRAGMA busy_timeout").fetchone()[0] == 30_000

    def test_outcome_round_trip_counts_hits(self, tmp_path, tiny_bundle):
        cfg = ExperimentConfig(n_replications=2, sample_size=8, seed=5)
        strategies = paper_strategies()[:2]
        with Catalog(tmp_path / "cat.sqlite") as cat:
            result = run_figure6(
                tiny_bundle, config=cfg, strategies=strategies, catalog=cat
            )
            assert (cat.hits, cat.misses) == (0, 1)
            served = run_figure6(
                tiny_bundle, config=cfg, strategies=strategies, catalog=cat
            )
            assert (cat.hits, cat.misses) == (1, 1)
            assert _keys(served) == _keys(result)
            stats = cat.stats()
            assert stats["outcomes"] == 1
            assert stats["populations"] == 1

    def test_shard_inventory_round_trip(self, tmp_path):
        with Catalog(tmp_path / "cat.sqlite") as cat:
            cat.record_shard("recipe:x", 0, "fp0", store_path="/s/0", nbytes=10)
            cat.record_shard("recipe:x", 1, "fp1", store_path="/s/1", nbytes=20)
            cat.record_shard("recipe:x", 1, "fp1b", store_path="/s/1", nbytes=25)
            rows = cat.shards("recipe:x")
            assert [r["shard_index"] for r in rows] == [0, 1]
            assert rows[1]["fingerprint"] == "fp1b"  # upsert: last write wins

    def test_resolve_catalog_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CATALOG_ENV_VAR, raising=False)
        assert resolve_catalog(None) == (None, False)
        monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path / "env.sqlite"))
        cat, owned = resolve_catalog(None)
        assert owned and cat is not None
        cat.close()
        with Catalog(tmp_path / "inst.sqlite") as inst:
            assert resolve_catalog(inst) == (inst, False)

    def test_stats_reports_payload_bytes(self, tmp_path, tiny_bundle):
        cfg = ExperimentConfig(n_replications=1, sample_size=6, seed=2)
        with Catalog(tmp_path / "cat.sqlite") as cat:
            assert cat.stats()["payload_bytes"] == 0
            run_figure6(
                tiny_bundle, config=cfg, strategies=paper_strategies()[:1],
                catalog=cat,
            )
            stats = cat.stats()
            assert stats["outcomes"] == 1
            assert stats["payload_bytes"] > 0

    def test_prune_drops_oldest_first(self, tmp_path, tiny_bundle):
        """Pruning to a byte budget removes oldest outcomes first and leaves
        the survivors servable; population rows stay (they are tiny and
        keep provenance queryable)."""
        strategies = paper_strategies()[:1]
        configs = [
            ExperimentConfig(n_replications=1, sample_size=6, seed=s)
            for s in (1, 2, 3)
        ]
        with Catalog(tmp_path / "cat.sqlite") as cat:
            results = [
                run_figure6(tiny_bundle, config=c, strategies=strategies,
                            catalog=cat)
                for c in configs
            ]
            full = cat.stats()["payload_bytes"]
            assert cat.prune(max_bytes=full) == 0  # already within budget
            removed = cat.prune(max_bytes=full // 2)
            assert removed >= 1
            stats = cat.stats()
            assert stats["payload_bytes"] <= full // 2
            assert stats["outcomes"] == 3 - removed
            # The newest cell survives a generous budget and still serves.
            served = run_figure6(
                tiny_bundle, config=configs[-1], strategies=strategies,
                catalog=cat,
            )
            assert _keys(served) == _keys(results[-1])
            remaining = cat.stats()["outcomes"]
            assert cat.prune(max_bytes=0) == remaining
            assert cat.stats()["payload_bytes"] == 0
            with pytest.raises(ValidationError):
                cat.prune(max_bytes=-1)

    def test_budget_env_prunes_at_open(self, tmp_path, tiny_bundle, monkeypatch):
        """``REPRO_CATALOG_BUDGET`` applies :meth:`Catalog.prune` at open:
        over-budget outcome payloads evict oldest-first, while population
        and sweep rows (provenance, not payload) survive."""
        path = os.fspath(tmp_path / "cat.sqlite")
        strategies = paper_strategies()[:1]
        configs = [
            ExperimentConfig(n_replications=1, sample_size=6, seed=s)
            for s in (1, 2, 3)
        ]
        with Catalog(path) as cat:
            results = [
                run_figure6(tiny_bundle, config=c, strategies=strategies,
                            catalog=cat)
                for c in configs
            ]
            full = cat.stats()["payload_bytes"]
            n_populations = cat.stats()["populations"]

        monkeypatch.setenv(CATALOG_BUDGET_ENV_VAR, str(full // 2))
        with pytest.warns(StoreWarning, match="pruned"):
            cat = Catalog(path)
        with cat:
            stats = cat.stats()
            assert stats["payload_bytes"] <= full // 2
            assert 1 <= stats["outcomes"] < 3
            assert stats["populations"] == n_populations  # provenance survives
            # Oldest-first: the newest cell is still served from cache.
            served = run_figure6(
                tiny_bundle, config=configs[-1], strategies=strategies,
                catalog=cat,
            )
            assert _keys(served) == _keys(results[-1])

        # Within budget: open is silent and nothing is evicted.
        monkeypatch.setenv(CATALOG_BUDGET_ENV_VAR, str(full))
        with Catalog(path) as cat:
            assert cat.stats()["outcomes"] == stats["outcomes"]

    def test_budget_env_rejects_bad_values(self, tmp_path, monkeypatch):
        for bad in ("not-a-number", "-1", "1.5"):
            monkeypatch.setenv(CATALOG_BUDGET_ENV_VAR, bad)
            with pytest.raises(ValidationError):
                Catalog(os.fspath(tmp_path / "cat.sqlite"))
        monkeypatch.setenv(CATALOG_BUDGET_ENV_VAR, "")
        with Catalog(os.fspath(tmp_path / "cat.sqlite")) as cat:
            assert cat.stats()["outcomes"] == 0


# ---------------------------------------------------------------------------
# Driver wiring: run_experiment / run_figure6 / run_table1
# ---------------------------------------------------------------------------


class TestRunExperimentCatalog:
    def test_warm_run_skips_population_build(self, tmp_path, monkeypatch):
        with Catalog(tmp_path / "cat.sqlite") as cat:
            cold = run_experiment(scale="tiny", seed=0, catalog=cat)

            def boom(*a, **k):  # pragma: no cover - must never run
                raise AssertionError("warm run rebuilt the population")

            monkeypatch.setattr("repro.experiments.config.build_population", boom)
            warm = run_experiment(scale="tiny", seed=0, catalog=cat)
            assert _keys(warm) == _keys(cold)
            assert (cat.hits, cat.misses) == (1, 1)

    def test_cross_engine_hit(self, tmp_path):
        """A cell scored by the block path serves the streaming request for
        the same key (and vice versa) — the engines are bitwise-identical,
        so the key rightly excludes the selector."""
        cfg = experiment_config("tiny")
        with Catalog(tmp_path / "cat.sqlite") as cat:
            block = run_experiment(scale="tiny", seed=0, config=cfg, catalog=cat)
            streamed = run_experiment(
                scale="tiny", seed=0, config=cfg.variant(streaming=True),
                catalog=cat,
            )
            assert _keys(streamed) == _keys(block)
            assert (cat.hits, cat.misses) == (1, 1)

    def test_env_var_catalog(self, tmp_path, monkeypatch):
        path = tmp_path / "env.sqlite"
        monkeypatch.setenv(CATALOG_ENV_VAR, str(path))
        cold = run_experiment(scale="tiny", seed=0)
        warm = run_experiment(scale="tiny", seed=0)
        assert _keys(warm) == _keys(cold)
        with Catalog(path) as cat:
            # The cold pass stores the one recipe-keyed cell it ran (the
            # bundle it built is never hashed); the warm pass hits that key
            # before building anything.
            assert cat.stats()["outcomes"] == 1
            assert (cat.hits, cat.misses) == (0, 0)
            rows = cat._conn.execute("SELECT population_key FROM outcomes")
            kinds = sorted(k.split(":")[0] for (k,) in rows)
            assert kinds == ["recipe"]

    def test_default_distance_instance_keys_by_name(self, tmp_path):
        """An explicit instance equal to its registry default is the same
        cell as the name selector — it hits, it doesn't bypass."""
        from repro.distance import distance_by_name

        with Catalog(tmp_path / "cat.sqlite") as cat:
            named = run_experiment(
                scale="tiny", seed=0,
                config=experiment_config("tiny").variant(distance="emd"),
                catalog=cat,
            )
            assert cat.stats()["outcomes"] == 1
            served = run_experiment(
                scale="tiny", seed=0, distance=distance_by_name("emd"),
                catalog=cat,
            )
            assert _keys(served) == _keys(named)
            assert (cat.hits, cat.misses) == (1, 1)
            assert cat.stats()["outcomes"] == 1

    def test_customised_distance_instance_bypasses(self, tmp_path):
        """A genuinely non-default instance has no registry identity — the
        run computes without touching the catalog."""
        from repro.distance.emd import EarthMoverDistance

        with Catalog(tmp_path / "cat.sqlite") as cat:
            result = run_experiment(
                scale="tiny", seed=0,
                distance=EarthMoverDistance(n_bins=32), catalog=cat,
            )
            assert result.outcomes
            assert cat.stats()["outcomes"] == 0
            assert (cat.hits, cat.misses) == (0, 0)

    def test_generator_seed_bypasses(self, tmp_path):
        """A live Generator seed cannot be keyed; the run computes as usual
        instead of raising or mis-keying."""
        cfg = ExperimentConfig(n_replications=2, sample_size=8, seed=3)
        with Catalog(tmp_path / "cat.sqlite") as cat:
            result = run_experiment(
                scale="tiny", seed=np.random.default_rng(0), config=cfg,
                catalog=cat,
            )
            assert result.outcomes
            assert cat.stats()["outcomes"] == 0

    def test_streaming_kwargs_stay_cacheable(self, tmp_path):
        """Execution-only knobs (shard size, spill) don't block reuse."""
        cfg = experiment_config("tiny").variant(streaming=True)
        with Catalog(tmp_path / "cat.sqlite") as cat:
            cold = run_experiment(
                scale="tiny", seed=0, config=cfg, catalog=cat, shard_size=7
            )
            warm = run_experiment(
                scale="tiny", seed=0, config=cfg, catalog=cat, shard_size=31
            )
            assert _keys(warm) == _keys(cold)
            assert (cat.hits, cat.misses) == (1, 1)


class TestRunTable1Catalog:
    def test_blocks_served_from_catalog(self, tmp_path, tiny_bundle):
        base = ExperimentConfig(n_replications=2, sample_size=8, seed=5)
        with Catalog(tmp_path / "cat.sqlite") as cat:
            first = run_table1(tiny_bundle, base_config=base, catalog=cat)
            assert (cat.hits, cat.misses) == (0, 3)
            second = run_table1(tiny_bundle, base_config=base, catalog=cat)
            assert (cat.hits, cat.misses) == (3, 3)
            assert {k: _keys(v) for k, v in second.items()} == {
                k: _keys(v) for k, v in first.items()
            }
