"""SlabFeed: recipe materialisation, spill round-trips, lifecycle."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.executor import ProcessBackend, SerialBackend, ThreadBackend
from repro.data.generator import GeneratorConfig
from repro.data.slab import SlabFeed, load_slab
from repro.errors import ValidationError
from repro.experiments.config import SCALES, build_population

TINY = SCALES["tiny"].generator
RAGGED = GeneratorConfig(
    n_rnc=2, towers_per_rnc=5, sectors_per_tower=10, series_length=60, min_length=40
)


def _series_equal(a, b):
    return (
        a.node == b.node
        and np.array_equal(a.values, b.values, equal_nan=True)
        and np.array_equal(a.truth, b.truth)
    )


class TestFeedIdentity:
    def test_feed_matches_materialised_population(self, tiny_bundle):
        with SlabFeed(TINY, seed=0) as feed:
            series = [s for _, chunk in feed.iter_series() for s in chunk]
        population = tiny_bundle.population
        assert len(series) == len(population)
        assert all(_series_equal(a, b) for a, b in zip(series, population))

    def test_spill_round_trip_is_exact(self):
        with SlabFeed(TINY, seed=0) as feed:
            fresh = [s for _, chunk in feed.iter_series(spill=True) for s in chunk]
            assert feed.spilled_bytes() > 0
            # Second pass reads the store, not the generator.
            stored = [s for src in feed.sources for s in load_slab(src)]
            assert all(_series_equal(a, b) for a, b in zip(fresh, stored))

    def test_shard_layout_is_pure_performance(self):
        with SlabFeed(TINY, seed=0, shard_size=7, spill=False) as a, SlabFeed(
            TINY, seed=0, shard_size=33, spill=False
        ) as b:
            series_a = [s for _, chunk in a.iter_series(spill=False) for s in chunk]
            series_b = [s for _, chunk in b.iter_series(spill=False) for s in chunk]
        assert len(a.sources) != len(b.sources)
        assert all(_series_equal(x, y) for x, y in zip(series_a, series_b))

    @pytest.mark.parametrize(
        "backend",
        [SerialBackend(), ThreadBackend(2), ProcessBackend(2, min_units=1)],
        ids=lambda b: b.name,
    )
    def test_map_fans_sources_across_backends(self, backend):
        with SlabFeed(TINY, seed=0, backend=backend, spill=False) as feed:
            counts = feed.map(_count_series)
        assert sum(counts) == feed.n_series

    def test_ragged_plan_prescans_lengths(self):
        bundle = build_population(scale="tiny", seed=0, generator_config=RAGGED)
        with SlabFeed(RAGGED, seed=0, spill=False) as feed:
            assert not feed.uniform
            expected = [s.length for s in bundle.population]
            assert feed.lengths.tolist() == expected
            assert feed.max_length == max(expected)

    def test_generator_seed_rejected(self):
        with pytest.raises(ValidationError):
            SlabFeed(TINY, seed=np.random.default_rng(3))

    def test_spawned_from_seedsequence_still_replays(self):
        # A SeedSequence's spawn counter mutates on use; the feed must
        # snapshot it so prior spawns by the caller cannot shift its streams.
        fresh = np.random.SeedSequence(7)
        used = np.random.SeedSequence(7)
        used.spawn(5)  # caller consumed some children first
        with SlabFeed(TINY, seed=fresh, spill=False) as a, SlabFeed(
            TINY, seed=used, spill=False
        ) as b:
            series_a = [s for _, c in a.iter_series(spill=False) for s in c]
            series_b = [s for _, c in b.iter_series(spill=False) for s in c]
        assert all(_series_equal(x, y) for x, y in zip(series_a, series_b))


def _count_series(source):
    """Module-level so the process backend can pickle it."""
    return len(load_slab(source, spill=False))


class TestLifecycle:
    def test_cleanup_removes_owned_spill_dir(self):
        feed = SlabFeed(TINY, seed=0)
        spill_dir = feed.spill_dir
        list(feed.iter_series())
        assert os.path.isdir(spill_dir)
        feed.cleanup()
        assert not os.path.isdir(spill_dir)

    def test_external_spill_dir_is_kept(self, tmp_path):
        feed = SlabFeed(TINY, seed=0, spill_dir=str(tmp_path))
        list(feed.iter_series())
        assert feed.spilled_bytes() > 0
        feed.cleanup()
        assert os.path.isdir(str(tmp_path))
        assert feed.spilled_bytes() > 0
