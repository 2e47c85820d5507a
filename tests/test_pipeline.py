"""Sharded pipeline: layout planning, stage execution, and the population
build's cross-backend bitwise-determinism contract."""

import numpy as np
import pytest

from repro.core.executor import ProcessBackend, SerialBackend, ThreadBackend
from repro.core.pipeline import (
    Pipeline,
    ShardSpec,
    ShardedStage,
    build_shards,
    plan_shards,
)
from repro.errors import ExperimentError
from repro.experiments.config import build_population
from repro.utils.rng import spawn_sequences


class TestPlanShards:
    def test_ranges_cover_and_partition(self):
        bounds = plan_shards(100, shard_size=7)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 100
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo
        assert sum(hi - lo for lo, hi in bounds) == 100

    def test_single_shard_when_size_exceeds_items(self):
        assert plan_shards(5, shard_size=1000) == [(0, 5)]

    def test_zero_items_empty_plan(self):
        assert plan_shards(0) == []

    def test_negative_items_rejected(self):
        with pytest.raises(ExperimentError):
            plan_shards(-1)

    def test_env_var_pins_shard_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_SIZE", "10")
        assert plan_shards(25) == [(0, 10), (10, 20), (20, 25)]

    def test_env_var_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_SIZE", "many")
        with pytest.raises(ExperimentError):
            plan_shards(25)

    def test_explicit_size_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_SIZE", "10")
        assert plan_shards(25, shard_size=25) == [(0, 25)]


class TestBuildShards:
    def test_seeds_sliced_by_item_index(self):
        shards = build_shards(10, seed=0, shard_size=3)
        flat = [seq for s in shards for seq in s.seeds]
        expected = spawn_sequences(0, 10)
        assert [s.entropy for s in flat] == [e.entropy for e in expected]
        assert [s.spawn_key for s in flat] == [e.spawn_key for e in expected]

    def test_layout_never_changes_item_streams(self):
        """The determinism keystone: item i's stream is layout-invariant."""
        coarse = build_shards(12, seed=42, shard_size=12)
        fine = build_shards(12, seed=42, shard_size=5)
        flat_coarse = [seq for s in coarse for seq in s.seeds]
        flat_fine = [seq for s in fine for seq in s.seeds]
        draws_coarse = [np.random.default_rng(s).random() for s in flat_coarse]
        draws_fine = [np.random.default_rng(s).random() for s in flat_fine]
        assert draws_coarse == draws_fine

    def test_randomized_shards_require_explicit_seed(self):
        """seed=None must raise, not silently spawn OS-entropy streams."""
        with pytest.raises(ExperimentError):
            build_shards(7, shard_size=4)
        # explicit entropy is still available by passing a generator
        assert build_shards(3, seed=np.random.default_rng(), shard_size=2)

    def test_spec_validates_seed_count(self):
        with pytest.raises(ExperimentError):
            ShardSpec(index=0, start=0, stop=3, seeds=tuple(spawn_sequences(0, 2)))

    def test_spec_validates_range(self):
        with pytest.raises(ExperimentError):
            ShardSpec(index=0, start=4, stop=2)


def _double_shard(unit):
    """Module-level work function (picklable for the process backend)."""
    spec, items = unit
    return [2 * x for x in items]


def _short_shard(unit):
    spec, items = unit
    return [0]  # always one result, wrong for shards with more items


class TestPipelineRun:
    def _stage(self, fn, data):
        return ShardedStage("demo", fn, lambda s: (s, data[s.start : s.stop]))

    @pytest.mark.parametrize(
        "backend", [SerialBackend(), ThreadBackend(2), ProcessBackend(2, min_units=1)]
    )
    def test_results_flatten_in_item_order(self, backend):
        data = list(range(23))
        pipeline = Pipeline(backend, shard_size=5)
        shards = pipeline.shards(len(data), seed=0)
        result = pipeline.run(self._stage(_double_shard, data), shards)
        assert result == [2 * x for x in data]

    def test_wrong_result_count_raises(self):
        data = list(range(10))
        pipeline = Pipeline(SerialBackend(), shard_size=4)
        shards = pipeline.shards(len(data), seed=0)
        with pytest.raises(ExperimentError):
            pipeline.run(self._stage(_short_shard, data), shards)

    def test_pipeline_resolves_backend_names(self):
        assert Pipeline("thread:2").backend.name == "thread"
        assert Pipeline(None).backend.name == "serial"

    def test_coerce_reuses_or_rewraps_pipelines(self):
        pipe = Pipeline("thread:2", shard_size=8)
        assert Pipeline.coerce(pipe) is pipe
        assert Pipeline.coerce(pipe, shard_size=8) is pipe
        # an explicit disagreeing shard_size is honoured, not dropped
        rewrapped = Pipeline.coerce(pipe, shard_size=3)
        assert rewrapped.shard_size == 3
        assert rewrapped.backend is pipe.backend
        assert Pipeline.coerce("serial").backend.name == "serial"

    def test_coerce_rejects_n_workers_on_existing_pipeline(self):
        # the backend is already resolved; a worker count cannot apply
        with pytest.raises(ExperimentError):
            Pipeline.coerce(Pipeline("serial"), n_workers=4)

    def test_stage_requires_callables(self):
        with pytest.raises(ExperimentError):
            ShardedStage("bad", None, lambda s: s)


class TestPopulationDeterminism:
    """`build_population` is bitwise identical across backends and layouts.

    `PopulationBundle.fingerprint` pins everything the acceptance criterion
    names: values, injection ledger, dirty/ideal indices, fitted limits.
    """

    def test_serial_thread_process_identical(self):
        serial = build_population(scale="tiny", seed=3, backend=SerialBackend())
        thread = build_population(
            scale="tiny", seed=3, backend=ThreadBackend(3), shard_size=7
        )
        process = build_population(
            scale="tiny", seed=3, backend=ProcessBackend(2, min_units=1), shard_size=13
        )
        reference = serial.fingerprint()
        assert thread.fingerprint() == reference
        assert process.fingerprint() == reference

    def test_shard_layout_invariance(self):
        one_shard = build_population(scale="tiny", seed=5, shard_size=10_000)
        many_shards = build_population(scale="tiny", seed=5, shard_size=3)
        assert one_shard.fingerprint() == many_shards.fingerprint()

    def test_backend_spec_string_accepted(self):
        spec = build_population(scale="tiny", seed=3, backend="thread:2")
        plain = build_population(scale="tiny", seed=3)
        assert spec.fingerprint() == plain.fingerprint()

    def test_seed_changes_population(self):
        a = build_population(scale="tiny", seed=0)
        b = build_population(scale="tiny", seed=1)
        assert a.fingerprint() != b.fingerprint()


def _population_digest(bundle) -> str:
    """SHA-256 over the bundle fingerprint plus every series' truth: values,
    truth, the three injection masks, glitchy flags, ideal indices and
    limits."""
    import hashlib

    digest = hashlib.sha256(repr(sorted(bundle.fingerprint().items())).encode())
    for series in bundle.population:
        digest.update(series.truth.tobytes())
    return digest.hexdigest()


class TestChunkEdges:
    """The build computes per padded chunk of series inside each shard, so
    shard sizes around the chunk size move series across chunk edges; no
    layout may change a bit of the population on any backend."""

    @pytest.fixture(scope="class")
    def reference(self):
        return _population_digest(build_population(scale="small", seed=2))

    @pytest.mark.parametrize("backend", ["serial", "thread:2", "process:2"])
    @pytest.mark.parametrize("shard_size", [1, 511, 512, 513, None])
    def test_small_population_hash_is_layout_invariant(
        self, reference, backend, shard_size
    ):
        bundle = build_population(
            scale="small", seed=2, backend=backend, shard_size=shard_size
        )
        assert len(bundle.population) > 513
        assert _population_digest(bundle) == reference


class TestOutputAliasing:
    """Series are row views of their chunk's arrays; no two series and no
    values/truth pair may share memory."""

    def test_values_never_alias_truth(self, tiny_bundle):
        for dataset in (tiny_bundle.clean, tiny_bundle.population):
            for series in dataset:
                assert not np.shares_memory(series.values, series.truth)

    def test_write_to_one_dirty_series_stays_local(self):
        bundle = build_population(scale="tiny", seed=4)
        series = bundle.population.series
        before = [(s.values.copy(), s.truth.copy()) for s in series]
        target = series[1]
        target.values[:] = -7.0
        assert (target.values == -7.0).all()
        assert np.array_equal(target.truth, before[1][1])
        for k in (0, 2):
            values, truth = before[k]
            assert np.array_equal(series[k].values, values, equal_nan=True)
            assert np.array_equal(series[k].truth, truth)

    def test_write_to_one_clean_series_stays_local(self):
        bundle = build_population(scale="tiny", seed=4)
        series = bundle.clean.series
        truth = series[1].truth.copy()
        neighbour = series[2].values.copy()
        series[1].values[:] = -7.0
        assert np.array_equal(series[1].truth, truth)
        assert np.array_equal(series[2].values, neighbour)
        assert np.array_equal(bundle.population[1].truth, truth)
