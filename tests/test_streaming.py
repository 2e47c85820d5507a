"""The streaming slab engine's identity contract.

The engine must be *bitwise-identical* to the materialised path — same
dirty/ideal split, same fitted limits, same replication samples, same
outcome floats — on every execution backend, at any shard size, with
spilling on or off, and on ragged populations the block fast path cannot
even touch.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.core.streaming as streaming_module
from repro.cleaning.registry import paper_strategies, strategy_by_name
from repro.core.executor import ProcessBackend, SerialBackend, ThreadBackend
from repro.core.framework import ExperimentConfig, ExperimentRunner
from repro.core.incremental import RowChunk
from repro.core.streaming import (
    StreamingExperiment,
    streaming_enabled,
)
from repro.data.generator import GeneratorConfig
from repro.data.slab import SlabFeed, open_slab
from repro.errors import StoreWarning, ValidationError
from repro.experiments.config import SCALES, build_population, experiment_config
from repro.experiments.paper import run_experiment
from repro.glitches.detectors import ScaleTransform, identify_ideal
from repro.store.shards import ShardHandle, read_shard

STRATEGIES = [strategy_by_name("strategy1"), strategy_by_name("strategy4")]


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


@pytest.fixture(scope="module")
def tiny_cfg():
    return ExperimentConfig(n_replications=3, sample_size=10, seed=11)


@pytest.fixture(scope="module")
def block_reference(tiny_bundle, tiny_cfg):
    runner = ExperimentRunner(tiny_bundle.dirty, tiny_bundle.ideal, config=tiny_cfg)
    return runner.run(STRATEGIES)


class TestStreamingIdentity:
    @pytest.mark.parametrize(
        "backend",
        [SerialBackend(), ThreadBackend(2), ProcessBackend(2, min_units=1)],
        ids=lambda b: b.name,
    )
    def test_bitwise_identical_to_block_path(
        self, tiny_bundle, block_reference, tiny_cfg, backend
    ):
        engine = StreamingExperiment.from_scale(
            "tiny", seed=0, config=tiny_cfg, backend=backend
        )
        streamed = engine.run(STRATEGIES)
        assert _keys(streamed.result) == _keys(block_reference)
        assert streamed.dirty_indices == tiny_bundle.partition.dirty_indices
        assert streamed.ideal_indices == tiny_bundle.partition.ideal_indices

    def test_fitted_limits_identical(self, tiny_bundle, tiny_cfg):
        engine = StreamingExperiment.from_scale("tiny", seed=0, config=tiny_cfg)
        streamed = engine.run(STRATEGIES)
        reference = tiny_bundle.suite.outlier_detector.limits
        fitted = streamed.suite.outlier_detector.limits
        for attr in reference.attributes:
            assert fitted.bounds(attr) == reference.bounds(attr)

    def test_shard_size_never_changes_numbers(self, block_reference, tiny_cfg):
        for shard_size in (7, 31):
            streamed = StreamingExperiment.from_scale(
                "tiny", seed=0, config=tiny_cfg, shard_size=shard_size
            ).run(STRATEGIES)
            assert _keys(streamed.result) == _keys(block_reference)

    def test_spill_off_recomputes_identically(self, block_reference, tiny_cfg):
        streamed = StreamingExperiment.from_scale(
            "tiny", seed=0, config=tiny_cfg, spill=False
        ).run(STRATEGIES)
        assert _keys(streamed.result) == _keys(block_reference)
        assert streamed.spilled_bytes == 0

    def test_gather_is_bounded_by_draws(self, tiny_cfg):
        streamed = StreamingExperiment.from_scale(
            "tiny", seed=0, config=tiny_cfg
        ).run(STRATEGIES)
        bound = 2 * tiny_cfg.n_replications * tiny_cfg.sample_size
        assert streamed.n_gathered <= min(bound, streamed.n_series)
        assert streamed.n_gathered < streamed.n_series  # genuinely partial


class TestRaggedStreaming:
    """Ragged populations had no bounded-memory path at all before."""

    RAGGED = GeneratorConfig(
        n_rnc=2,
        towers_per_rnc=5,
        sectors_per_tower=10,
        series_length=60,
        min_length=40,
    )

    @pytest.fixture(scope="class")
    def ragged_reference(self):
        cfg = ExperimentConfig(n_replications=2, sample_size=8, seed=5)
        bundle = build_population(
            scale="tiny", seed=0, generator_config=self.RAGGED
        )
        runner = ExperimentRunner(bundle.dirty, bundle.ideal, config=cfg)
        return cfg, runner.run(STRATEGIES)

    @pytest.mark.parametrize(
        "backend",
        [SerialBackend(), ThreadBackend(2), ProcessBackend(2, min_units=1)],
        ids=lambda b: b.name,
    )
    def test_ragged_identity_across_backends(self, ragged_reference, backend):
        cfg, reference = ragged_reference
        streamed = StreamingExperiment(
            generator_config=self.RAGGED, seed=0, config=cfg, backend=backend
        ).run(STRATEGIES)
        assert _keys(streamed.result) == _keys(reference)


class TestDistanceSelector:
    """``ExperimentConfig(distance=...)`` reaches both engines and keeps
    them bitwise-identical to each other for every selectable distance."""

    @pytest.mark.parametrize("name", ["kl", "js", "ks"])
    def test_streamed_equals_block_per_distance(self, tiny_bundle, name):
        cfg = ExperimentConfig(
            n_replications=3, sample_size=10, seed=11, distance=name
        )
        runner = ExperimentRunner(tiny_bundle.dirty, tiny_bundle.ideal, config=cfg)
        block = runner.run(STRATEGIES)
        streamed = StreamingExperiment.from_scale(
            "tiny", seed=0, config=cfg
        ).run(STRATEGIES)
        assert _keys(streamed.result) == _keys(block)
        # The selector genuinely changed the metric relative to EMD.
        emd_cfg = cfg.variant(distance=None)
        emd_block = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=emd_cfg
        ).run(STRATEGIES)
        assert [o.distortion for o in block.outcomes] != [
            o.distortion for o in emd_block.outcomes
        ]

    @pytest.mark.parametrize(
        "backend",
        [ThreadBackend(2), ProcessBackend(2, min_units=1)],
        ids=lambda b: b.name,
    )
    def test_selector_is_backend_invariant(self, tiny_bundle, backend):
        cfg = ExperimentConfig(
            n_replications=3, sample_size=10, seed=11, distance="ks"
        )
        serial = StreamingExperiment.from_scale(
            "tiny", seed=0, config=cfg
        ).run(STRATEGIES)
        parallel = StreamingExperiment.from_scale(
            "tiny", seed=0, config=cfg, backend=backend
        ).run(STRATEGIES)
        assert _keys(serial.result) == _keys(parallel.result)

    def test_selector_on_ragged_population(self):
        cfg = ExperimentConfig(
            n_replications=2, sample_size=8, seed=5, distance="ks"
        )
        ragged = TestRaggedStreaming.RAGGED
        bundle = build_population(scale="tiny", seed=0, generator_config=ragged)
        block = ExperimentRunner(bundle.dirty, bundle.ideal, config=cfg).run(STRATEGIES)
        streamed = StreamingExperiment(
            generator_config=ragged, seed=0, config=cfg
        ).run(STRATEGIES)
        assert _keys(streamed.result) == _keys(block)

    def test_explicit_instance_beats_selector(self, tiny_bundle):
        from repro.distance.ks import KolmogorovSmirnovDistance

        cfg = ExperimentConfig(
            n_replications=2, sample_size=8, seed=3, distance="kl"
        )
        by_name = ExperimentRunner(
            tiny_bundle.dirty,
            tiny_bundle.ideal,
            config=cfg.variant(distance="ks"),
        ).run(STRATEGIES)
        by_instance = ExperimentRunner(
            tiny_bundle.dirty,
            tiny_bundle.ideal,
            config=cfg,
            distance=KolmogorovSmirnovDistance(),
        ).run(STRATEGIES)
        assert _keys(by_name) == _keys(by_instance)

    def test_unknown_selector_fails_fast(self):
        from repro.errors import DistanceError

        with pytest.raises(DistanceError):
            ExperimentConfig(distance="nope")


class TestSelection:
    def test_env_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_STREAM", raising=False)
        assert not streaming_enabled()
        monkeypatch.setenv("REPRO_STREAM", "1")
        assert streaming_enabled()
        monkeypatch.setenv("REPRO_STREAM", "off")
        assert not streaming_enabled()

    @pytest.mark.parametrize("raw", ["2", "stream"])
    def test_malformed_env_knob_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_STREAM", raw)
        with pytest.raises(ValidationError, match="REPRO_STREAM"):
            streaming_enabled()

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM", "1")
        assert not streaming_enabled(ExperimentConfig(streaming=False))
        monkeypatch.delenv("REPRO_STREAM", raising=False)
        assert streaming_enabled(ExperimentConfig(streaming=True))

    def test_run_experiment_streams_identically(self, monkeypatch, tiny_cfg):
        monkeypatch.delenv("REPRO_STREAM", raising=False)
        in_memory = run_experiment(
            "tiny", seed=0, config=tiny_cfg, strategies=STRATEGIES
        )
        streamed = run_experiment(
            "tiny",
            seed=0,
            config=tiny_cfg.variant(streaming=True),
            strategies=STRATEGIES,
        )
        assert _keys(streamed) == _keys(in_memory)

    def test_streaming_kwargs_rejected_in_memory(self, tiny_cfg):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            run_experiment(
                "tiny", config=tiny_cfg.variant(streaming=False), shard_size=4
            )

    def test_config_validates_streaming_field(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            ExperimentConfig(streaming="yes")  # type: ignore[arg-type]

    def test_generator_seed_rejected(self):
        with pytest.raises(ValidationError):
            StreamingExperiment(seed=np.random.default_rng(0))

    def test_non_int_config_seed_rejected(self):
        # The in-memory loop consumes a shared SeedSequence config seed in
        # lazy spawn order; identity cannot hold, so the engine says so.
        cfg = ExperimentConfig(
            n_replications=1, sample_size=4, seed=np.random.SeedSequence(0)
        )
        with pytest.raises(ValidationError):
            StreamingExperiment(config=cfg)

    def test_population_seedsequence_snapshot(self):
        # The *population* seed may be a SeedSequence — the engine snapshots
        # it, so prior spawns by the caller cannot shift any stream.
        cfg = ExperimentConfig(n_replications=2, sample_size=6, seed=3)
        used = np.random.SeedSequence(0)
        used.spawn(4)
        streamed = StreamingExperiment.from_scale(
            "tiny", seed=used, config=cfg
        ).run(STRATEGIES)
        base = StreamingExperiment.from_scale("tiny", seed=0, config=cfg).run(
            STRATEGIES
        )
        assert _keys(streamed.result) == _keys(base.result)

    def test_repeated_run_same_engine(self):
        cfg = ExperimentConfig(n_replications=2, sample_size=6, seed=3)
        engine = StreamingExperiment.from_scale(
            "tiny", seed=np.random.SeedSequence(7), config=cfg
        )
        first = engine.run(STRATEGIES)
        second = engine.run(STRATEGIES)
        assert _keys(first.result) == _keys(second.result)

    def test_run_streaming_experiment_entry_point(self, tiny_cfg):
        streamed = StreamingExperiment.from_scale(
            "tiny", seed=0, config=tiny_cfg
        ).run(STRATEGIES)
        assert len(streamed.outcomes) == tiny_cfg.n_replications * len(STRATEGIES)


# ---------------------------------------------------------------------------
# Identification passes over stored row segments
# ---------------------------------------------------------------------------


def _ideal(verdicts):
    return np.flatnonzero(verdicts).tolist()


def _limit_bytes(suite):
    limits = suite.outlier_detector.limits
    return {a: np.array(limits.bounds(a)).tobytes() for a in limits.attributes}


def _identify(engine):
    try:
        return engine.identify()
    finally:
        engine.feed.cleanup()


class TestChunkEdges:
    """Shard layouts on both sides of ``CHUNK_SERIES`` (512): streamed
    ``identify()`` equals ``identify_ideal`` on the materialised population,
    verdicts and fitted limits bit for bit."""

    RAGGED = GeneratorConfig(
        n_rnc=2,
        towers_per_rnc=30,
        sectors_per_tower=10,
        series_length=60,
        min_length=40,
    )

    @pytest.fixture(scope="class")
    def ragged_bundle(self):
        return build_population(scale="tiny", seed=0, generator_config=self.RAGGED)

    @pytest.mark.parametrize("shard_size", [1, 511, 512, 513, 600])
    def test_small_shard_layouts(self, small_bundle, shard_size):
        assert len(small_bundle.population.series) == 600  # 600 = whole
        verdicts, suite = _identify(
            StreamingExperiment.from_scale(
                "small", seed=0, backend="serial", shard_size=shard_size
            )
        )
        assert _ideal(verdicts) == small_bundle.partition.ideal_indices
        assert _limit_bytes(suite) == _limit_bytes(small_bundle.suite)

    @pytest.mark.parametrize("shard_size", [511, 512, 513, 600])
    def test_ragged_shard_layouts(self, ragged_bundle, shard_size):
        assert len(ragged_bundle.population.series) == 600
        assert len({s.length for s in ragged_bundle.population.series}) > 1
        verdicts, suite = _identify(
            StreamingExperiment(
                generator_config=self.RAGGED,
                seed=0,
                backend="serial",
                shard_size=shard_size,
            )
        )
        assert _ideal(verdicts) == ragged_bundle.partition.ideal_indices
        assert _limit_bytes(suite) == _limit_bytes(ragged_bundle.suite)

    @pytest.mark.parametrize(
        "backend",
        [ThreadBackend(2), ProcessBackend(2, min_units=1)],
        ids=lambda b: b.name,
    )
    @pytest.mark.parametrize("recipe", ["small", "ragged"])
    def test_backends(self, small_bundle, ragged_bundle, recipe, backend):
        if recipe == "small":
            bundle, gen = small_bundle, SCALES["small"].generator
        else:
            bundle, gen = ragged_bundle, self.RAGGED
        verdicts, suite = _identify(
            StreamingExperiment(
                generator_config=gen, seed=0, backend=backend, shard_size=513
            )
        )
        assert _ideal(verdicts) == bundle.partition.ideal_indices
        assert _limit_bytes(suite) == _limit_bytes(bundle.suite)

    def test_log_transform_fit(self, small_bundle):
        """The transformed fit column cut from kept segment rows pools the
        same floats as the in-memory fit."""
        transform = ScaleTransform.log_attr1()
        partition, reference = identify_ideal(
            small_bundle.population, transform=transform
        )
        verdicts, suite = _identify(
            StreamingExperiment.from_scale(
                "small", seed=0, backend="serial", shard_size=513,
                transform=transform,
            )
        )
        assert _ideal(verdicts) == partition.ideal_indices
        assert _limit_bytes(suite) == _limit_bytes(reference)


def _after_spill_pass(monkeypatch, hook):
    """Run *hook* once the spill pass is done, before the fixed-point rounds
    (the profile pass runs before ``identify_fixed_point`` is entered)."""
    real = streaming_module.identify_fixed_point

    def wrapped(*args, **kwargs):
        hook()
        return real(*args, **kwargs)

    monkeypatch.setattr(streaming_module, "identify_fixed_point", wrapped)


class TestEveryPassChecksTheStore:
    """The recipe fingerprint is hashed once per source, but every load still
    compares it with the stored header."""

    def _engine(self, tmp_path):
        # A backend instance, not a name: REPRO_BACKEND must not move the
        # passes into workers, whose warnings never reach pytest.warns.
        return StreamingExperiment.from_scale(
            "tiny", seed=0, backend=SerialBackend(), shard_size=31,
            spill_dir=str(tmp_path / "spill"),
        )

    def _check_regenerated(self, tiny_bundle, engine, verdicts, suite, bad):
        target = engine.feed.sources[1]
        assert read_shard(target.store_path).fingerprint == target.fingerprint
        with open(target.store_path, "rb") as fh:
            assert fh.read() != bad
        assert _ideal(verdicts) == tiny_bundle.partition.ideal_indices
        assert _limit_bytes(suite) == _limit_bytes(tiny_bundle.suite)

    def test_foreign_shard_swapped_in_after_spill(
        self, tiny_bundle, tmp_path, monkeypatch
    ):
        engine = self._engine(tmp_path)
        foreign = SlabFeed(
            SCALES["tiny"].generator, seed=1, shard_size=31,
            spill_dir=str(tmp_path / "foreign"),
        )
        open_slab(foreign.sources[1], spill=True)
        with open(foreign.sources[1].store_path, "rb") as fh:
            bad = fh.read()
        target = engine.feed.sources[1]

        def swap():
            assert read_shard(target.store_path).fingerprint == target.fingerprint
            with open(target.store_path, "wb") as fh:
                fh.write(bad)

        _after_spill_pass(monkeypatch, swap)
        try:
            with pytest.warns(StoreWarning, match="fingerprint mismatch"):
                verdicts, suite = engine.identify()
            self._check_regenerated(tiny_bundle, engine, verdicts, suite, bad)
        finally:
            engine.feed.cleanup()
            foreign.cleanup()

    def test_shard_torn_after_spill(self, tiny_bundle, tmp_path, monkeypatch):
        engine = self._engine(tmp_path)
        target = engine.feed.sources[1]
        torn = []

        def tear():
            with open(target.store_path, "r+b") as fh:
                fh.truncate(os.path.getsize(target.store_path) // 2)
            with open(target.store_path, "rb") as fh:
                torn.append(fh.read())

        _after_spill_pass(monkeypatch, tear)
        try:
            with pytest.warns(StoreWarning, match="unreadable"):
                verdicts, suite = engine.identify()
            self._check_regenerated(tiny_bundle, engine, verdicts, suite, torn[0])
        finally:
            engine.feed.cleanup()


def test_fixed_point_rebuilds_no_series_and_packs_no_rows(
    tiny_bundle, monkeypatch
):
    """After the spill pass, identification reads chunk views of the stored
    row segments: it builds no per-series views and packs no rows."""
    calls = {"series": 0, "pack": 0}
    armed = []
    series, pack = ShardHandle.series, RowChunk.pack.__func__

    def counted_series(self, nodes):
        calls["series"] += bool(armed)
        return series(self, nodes)

    def counted_pack(cls, rows):
        calls["pack"] += bool(armed)
        return pack(cls, rows)

    monkeypatch.setattr(ShardHandle, "series", counted_series)
    monkeypatch.setattr(RowChunk, "pack", classmethod(counted_pack))
    _after_spill_pass(monkeypatch, lambda: armed.append(True))
    engine = StreamingExperiment.from_scale(
        "tiny", seed=0, backend=SerialBackend(), shard_size=31
    )
    verdicts, _suite = _identify(engine)
    assert armed and engine._store_passes > 2
    assert calls == {"series": 0, "pack": 0}
    assert _ideal(verdicts) == tiny_bundle.partition.ideal_indices
