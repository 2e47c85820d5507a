"""The streaming slab engine's identity contract.

The engine must be *bitwise-identical* to the materialised path — same
dirty/ideal split, same fitted limits, same replication samples, same
outcome floats — on every execution backend, at any shard size, with
spilling on or off, and on ragged populations the block fast path cannot
even touch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cleaning.registry import paper_strategies, strategy_by_name
from repro.core.executor import ProcessBackend, SerialBackend, ThreadBackend
from repro.core.framework import ExperimentConfig, ExperimentRunner
from repro.core.streaming import (
    StreamingExperiment,
    run_streaming_experiment,
    streaming_enabled,
)
from repro.data.generator import GeneratorConfig
from repro.errors import ValidationError
from repro.experiments.config import build_population, experiment_config
from repro.experiments.paper import run_experiment

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
        streamed = run_streaming_experiment(
            "tiny", seed=0, config=tiny_cfg, strategies=STRATEGIES
        )
        assert len(streamed.outcomes) == tiny_cfg.n_replications * len(STRATEGIES)
