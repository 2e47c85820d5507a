"""Execution backends: primitives, resolution, and run determinism.

The contract under test is the one the framework's parallel refactor rests
on: every backend evaluates each work unit exactly once, preserves order,
and — because each replication carries its own pre-spawned random stream —
produces an outcome list *identical* to the serial reference.
"""

import os

import numpy as np
import pytest

from repro.cleaning.registry import paper_strategies, strategy_by_name
from repro.core.executor import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    default_worker_count,
    parse_backend_spec,
    resolve_backend,
)
from repro.core.framework import ExperimentConfig, ExperimentRunner
from repro.errors import ExperimentError, ValidationError
from repro.testing.faults import active_plan


def _square(x):
    """Module-level so ProcessBackend can pickle it."""
    return x * x


ALL_BACKENDS = [SerialBackend(), ThreadBackend(n_workers=2), ProcessBackend(n_workers=2)]


class TestBackendPrimitives:
    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_map_preserves_order(self, backend):
        items = list(range(13))
        assert backend.map(_square, items) == [x * x for x in items]

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_map_empty(self, backend):
        assert backend.map(_square, []) == []

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, ExecutionBackend)
        assert backend.name in BACKEND_NAMES

    def test_single_item_short_circuits(self):
        # one item never pays pool start-up cost, on any backend
        assert ProcessBackend(n_workers=4).map(_square, [3]) == [9]
        assert ThreadBackend(n_workers=4).map(_square, [3]) == [9]

    def test_worker_counts_validated(self):
        with pytest.raises(Exception):
            ThreadBackend(n_workers=0)
        with pytest.raises(Exception):
            ProcessBackend(n_workers=-1)
        assert default_worker_count() >= 1


class TestProcessMinUnits:
    """The small-batch serial fallback of the process backend."""

    def test_default_threshold_is_worker_independent(self, monkeypatch):
        # An absolute default: scaling with the worker count would make
        # more cores more likely to silently serialise a typical R=50 run.
        monkeypatch.delenv("REPRO_PROCESS_MIN_UNITS", raising=False)
        assert ProcessBackend(n_workers=2).resolved_min_units() == 16
        assert ProcessBackend(n_workers=32).resolved_min_units() == 16

    def test_explicit_min_units_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESS_MIN_UNITS", "100")
        assert ProcessBackend(n_workers=2, min_units=3).resolved_min_units() == 3
        assert ProcessBackend(n_workers=2).resolved_min_units() == 100

    def test_env_threshold_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESS_MIN_UNITS", "soon")
        with pytest.raises(ExperimentError):
            ProcessBackend(n_workers=2).resolved_min_units()
        monkeypatch.setenv("REPRO_PROCESS_MIN_UNITS", "0")
        assert ProcessBackend(n_workers=2).resolved_min_units() == 1
        with pytest.raises(Exception):
            ProcessBackend(n_workers=2, min_units=0)

    def test_small_batches_fall_back_to_serial(self, monkeypatch):
        # Below the threshold the map must not fork a pool at all: an
        # unpicklable work function would explode inside Pool.map, but runs
        # fine in the serial fallback.
        monkeypatch.delenv("REPRO_PROCESS_MIN_UNITS", raising=False)
        backend = ProcessBackend(n_workers=2)
        unpicklable = lambda x: x * x  # noqa: E731
        assert backend.map(unpicklable, [1, 2, 3]) == [1, 4, 9]

    def test_fallback_results_identical_to_pool(self):
        items = list(range(5))
        fallback = ProcessBackend(n_workers=2, min_units=64).map(_square, items)
        pooled = ProcessBackend(n_workers=2, min_units=1).map(_square, items)
        assert fallback == pooled == [x * x for x in items]

    def test_pipeline_exempts_default_fallback(self, monkeypatch):
        # Sharded stages are few, coarse units — the count heuristic that
        # protects the cheap replication loop must not serialise them.
        from repro.core.pipeline import Pipeline

        monkeypatch.delenv("REPRO_PROCESS_MIN_UNITS", raising=False)
        assert Pipeline("process:2").backend.resolved_min_units() == 1
        # An explicit threshold (arg or env) is respected as given.
        pinned = Pipeline(ProcessBackend(2, min_units=7))
        assert pinned.backend.resolved_min_units() == 7
        monkeypatch.setenv("REPRO_PROCESS_MIN_UNITS", "9")
        assert Pipeline("process:2").backend.resolved_min_units() == 9


class TestBackendSpecParsing:
    def test_plain_names(self):
        for name in BACKEND_NAMES:
            assert parse_backend_spec(name) == (name, None)

    def test_worker_suffix(self):
        assert parse_backend_spec("process:4") == ("process", 4)
        assert parse_backend_spec(" Thread : 2 ") == ("thread", 2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ExperimentError):
            parse_backend_spec("gpu")

    def test_bad_worker_counts_rejected(self):
        with pytest.raises(ExperimentError):
            parse_backend_spec("process:0")
        with pytest.raises(ExperimentError):
            parse_backend_spec("process:lots")


#: Specs outside ``serial | thread[:N] | process[:N]`` (N in ASCII digits,
#: N >= 1), including every form of the removed cluster backend.
MALFORMED_SPECS = [
    "process:+3",
    "process:1_0",
    "process:\u0663",  # ARABIC-INDIC DIGIT THREE
    "process:",
    "serial:4",
    "cluster",
    "cluster:2",
    "cluster:127.0.0.1:7701",
]


class TestMalformedBackendSpecs:
    @pytest.mark.parametrize("spec", MALFORMED_SPECS)
    def test_parse_rejects(self, spec):
        with pytest.raises(ExperimentError):
            parse_backend_spec(spec)

    @pytest.mark.parametrize("spec", MALFORMED_SPECS)
    def test_env_rejects(self, spec, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", spec)
        with pytest.raises(ExperimentError):
            resolve_backend("serial")

    def test_removed_fault_site_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "conn.drop:1")
        with pytest.raises(ValidationError):
            active_plan()


class TestResolveBackend:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert isinstance(resolve_backend(), SerialBackend)

    def test_resolves_names(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert isinstance(resolve_backend("thread"), ThreadBackend)
        assert isinstance(resolve_backend("process"), ProcessBackend)

    def test_spec_workers_beat_argument(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        backend = resolve_backend("process:3", n_workers=8)
        assert backend.n_workers == 3
        backend = resolve_backend("process", n_workers=8)
        assert backend.n_workers == 8

    def test_env_overrides_name(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "thread:2")
        backend = resolve_backend("serial")
        assert isinstance(backend, ThreadBackend)
        assert backend.n_workers == 2

    def test_blank_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "  ")
        assert isinstance(resolve_backend("thread"), ThreadBackend)

    def test_instance_passes_through_despite_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        backend = ThreadBackend(n_workers=1)
        assert resolve_backend(backend) is backend

    def test_invalid_instance_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_backend(42)  # type: ignore[arg-type]

    def test_env_unknown_name_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "quantum")
        with pytest.raises(ExperimentError):
            resolve_backend()


class TestConfigBackendFields:
    def test_backend_validated_at_construction(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(backend="gpu")
        with pytest.raises(Exception):
            ExperimentConfig(n_workers=0)

    def test_backend_survives_variant(self):
        cfg = ExperimentConfig(backend="process:2", n_workers=2)
        assert cfg.variant(sample_size=7).backend == "process:2"
        assert cfg.variant(backend="thread").backend == "thread"

    def test_runner_resolves_config_backend(self, tiny_bundle, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        cfg = ExperimentConfig(n_replications=1, sample_size=5, backend="thread")
        runner = ExperimentRunner(tiny_bundle.dirty, tiny_bundle.ideal, config=cfg)
        assert isinstance(runner.resolve_backend(), ThreadBackend)

    def test_runner_argument_beats_config(self, tiny_bundle, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        cfg = ExperimentConfig(n_replications=1, sample_size=5, backend="thread")
        runner = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=cfg, backend="serial"
        )
        assert isinstance(runner.resolve_backend(), SerialBackend)


def _outcome_key(o):
    return (
        o.strategy,
        o.replication,
        o.improvement,
        o.distortion,
        o.glitch_index_dirty,
        o.glitch_index_treated,
        o.cost_fraction,
        tuple(sorted((k, v) for k, v in o.dirty_fractions.items())),
        tuple(sorted((k, v) for k, v in o.treated_fractions.items())),
    )


class TestRunDeterminism:
    """Same config through every backend -> identical StrategyOutcome lists."""

    @pytest.fixture(scope="class")
    def reference(self, tiny_bundle):
        cfg = ExperimentConfig(n_replications=3, sample_size=8, seed=11)
        strategies = [strategy_by_name("strategy1"), strategy_by_name("strategy4")]
        runner = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=cfg, backend=SerialBackend()
        )
        return cfg, strategies, runner.run(strategies)

    @pytest.mark.parametrize(
        "backend",
        [ThreadBackend(n_workers=2), ProcessBackend(n_workers=2, min_units=1)],
        ids=lambda b: b.name,
    )
    def test_bitwise_identical_to_serial(self, tiny_bundle, reference, backend):
        cfg, strategies, serial = reference
        parallel = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=cfg, backend=backend
        ).run(strategies)
        assert len(parallel.outcomes) == len(serial.outcomes)
        for a, b in zip(serial.outcomes, parallel.outcomes):
            # exact equality, not approx: parallel evaluation must replay the
            # very same floating-point computation, glitch indexes included
            assert _outcome_key(a) == _outcome_key(b)

    def test_all_five_strategies_thread(self, tiny_bundle):
        cfg = ExperimentConfig(n_replications=2, sample_size=6, seed=3)
        serial = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=cfg, backend="serial"
        ).run(paper_strategies())
        threaded = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=cfg, backend="thread:2"
        ).run(paper_strategies())
        assert [_outcome_key(o) for o in serial.outcomes] == [
            _outcome_key(o) for o in threaded.outcomes
        ]

    def test_env_selected_backend_same_numbers(self, tiny_bundle, monkeypatch):
        cfg = ExperimentConfig(n_replications=2, sample_size=6, seed=3)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        serial = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=cfg
        ).run([strategy_by_name("strategy4")])
        monkeypatch.setenv("REPRO_BACKEND", "thread:2")
        via_env = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=cfg
        ).run([strategy_by_name("strategy4")])
        assert [_outcome_key(o) for o in serial.outcomes] == [
            _outcome_key(o) for o in via_env.outcomes
        ]


class TestEvaluateAndRunAgree:
    def test_run_matches_manual_pair_loop(self, tiny_bundle):
        """The work-unit refactor must not change what run() computes."""
        from repro.sampling.replication import generate_test_pairs
        from repro.utils.rng import spawn_generators

        cfg = ExperimentConfig(n_replications=2, sample_size=6, seed=9)
        runner = ExperimentRunner(tiny_bundle.dirty, tiny_bundle.ideal, config=cfg)
        strategies = [strategy_by_name("strategy3")]
        result = runner.run(strategies)
        pairs = generate_test_pairs(
            tiny_bundle.dirty, tiny_bundle.ideal, cfg.n_replications,
            cfg.sample_size, seed=cfg.seed,
        )
        seeds = spawn_generators(cfg.seed + 1, cfg.n_replications)
        manual = []
        for pair, rng in zip(pairs, seeds):
            manual.extend(runner.evaluate_pair(pair, strategies, seed=rng))
        assert [_outcome_key(o) for o in result.outcomes] == [
            _outcome_key(o) for o in manual
        ]
