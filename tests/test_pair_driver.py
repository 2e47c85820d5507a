"""The pair-stream driver: seed spawning, pair counts and panel arguments."""

import numpy as np
import pytest

from repro.cleaning.registry import paper_strategies, strategy_by_name
from repro.core.executor import ProcessBackend, ThreadBackend
from repro.core.framework import (
    ExperimentConfig,
    ExperimentRunner,
    evaluate_pair_panels,
    run_pair_panels_stream,
    strategy_seeds,
)
from repro.errors import ExperimentError
from repro.sampling.replication import generate_test_pairs
from repro.utils.rng import spawn_generators


def _keys(outcomes):
    return [
        (
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
        for o in outcomes
    ]


class TestNonIntSeeds:
    """A single-panel run spawns its strategy streams from a
    ``SeedSequence``/``Generator`` config seed itself, before the pair
    draws consume the same seed."""

    @pytest.mark.parametrize(
        "make_seed",
        [lambda: np.random.SeedSequence(11), lambda: np.random.default_rng(11)],
        ids=["seed_sequence", "generator"],
    )
    def test_runner_matches_pair_by_pair_rebuild(self, tiny_bundle, make_seed):
        strategies = paper_strategies()
        cfg = ExperimentConfig(n_replications=3, sample_size=8, seed=make_seed())
        result = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=cfg
        ).run(strategies)

        seed = make_seed()
        rebuild_cfg = cfg.variant(seed=seed)
        strategy_seeds = spawn_generators(seed, cfg.n_replications)
        pairs = generate_test_pairs(
            tiny_bundle.dirty,
            tiny_bundle.ideal,
            n_pairs=cfg.n_replications,
            sample_size=cfg.sample_size,
            seed=seed,
        )
        distance = rebuild_cfg.make_distance()
        rebuilt = []
        for pair, strategy_seed in zip(pairs, strategy_seeds):
            rebuilt.extend(
                evaluate_pair_panels(
                    pair,
                    [strategies],
                    rebuild_cfg,
                    distances=[distance],
                    seeds=[strategy_seed],
                )[0]
            )
        assert len(rebuilt) == cfg.n_replications * len(strategies)
        assert _keys(result.outcomes) == _keys(rebuilt)


def _pairs(bundle, n_pairs, sample_size=6, seed=0):
    return generate_test_pairs(
        bundle.dirty, bundle.ideal, n_pairs=n_pairs, sample_size=sample_size,
        seed=seed,
    )


class TestPairCount:
    """The stream must hold exactly ``config.n_replications`` pairs."""

    @pytest.mark.parametrize("n_pairs", [2, 4], ids=["short", "long"])
    def test_stream_length_mismatch_raises(self, tiny_bundle, n_pairs):
        cfg = ExperimentConfig(n_replications=3, sample_size=6, seed=0)
        with pytest.raises(ExperimentError, match="3 .*replications"):
            run_pair_panels_stream(
                _pairs(tiny_bundle, n_pairs), [[strategy_by_name("strategy4")]], cfg
            )

    def test_exact_stream_evaluates_every_pair(self, tiny_bundle):
        cfg = ExperimentConfig(n_replications=3, sample_size=6, seed=0)
        (result,) = run_pair_panels_stream(
            _pairs(tiny_bundle, 3), [paper_strategies()], cfg
        )
        assert len(result.outcomes) == 3 * 5


class TestPanelArguments:
    @pytest.mark.parametrize("n_distances", [1, 3])
    def test_evaluate_pair_panels_checks_distances(self, tiny_bundle, n_distances):
        cfg = ExperimentConfig(n_replications=1, sample_size=6, seed=0)
        pair = next(_pairs(tiny_bundle, 1))
        panels = [[strategy_by_name("strategy4")], [strategy_by_name("strategy5")]]
        with pytest.raises(ExperimentError, match="distances"):
            evaluate_pair_panels(
                pair, panels, cfg, distances=[None] * n_distances
            )

    @pytest.mark.parametrize("n_distances", [1, 3])
    def test_run_pair_panels_stream_checks_distances(self, tiny_bundle, n_distances):
        cfg = ExperimentConfig(n_replications=1, sample_size=6, seed=0)
        panels = [[strategy_by_name("strategy4")], [strategy_by_name("strategy5")]]
        with pytest.raises(ExperimentError, match="distances"):
            run_pair_panels_stream(
                _pairs(tiny_bundle, 1), panels, cfg, distances=[None] * n_distances
            )

    @pytest.mark.parametrize(
        "seed",
        [None, np.random.SeedSequence(1), np.random.default_rng(1)],
        ids=["none", "seed_sequence", "generator"],
    )
    def test_multi_panel_rejects_non_int_seed(self, tiny_bundle, seed):
        cfg = ExperimentConfig(n_replications=1, sample_size=6, seed=seed)
        panels = [[strategy_by_name("strategy4")], [strategy_by_name("strategy5")]]
        with pytest.raises(ExperimentError, match="int config seed"):
            run_pair_panels_stream(_pairs(tiny_bundle, 1), panels, cfg)


def _draws(rngs, n=4):
    return [rng.random(n).tolist() for rng in rngs]


class TestStrategySeeds:
    """``strategy_seeds`` is the one home of the strategy-stream rule."""

    @pytest.mark.parametrize("seed", [0, 3, 41])
    def test_int_seed_spawns_from_seed_plus_one(self, seed):
        cfg = ExperimentConfig(n_replications=3, sample_size=6, seed=seed)
        assert _draws(strategy_seeds(cfg)) == _draws(spawn_generators(seed + 1, 3))

    @pytest.mark.parametrize(
        "make_seed",
        [lambda: np.random.SeedSequence(11), lambda: np.random.default_rng(11)],
        ids=["seed_sequence", "generator"],
    )
    def test_non_int_seed_spawns_from_seed_itself(self, make_seed):
        cfg = ExperimentConfig(n_replications=3, sample_size=6, seed=make_seed())
        assert _draws(strategy_seeds(cfg)) == _draws(spawn_generators(make_seed(), 3))

    @pytest.mark.parametrize("n_replications", [1, 5])
    def test_one_stream_per_replication(self, n_replications):
        cfg = ExperimentConfig(
            n_replications=n_replications, sample_size=6, seed=2
        )
        assert len(strategy_seeds(cfg)) == n_replications

    def test_int_seed_streams_differ_from_pair_draw_streams(self):
        cfg = ExperimentConfig(n_replications=3, sample_size=6, seed=2)
        assert _draws(strategy_seeds(cfg)) != _draws(spawn_generators(2, 3))


_SEEDS = [
    lambda: 7,
    lambda: np.random.SeedSequence(7),
    lambda: np.random.default_rng(7),
]
_SEED_IDS = ["int", "seed_sequence", "generator"]


class TestSinglePanel:
    """``ExperimentRunner`` is a thin single-panel front over the driver."""

    @pytest.mark.parametrize("make_seed", _SEEDS, ids=_SEED_IDS)
    def test_direct_call_matches_runner(self, tiny_bundle, make_seed):
        strategies = paper_strategies()
        cfg = ExperimentConfig(n_replications=2, sample_size=6, seed=make_seed())
        result = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=cfg
        ).run(strategies)

        seed = make_seed()
        direct_cfg = cfg.variant(seed=seed)
        pairs = generate_test_pairs(
            tiny_bundle.dirty,
            tiny_bundle.ideal,
            n_pairs=cfg.n_replications,
            sample_size=cfg.sample_size,
            seed=seed,
        )
        (direct,) = run_pair_panels_stream(pairs, [strategies], direct_cfg)
        assert _keys(direct.outcomes) == _keys(result.outcomes)

    @pytest.mark.parametrize("seed", [0, 9])
    def test_int_seed_matches_pair_by_pair_rebuild(self, tiny_bundle, seed):
        strategies = paper_strategies()
        cfg = ExperimentConfig(n_replications=3, sample_size=8, seed=seed)
        result = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=cfg
        ).run(strategies)

        pairs = generate_test_pairs(
            tiny_bundle.dirty,
            tiny_bundle.ideal,
            n_pairs=cfg.n_replications,
            sample_size=cfg.sample_size,
            seed=seed,
        )
        distance = cfg.make_distance()
        rebuilt = []
        for pair, strategy_seed in zip(
            pairs, spawn_generators(seed + 1, cfg.n_replications)
        ):
            rebuilt.extend(
                evaluate_pair_panels(
                    pair,
                    [strategies],
                    cfg,
                    distances=[distance],
                    seeds=[strategy_seed],
                )[0]
            )
        assert _keys(result.outcomes) == _keys(rebuilt)

    def test_evaluate_pair_is_first_panel(self, tiny_bundle):
        strategies = paper_strategies()
        cfg = ExperimentConfig(n_replications=1, sample_size=8, seed=0)
        pair = next(_pairs(tiny_bundle, 1, sample_size=8))
        runner = ExperimentRunner(tiny_bundle.dirty, tiny_bundle.ideal, config=cfg)
        (panel,) = evaluate_pair_panels(pair, [strategies], cfg, seeds=[5])
        assert _keys(runner.evaluate_pair(pair, strategies, seed=5)) == _keys(panel)

    def test_unseeded_run_evaluates_every_replication(self, tiny_bundle):
        strategies = paper_strategies()
        cfg = ExperimentConfig(n_replications=2, sample_size=6, seed=None)
        result = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=cfg
        ).run(strategies)
        assert [(o.replication, o.strategy) for o in result.outcomes] == [
            (i, s.name) for i in range(2) for s in strategies
        ]


class TestPairCountAcrossBackends:
    """Parallel backends materialise the stream; the count check still
    holds, and a multi-panel pass checks it too."""

    @pytest.mark.parametrize(
        "make_backend",
        [lambda: ThreadBackend(2), lambda: ProcessBackend(2, min_units=1)],
        ids=["thread", "process"],
    )
    @pytest.mark.parametrize("n_pairs", [2, 4], ids=["short", "long"])
    def test_parallel_backend_rejects_length_mismatch(
        self, tiny_bundle, n_pairs, make_backend
    ):
        cfg = ExperimentConfig(n_replications=3, sample_size=6, seed=0)
        with pytest.raises(ExperimentError, match="3 .*replications"):
            run_pair_panels_stream(
                _pairs(tiny_bundle, n_pairs),
                [[strategy_by_name("strategy4")]],
                cfg,
                backend=make_backend(),
            )

    @pytest.mark.parametrize("n_pairs", [2, 4], ids=["short", "long"])
    def test_multi_panel_rejects_length_mismatch(self, tiny_bundle, n_pairs):
        cfg = ExperimentConfig(n_replications=3, sample_size=6, seed=0)
        panels = [[strategy_by_name("strategy4")], [strategy_by_name("strategy5")]]
        with pytest.raises(ExperimentError, match="3 .*replications"):
            run_pair_panels_stream(_pairs(tiny_bundle, n_pairs), panels, cfg)

    def test_empty_stream_raises(self):
        cfg = ExperimentConfig(n_replications=1, sample_size=6, seed=0)
        with pytest.raises(ExperimentError, match="held 0 pairs"):
            run_pair_panels_stream(iter(()), [[strategy_by_name("strategy4")]], cfg)


class TestMatchingDistances:
    def test_explicit_distances_equal_config_default(self, tiny_bundle):
        cfg = ExperimentConfig(n_replications=2, sample_size=6, seed=0)
        panels = [[strategy_by_name("strategy4")], [strategy_by_name("strategy5")]]
        default = run_pair_panels_stream(_pairs(tiny_bundle, 2), panels, cfg)
        explicit = run_pair_panels_stream(
            _pairs(tiny_bundle, 2),
            panels,
            cfg,
            distances=[cfg.make_distance(), None],
        )
        assert [_keys(r.outcomes) for r in explicit] == [
            _keys(r.outcomes) for r in default
        ]
