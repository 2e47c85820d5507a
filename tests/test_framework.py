"""Experiment framework: configs, runner, outcomes, distortion wiring."""

import numpy as np
import pytest

from repro.cleaning.registry import paper_strategies, strategy_by_name
from repro.core.distortion import statistical_distortion
from repro.core.evaluation import glitch_fraction_table, summarize_outcomes
from repro.core.framework import ExperimentConfig, ExperimentRunner
from repro.distance.emd_approx import MarginalEmd
from repro.errors import DistanceError, ExperimentError, ReproError
from repro.glitches.detectors import ScaleTransform
from repro.glitches.types import GlitchType


@pytest.fixture(scope="module")
def mini_result(tiny_bundle):
    cfg = ExperimentConfig(n_replications=3, sample_size=10, seed=0)
    runner = ExperimentRunner(tiny_bundle.dirty, tiny_bundle.ideal, config=cfg)
    return runner.run(paper_strategies())


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = ExperimentConfig()
        assert cfg.n_replications == 50
        assert cfg.sample_size == 100
        assert cfg.log_transform

    def test_transform_property(self):
        assert ExperimentConfig(log_transform=True).transform is not None
        assert ExperimentConfig(log_transform=False).transform is None

    def test_variant(self):
        cfg = ExperimentConfig().variant(sample_size=500)
        assert cfg.sample_size == 500
        assert cfg.n_replications == 50

    def test_rejects_bad_values(self):
        with pytest.raises(Exception):
            ExperimentConfig(n_replications=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(sigma_k=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sigma_k", float("nan")),
            ("sigma_k", float("inf")),
            ("sigma_k", True),
            ("sigma_k", "3"),
            ("log_transform", "no"),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", "a"),
        ],
        ids=[
            "sigma_k-nan",
            "sigma_k-inf",
            "sigma_k-bool",
            "sigma_k-str",
            "log_transform-str",
            "seed-negative",
            "seed-float",
            "seed-str",
        ],
    )
    def test_rejects_malformed_field(self, field, value):
        with pytest.raises(ReproError):
            ExperimentConfig(**{field: value})

    def test_non_positive_sigma_k_stays_experiment_error(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(sigma_k=-1.0)

    @pytest.mark.parametrize(
        "seed",
        [None, 0, 7, np.int64(7), np.random.default_rng(3), np.random.SeedSequence(3)],
        ids=["none", "zero", "int", "numpy-int", "generator", "seed-sequence"],
    )
    def test_accepts_valid_seeds_uncoerced(self, seed):
        assert ExperimentConfig(seed=seed).seed is seed


class TestDistortionFunction:
    def test_identity_zero(self, tiny_bundle):
        assert statistical_distortion(
            tiny_bundle.dirty, tiny_bundle.dirty
        ) == pytest.approx(0.0, abs=1e-9)

    def test_transform_changes_value(self, tiny_pair, log_context):
        treated = strategy_by_name("strategy4").clean(tiny_pair.dirty, log_context)
        raw = statistical_distortion(tiny_pair.dirty, treated)
        logd = statistical_distortion(
            tiny_pair.dirty, treated, transform=ScaleTransform.log_attr1()
        )
        assert raw != pytest.approx(logd, rel=1e-3)

    def test_custom_distance(self, tiny_pair, raw_context):
        treated = strategy_by_name("strategy4").clean(tiny_pair.dirty, raw_context)
        d = statistical_distortion(tiny_pair.dirty, treated, distance=MarginalEmd())
        assert d > 0


class TestRunner:
    def test_outcome_count(self, mini_result):
        assert len(mini_result.outcomes) == 3 * 5

    def test_strategies_listed_in_order(self, mini_result):
        assert mini_result.strategies == [f"strategy{i}" for i in range(1, 6)]

    def test_for_strategy(self, mini_result):
        rows = mini_result.for_strategy("strategy3")
        assert len(rows) == 3
        assert {r.replication for r in rows} == {0, 1, 2}

    def test_scatter_shapes(self, mini_result):
        xs, ys = mini_result.scatter("strategy1")
        assert len(xs) == len(ys) == 3

    def test_dirty_fractions_shared_across_strategies(self, mini_result):
        by_rep: dict[int, dict] = {}
        by_rep_g: dict[int, float] = {}
        for o in mini_result.outcomes:
            key = o.replication
            if key in by_rep:
                assert o.dirty_fractions == by_rep[key]
                assert o.glitch_index_dirty == pytest.approx(by_rep_g[key])
            else:
                by_rep[key] = o.dirty_fractions
                by_rep_g[key] = o.glitch_index_dirty

    def test_glitch_index_consistency(self, mini_result):
        for o in mini_result.outcomes:
            assert o.improvement == pytest.approx(
                o.glitch_index_dirty - o.glitch_index_treated
            )

    def test_distortion_nonnegative(self, mini_result):
        assert all(o.distortion >= 0 for o in mini_result.outcomes)

    def test_duplicate_strategy_names_rejected(self, tiny_bundle):
        runner = ExperimentRunner(
            tiny_bundle.dirty,
            tiny_bundle.ideal,
            config=ExperimentConfig(n_replications=1, sample_size=5),
        )
        s = strategy_by_name("strategy4")
        with pytest.raises(ExperimentError):
            runner.run([s, s])

    def test_empty_strategy_list_rejected(self, tiny_bundle):
        runner = ExperimentRunner(tiny_bundle.dirty, tiny_bundle.ideal)
        with pytest.raises(ExperimentError):
            runner.run([])

    def test_deterministic(self, tiny_bundle):
        cfg = ExperimentConfig(n_replications=2, sample_size=8, seed=5)
        a = ExperimentRunner(tiny_bundle.dirty, tiny_bundle.ideal, config=cfg).run(
            [strategy_by_name("strategy4")]
        )
        b = ExperimentRunner(tiny_bundle.dirty, tiny_bundle.ideal, config=cfg).run(
            [strategy_by_name("strategy4")]
        )
        for oa, ob in zip(a.outcomes, b.outcomes):
            assert oa.improvement == pytest.approx(ob.improvement)
            assert oa.distortion == pytest.approx(ob.distortion)


class TestSummaries:
    def test_one_summary_per_strategy(self, mini_result):
        summaries = mini_result.summaries()
        assert [s.strategy for s in summaries] == mini_result.strategies

    def test_summary_stats(self, mini_result):
        s = mini_result.summaries()[0]
        rows = mini_result.for_strategy(s.strategy)
        assert s.n_replications == len(rows)
        assert s.improvement_mean == pytest.approx(
            np.mean([r.improvement for r in rows])
        )
        assert s.distortion_std == pytest.approx(
            np.std([r.distortion for r in rows], ddof=1)
        )

    def test_fraction_table_keys(self, mini_result):
        table = glitch_fraction_table(mini_result.outcomes)
        row = table["strategy1"]
        assert set(row) == {
            f"{g.label}_{side}" for g in GlitchType for side in ("dirty", "treated")
        }

    def test_fraction_table_percent_scale(self, mini_result):
        table = glitch_fraction_table(mini_result.outcomes)
        assert 1.0 < table["strategy1"]["missing_dirty"] < 60.0

    def test_empty_outcomes_empty_summary(self):
        assert summarize_outcomes([]) == []
