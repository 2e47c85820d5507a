"""The columnar fast path's bitwise-identity contract.

Every block-level operation must reproduce its per-series counterpart
exactly — same bits, not approximately. These tests pin that contract for
the detector suite, each registry strategy (plus the extension strategies
and wrappers), and the full experiment loop across execution backends in
both layouts.
"""

import numpy as np
import pytest

from repro.cleaning.base import CleaningContext, IdentityStrategy
from repro.cleaning.partial import PartialCleaner
from repro.cleaning.registry import paper_strategies, strategy_by_name
from repro.cleaning.remeasure import RemeasureStrategy
from repro.core.distortion import statistical_distortion_batch
from repro.core.executor import ProcessBackend, SerialBackend, ThreadBackend
from repro.core.framework import (
    ExperimentConfig,
    ExperimentRunner,
    run_pair_panels_stream,
)
from repro.core.glitch_index import (
    GlitchWeights,
    series_glitch_scores,
    series_glitch_scores_block,
)
from repro.data.dataset import StreamDataset
from repro.errors import ValidationError
from repro.glitches.detectors import DetectorSuite, ScaleTransform
from repro.sampling import replication
from repro.sampling.replication import generate_test_pairs

REGISTRY_NAMES = [f"strategy{i}" for i in range(1, 6)]


@pytest.fixture(scope="module")
def block_pair(tiny_bundle):
    """One replication pair carrying both layouts."""
    pair = next(
        generate_test_pairs(tiny_bundle.dirty, tiny_bundle.ideal, 1, 14, seed=11)
    )
    assert pair.dirty_block is not None  # uniform-length population
    return pair


def _context(pair, log=True, seed=123):
    return CleaningContext(
        ideal=pair.ideal,
        transform=ScaleTransform.log_attr1() if log else None,
        seed=seed,
        ideal_block=pair.ideal_block,
    )


def _assert_layouts_identical(dataset, block):
    assert len(dataset) == block.n_series
    for i, series in enumerate(dataset):
        np.testing.assert_array_equal(series.values, block.values[i])


class TestStrategyEquivalence:
    """clean() and clean_block() are bitwise-identical under fixed seeds."""

    @pytest.mark.parametrize("name", REGISTRY_NAMES)
    @pytest.mark.parametrize("log", [True, False])
    def test_registry_strategy(self, block_pair, name, log):
        strategy = strategy_by_name(name)
        treated_series = strategy.clean(
            block_pair.dirty, _context(block_pair, log=log)
        )
        treated_block = strategy.clean_block(
            block_pair.dirty_block, _context(block_pair, log=log)
        )
        assert treated_block is not None
        _assert_layouts_identical(treated_series, treated_block)

    @pytest.mark.parametrize(
        "name", ["interpolate", "interpolate+winsorize", "regression"]
    )
    def test_extension_strategies(self, block_pair, name):
        strategy = strategy_by_name(name)
        treated_series = strategy.clean(block_pair.dirty, _context(block_pair))
        treated_block = strategy.clean_block(
            block_pair.dirty_block, _context(block_pair)
        )
        assert treated_block is not None
        _assert_layouts_identical(treated_series, treated_block)

    def test_identity_strategy(self, block_pair):
        strategy = IdentityStrategy()
        treated_block = strategy.clean_block(
            block_pair.dirty_block, _context(block_pair)
        )
        _assert_layouts_identical(
            strategy.clean(block_pair.dirty, _context(block_pair)), treated_block
        )

    @pytest.mark.parametrize("coverage", [1.0, 0.4])
    def test_remeasure(self, block_pair, coverage):
        strategy = RemeasureStrategy(coverage=coverage, include_outliers=True)
        treated_series = strategy.clean(block_pair.dirty, _context(block_pair))
        treated_block = strategy.clean_block(
            block_pair.dirty_block, _context(block_pair)
        )
        _assert_layouts_identical(treated_series, treated_block)

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_partial_cleaner(self, block_pair, fraction):
        strategy = PartialCleaner(strategy_by_name("strategy4"), fraction=fraction)
        treated_series = strategy.clean(block_pair.dirty, _context(block_pair))
        treated_block = strategy.clean_block(
            block_pair.dirty_block, _context(block_pair)
        )
        assert treated_block is not None
        _assert_layouts_identical(treated_series, treated_block)
        assert strategy.cost_fraction == fraction


class TestLegacyConstraintCompat:
    def test_evaluate_only_subclass_works_on_blocks(self, block_pair):
        from repro.glitches.constraints import Constraint, ConstraintSet

        class LegacyNegativeAttr2(Constraint):
            """Implements only the original per-series contract."""

            def evaluate(self, series):
                mask = np.zeros(series.values.shape, dtype=bool)
                col = series.values[:, 1]
                with np.errstate(invalid="ignore"):
                    mask[:, 1] = np.isfinite(col) & (col < 0)
                return mask

            def describe(self):
                return "attr2 >= 0 (legacy)"

        constraint_set = ConstraintSet([LegacyNegativeAttr2()])
        block = block_pair.dirty_block
        block_mask = constraint_set.evaluate_values(block.values, block.attributes)
        for i, series in enumerate(block_pair.dirty):
            np.testing.assert_array_equal(
                constraint_set.evaluate(series), block_mask[i]
            )


class TestAnnotationEquivalence:
    def test_annotate_block_matches_annotate_dataset(self, block_pair):
        suite = DetectorSuite.from_ideal(
            block_pair.ideal, transform=ScaleTransform.log_attr1()
        )
        per_series = suite.annotate_dataset(block_pair.dirty)
        block = suite.annotate_block(block_pair.dirty_block)
        assert len(per_series) == block.n_series
        for i, matrix in enumerate(per_series):
            np.testing.assert_array_equal(matrix.bits, block.bits[i])
        assert per_series.record_fractions() == block.record_fractions()

    def test_analysis_block_annotates_bitwise_alike(self, block_pair):
        # The framework scales each block once and flags outliers on the
        # scaled tensor; the bits must equal annotating the raw block.
        for transform in (ScaleTransform.log_attr1(), None):
            suite = DetectorSuite.from_ideal(block_pair.ideal, transform=transform)
            analysis = suite.analysis_block(block_pair.dirty_block)
            assert analysis.raw is block_pair.dirty_block
            expected = np.asarray(block_pair.dirty_block.values, dtype=float)
            if transform is not None:
                expected = transform.forward_values(
                    expected, block_pair.dirty_block.attributes
                )
            np.testing.assert_array_equal(analysis.scaled.values, expected)
            np.testing.assert_array_equal(
                suite.annotate_block(analysis).bits,
                suite.annotate_block(block_pair.dirty_block).bits,
            )

    def test_analysis_block_of_another_scale_is_refused(self, block_pair):
        logged = DetectorSuite.from_ideal(
            block_pair.ideal, transform=ScaleTransform.log_attr1()
        )
        raw = DetectorSuite.from_ideal(block_pair.ideal)
        with pytest.raises(ValidationError, match="another transform"):
            raw.annotate_block(logged.analysis_block(block_pair.dirty_block))
        with pytest.raises(ValidationError, match="another transform"):
            logged.annotate_block(raw.analysis_block(block_pair.dirty_block))

    def test_block_scores_match_series_scores(self, block_pair):
        suite = DetectorSuite.from_ideal(block_pair.ideal)
        weights = GlitchWeights()
        expected = series_glitch_scores(
            suite.annotate_dataset(block_pair.dirty), weights
        )
        got = series_glitch_scores_block(
            suite.annotate_block(block_pair.dirty_block), weights
        )
        np.testing.assert_array_equal(expected, got)


class TestDistortionEquivalence:
    def test_block_columns_match_per_series_pooling(self, block_pair):
        context = _context(block_pair)
        strategies = [strategy_by_name(n) for n in REGISTRY_NAMES]
        treated_blocks = [
            s.clean_block(block_pair.dirty_block, context) for s in strategies
        ]
        treated_sets = [StreamDataset.from_block(b) for b in treated_blocks]
        transform = ScaleTransform.log_attr1()
        from_blocks = statistical_distortion_batch(
            block_pair.dirty_block, treated_blocks, transform=transform
        )
        from_series = statistical_distortion_batch(
            block_pair.dirty, treated_sets, transform=transform
        )
        assert from_blocks == from_series


class TestFullRunEquivalence:
    """Outcome lists are bitwise-identical: per-series/block layout x all
    backends."""

    @staticmethod
    def _keys(result):
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
            for o in result.outcomes
        ]

    @staticmethod
    def _per_series(bundle, cfg, backend=None):
        """The per-series reference run: the same pairs with their blocks
        dropped."""
        pairs = (
            replication.TestPair(index=p.index, dirty=p.dirty, ideal=p.ideal)
            for p in generate_test_pairs(
                bundle.dirty,
                bundle.ideal,
                cfg.n_replications,
                cfg.sample_size,
                seed=cfg.seed,
            )
        )
        return run_pair_panels_stream(
            pairs, [paper_strategies()], cfg, backend=backend
        )[0]

    def test_block_vs_loop_across_backends(self, tiny_bundle):
        cfg = ExperimentConfig(n_replications=2, sample_size=10, seed=3)
        backends = {
            "serial": SerialBackend,
            "thread": lambda: ThreadBackend(2),
            "process": lambda: ProcessBackend(2, min_units=1),
        }
        reference_keys = self._keys(self._per_series(tiny_bundle, cfg))
        for layout in ("series", "block"):
            for name, factory in backends.items():
                if layout == "series":
                    result = self._per_series(tiny_bundle, cfg, factory())
                else:
                    result = ExperimentRunner(
                        tiny_bundle.dirty,
                        tiny_bundle.ideal,
                        config=cfg,
                        backend=factory(),
                    ).run(paper_strategies())
                assert self._keys(result) == reference_keys, (
                    f"outcomes diverged: layout={layout}, backend={name}"
                )

    def test_fast_path_engages_by_default(self, tiny_bundle):
        pair = next(
            generate_test_pairs(tiny_bundle.dirty, tiny_bundle.ideal, 1, 5, seed=0)
        )
        assert pair.dirty_block is not None
        assert pair.ideal_block is not None
