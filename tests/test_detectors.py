"""DetectorSuite, scale transforms, and ideal-set identification."""

import statistics

import numpy as np
import pytest

from repro.core.incremental import (
    cleanliness_fractions,
    outlier_fractions,
    series_chunks,
)
from repro.errors import ValidationError
from repro.glitches.constraints import (
    LowerBoundConstraint,
    RangeConstraint,
    paper_constraints,
)
from repro.glitches.detectors import (
    DetectorSuite,
    ScaleTransform,
    identify_ideal,
    partition_by_cleanliness,
)
from repro.glitches.outliers import WindowedOutlierDetector
from repro.glitches.types import GlitchType

from helpers import make_dataset, make_series


class TestScaleTransform:
    def test_log_attr1_forward_inverse_roundtrip(self):
        tr = ScaleTransform.log_attr1()
        s = make_series([[10.0, 2.0, 0.9], [20.0, 3.0, 0.8]])
        back = tr.inverse_values(
            tr.forward_values(s.values, s.attributes), s.attributes
        )
        assert np.allclose(back, s.values)

    def test_forward_negative_becomes_nan(self):
        tr = ScaleTransform.log_attr1()
        s = make_series([[-5.0, 2.0, 0.9]])
        out = tr.forward_values(s.values, s.attributes)
        assert np.isnan(out[0, 0])
        assert out[0, 1] == 2.0

    def test_apply_dataset(self, tiny_bundle):
        tr = ScaleTransform.log_attr1()
        scaled = tr.apply_dataset(tiny_bundle.ideal)
        raw = tiny_bundle.ideal.pooled_column("attr1")
        log = scaled.pooled_column("attr1")
        assert np.median(log) == pytest.approx(np.log(np.median(raw)), rel=0.05)

    def test_missing_inverse_raises(self):
        tr = ScaleTransform("attr1", np.log, "log-only")
        with pytest.raises(ValidationError):
            tr.inverse_values(np.zeros((1, 3)), ("attr1", "attr2", "attr3"))

    def test_absent_attribute_is_noop(self):
        tr = ScaleTransform("zzz", np.log, "zzz", inverse=np.exp)
        values = np.ones((2, 3))
        assert np.array_equal(tr.forward_values(values, ("a", "b", "c")), values)


class TestDetectorSuite:
    def test_annotation_shape(self, tiny_bundle):
        series = tiny_bundle.dirty[0]
        matrix = tiny_bundle.suite.annotate(series)
        assert matrix.bits.shape == (series.length, 3, 3)

    def test_missing_plane_matches_nan(self, tiny_bundle):
        series = tiny_bundle.dirty[0]
        matrix = tiny_bundle.suite.annotate(series)
        assert np.array_equal(
            matrix.plane(GlitchType.MISSING), np.isnan(series.values)
        )

    def test_no_outlier_detector_means_no_outliers(self, tiny_bundle):
        suite = DetectorSuite(outlier_detector=None)
        matrix = suite.annotate(tiny_bundle.dirty[0])
        assert not matrix.plane(GlitchType.OUTLIER).any()

    def test_transform_only_changes_outlier_plane(self, tiny_bundle):
        """Table 1: missing/inconsistent rates identical with and without log."""
        raw = DetectorSuite.from_ideal(tiny_bundle.ideal)
        log = DetectorSuite.from_ideal(
            tiny_bundle.ideal, transform=ScaleTransform.log_attr1()
        )
        for series in tiny_bundle.dirty.series[:10]:
            a = raw.annotate(series)
            b = log.annotate(series)
            assert np.array_equal(
                a.plane(GlitchType.MISSING), b.plane(GlitchType.MISSING)
            )
            assert np.array_equal(
                a.plane(GlitchType.INCONSISTENT), b.plane(GlitchType.INCONSISTENT)
            )

    def test_detect_only_detector_runs_in_padded_blocks(self, tiny_bundle):
        """A detector with only a per-series ``detect`` still feeds the
        padded-block outlier pass, with the per-series verdicts."""
        suite = DetectorSuite(
            outlier_detector=WindowedOutlierDetector(window=12, k=2.5, min_history=4)
        )
        series = tiny_bundle.population.series[:40]
        expected = [
            suite.annotate(s).record_fraction(GlitchType.OUTLIER) for s in series
        ]
        assert outlier_fractions(series_chunks(series), suite).tolist() == expected
        assert max(expected) > 0

    def test_log_scale_flags_dips(self, small_bundle):
        """Log-scale outlier rate exceeds raw-scale rate (Table 1's 5% vs 17%)."""
        raw = DetectorSuite.from_ideal(small_bundle.ideal)
        log = DetectorSuite.from_ideal(
            small_bundle.ideal, transform=ScaleTransform.log_attr1()
        )
        raw_rate = raw.annotate_dataset(small_bundle.dirty).record_fraction(
            GlitchType.OUTLIER
        )
        log_rate = log.annotate_dataset(small_bundle.dirty).record_fraction(
            GlitchType.OUTLIER
        )
        assert log_rate > 1.5 * raw_rate


class TestPartition:
    def test_partition_disjoint_and_complete(self, tiny_bundle):
        part = partition_by_cleanliness(
            tiny_bundle.population, tiny_bundle.suite, max_fraction=0.05
        )
        assert set(part.dirty_indices).isdisjoint(part.ideal_indices)
        assert len(part.dirty_indices) + len(part.ideal_indices) == len(
            tiny_bundle.population
        )

    def test_ideal_series_meet_requirement(self, tiny_bundle):
        part = partition_by_cleanliness(
            tiny_bundle.population, tiny_bundle.suite, max_fraction=0.05
        )
        for series in part.ideal.series[:10]:
            matrix = tiny_bundle.suite.annotate(series)
            for g in GlitchType:
                assert matrix.record_fraction(g) < 0.05

    def test_all_clean_raises(self, tiny_bundle):
        suite = DetectorSuite(outlier_detector=None)
        clean = tiny_bundle.clean
        with pytest.raises(ValidationError):
            partition_by_cleanliness(clean, suite, max_fraction=0.05)

    def test_impossible_threshold_raises(self, tiny_bundle):
        with pytest.raises(ValidationError):
            partition_by_cleanliness(
                tiny_bundle.population, tiny_bundle.suite, max_fraction=0.0
            )

    def test_ideal_fraction_property(self, tiny_bundle):
        part = tiny_bundle.partition
        assert part.ideal_fraction == pytest.approx(
            len(part.ideal_indices) / len(tiny_bundle.population)
        )


def _stable_mixed_dataset():
    """Six quiet series plus two NaN-riddled ones: the round-0 split
    (missing/inconsistent rates only) is already the fixed point, because the
    fitted 3-sigma limits flag nothing new."""
    quiet = [
        [[10.0 + 0.1 * t * (k + 1) % 1.0, 2.0, 0.95] for t in range(20)]
        for k in range(6)
    ]
    gappy = [
        [[np.nan if t % 3 == 0 else 10.0, np.nan, 0.95] for t in range(20)]
        for _ in range(2)
    ]
    return make_dataset(*(quiet + gappy))


class TestIdentifyIdeal:
    def test_returns_fitted_suite(self, tiny_bundle):
        part, suite = identify_ideal(tiny_bundle.population)
        assert suite.outlier_detector is not None
        assert len(part.ideal) > 0

    def test_max_iter_one_still_fits_limits(self):
        """A single round must return a fitted suite and a usable split."""
        data = _stable_mixed_dataset()
        part, suite = identify_ideal(data, max_iter=1)
        assert suite.outlier_detector is not None
        assert sorted(part.ideal_indices + part.dirty_indices) == list(
            range(len(data))
        )

    def test_all_clean_dataset_raises(self, tiny_bundle):
        """An empty dirty side is an error: the framework needs both sides."""
        with pytest.raises(ValidationError):
            identify_ideal(tiny_bundle.clean)

    def test_convergence_in_zero_rounds(self):
        """When the bootstrap split is already the fixed point, extra rounds
        change nothing — max_iter=1 and max_iter=5 agree exactly."""
        data = _stable_mixed_dataset()
        part1, suite1 = identify_ideal(data, max_iter=1)
        part5, suite5 = identify_ideal(data, max_iter=5)
        assert part1.ideal_indices == part5.ideal_indices
        assert part1.dirty_indices == part5.dirty_indices
        l1 = suite1.outlier_detector.limits
        l5 = suite5.outlier_detector.limits
        assert {a: l1.bounds(a) for a in l1.attributes} == {
            a: l5.bounds(a) for a in l5.attributes
        }

    @staticmethod
    def _stdlib_limits(ideal, k=3.0):
        """3-sigma limits from the pooled finite ideal values, computed with
        the standard library instead of numpy."""
        limits = {}
        for j, attr in enumerate(ideal.attributes):
            pooled = [
                float(x) for s in ideal for x in s.values[:, j] if np.isfinite(x)
            ]
            mean = statistics.fmean(pooled)
            sd = statistics.stdev(pooled)
            limits[attr] = (mean - k * sd, mean + k * sd)
        return limits

    def test_limits_match_pure_python_oracle(self, tiny_bundle):
        """The bundle's limits (max_iter=3) were fitted on the ideal set the
        second round left behind: tiny does not converge within three
        rounds, so the returned split is one refit past the fit set."""
        fit_set, _ = identify_ideal(tiny_bundle.population, max_iter=2)
        limits = tiny_bundle.suite.outlier_detector.limits
        for attr, (lo, hi) in self._stdlib_limits(fit_set.ideal).items():
            assert limits.bounds(attr) == pytest.approx((lo, hi), rel=1e-12)

    def test_converged_limits_fit_the_returned_ideal_set(self, tiny_bundle):
        part, suite = identify_ideal(tiny_bundle.population, max_iter=20)
        again, _ = identify_ideal(tiny_bundle.population, max_iter=19)
        assert again.ideal_indices == part.ideal_indices  # converged
        limits = suite.outlier_detector.limits
        for attr, (lo, hi) in self._stdlib_limits(part.ideal).items():
            assert limits.bounds(attr) == pytest.approx((lo, hi), rel=1e-12)

    def test_fixed_point_is_stable(self, tiny_bundle):
        part1, suite1 = identify_ideal(tiny_bundle.population, max_iter=3)
        part2 = partition_by_cleanliness(tiny_bundle.population, suite1)
        assert part1.ideal_indices == part2.ideal_indices

    def test_rejects_bad_max_iter(self, tiny_bundle):
        with pytest.raises(ValidationError):
            identify_ideal(tiny_bundle.population, max_iter=0)


class TestTruthMaskOracle:
    """Detector verdicts against the injector's own ledger of what it did.

    The ledger is written by the injector, not by any detector, so these
    relations catch a bug in a detector layer that every engine shares.
    """

    @pytest.fixture(scope="class", params=["tiny", "ragged", "small"])
    def bundle(self, request):
        if request.param == "ragged":
            import test_streaming
            from repro.experiments.config import build_population

            return build_population(
                scale="tiny",
                seed=0,
                generator_config=test_streaming.TestRaggedStreaming.RAGGED,
            )
        return request.getfixturevalue(f"{request.param}_bundle")

    def test_constraint1_verdicts_equal_corruption_ledger(self, bundle):
        rule = LowerBoundConstraint("attr1", 0.0)
        j = bundle.population.attributes.index("attr1")
        for series, record in zip(bundle.population, bundle.injection.records):
            assert np.array_equal(
                rule.evaluate(series)[:, j], record.corruption_mask[:, j]
            )

    def test_range_verdicts_within_corruption_ledger(self, bundle):
        rule = RangeConstraint("attr3", 0.0, 1.0)
        j = bundle.population.attributes.index("attr3")
        for series, record in zip(bundle.population, bundle.injection.records):
            flagged = rule.evaluate(series)[:, j]
            assert not (flagged & ~record.corruption_mask[:, j]).any()

    def test_missing_fractions_equal_ledger(self, bundle):
        miss, _ = cleanliness_fractions(
            series_chunks(bundle.population.series), paper_constraints()
        )
        ledger = np.array(
            [r.missing_mask.any(axis=1).mean() for r in bundle.injection.records]
        )
        assert miss.tobytes() == ledger.tobytes()
