"""Outlier detectors — sigma limits and windowed."""

import numpy as np
import pytest

from repro.data.dataset import StreamDataset
from repro.errors import ValidationError
from repro.glitches.missing import MissingDetector, detect_missing
from repro.glitches.outliers import (
    SigmaLimits,
    SigmaOutlierDetector,
    WindowedOutlierDetector,
)

from helpers import make_dataset, make_series


@pytest.fixture()
def ideal():
    rng = np.random.default_rng(0)
    block = np.column_stack(
        [rng.normal(10, 1, 300), rng.normal(5, 0.5, 300), rng.uniform(0.9, 1.0, 300)]
    )
    return make_dataset(block.tolist())


class TestMissingDetector:
    def test_function_and_class_agree(self, simple_series):
        assert np.array_equal(
            detect_missing(simple_series), MissingDetector().detect(simple_series)
        )

    def test_matches_nan(self, simple_series):
        assert detect_missing(simple_series).sum() == 3


class TestSigmaLimits:
    def test_from_dataset_matches_manual(self, ideal):
        limits = SigmaLimits.from_dataset(ideal, k=3.0)
        col = ideal.pooled_column("attr1")
        lo, hi = limits.bounds("attr1")
        assert lo == pytest.approx(col.mean() - 3 * col.std(ddof=1))
        assert hi == pytest.approx(col.mean() + 3 * col.std(ddof=1))

    def test_unknown_attribute_raises(self, ideal):
        limits = SigmaLimits.from_dataset(ideal)
        with pytest.raises(KeyError):
            limits.bounds("nope")

    def test_contains(self, ideal):
        limits = SigmaLimits.from_dataset(ideal)
        assert "attr1" in limits and "zz" not in limits

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            SigmaLimits({})

    def test_rejects_inverted(self):
        with pytest.raises(ValidationError):
            SigmaLimits({"a": (2.0, 1.0)})


class TestSigmaOutlierDetector:
    def test_flags_out_of_limits(self):
        detector = SigmaOutlierDetector(
            SigmaLimits({"attr1": (0.0, 20.0), "attr2": (0.0, 10.0), "attr3": (0.0, 1.0)})
        )
        s = make_series([[25.0, 5.0, 0.5], [10.0, -1.0, 0.5], [10.0, 5.0, 0.5]])
        mask = detector.detect(s)
        assert mask[0, 0] and mask[1, 1]
        assert mask.sum() == 2

    def test_nan_never_flagged(self, simple_series):
        detector = SigmaOutlierDetector(
            SigmaLimits({"attr1": (0.0, 1.0), "attr2": (0.0, 1.0), "attr3": (0.0, 1.0)})
        )
        mask = detector.detect(simple_series)
        assert not mask[np.isnan(simple_series.values)].any()

    def test_attribute_without_limits_ignored(self):
        detector = SigmaOutlierDetector(SigmaLimits({"attr1": (0.0, 1.0)}))
        s = make_series([[0.5, 999.0, 999.0]])
        assert detector.detect(s).sum() == 0

    def test_scores_monotone_in_deviation(self):
        detector = SigmaOutlierDetector(SigmaLimits({"attr1": (-3.0, 3.0)}))
        s = make_series([[0.0, 1.0, 1.0], [2.0, 1.0, 1.0], [5.0, 1.0, 1.0]])
        p = detector.scores(s)[:, 0]
        assert p[0] > p[1] > p[2]

    def test_scores_nan_for_missing(self, simple_series):
        detector = SigmaOutlierDetector(SigmaLimits({"attr1": (-3.0, 3.0)}))
        p = detector.scores(simple_series)
        assert np.isnan(p[1, 0])


class TestWindowedDetector:
    def test_flags_spike_against_own_history(self):
        values = [[10.0, 1.0, 1.0]] * 30 + [[100.0, 1.0, 1.0]]
        # add tiny noise so sd > 0
        arr = np.array(values)
        arr[:30, 0] += np.linspace(-0.5, 0.5, 30)
        s = make_series(arr.tolist())
        detector = WindowedOutlierDetector(window=20, k=3.0, min_history=5)
        mask = detector.detect(s)
        assert mask[30, 0]
        assert not mask[:30, 0].any()

    def test_insufficient_history_not_flagged(self):
        s = make_series([[1.0, 1.0, 1.0], [100.0, 1.0, 1.0]])
        detector = WindowedOutlierDetector(window=5, k=3.0, min_history=5)
        assert not detector.detect(s).any()

    def test_rejects_bad_k(self):
        with pytest.raises(ValidationError):
            WindowedOutlierDetector(k=0)

