"""Descriptive statistics behind detection and Winsorization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.stats.descriptive import sigma_limits, winsorize_array


class TestSigmaLimits:
    def test_symmetric_around_mean(self, rng):
        data = rng.normal(0, 1, 1000)
        lo, hi = sigma_limits(data, k=3.0)
        assert lo == pytest.approx(data.mean() - 3 * data.std(ddof=1))
        assert hi == pytest.approx(data.mean() + 3 * data.std(ddof=1))

    def test_ignores_nan(self):
        lo, hi = sigma_limits(np.array([1.0, 2.0, 3.0, np.nan]))
        lo2, hi2 = sigma_limits(np.array([1.0, 2.0, 3.0]))
        assert (lo, hi) == (lo2, hi2)

    def test_needs_two_values(self):
        with pytest.raises(ValidationError):
            sigma_limits(np.array([1.0]))

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValidationError):
            sigma_limits(np.array([1.0, 2.0]), k=0)


class TestWinsorizeArray:
    def test_clips_both_tails(self):
        out, changed = winsorize_array(np.array([-10.0, 0.0, 10.0]), -5.0, 5.0)
        assert out.tolist() == [-5.0, 0.0, 5.0]
        assert changed.tolist() == [True, False, True]

    def test_nan_passes_through(self):
        out, changed = winsorize_array(np.array([np.nan, 1.0]), 0.0, 2.0)
        assert np.isnan(out[0])
        assert not changed[0]

    def test_rejects_inverted_limits(self):
        with pytest.raises(ValidationError):
            winsorize_array(np.array([1.0]), 2.0, 1.0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, values):
        arr = np.array(values)
        once, _ = winsorize_array(arr, -10.0, 10.0)
        twice, changed = winsorize_array(once, -10.0, 10.0)
        assert np.array_equal(once, twice, equal_nan=True)
        assert not changed.any()
