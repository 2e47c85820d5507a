"""ECDF correctness — the foundation of the exact 1-D EMD and of KS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.errors import ValidationError
from repro.stats.ecdf import Ecdf

finite_samples = st.lists(
    st.floats(-1e4, 1e4, allow_nan=False), min_size=1, max_size=80
)


class TestEcdfBasics:
    def test_values(self):
        f = Ecdf([1.0, 2.0, 3.0, 4.0])
        assert f(0.5) == 0.0
        assert f(1.0) == 0.25
        assert f(2.5) == 0.5
        assert f(4.0) == 1.0

    def test_right_continuity(self):
        f = Ecdf([1.0, 1.0, 2.0])
        assert f(1.0) == pytest.approx(2 / 3)

    def test_drops_nan(self):
        assert Ecdf([1.0, np.nan]).n == 1

    def test_empty_raises(self):
        with pytest.raises(ValidationError):
            Ecdf([np.nan])

    def test_support(self):
        assert Ecdf([3.0, 1.0, 2.0]).support == (1.0, 3.0)

    def test_quantile_inverse(self):
        f = Ecdf([1.0, 2.0, 3.0, 4.0])
        assert f.quantile(0.25) == 1.0
        assert f.quantile(1.0) == 4.0
        assert f.quantile(0.0) == 1.0

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            Ecdf([1.0]).quantile(1.5)


def _tied_sample(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.gamma(1.5, 2.0, size=n)
    x[rng.choice(n, size=n // 5, replace=False)] = x[0]  # ties
    return x


class TestEcdfOracles:
    @pytest.mark.parametrize("n", [1, 13, 97, 400])
    def test_cdf_matches_counting_oracle(self, n):
        x = _tied_sample(n, seed=n)
        f = Ecdf(x)
        grid = np.concatenate([x, np.random.default_rng(0).normal(3.0, 3.0, size=100)])
        expected = (x[None, :] <= grid[:, None]).sum(axis=1) / n
        assert np.array_equal(f(grid), expected)
        assert f.n == n
        assert f.support == (float(x.min()), float(x.max()))

    @pytest.mark.parametrize("n", [1, 13, 97])
    def test_quantile_matches_numpy_inverted_cdf(self, n):
        x = _tied_sample(n, seed=n)
        q = np.linspace(0.0, 1.0, 17)
        expected = np.quantile(x, q, method="inverted_cdf")
        assert np.array_equal(Ecdf(x).quantile(q), expected)
        assert Ecdf(x).quantile(0.5) == np.quantile(x, 0.5, method="inverted_cdf")

    def test_non_finite_dropped(self):
        f = Ecdf([1.0, np.nan, np.inf, -np.inf, 2.0])
        assert f.n == 2
        assert f.support == (1.0, 2.0)


class TestL1Distance:
    def test_identical_is_zero(self):
        f = Ecdf([1.0, 2.0, 3.0])
        assert f.l1_distance(Ecdf([1.0, 2.0, 3.0])) == 0.0

    def test_point_masses(self):
        assert Ecdf([0.0]).l1_distance(Ecdf([3.0])) == pytest.approx(3.0)

    @given(finite_samples, finite_samples)
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_wasserstein(self, a, b):
        ours = Ecdf(a).l1_distance(Ecdf(b))
        theirs = scipy_stats.wasserstein_distance(a, b)
        assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-9)

    @given(finite_samples, finite_samples)
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, a, b):
        assert Ecdf(a).l1_distance(Ecdf(b)) == pytest.approx(
            Ecdf(b).l1_distance(Ecdf(a)), rel=1e-9, abs=1e-12
        )

    @given(finite_samples, finite_samples, finite_samples)
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        fa, fb, fc = Ecdf(a), Ecdf(b), Ecdf(c)
        assert fa.l1_distance(fc) <= fa.l1_distance(fb) + fb.l1_distance(fc) + 1e-9
