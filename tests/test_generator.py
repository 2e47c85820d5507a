"""Synthetic generator: the statistical properties the paper depends on."""

import numpy as np
import pytest
from scipy import stats

from repro.data.generator import GeneratorConfig, NetworkDataGenerator
from repro.errors import ValidationError


def _skew(values):
    """Bias-uncorrected Fisher-Pearson skewness of the finite values."""
    x = np.asarray(values, dtype=float)
    return stats.skew(x[np.isfinite(x)])


@pytest.fixture(scope="module")
def clean():
    cfg = GeneratorConfig(
        n_rnc=2, towers_per_rnc=4, sectors_per_tower=8, series_length=120,
        min_length=120,
    )
    return NetworkDataGenerator(cfg, seed=42).generate()


class TestConfigValidation:
    def test_defaults_valid(self):
        GeneratorConfig()

    def test_n_sectors(self):
        assert GeneratorConfig().n_sectors == 4 * 10 * 15

    def test_rejects_bad_length(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(series_length=0)

    def test_rejects_min_length_above_length(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(series_length=10, min_length=20)

    def test_rejects_negative_sd(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(attr1_node_sd=-1.0)

    def test_rejects_bad_surge_range(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(attr1_surge_range=(0.5, 2.0))

    def test_rejects_nan_node_sd(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(attr1_node_sd=float("nan"))

    def test_rejects_fractional_lengths(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(series_length=2.5, min_length=2.5)

    def test_rejects_bool_series_length(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(series_length=True)

    @pytest.mark.parametrize(
        "name", ["n_rnc", "towers_per_rnc", "sectors_per_tower", "diurnal_period"]
    )
    def test_rejects_fractional_sizes(self, name):
        with pytest.raises(ValidationError):
            GeneratorConfig(**{name: 2.5})

    def test_rejects_infinite_surge_range(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(attr2_surge_range=(10.0, float("inf")))

    def test_rejects_nan_log_mean(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(attr1_log_mean=float("nan"))

    def test_accepts_numpy_integers(self):
        cfg = GeneratorConfig(series_length=np.int64(80), min_length=np.int32(40))
        assert cfg.series_length == 80


class TestShapes:
    def test_population_size(self, clean):
        assert len(clean) == 64

    def test_series_shape(self, clean):
        assert all(s.values.shape == (120, 3) for s in clean)

    def test_truth_equals_values(self, clean):
        for s in clean:
            assert np.array_equal(s.values, s.truth)

    def test_no_missing_in_clean_data(self, clean):
        assert clean.missing_fraction == 0.0

    def test_variable_lengths(self):
        cfg = GeneratorConfig(
            n_rnc=1, towers_per_rnc=2, sectors_per_tower=5,
            series_length=100, min_length=50,
        )
        data = NetworkDataGenerator(cfg, seed=0).generate()
        lengths = {s.length for s in data}
        assert all(50 <= n <= 100 for n in lengths)
        assert len(lengths) > 1


class TestDistributions:
    def test_attr1_positive(self, clean):
        assert (clean.pooled_column("attr1") > 0).all()

    def test_attr1_right_skewed_raw(self, clean):
        assert _skew(clean.pooled_column("attr1")) > 1.0

    def test_log_removes_right_skew(self, clean):
        """On clean data the log transform neutralises the heavy right skew.

        The *left* skew the paper observes after the log (Section 5.3) comes
        from the dirty data's low-side anomalies; see
        ``test_dirty_log_attr1_left_skewed`` below.
        """
        assert abs(_skew(np.log(clean.pooled_column("attr1")))) < 0.5

    def test_dirty_log_attr1_left_skewed(self, tiny_bundle):
        """Dirty data: dips make log(attr1) left-skewed (Figure 4b)."""
        col = tiny_bundle.dirty.pooled_column("attr1")
        col = col[col > 0]
        assert _skew(np.log(col)) < -0.5

    def test_attr2_positive_and_right_skewed(self, clean):
        col = clean.pooled_column("attr2")
        assert (col > 0).all()
        assert _skew(col) > 1.0

    def test_attr3_in_unit_interval(self, clean):
        col = clean.pooled_column("attr3")
        assert (col >= 0).all() and (col <= 1).all()

    def test_attr3_bulk_near_one(self, clean):
        assert np.median(clean.pooled_column("attr3")) > 0.95

    def test_attr3_left_tail_exists(self, clean):
        assert clean.pooled_column("attr3").min() < 0.9

    def test_attr1_attr2_correlated_on_log_scale(self, clean):
        pooled = clean.pooled("none")
        corr = np.corrcoef(np.log(pooled[:, 0]), np.log(pooled[:, 1]))[0, 1]
        assert corr > 0.3

    def test_diurnal_cycle_present(self, clean):
        """Lag-24 autocorrelation of log(attr1) should beat lag-12."""
        def lag_corr(x, lag):
            return np.corrcoef(x[:-lag], x[lag:])[0, 1]

        scores_24 = []
        scores_12 = []
        for s in clean.series[:20]:
            z = np.log(s.column("attr1"))
            scores_24.append(lag_corr(z, 24))
            scores_12.append(lag_corr(z, 12))
        assert np.mean(scores_24) > np.mean(scores_12)

    def test_surges_present(self, clean):
        """Legitimate extremes exist: max attr1 far above the 99th pct."""
        col = clean.pooled_column("attr1")
        assert col.max() > 4 * np.percentile(col, 99)


class TestDeterminism:
    def test_same_seed_same_data(self):
        cfg = GeneratorConfig(n_rnc=1, towers_per_rnc=2, sectors_per_tower=3)
        a = NetworkDataGenerator(cfg, seed=5).generate()
        b = NetworkDataGenerator(cfg, seed=5).generate()
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.values, sb.values)

    def test_different_seed_different_data(self):
        cfg = GeneratorConfig(n_rnc=1, towers_per_rnc=2, sectors_per_tower=3)
        a = NetworkDataGenerator(cfg, seed=5).generate()
        b = NetworkDataGenerator(cfg, seed=6).generate()
        assert not np.array_equal(a[0].values, b[0].values)
