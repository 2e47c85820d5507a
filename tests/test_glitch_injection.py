"""Glitch injector: masks, truth preservation, the designed asymmetries."""

import numpy as np
import pytest

from repro.data.generator import GeneratorConfig, NetworkDataGenerator
from repro.data.glitch_injection import (
    GlitchInjectionConfig,
    GlitchInjector,
    _burst_mask,
)
from repro.errors import ValidationError


@pytest.fixture(scope="module")
def injected():
    cfg = GeneratorConfig(
        n_rnc=2, towers_per_rnc=5, sectors_per_tower=10, series_length=120,
        min_length=120,
    )
    clean = NetworkDataGenerator(cfg, seed=1).generate()
    return clean, GlitchInjector(seed=2).inject(clean)


class TestConfigValidation:
    def test_defaults_valid(self):
        GlitchInjectionConfig()

    def test_rejects_bad_probability(self):
        with pytest.raises(ValidationError):
            GlitchInjectionConfig(outage_enter=1.5)

    def test_rejects_bad_event_range(self):
        with pytest.raises(ValidationError):
            GlitchInjectionConfig(event_length_range=(5, 2))

    def test_rejects_bad_factor_range(self):
        with pytest.raises(ValidationError):
            GlitchInjectionConfig(spike_factor_range=(10.0, 2.0))

    def test_rejects_fractional_n_events(self):
        with pytest.raises(ValidationError):
            GlitchInjectionConfig(n_events=2.5)

    def test_rejects_bool_n_events(self):
        with pytest.raises(ValidationError):
            GlitchInjectionConfig(n_events=True)

    def test_rejects_fractional_event_length(self):
        with pytest.raises(ValidationError):
            GlitchInjectionConfig(event_length_range=(2.5, 6))
        with pytest.raises(ValidationError):
            GlitchInjectionConfig(event_length_range=(2, 6.5))

    def test_rejects_nan_intensity_sigma(self):
        with pytest.raises(ValidationError):
            GlitchInjectionConfig(intensity_sigma=float("nan"))

    def test_rejects_infinite_factor_range(self):
        with pytest.raises(ValidationError):
            GlitchInjectionConfig(spike_factor_range=(1.0, float("inf")))

    def test_rejects_nan_factor_range(self):
        with pytest.raises(ValidationError):
            GlitchInjectionConfig(dip_factor_range=(float("nan"), 0.09))

    def test_accepts_numpy_integers(self):
        cfg = GlitchInjectionConfig(
            n_events=np.int64(2), event_length_range=(np.int32(3), 9)
        )
        assert cfg.n_events == 2

    def test_rejects_negative_events(self):
        with pytest.raises(ValidationError):
            GlitchInjectionConfig(n_events=-1)


class TestBurstMask:
    def test_length_and_dtype(self, rng):
        mask = _burst_mask(rng, 200, 0.05, 0.2)
        assert mask.shape == (200,)
        assert mask.dtype == bool

    def test_zero_enter_gives_empty(self, rng):
        assert not _burst_mask(rng, 100, 0.0, 0.2).any()

    def test_stationary_fraction(self, rng):
        """E[frac] = E[len] / (E[gap] + E[len]) for the two-state chain."""
        total = sum(
            _burst_mask(rng, 1000, 0.05, 0.25).mean() for _ in range(50)
        ) / 50
        expected = (1 / 0.25) / (1 / 0.05 + 1 / 0.25)
        assert total == pytest.approx(expected, rel=0.2)

    def test_bursts_are_contiguous(self, rng):
        mask = _burst_mask(rng, 500, 0.02, 0.3)
        # Number of 0->1 transitions should be far below the number of True
        # steps if values cluster into bursts.
        starts = (mask & ~np.roll(mask, 1)).sum()
        if mask.sum() > 10:
            assert starts < mask.sum()


class TestInjection:
    def test_truth_preserved(self, injected):
        clean, result = injected
        for s_clean, s_dirty in zip(clean, result.dataset):
            assert s_dirty.truth is not None
            assert np.array_equal(s_dirty.truth, s_clean.values)

    def test_missing_mask_matches_nan(self, injected):
        _, result = injected
        for series, record in zip(result.dataset, result.records):
            assert np.array_equal(np.isnan(series.values), record.missing_mask)

    def test_masks_disjoint(self, injected):
        _, result = injected
        for record in result.records:
            assert not (record.missing_mask & record.corruption_mask).any()
            assert not (record.missing_mask & record.anomaly_mask).any()

    def test_untouched_cells_keep_truth(self, injected):
        _, result = injected
        for series, record in zip(result.dataset, result.records):
            untouched = ~record.any_glitch_mask
            assert np.array_equal(
                series.values[untouched], series.truth[untouched]
            )

    def test_glitchy_and_healthy_split(self, injected):
        _, result = injected
        n = len(result.records)
        assert len(result.glitchy_indices) + len(result.healthy_indices) == n
        assert 0.4 < len(result.glitchy_indices) / n < 0.9

    def test_healthy_series_much_cleaner(self, injected):
        _, result = injected
        def rate(indices):
            cells = sum(result.records[i].any_glitch_mask.sum() for i in indices)
            total = sum(result.records[i].missing_mask.size for i in indices)
            return cells / total
        assert rate(result.healthy_indices) < 0.3 * rate(result.glitchy_indices)

    def test_injected_missing_fraction_in_band(self, injected):
        _, result = injected
        assert 0.03 < result.injected_missing_fraction() < 0.25

    def test_negative_attr1_values_exist(self, injected):
        _, result = injected
        col = result.dataset.pooled_column("attr1")
        assert (col < 0).any()

    def test_attr3_out_of_range_values_exist(self, injected):
        _, result = injected
        col = result.dataset.pooled_column("attr3")
        assert (col > 1).any()
        assert (col < 0).any()

    def test_determinism(self):
        cfg = GeneratorConfig(n_rnc=1, towers_per_rnc=2, sectors_per_tower=5)
        clean = NetworkDataGenerator(cfg, seed=3).generate()
        a = GlitchInjector(seed=9).inject(clean)
        b = GlitchInjector(seed=9).inject(clean)
        for sa, sb in zip(a.dataset, b.dataset):
            assert np.array_equal(sa.values, sb.values, equal_nan=True)


class TestDesignedAsymmetries:
    """The paper-shaped mechanisms documented in the module docstring."""

    def test_stress_is_invisible_to_complete_rows(self, injected):
        """Stressed/counter-fault cells live only in incomplete records."""
        _, result = injected
        for series, record in zip(result.dataset, result.records):
            complete = ~np.isnan(series.values).any(axis=1)
            # anomaly cells in complete rows must come from the independent
            # anomaly channel (attr1/attr2 dips and spikes or attr3 crash),
            # never from outage stress; outage stress rows have attr3 or
            # attr1/2 missing, hence are incomplete.
            stressed_rows = record.anomaly_mask.any(axis=1) & complete
            # Those rows exist (independent anomalies), but every stressed
            # row flagged during an outage is incomplete:
            outage_rows = record.missing_mask.any(axis=1)
            assert not (stressed_rows & outage_rows).any()

    def test_constraint3_overlap_built_in(self, injected):
        """Records with attr3 missing and attr1 populated exist in volume."""
        _, result = injected
        overlap = 0
        total = 0
        for series in result.dataset:
            attr3_missing = np.isnan(series.values[:, 2])
            attr1_present = ~np.isnan(series.values[:, 0])
            overlap += int((attr3_missing & attr1_present).sum())
            total += series.length
        assert overlap / total > 0.02

    def test_dips_dominate_anomalies(self, injected):
        """Low-side anomalies outnumber high-side ones on attr1."""
        clean, result = injected
        dips = spikes = 0
        for series, record in zip(result.dataset, result.records):
            cells = record.anomaly_mask[:, 0] & ~np.isnan(series.values[:, 0])
            ratio = series.values[cells, 0] / series.truth[cells, 0]
            dips += int((ratio < 1).sum())
            spikes += int((ratio > 1).sum())
        assert dips > spikes
