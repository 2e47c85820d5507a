"""Glitch injection against a frozen scalar reference, plus zero-length edges.

``_reference_inject_one`` / ``_reference_inject_series`` below are the
original per-record implementation of the injector's per-series kernel: a
Python loop over burst starts for the dip/spike regimes, then one scalar
``uniform`` factor draw and one scalar coupling draw per burst record. The
production kernel is vectorised; these tests pin that it still consumes
every series' random stream in exactly the same order, so values, masks and
glitchy flags stay bitwise-equal. A reference implementation (rather than a
frozen hash) keeps the oracle valid across numpy releases.
"""

import numpy as np
import pytest

import test_streaming
from repro.data.dataset import StreamDataset
from repro.data.generator import NetworkDataGenerator
from repro.data.glitch_injection import (
    GlitchInjectionConfig,
    GlitchInjector,
    SeriesInjection,
    _burst_mask,
)
from repro.data.stream import TimeSeries
from repro.data.topology import NodeId
from repro.experiments.config import SCALES
from repro.glitches.constraints import paper_constraints
from repro.glitches.detectors import identify_ideal
from repro.core.incremental import (
    CHUNK_SERIES,
    cleanliness_fractions,
    outlier_fractions,
    series_chunks,
)


def _reference_inject_one(cfg, series, rng, events):
    glitchy = bool(rng.random() < cfg.glitchy_fraction)
    scale = (
        float(
            np.exp(
                rng.normal(0.0, cfg.intensity_sigma) - 0.5 * cfg.intensity_sigma**2
            )
        )
        if glitchy
        else cfg.healthy_scale
    )
    return _reference_inject_series(cfg, rng, series, scale, glitchy, events)


def _reference_inject_series(cfg, rng, series, scale, glitchy, events):
    values = series.values.copy()
    length, v = values.shape
    event_here = events[:length]
    sp = lambda p: min(1.0, p * scale)  # noqa: E731

    anomaly_mask = np.zeros((length, v), dtype=bool)
    corruption_mask = np.zeros((length, v), dtype=bool)
    missing_mask = np.zeros((length, v), dtype=bool)
    j1, j2, j3 = 0, 1, 2

    burst = _burst_mask(rng, length, sp(cfg.anomaly_enter), cfg.anomaly_exit)
    burst |= event_here & (rng.random(length) < sp(cfg.event_anomaly_boost))
    starts = np.flatnonzero(burst & ~np.roll(burst, 1))
    if burst[0]:
        starts = np.union1d(starts, [0])
    regime = np.zeros(length, dtype=bool)
    for s in starts:
        e = s
        while e < length and burst[e]:
            e += 1
        regime[s:e] = rng.random() < cfg.dip_share
    idx = np.flatnonzero(burst)
    for t in idx:
        if regime[t]:
            factor = rng.uniform(*cfg.dip_factor_range)
        else:
            factor = rng.uniform(*cfg.spike_factor_range)
        values[t, j1] *= factor
        anomaly_mask[t, j1] = True
        if rng.random() < cfg.attr2_coupling:
            values[t, j2] *= factor
            anomaly_mask[t, j2] = True

    crash = rng.random(length) < sp(cfg.attr3_crash)
    values[crash, j3] = rng.uniform(*cfg.attr3_crash_range, size=int(crash.sum()))
    anomaly_mask[:, j3] |= crash

    neg = rng.random(length) < sp(cfg.negative_attr1)
    values[neg, j1] = -np.abs(values[neg, j1]) * rng.uniform(
        0.05, 0.5, size=int(neg.sum())
    )
    corruption_mask[neg, j1] = True

    oor = rng.random(length) < sp(cfg.attr3_out_of_range)
    above = rng.random(length) < cfg.attr3_above_one_share
    hi_mask = oor & above
    lo_mask = oor & ~above
    values[hi_mask, j3] = 1.0 + rng.uniform(0.01, 0.08, size=int(hi_mask.sum()))
    values[lo_mask, j3] = -rng.uniform(0.01, 0.2, size=int(lo_mask.sum()))
    corruption_mask[:, j3] |= oor

    outage = _burst_mask(rng, length, sp(cfg.outage_enter), cfg.outage_exit)
    outage |= event_here & (rng.random(length) < sp(cfg.event_outage_boost))
    counter_fault = outage & (rng.random(length) < cfg.outage_ratio_crash)
    ratio_outage = outage & ~counter_fault
    missing_mask[ratio_outage, j3] = True
    lost1 = ratio_outage & (rng.random(length) < cfg.attr1_loss_in_outage)
    lost2 = ratio_outage & (rng.random(length) < cfg.attr2_loss_in_outage)
    lost1 |= counter_fault
    lost2 |= counter_fault
    missing_mask[lost1, j1] = True
    missing_mask[lost2, j2] = True
    values[counter_fault, j3] = rng.uniform(
        *cfg.ratio_crash_range, size=int(counter_fault.sum())
    )
    anomaly_mask[counter_fault, j3] = True
    stress_record = ratio_outage & (rng.random(length) < cfg.outage_stress)
    stressed1 = stress_record & ~lost1
    stressed2 = stress_record & ~lost2
    values[stressed1, j1] *= rng.uniform(
        *cfg.stress_factor_range, size=int(stressed1.sum())
    )
    values[stressed2, j2] *= rng.uniform(
        *cfg.stress_factor_range, size=int(stressed2.sum())
    )
    anomaly_mask[stressed1, j1] = True
    anomaly_mask[stressed2, j2] = True
    isolated = rng.random((length, v)) < sp(cfg.isolated_missing)
    missing_mask |= isolated
    values[missing_mask] = np.nan

    dirty = TimeSeries(series.node, values, series.attributes, truth=series.truth)
    record = SeriesInjection(
        node=series.node,
        glitchy=glitchy,
        missing_mask=missing_mask,
        corruption_mask=corruption_mask & ~missing_mask,
        anomaly_mask=anomaly_mask & ~missing_mask,
    )
    return dirty, record


def _reference_inject(cfg, seed, dataset):
    """The reference kernel under the injector's own stream layout."""
    shards, stage = GlitchInjector(cfg, seed=seed).inject_shards(dataset)
    out = []
    for unit in stage.units(shards):
        for series, seq in zip(unit.series, unit.shard.seeds):
            out.append(
                _reference_inject_one(
                    unit.config, series, np.random.default_rng(seq), unit.events
                )
            )
    return out


def _assert_matches_reference(cfg, seed, clean, shard_size=None):
    result = GlitchInjector(cfg, seed=seed).inject(clean, shard_size=shard_size)
    expected = _reference_inject(cfg, seed, clean)
    assert len(result.records) == len(expected) == len(clean)
    for dirty, record, (ref_dirty, ref_record) in zip(
        result.dataset, result.records, expected
    ):
        assert dirty.values.tobytes() == ref_dirty.values.tobytes()
        assert record.glitchy == ref_record.glitchy
        for name in ("missing_mask", "corruption_mask", "anomaly_mask"):
            assert np.array_equal(getattr(record, name), getattr(ref_record, name))
    return result


def _clean(generator_config, seed=0):
    return NetworkDataGenerator(generator_config, seed=seed).generate()


class TestReferenceOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_tiny_matches_reference(self, seed):
        _assert_matches_reference(
            GlitchInjectionConfig(), seed, _clean(SCALES["tiny"].generator, seed)
        )

    def test_small_one_shard_matches_reference(self):
        """600 series in one shard: the shard spans a chunk edge."""
        clean = _clean(SCALES["small"].generator, 1)
        assert len(clean) > CHUNK_SERIES
        _assert_matches_reference(
            GlitchInjectionConfig(), 6, clean, shard_size=len(clean)
        )

    def test_ragged_matches_reference(self):
        clean = _clean(test_streaming.TestRaggedStreaming.RAGGED)
        assert len({s.length for s in clean}) > 1
        _assert_matches_reference(GlitchInjectionConfig(), 3, clean)

    def test_hostile_config_matches_reference(self):
        """Bursts cover both ends of a series (the old ``np.roll`` wrap
        case) and scaled entry rates reach past 1/3."""
        cfg = GlitchInjectionConfig(anomaly_enter=0.9, intensity_sigma=2.0)
        result = _assert_matches_reference(
            cfg, 11, _clean(SCALES["tiny"].generator, 1)
        )
        attr1_anomaly = [r.anomaly_mask[:, 0] | r.missing_mask[:, 0]
                         for r in result.records]
        assert any(m[0] and m[-1] for m in attr1_anomaly)

    def test_events_longer_than_series_match_reference(self):
        length = SCALES["tiny"].generator.series_length
        cfg = GlitchInjectionConfig(
            n_events=10, event_length_range=(length, length + 20)
        )
        _assert_matches_reference(cfg, 4, _clean(SCALES["tiny"].generator, 2))


def _ragged_with_empty():
    attrs = ("attr1", "attr2", "attr3")
    rng = np.random.default_rng(0)
    values = rng.uniform(1.0, 2.0, size=(5, 3))
    values[:, 2] = rng.uniform(0.2, 0.8, size=5)
    return StreamDataset(
        [
            TimeSeries(NodeId(0, 0, 0), values, attrs, truth=values.copy()),
            TimeSeries(NodeId(0, 0, 1), np.empty((0, 3)), attrs,
                       truth=np.empty((0, 3))),
        ]
    )


class TestZeroLengthSeries:
    def test_inject_keeps_zero_length(self):
        result = GlitchInjector(seed=0).inject(_ragged_with_empty())
        empty, record = result.dataset[1], result.records[1]
        assert empty.values.shape == (0, 3)
        for name in ("missing_mask", "corruption_mask", "anomaly_mask"):
            assert getattr(record, name).shape == (0, 3)
        assert result.dataset[0].values.shape == (5, 3)

    def test_identification_rates_are_nan_and_never_ideal(self, tiny_bundle):
        attrs = tiny_bundle.population.attributes
        empty = TimeSeries(NodeId(9, 9, 9), np.empty((0, 3)), attrs)
        series = tiny_bundle.population.series + [empty]
        miss, inc = cleanliness_fractions(series_chunks(series), paper_constraints())
        assert np.isnan(miss[-1]) and np.isnan(inc[-1])
        assert np.isfinite(miss[:-1]).all()
        partition, suite = identify_ideal(StreamDataset(series))
        assert np.isnan(outlier_fractions(series_chunks(series), suite)[-1])
        assert len(series) - 1 in partition.dirty_indices
        assert partition.ideal_indices == tiny_bundle.partition.ideal_indices
