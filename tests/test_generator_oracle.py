"""Generation against a frozen scalar reference.

``_reference_node_series`` / ``_reference_node_values`` below are the
original one-series-at-a-time implementation of the generator's kernel:
every draw and every transform runs on one ``(T,)`` row. The production
kernel draws each chunk's series in lockstep and computes whole padded
blocks; these tests pin that every series' random stream is still consumed
in exactly the same order and that the block arithmetic is bitwise the
per-row arithmetic, so ``values`` and ``truth`` stay bitwise-equal. A
reference implementation (rather than a frozen hash) keeps the oracle valid
across numpy releases.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.data.generator import GeneratorConfig, NetworkDataGenerator
from repro.data.stream import DEFAULT_ATTRIBUTES, TimeSeries
from repro.experiments.config import SCALES


def _reference_node_series(cfg, node, rng):
    length = (
        cfg.series_length
        if cfg.min_length == cfg.series_length
        else int(rng.integers(cfg.min_length, cfg.series_length + 1))
    )
    values = _reference_node_values(cfg, rng, length)
    return TimeSeries(node, values, DEFAULT_ATTRIBUTES, truth=values.copy())


def _reference_node_values(cfg, rng, length):
    t = np.arange(length)
    node_mu = cfg.attr1_log_mean + rng.normal(0.0, cfg.attr1_node_sd)
    amp = rng.uniform(*cfg.attr1_diurnal_amp_range)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    diurnal = amp * np.sin(2.0 * np.pi * t / cfg.diurnal_period + phase)
    shape, scale = cfg.attr1_innovation_shape, cfg.attr1_innovation_scale
    innovation = shape * scale - rng.gamma(shape, scale, size=length)
    z = node_mu + diurnal + innovation
    attr1 = np.exp(z)
    attr2 = np.exp(
        cfg.attr2_log_mean
        + cfg.attr2_coupling * (z - cfg.attr1_log_mean)
        + rng.normal(0.0, cfg.attr2_noise_sd, size=length)
    )
    surge = rng.random(length) < cfg.surge_prob
    n_surge = int(surge.sum())
    if n_surge:
        attr1[surge] *= rng.uniform(*cfg.attr1_surge_range, size=n_surge)
        attr2[surge] *= rng.uniform(*cfg.attr2_surge_range, size=n_surge)
    deficit = rng.gamma(cfg.attr3_deficit_shape, cfg.attr3_deficit_scale, size=length)
    load_term = cfg.attr3_load_coupling * np.maximum(z - node_mu, 0.0)
    attr3 = np.clip(1.0 - deficit - load_term, 0.0, 1.0)
    return np.column_stack([attr1, attr2, attr3])


def _reference_generate(cfg, seed):
    """The reference kernel under the generator's own stream layout."""
    shards, stage = NetworkDataGenerator(cfg, seed=seed).generate_shards()
    out = []
    for unit in stage.units(shards):
        for node, seq in zip(unit.nodes, unit.shard.seeds):
            out.append(_reference_node_series(cfg, node, np.random.default_rng(seq)))
    return out


def _assert_matches_reference(cfg, seed):
    clean = NetworkDataGenerator(cfg, seed=seed).generate()
    expected = _reference_generate(cfg, seed)
    assert len(clean) == len(expected) == cfg.n_sectors
    for series, ref in zip(clean, expected):
        assert series.node == ref.node
        assert series.values.shape == ref.values.shape
        assert series.values.tobytes() == ref.values.tobytes()
        assert series.truth.tobytes() == ref.truth.tobytes()
    return clean


TINY = SCALES["tiny"].generator


class TestReferenceOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_tiny_matches_reference(self, seed):
        _assert_matches_reference(TINY, seed)

    @pytest.mark.parametrize(
        "series_length, min_length", [(60, 1), (170, 85)]
    )
    def test_ragged_matches_reference(self, series_length, min_length):
        cfg = replace(TINY, series_length=series_length, min_length=min_length)
        clean = _assert_matches_reference(cfg, 2)
        assert len({s.length for s in clean}) > 1

    @pytest.mark.parametrize("surge_prob", [0.0, 1.0])
    def test_surge_extremes_match_reference(self, surge_prob):
        cfg = replace(TINY, surge_prob=surge_prob)
        clean = _assert_matches_reference(cfg, 3)
        lo = cfg.attr1_surge_range[0]
        surged = [s.values[:, 0] / np.exp(cfg.attr1_log_mean) for s in clean]
        # Every record carries a surge at p = 1 and none at p = 0.
        if surge_prob == 1.0:
            assert np.median(np.concatenate(surged)) > lo / 2
        else:
            assert np.median(np.concatenate(surged)) < lo / 2
