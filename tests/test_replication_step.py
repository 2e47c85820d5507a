"""The shared draw -> gather pair source, evaluated by the one pair-stream
driver, and the layout the input alone chooses: uniform populations sample
blocks, ragged ones per-series data sets."""

import numpy as np
import pytest

from repro.cleaning.registry import strategy_by_name
from repro.core.framework import (
    ExperimentConfig,
    ExperimentRunner,
    run_pair_panels_stream,
)
from repro.core.incremental import replication_pairs
from repro.data.generator import GeneratorConfig
from repro.experiments.config import build_population
from repro.sampling.replication import (
    generate_test_pairs,
    replication_index_streams,
)

STRATEGIES = [strategy_by_name(n) for n in ("strategy1", "strategy4", "strategy5")]

RAGGED = GeneratorConfig(
    n_rnc=2,
    towers_per_rnc=5,
    sectors_per_tower=10,
    series_length=60,
    min_length=40,
)


@pytest.fixture(scope="module")
def ragged_bundle():
    return build_population(scale="tiny", seed=0, generator_config=RAGGED)


def _keys(result):
    return [
        (o.strategy, o.replication, o.improvement, o.distortion,
         o.glitch_index_dirty, o.glitch_index_treated)
        for o in result.outcomes
    ]


def _interleave(bundle, seed=0):
    """The bundle's series at shuffled population positions, with the
    verdict split that recovers each side in data-set order."""
    combined = list(bundle.dirty) + list(bundle.ideal)
    positions = np.random.default_rng(seed).permutation(len(combined))
    population = [None] * len(combined)
    for series, pos in zip(combined, positions):
        population[pos] = series
    n_dirty = len(bundle.dirty)
    dirty_idx = [int(p) for p in positions[:n_dirty]]
    ideal_idx = [int(p) for p in positions[n_dirty:]]
    lengths = np.array([len(s) for s in population])
    return population, dirty_idx, ideal_idx, lengths


@pytest.mark.parametrize("layout", ["uniform", "ragged"])
def test_matches_runner_on_materialised_population(
    tiny_bundle, ragged_bundle, layout
):
    bundle = tiny_bundle if layout == "uniform" else ragged_bundle
    cfg = ExperimentConfig(n_replications=2, sample_size=8, seed=4)
    population, dirty_idx, ideal_idx, lengths = _interleave(bundle)
    pairs, _ = replication_pairs(
        dirty_idx,
        ideal_idx,
        lengths,
        lambda needed: {i: population[i] for i in needed},
        cfg,
    )
    result = run_pair_panels_stream(pairs, [STRATEGIES], cfg)[0]
    reference = ExperimentRunner(bundle.dirty, bundle.ideal, config=cfg).run(
        STRATEGIES
    )
    assert _keys(result) == _keys(reference)


def test_gathers_exactly_the_touched_series(tiny_bundle):
    cfg = ExperimentConfig(n_replications=2, sample_size=8, seed=4)
    population, dirty_idx, ideal_idx, lengths = _interleave(tiny_bundle)
    requests = []

    def gather(needed):
        requests.append(needed)
        return {i: population[i] for i in needed}

    _, n_gathered = replication_pairs(dirty_idx, ideal_idx, lengths, gather, cfg)
    touched = set()
    for d_draw, i_draw in replication_index_streams(
        len(dirty_idx), len(ideal_idx), cfg.n_replications, cfg.sample_size,
        seed=cfg.seed,
    ):
        touched |= {dirty_idx[int(i)] for i in d_draw}
        touched |= {ideal_idx[int(i)] for i in i_draw}
    assert requests == [frozenset(touched)]
    assert n_gathered == len(touched) < len(population)


def test_ragged_population_samples_per_series(ragged_bundle):
    pair = next(
        generate_test_pairs(ragged_bundle.dirty, ragged_bundle.ideal, 1, 5, seed=0)
    )
    assert pair.dirty_block is None
    assert pair.ideal_block is None
    assert len(pair.dirty) == 5
    assert len(pair.ideal) == 5
