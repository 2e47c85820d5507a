"""Whole-column evaluation kernels against the numpy expressions they replace.

Each kernel must give bitwise the result of the plain expression: record
flags against ``.any(-1)`` / ``.all(-1)``, grid keys against a clipped
``np.searchsorted``, the ``bincount`` histogram against ``np.unique``, the
batched glitch scores against the per-series loop, the time-axis glitch
counts against ``.sum(axis=-3)``, and the EM start against
``np.nanmean`` / ``np.nanvar``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cleaning import mvn_imputation
from repro.cleaning.mvn_imputation import _start_moments, fit_mvn_em
from repro.core.glitch_index import (
    GlitchWeights,
    series_glitch_scores,
    series_glitch_scores_block,
)
from repro.distance import histogram
from repro.distance.base import clean_sample
from repro.distance.emd import EarthMoverDistance
from repro.distance.histogram import HistogramGrid
from repro.glitches.types import BlockGlitches
from repro.utils.rows import complete_rows, nan_rows, rows_all, rows_any, time_counts


def _searchsorted_keys(grid, rows):
    """Flat keys from one clipped ``searchsorted`` per dimension."""
    flat = np.zeros(rows.shape[0], dtype=np.int64)
    for j, e in enumerate(grid.edges):
        k = np.clip(np.searchsorted(e, rows[:, j], side="right") - 1, 0, e.size - 2)
        flat = flat * (e.size - 1) + k
    return flat


class TestRecordFlags:
    @pytest.mark.parametrize(
        "shape",
        [(0, 3), (7, 1), (7, 3), (5, 4), (2, 0), (3, 11, 3), (4, 9, 3, 3)],
        ids=["0-rows", "v=1", "v=3", "v=4", "v=0", "block", "bit-tensor"],
    )
    def test_flags_equal_numpy_reductions(self, shape, rng):
        for density in (0.0, 0.2, 0.7, 1.0):
            mask = rng.random(shape) < density
            assert np.array_equal(rows_any(mask), mask.any(axis=-1))
            assert np.array_equal(rows_all(mask), mask.all(axis=-1))

    def test_bit_tensor_attribute_axis(self, rng):
        # (n, T, v, m) glitch bits reduced over the attribute axis, as the
        # record rates do it: one glitch plane at a time, or every plane
        # with the attributes moved last.
        bits = rng.random((4, 17, 3, 3)) < 0.3
        for g in range(3):
            assert np.array_equal(rows_any(bits[..., g]), bits[..., g].any(axis=2))
        moved = np.moveaxis(bits, 2, -1)
        assert np.array_equal(rows_any(moved), bits.any(axis=2))

    @pytest.mark.parametrize("shape", [(0, 3), (9, 1), (9, 3), (6, 5), (2, 7, 3)])
    def test_nan_rows_equal_isnan_any(self, shape, rng):
        values = rng.normal(size=shape)
        values[rng.random(shape) < 0.3] = np.nan
        values[rng.random(shape) < 0.1] = np.inf
        assert np.array_equal(nan_rows(values), np.isnan(values).any(axis=-1))

    def test_flags_are_fresh_arrays(self, rng):
        # Callers AND a validity mask into the flags in place; a view would
        # write through to the caller's cells.
        mask = rng.random((6, 1)) < 0.5
        before = mask.copy()
        flags = rows_any(mask)
        flags &= False
        assert np.array_equal(mask, before)
        values = rng.normal(size=(6, 1))
        assert not np.shares_memory(nan_rows(values), values)

    def test_complete_rows_copies_only_to_drop(self, rng):
        values = rng.normal(size=(8, 3))
        assert complete_rows(values) is values
        values[[1, 5], [0, 2]] = np.nan
        kept = complete_rows(values)
        assert np.array_equal(kept, values[~np.isnan(values).any(axis=1)])


class TestCleanSampleLayout:
    def test_column_major_input_scores_bitwise_alike(self, rng):
        # Reductions over the rows (the reference frame's mean and std) sum
        # in memory order, so every layout is made row-major first.
        # Complete rows, so no NaN drop copies them on the way.
        reference = rng.lognormal(size=(3000, 3))
        candidates = [rng.lognormal(size=(2500, 3)) for _ in range(2)]
        c_order = EarthMoverDistance().pairwise(reference, candidates)
        f_order = EarthMoverDistance().pairwise(
            np.asfortranarray(reference), [np.asfortranarray(q) for q in candidates]
        )
        assert f_order == c_order
        cleaned = clean_sample(np.asfortranarray(reference), "p")
        assert cleaned.flags.c_contiguous
        assert np.array_equal(cleaned, reference)


def _edge_values(edges):
    """Every edge, one ulp either side of it, and the non-finite values."""
    points = [np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])]
    for e in edges:
        points += [e, np.nextafter(e, np.inf), np.nextafter(e, -np.inf)]
    return np.concatenate(points)


@st.composite
def grids_and_rows(draw):
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(d):
        kind = draw(st.sampled_from(["uniform", "quantile", "single", "ulp"]))
        nb = draw(st.integers(2, 24))
        lo = float(rng.normal() * 10.0 ** rng.integers(-3, 4))
        span = float(abs(rng.normal()) * 10.0 ** rng.integers(-10, 5)) + 1e-300
        if kind == "uniform":
            e = np.linspace(lo, lo + span, nb + 1)
        elif kind == "quantile":
            pool = lo + span * rng.standard_t(2, size=500)
            e = np.unique(np.quantile(pool, np.linspace(0.0, 1.0, nb + 1)))
            if e.size < 2:
                e = np.array([lo - 0.5, lo + 0.5])
        elif kind == "single":
            e = np.array([lo - 0.5, lo + 0.5])
        else:  # a span of a few ulp: linspace repeats edges
            e = np.linspace(lo, np.nextafter(np.nextafter(lo, np.inf), np.inf), nb + 1)
        edges.append(e)
    n = draw(st.integers(1, 300))
    cols = []
    for e in edges:
        pool = np.concatenate(
            [_edge_values([e]), e[0] + (e[-1] - e[0]) * rng.uniform(-0.3, 1.3, 64)]
        )
        cols.append(rng.choice(pool, n))
    grid = HistogramGrid(np.zeros(d), np.ones(d), tuple(edges))
    return grid, np.column_stack(cols)


class TestKeysFor:
    @settings(max_examples=300, deadline=None)
    @given(grids_and_rows())
    def test_keys_equal_clipped_searchsorted(self, case):
        grid, rows = case
        assert np.array_equal(
            grid.keys_for(rows, standardized=True), _searchsorted_keys(grid, rows)
        )

    @pytest.mark.parametrize("n_bins", [1, 2, 16, 64])
    def test_uniform_edges_at_and_beside_every_edge(self, n_bins, rng):
        span = rng.normal(size=(2, 1000))
        edges = tuple(np.linspace(c.min(), c.max(), n_bins + 1) for c in span)
        grid = HistogramGrid(np.zeros(2), np.ones(2), edges)
        rows = np.column_stack(
            [rng.permutation(np.resize(_edge_values([e]), 4000)) for e in edges]
        )
        assert np.array_equal(
            grid.keys_for(rows, standardized=True), _searchsorted_keys(grid, rows)
        )

    def test_raw_rows_take_the_frame(self, rng):
        grid = HistogramGrid(
            shift=np.array([3.0, -1.0]),
            scale=np.array([2.0, 0.5]),
            edges=(np.linspace(-2, 2, 9), np.linspace(-3, 1, 5)),
        )
        raw = rng.normal(size=(500, 2)) * 2.0
        assert np.array_equal(
            grid.keys_for(raw), _searchsorted_keys(grid, grid.standardize(raw))
        )


class TestHistogramCounting:
    @staticmethod
    def _unique_oracle(grid, rows):
        keys, counts = np.unique(
            _searchsorted_keys(grid, rows), return_counts=True
        )
        return keys, counts / counts.sum()

    @pytest.mark.parametrize(
        "bins_per_dim",
        [(16, 16, 16), (1024, 1024), (1025, 1024)],
        ids=["emd-grid", "at-cap", "over-cap"],
    )
    def test_both_branches_equal_unique(self, bins_per_dim, rng):
        d = len(bins_per_dim)
        edges = tuple(np.linspace(-3.0, 3.0, nb + 1) for nb in bins_per_dim)
        grid = HistogramGrid(np.zeros(d), np.ones(d), edges)
        cells = int(np.prod(bins_per_dim))
        assert (cells <= histogram._BINCOUNT_MAX_CELLS) == (bins_per_dim != (1025, 1024))
        rows = rng.normal(size=(5000, d))
        rows[:40] = rows[40:80]  # repeated rows: counts above one
        h = grid.histogram(rows, standardized=True)
        keys, probs = self._unique_oracle(grid, rows)
        assert h.keys.dtype == keys.dtype
        assert np.array_equal(h.keys, keys)
        assert np.array_equal(h.probs, probs)

    def test_branches_agree_when_the_cap_moves(self, rng, monkeypatch):
        grid = HistogramGrid(
            np.zeros(3), np.ones(3), tuple(np.linspace(-2, 2, 17) for _ in range(3))
        )
        rows = rng.normal(size=(3000, 3))
        dense = grid.histogram(rows, standardized=True)
        monkeypatch.setattr(histogram, "_BINCOUNT_MAX_CELLS", 0)
        sorted_ = grid.histogram(rows, standardized=True)
        assert np.array_equal(dense.keys, sorted_.keys)
        assert np.array_equal(dense.probs, sorted_.probs)
        assert np.array_equal(dense.centers, sorted_.centers)


class TestSeriesScores:
    @pytest.mark.parametrize("shape", [(1, 5, 3), (100, 170, 3), (37, 16, 4), (3, 0, 3)])
    def test_batched_scores_equal_per_series_loop(self, shape, rng):
        for density in (0.02, 0.3):
            bits = rng.random(shape + (3,)) < density
            block = BlockGlitches(bits)
            for weights in (GlitchWeights(), GlitchWeights(0.1, 0.7, 0.2)):
                batched = series_glitch_scores_block(block, weights)
                loop = series_glitch_scores(block.to_dataset_glitches(), weights)
                assert batched.shape == (shape[0],)
                assert np.array_equal(batched, loop)

    def test_record_fractions_equal_per_series(self, rng):
        block = BlockGlitches(rng.random((30, 40, 3, 3)) < 0.1)
        assert block.record_fractions() == block.to_dataset_glitches().record_fractions()


class TestTimeCounts:
    def test_padded_chunk_with_valid_mask(self, rng):
        # A (n, T, v, m) backfill chunk: ragged lengths, padding masked out
        # the way the glitch fold masks it before counting.
        bits = rng.random((6, 23, 3, 3)) < 0.3
        lengths = np.array([23, 0, 1, 17, 22, 5])
        valid = np.arange(23) < lengths[:, None]
        bits &= valid[..., None, None]
        counts = time_counts(bits)
        assert counts.shape == (6, 3, 3)
        assert counts.dtype == bits.sum(axis=-3).dtype
        assert np.array_equal(counts, bits.sum(axis=-3))
        assert not counts[1].any()

    @pytest.mark.parametrize("shape", [(16, 3, 3), (1, 3, 3), (0, 3, 3), (9, 4, 2)])
    def test_single_window(self, shape, rng):
        bits = rng.random(shape) < 0.4
        counts = time_counts(bits)
        assert counts.shape == shape[1:]
        assert np.array_equal(counts, bits.sum(axis=0))

    def test_non_contiguous_input(self, rng):
        bits = (rng.random((4, 3, 3, 30)) < 0.5).transpose(0, 3, 1, 2)
        assert np.array_equal(time_counts(bits), bits.sum(axis=-3))


class TestEmStart:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_start_equals_nanmean_nanvar(self, order, rng):
        for _ in range(60):
            n = int(rng.integers(2, 4000))
            d = int(rng.integers(1, 6))
            x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
            x[rng.random((n, d)) < rng.uniform(0, 0.6)] = np.nan
            x[0] = rng.normal(size=d)  # every attribute seen once
            x = np.asarray(x, order=order)
            miss = np.isnan(x)
            mean, var = _start_moments(np.where(miss, 0.0, x), miss)
            assert np.array_equal(mean, np.nanmean(x, axis=0))
            assert np.array_equal(var, np.nanvar(x, axis=0))

    @pytest.mark.parametrize("scale_fixture", ["tiny_bundle", "small_bundle"])
    def test_fits_on_captured_pools_equal_a_nanmean_start(
        self, request, monkeypatch, scale_fixture
    ):
        from repro.cleaning.base import CleaningContext
        from repro.cleaning.registry import strategy_by_name
        from repro.glitches.detectors import ScaleTransform
        from repro.sampling.replication import generate_test_pairs

        bundle = request.getfixturevalue(scale_fixture)
        pools = []

        def capture(data, **kwargs):
            pools.append((np.array(data), kwargs))
            return fit_mvn_em(data, **kwargs)

        monkeypatch.setattr(mvn_imputation, "fit_mvn_em", capture)
        strategy = strategy_by_name("strategy1")
        for transform in (ScaleTransform.log_attr1(), None):
            for seed, pair in enumerate(
                generate_test_pairs(bundle.dirty, bundle.ideal, 2, 30, seed=5)
            ):
                context = CleaningContext(
                    ideal=pair.ideal, transform=transform, seed=seed,
                    ideal_block=pair.ideal_block,
                )
                strategy.clean_block(pair.dirty_block, context)
        monkeypatch.undo()
        assert len(pools) == 4
        fits = [fit_mvn_em(data, **kwargs) for data, kwargs in pools]

        def numpy_start(filled, miss):
            x = np.where(miss, np.nan, filled)
            return np.nanmean(x, axis=0), np.nanvar(x, axis=0)

        monkeypatch.setattr(mvn_imputation, "_start_moments", numpy_start)
        for (data, kwargs), fit in zip(pools, fits):
            want = fit_mvn_em(data, **kwargs)
            assert (fit.n_iter, fit.converged) == (want.n_iter, want.converged)
            assert np.array_equal(fit.mean, want.mean)
            assert np.array_equal(fit.cov, want.cov)
