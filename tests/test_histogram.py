"""Shared-support binning for distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.distance.histogram import (
    HistogramBinner,
    HistogramGrid,
    SparseHistogram,
    clear_frame_cache,
)
from repro.errors import DistanceError


def sample_2d(seed, n=200, d=2):
    return np.random.default_rng(seed).normal(size=(n, d))


class TestSparseHistogram:
    def test_valid(self):
        SparseHistogram(np.zeros((2, 3)), np.array([0.4, 0.6]))

    def test_rejects_bad_probs_shape(self):
        with pytest.raises(DistanceError):
            SparseHistogram(np.zeros((2, 3)), np.array([1.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(DistanceError):
            SparseHistogram(np.zeros((2, 3)), np.array([0.4, 0.4]))

    def test_rejects_1d_centers(self):
        with pytest.raises(DistanceError):
            SparseHistogram(np.zeros(3), np.array([1.0]))

    def test_properties(self):
        h = SparseHistogram(np.zeros((4, 2)), np.full(4, 0.25))
        assert h.n_bins == 4
        assert h.dim == 2


class TestBinnerValidation:
    def test_rejects_bad_binning(self):
        with pytest.raises(DistanceError):
            HistogramBinner(binning="magic")

    def test_rejects_mismatched_dims(self):
        b = HistogramBinner()
        with pytest.raises(DistanceError):
            b.histogram_pair(np.zeros((5, 2)), np.zeros((5, 3)))


class TestBinnerBehaviour:
    def test_probs_sum_to_one(self):
        b = HistogramBinner(n_bins=8)
        hp, hq = b.histogram_pair(sample_2d(0), sample_2d(1))
        assert hp.probs.sum() == pytest.approx(1.0)
        assert hq.probs.sum() == pytest.approx(1.0)

    def test_bin_counts_bounded(self):
        b = HistogramBinner(n_bins=4)
        hp, hq = b.histogram_pair(sample_2d(0), sample_2d(1))
        assert hp.n_bins <= 16
        assert hq.n_bins <= 16

    def test_identical_samples_identical_histograms(self):
        x = sample_2d(2)
        b = HistogramBinner(n_bins=6)
        hp, hq = b.histogram_pair(x, x.copy())
        assert np.array_equal(hp.centers, hq.centers)
        assert np.allclose(hp.probs, hq.probs)

    def test_standardization_uses_reference(self):
        """The coordinate frame comes from p (the first argument) only."""
        p = sample_2d(3) * 7 + 4
        b = HistogramBinner(n_bins=6)
        shift, scale = b._reference_frame(p)
        assert np.allclose(shift, p.mean(axis=0))
        assert np.allclose(scale, p.std(axis=0))
        # q plays no role in the frame.
        shift2, scale2 = b._reference_frame(p)
        assert np.allclose(shift, shift2) and np.allclose(scale, scale2)

    def test_degenerate_scale_falls_back_to_one(self):
        b = HistogramBinner(n_bins=4)
        p = np.column_stack([np.ones(20), np.arange(20.0)])
        _, scale = b._reference_frame(p)
        assert scale[0] == 1.0
        assert scale[1] > 1.0

    def test_no_standardize_keeps_raw_coordinates(self):
        p = sample_2d(5) * 50 + 100
        b = HistogramBinner(n_bins=4, standardize=False)
        hp, _ = b.histogram_pair(p, p)
        assert hp.centers.min() > 0

    def test_degenerate_dimension_single_bin(self):
        p = np.column_stack([np.ones(50), np.arange(50.0)])
        b = HistogramBinner(n_bins=4, standardize=False)
        hp, _ = b.histogram_pair(p, p)
        assert np.unique(hp.centers[:, 0]).size == 1

    def test_quantile_mode_balances_mass(self):
        rng = np.random.default_rng(0)
        p = rng.lognormal(0, 1, (2000, 1))
        b = HistogramBinner(n_bins=10, binning="quantile", standardize=False)
        hp, _ = b.histogram_pair(p, p)
        assert hp.probs.max() < 0.2  # roughly equal-mass bins

    def test_uniform_mode_equal_widths(self):
        p = np.arange(100.0)[:, None]
        b = HistogramBinner(n_bins=10, binning="uniform", standardize=False)
        hp, _ = b.histogram_pair(p, p)
        widths = np.diff(np.sort(np.unique(hp.centers[:, 0])))
        assert np.allclose(widths, widths[0])

    @given(
        hnp.arrays(
            float,
            st.tuples(st.integers(5, 60), st.integers(1, 3)),
            elements=st.floats(-100, 100),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_total_mass_preserved(self, p):
        b = HistogramBinner(n_bins=5)
        hp, hq = b.histogram_pair(p, p + 1.0)
        assert hp.probs.sum() == pytest.approx(1.0)
        assert hq.probs.sum() == pytest.approx(1.0)
        assert hp.centers.shape[1] == p.shape[1]

    @pytest.mark.parametrize("binning", ["uniform", "quantile"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_order_never_changes_group_histograms(self, binning, seed):
        # Bin assignment is per row and counts add exactly, so however the
        # pooled rows are ordered the panel's histograms agree bit for bit.
        p = sample_2d(10, n=300, d=3)
        qs = [sample_2d(11, n=250, d=3) * 1.5, sample_2d(12, n=280, d=3) + 0.5]
        b = HistogramBinner(n_bins=6, binning=binning, standardize=False)
        hp_ref, hqs_ref = b.histogram_group(p, qs)
        rng = np.random.default_rng(seed)
        hp, hqs = b.histogram_group(
            p[rng.permutation(len(p))], [q[rng.permutation(len(q))] for q in qs]
        )
        for got, ref in zip([hp, *hqs], [hp_ref, *hqs_ref]):
            assert np.array_equal(got.keys, ref.keys)
            assert np.array_equal(got.probs, ref.probs)
            assert np.array_equal(got.centers, ref.centers)

    def test_group_needs_a_candidate(self):
        with pytest.raises(DistanceError):
            HistogramBinner().histogram_group(sample_2d(0), [])

    def test_extreme_candidate_coarsens_shared_grid(self):
        # The group grid spans every candidate: a far-off candidate widens
        # the uniform bins, so the reference lands in fewer of them than on
        # its own pair grid.
        p = sample_2d(13)
        near = sample_2d(14)
        b = HistogramBinner(n_bins=8, binning="uniform", standardize=False)
        hp_pair, _ = b.histogram_pair(p, near)
        hp_group, _ = b.histogram_group(p, [near, near + 50.0])
        assert hp_group.n_bins < hp_pair.n_bins


def _grid(d, n_edges=5):
    edges = tuple(np.linspace(-2.0, 2.0, n_edges) * (j + 1) for j in range(d))
    return HistogramGrid(shift=np.zeros(d), scale=np.ones(d), edges=edges)


class TestHistogramGrid:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_keys_match_ravel_multi_index_oracle(self, d):
        grid = _grid(d)
        rows = np.random.default_rng(d).uniform(-1.9, 1.9, size=(200, d))
        idx = [
            np.searchsorted(e, rows[:, j], side="right") - 1
            for j, e in enumerate(grid.edges)
        ]
        expected = np.ravel_multi_index(idx, tuple(grid.dims))
        assert np.array_equal(grid.keys_for(rows), expected)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_centers_round_trip_to_their_keys(self, d):
        grid = _grid(d)
        keys = np.arange(int(np.prod(grid.dims)))
        centers = grid.centers_for(keys)
        assert centers.shape == (keys.size, d)
        assert np.array_equal(grid.keys_for(centers, standardized=True), keys)

    def test_out_of_range_rows_clip_to_edge_bins(self):
        grid = _grid(1)
        keys = grid.keys_for(np.array([[-100.0], [-2.0], [2.0], [100.0]]))
        assert keys.tolist() == [0, 0, 3, 3]

    def test_frame_applies_before_binning(self):
        grid = HistogramGrid(
            shift=np.array([10.0]), scale=np.array([2.0]),
            edges=(np.array([-1.0, 0.0, 1.0]),),
        )
        raw = np.array([[9.0], [11.0]])
        assert grid.keys_for(raw).tolist() == [0, 1]
        assert np.array_equal(
            grid.keys_for(grid.standardize(raw), standardized=True),
            grid.keys_for(raw),
        )

    def test_histogram_probs_are_bin_frequencies(self):
        grid = _grid(1)
        h = grid.histogram(np.array([[-1.5], [-1.5], [0.5], [1.5]]))
        assert h.keys.tolist() == [0, 2, 3]
        assert h.probs.tolist() == [0.5, 0.25, 0.25]
        assert np.array_equal(h.centers, grid.centers_for(h.keys))

    def test_frame_shape_mismatch_rejected(self):
        with pytest.raises(DistanceError):
            HistogramGrid(
                shift=np.zeros(2), scale=np.ones(2), edges=(np.array([0.0, 1.0]),)
            )

    def test_single_edge_rejected(self):
        with pytest.raises(DistanceError):
            HistogramGrid(shift=np.zeros(1), scale=np.ones(1), edges=(np.array([0.0]),))

    def test_decreasing_edges_rejected(self):
        # Unordered edges used to bin both 0.5 and 1.5 to key 1.
        with pytest.raises(DistanceError, match="non-decreasing"):
            HistogramGrid(
                shift=np.zeros(1), scale=np.ones(1), edges=(np.array([1.0, 0.0, 2.0]),)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_edge_rejected(self, bad):
        with pytest.raises(DistanceError, match="finite"):
            HistogramGrid(
                shift=np.zeros(1), scale=np.ones(1), edges=(np.array([0.0, bad, 2.0]),)
            )

    def test_grid_overflowing_int64_keys_rejected(self):
        # 17 attributes x 16 bins is 2^68 cells: the flat keys used to wrap
        # round to negative numbers without an error.
        edges = tuple(np.linspace(-1.0, 1.0, 17) for _ in range(17))
        with pytest.raises(DistanceError, match="2\\^62"):
            HistogramGrid(shift=np.zeros(17), scale=np.ones(17), edges=edges)

    def test_cell_limit_is_two_to_the_62(self):
        two_bins = np.array([0.0, 1.0, 2.0])
        with pytest.raises(DistanceError):
            HistogramGrid(np.zeros(62), np.ones(62), (two_bins,) * 62)
        grid = HistogramGrid(np.zeros(61), np.ones(61), (two_bins,) * 61)
        keys = grid.keys_for(np.full((3, 61), 1.5), standardized=True)
        assert keys.tolist() == [2**61 - 1] * 3

    def test_equal_neighbouring_edges_stay_legal(self):
        lo = 1.0
        edges = np.linspace(lo, np.nextafter(np.nextafter(lo, 2.0), 2.0), 9)
        assert (np.diff(edges) == 0).any()
        grid = HistogramGrid(shift=np.zeros(1), scale=np.ones(1), edges=(edges,))
        rows = edges[:, None]
        expected = np.clip(np.searchsorted(edges, edges, side="right") - 1, 0, 7)
        assert np.array_equal(grid.keys_for(rows, standardized=True), expected)

    def test_rows_of_wrong_width_rejected(self):
        with pytest.raises(DistanceError):
            _grid(2).keys_for(np.zeros((4, 3)))

    def test_empty_sample_rejected(self):
        with pytest.raises(DistanceError):
            _grid(2).histogram(np.zeros((0, 2)))


class TestFrameMemo:
    def test_shared_reference_frame_is_memoised(self):
        clear_frame_cache()
        binner = HistogramBinner(n_bins=8)
        p = sample_2d(6, n=200, d=3)
        shift1, scale1 = binner.reference_frame(p)
        shift2, scale2 = binner.reference_frame(p.copy())
        # Same content -> the very same cached arrays, no recomputation.
        assert shift1 is shift2 and scale1 is scale2

    def test_different_content_gets_different_frame(self):
        clear_frame_cache()
        binner = HistogramBinner(n_bins=8)
        p = sample_2d(7, n=100)
        shift1, _ = binner.reference_frame(p)
        shift2, _ = binner.reference_frame(p + 1.0)
        assert not np.array_equal(shift1, shift2)

    def test_cache_never_changes_results(self):
        clear_frame_cache()
        binner = HistogramBinner(n_bins=8)
        p = sample_2d(8, n=150, d=3)
        q = sample_2d(9, n=150, d=3)
        first = binner.histogram_pair(p, q)
        second = binner.histogram_pair(p, q)  # frame served from cache
        assert np.array_equal(first[0].probs, second[0].probs)
        assert np.array_equal(first[1].probs, second[1].probs)
        clear_frame_cache()
