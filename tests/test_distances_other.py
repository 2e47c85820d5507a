"""KL, Jensen-Shannon, Mahalanobis, KS and the approximate EMDs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special
from scipy import stats as scipy_stats
from scipy.spatial import distance as scipy_distance

from repro.core.distortion import statistical_distortion_batch
from repro.data.dataset import StreamDataset
from repro.data.stream import TimeSeries
from repro.data.topology import NodeId
from repro.distance import DISTANCES, distance_by_name
from repro.distance.emd import EarthMoverDistance, emd_1d
from repro.distance.emd_approx import MarginalEmd, SlicedEmd
from repro.distance.histogram import SparseHistogram
from repro.distance.kl import JensenShannonDistance, KLDivergence, aligned_probs
from repro.distance.ks import KolmogorovSmirnovDistance
from repro.distance.mahalanobis import MahalanobisDistance
from repro.errors import DistanceError


@pytest.fixture()
def pair(rng):
    x = rng.normal(size=(800, 3))
    y = rng.normal(0.7, 1.2, size=(800, 3))
    return x, y


class TestKL:
    def test_identity_near_zero(self, rng):
        x = rng.normal(size=(500, 2))
        assert KLDivergence()(x, x.copy()) == pytest.approx(0.0, abs=1e-9)

    def test_positive_for_different(self, pair):
        x, y = pair
        assert KLDivergence()(x, y) > 0.05

    def test_asymmetric(self, pair):
        x, y = pair
        kl = KLDivergence()
        assert kl(x, y) != pytest.approx(kl(y, x), rel=1e-3)

    def test_symmetrized_is_symmetric_in_histograms(self, rng):
        # Use standardize=False so the binning frame does not depend on the
        # argument order.
        x = rng.normal(size=(500, 2))
        y = rng.normal(0.5, 1.0, size=(500, 2))
        kl = KLDivergence(symmetrized=True, standardize=False)
        assert kl(x, y) == pytest.approx(kl(y, x), rel=1e-9)

    def test_requires_positive_pseudocount(self):
        with pytest.raises(DistanceError):
            KLDivergence(pseudo_count=0.0)

    def test_more_different_more_divergent(self, rng):
        x = rng.normal(size=(800, 1))
        near = KLDivergence()(x, x + 0.3)
        far = KLDivergence()(x, x + 3.0)
        assert far > near

    def test_per_bin_smoothing_regression(self):
        """Pin the documented smoothing semantics: ``pseudo_count`` is added
        to *each* of the k union bins and the total renormalised by
        ``1 + k * pseudo_count`` (the docstring long promised per-bin mass;
        the implementation used to spread ``pseudo_count / k``)."""
        p = np.array([0.0, 1.0, 2.0, 3.0])[:, None]
        q = np.array([0.0, 0.0, 0.0, 3.0])[:, None]
        kl = KLDivergence(
            n_bins=2, binning="uniform", standardize=False, pseudo_count=0.5
        )
        # Edges [0, 1.5, 3]: hp = [1/2, 1/2], hq = [3/4, 1/4]; k = 2 bins.
        # a = (1/2 + 1/2) / 2 = [1/2, 1/2]; b = [(3/4 + 1/2) / 2, (1/4 + 1/2) / 2]
        expected = 0.5 * np.log(0.5 / 0.625) + 0.5 * np.log(0.5 / 0.375)
        assert kl(p, q) == pytest.approx(expected, rel=1e-12)
        # The old code spread pseudo_count / k and normalised by
        # 1 + pseudo_count — a different number; the doc semantics won.
        hp, hq = np.array([0.5, 0.5]), np.array([0.75, 0.25])
        old = float(np.sum(
            (hp + 0.25) / 1.5 * np.log((hp + 0.25) / (hq + 0.25))
        ))
        assert abs(kl(p, q) - old) > 1e-3

    def test_smoothing_keeps_zero_candidate_bins_finite(self, rng):
        x = rng.normal(size=(300, 1))
        y = np.full((300, 1), float(x.mean()))  # all mass in one bin
        assert np.isfinite(KLDivergence()(x, y))


class TestBinAlignment:
    """Bins align on shared-grid keys, never on centre-coordinate bytes."""

    def test_negative_zero_centers_are_one_bin(self):
        # Same flat key, byte-distinct but equal centres (-0.0 vs 0.0):
        # the old tobytes() alignment split this into two bins and
        # double-counted the mass; key alignment sees one bin.
        hp = SparseHistogram(
            centers=np.array([[0.0], [1.0]]),
            probs=np.array([0.5, 0.5]),
            keys=np.array([3, 7]),
        )
        hq = SparseHistogram(
            centers=np.array([[-0.0], [1.0]]),
            probs=np.array([0.5, 0.5]),
            keys=np.array([3, 7]),
        )
        ap, aq = aligned_probs(hp, hq)
        assert ap.size == 2 and aq.size == 2
        assert np.array_equal(ap, aq)
        kl = KLDivergence(pseudo_count=0.5)
        assert kl.between_histograms_batch(hp, [hq])[0] == pytest.approx(0.0, abs=1e-15)
        js = JensenShannonDistance()
        assert js.between_histograms_batch(hp, [hq])[0] == pytest.approx(0.0, abs=1e-12)

    def test_alignment_scatters_disjoint_bins(self):
        hp = SparseHistogram(
            centers=np.array([[0.0], [1.0]]),
            probs=np.array([0.25, 0.75]),
            keys=np.array([1, 4]),
        )
        hq = SparseHistogram(
            centers=np.array([[2.0]]),
            probs=np.array([1.0]),
            keys=np.array([9]),
        )
        ap, aq = aligned_probs(hp, hq)
        assert np.array_equal(ap, [0.25, 0.75, 0.0])
        assert np.array_equal(aq, [0.0, 0.0, 1.0])

    def test_keyless_histograms_are_rejected(self):
        h = SparseHistogram(
            centers=np.array([[0.0]]), probs=np.array([1.0])
        )
        with pytest.raises(DistanceError):
            aligned_probs(h, h)


class TestJensenShannon:
    def test_identity_zero(self, rng):
        x = rng.normal(size=(400, 2))
        assert JensenShannonDistance()(x, x.copy()) == pytest.approx(0.0, abs=1e-9)

    def test_bounded_by_sqrt_log2(self, pair):
        x, y = pair
        assert JensenShannonDistance()(x, y) <= np.sqrt(np.log(2)) + 1e-9

    def test_symmetric_without_standardize(self, rng):
        x = rng.normal(size=(400, 2))
        y = rng.normal(1.0, 2.0, size=(400, 2))
        js = JensenShannonDistance(standardize=False)
        assert js(x, y) == pytest.approx(js(y, x), rel=1e-9)


class TestMahalanobis:
    def test_identity_zero(self, rng):
        x = rng.normal(size=(300, 3))
        assert MahalanobisDistance()(x, x.copy()) == pytest.approx(0.0, abs=1e-9)

    def test_unit_shift_in_unit_covariance(self, rng):
        x = rng.normal(size=(100_000, 2))
        y = x + np.array([1.0, 0.0])
        assert MahalanobisDistance()(x, y) == pytest.approx(1.0, rel=0.05)

    def test_scale_invariant(self, rng):
        x = rng.normal(size=(5000, 2))
        y = x + np.array([0.5, 0.2])
        d1 = MahalanobisDistance()(x, y)
        d2 = MahalanobisDistance()(x * 100, y * 100)
        assert d1 == pytest.approx(d2, rel=1e-6)

    def test_blind_to_mean_preserving_spread(self, rng):
        """Why EMD beats Mahalanobis as a distortion metric: a symmetric
        variance explosion with the same mean is almost invisible."""
        x = rng.normal(size=(5000, 1))
        y = x * 5.0
        assert MahalanobisDistance()(x, y) < 0.2

    def test_rejects_negative_ridge(self):
        with pytest.raises(DistanceError):
            MahalanobisDistance(ridge=-1.0)

    def test_tiny_reference_raises(self):
        with pytest.raises(DistanceError):
            MahalanobisDistance()(np.zeros((1, 2)), np.zeros((5, 2)))


class TestKS:
    def test_identity_zero(self, rng):
        x = rng.normal(size=(200, 2))
        assert KolmogorovSmirnovDistance()(x, x.copy()) == 0.0

    def test_bounded_by_one(self, pair):
        x, y = pair
        assert 0.0 <= KolmogorovSmirnovDistance()(x, y) <= 1.0

    def test_disjoint_supports_give_one(self):
        x = np.zeros((50, 1))
        y = np.ones((50, 1))
        assert KolmogorovSmirnovDistance()(x, y) == pytest.approx(1.0)

    def test_insensitive_to_distance_moved(self, rng):
        """KS only counts how much mass moved, not how far — the contrast
        with EMD the ablation bench explores."""
        x = rng.normal(size=(1000, 1))
        near = np.where(x > 2.0, 2.0, x)
        far = np.where(x > 2.0, 50.0, x)
        ks = KolmogorovSmirnovDistance()
        assert ks(x, near) == pytest.approx(ks(x, far), abs=0.02)

    def test_blanked_column_is_skipped(self, rng):
        """Regression: a cleaner that blanks one column used to blow up in
        Ecdf (ValidationError on an all-NaN sample); the unpopulated
        attribute is now skipped and the rest still scored."""
        x = rng.normal(size=(200, 2))
        y = x.copy()
        y[:, 1] = np.nan
        ks = KolmogorovSmirnovDistance()
        assert ks(x, y) == pytest.approx(ks(x[:, :1], y[:, :1]))
        # Fully unpopulated on both sides -> nothing to compare.
        all_nan = np.full((50, 1), np.nan)
        with pytest.raises(DistanceError):
            ks(all_nan, all_nan)

    def test_nans_stay_out_of_evaluation_grid(self, rng):
        """Scattered NaNs: each attribute keeps its own finite values (the
        per-column pooling semantics) and no NaN reaches union1d — the
        statistic stays finite and matches the hand-filtered value."""
        x = rng.normal(size=(300, 2))
        y = rng.normal(0.5, 1.0, size=(300, 2))
        xm, ym = x.copy(), y.copy()
        xm[::7, 0] = np.nan
        ym[::5, 1] = np.nan
        got = KolmogorovSmirnovDistance()(xm, ym)
        assert np.isfinite(got)
        per_attr = []
        for j in range(2):
            a = xm[:, j][np.isfinite(xm[:, j])]
            b = ym[:, j][np.isfinite(ym[:, j])]
            grid = np.union1d(a, b)
            fa = np.searchsorted(np.sort(a), grid, side="right") / a.size
            fb = np.searchsorted(np.sort(b), grid, side="right") / b.size
            per_attr.append(float(np.max(np.abs(fa - fb))))
        assert got == max(per_attr)


def _as_dataset(rows):
    """Wrap pooled rows as a single-series dataset for the batch API."""
    return StreamDataset([TimeSeries(NodeId(0, 0, 0), rows)])


def _ks_oracle(p, q):
    """Max over attributes of scipy's two-sample KS on each column's
    finite values; attributes unpopulated on either side are skipped."""
    stats = []
    for j in range(p.shape[1]):
        x, y = p[:, j], q[:, j]
        x, y = x[np.isfinite(x)], y[np.isfinite(y)]
        if x.size and y.size:
            stats.append(scipy_stats.ks_2samp(x, y).statistic)
    return max(stats)


def _aligned_panel(distance, p, qs):
    """Each candidate's aligned ``(reference, candidate)`` bin masses on
    the panel's shared grid."""
    hp, hqs = distance.binner.histogram_group(p, qs)
    return [aligned_probs(hp, hq) for hq in hqs]


class TestPooledOracles:
    """The pooled path every engine runs, checked against scipy rather
    than against another in-house implementation."""

    @pytest.fixture()
    def panel(self, rng):
        p = rng.gamma(1.5, 2.0, size=(400, 3))
        qs = [
            rng.gamma(1.7, 2.1, size=(350, 3)),
            np.clip(p, None, np.quantile(p, 0.9, axis=0)),
            p[:300] + rng.normal(0, 0.1, size=(300, 3)),
        ]
        return p, qs

    def test_ks_matches_scipy(self, panel):
        p, qs = panel
        got = statistical_distortion_batch(
            _as_dataset(p), [_as_dataset(q) for q in qs],
            distance=KolmogorovSmirnovDistance(),
        )
        for value, q in zip(got, qs):
            assert value == pytest.approx(_ks_oracle(p, q), rel=1e-12)

    def test_ks_per_column_nans_match_scipy(self, rng):
        # The pooled path keeps NaN-bearing rows for KS: each attribute
        # drops its own NaNs, and a blanked column is skipped instead of
        # erasing the other attributes.
        p = rng.normal(size=(300, 2))
        partial = p + np.array([2.0, 0.0])
        partial[partial[:, 0] > 2.0, 1] = np.nan
        blanked = p.copy()
        blanked[:, 1] = np.nan
        ks = KolmogorovSmirnovDistance()
        got = statistical_distortion_batch(
            _as_dataset(p), [_as_dataset(partial), _as_dataset(blanked)],
            distance=ks,
        )
        assert got == ks.pairwise(p, [partial, blanked])
        assert got[0] == pytest.approx(_ks_oracle(p, partial), rel=1e-12)
        assert got[1] == pytest.approx(_ks_oracle(p, blanked), rel=1e-12)
        assert got[1] == pytest.approx(
            scipy_stats.ks_2samp(p[:, 0], blanked[:, 0]).statistic, rel=1e-12
        )

    @pytest.mark.parametrize("binning", ["quantile", "uniform"])
    @pytest.mark.parametrize("symmetrized", [False, True])
    def test_kl_matches_scipy_rel_entr(self, panel, binning, symmetrized):
        p, qs = panel
        kl = KLDivergence(binning=binning, symmetrized=symmetrized)
        got = kl.pairwise(p, qs)
        for value, (ap, aq) in zip(got, _aligned_panel(kl, p, qs)):
            # Documented smoothing: pseudo_count added to each of the k
            # union bins, renormalised by 1 + k * pseudo_count.
            norm = 1.0 + ap.size * kl.pseudo_count
            a = (ap + kl.pseudo_count) / norm
            b = (aq + kl.pseudo_count) / norm
            forward = scipy_special.rel_entr(a, b).sum()
            expected = (
                0.5 * (forward + scipy_special.rel_entr(b, a).sum())
                if symmetrized
                else forward
            )
            assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("binning", ["quantile", "uniform"])
    def test_js_matches_scipy_jensenshannon(self, panel, binning):
        p, qs = panel
        js = JensenShannonDistance(binning=binning)
        got = js.pairwise(p, qs)
        for value, (ap, aq) in zip(got, _aligned_panel(js, p, qs)):
            expected = scipy_distance.jensenshannon(ap, aq)  # natural log
            assert value == pytest.approx(expected, rel=1e-12)

    def test_batch_pooling_honours_per_column_distances(self, rng):
        # Regression: the framework pooling layer used to complete-case
        # filter for every distance, so a blanked column erased the whole
        # sample before KS could apply its per-attribute semantics.
        p = rng.gamma(1.5, 2.0, size=(200, 2))
        q = p.copy()
        q[:, 1] = np.nan
        ks = KolmogorovSmirnovDistance()
        got = statistical_distortion_batch(_as_dataset(p), [_as_dataset(q)], distance=ks)
        assert got == ks.pairwise(p, [q])
        # Complete-case distances keep the old contract: nothing to bin.
        with pytest.raises(DistanceError):
            statistical_distortion_batch(
                _as_dataset(p), [_as_dataset(q)],
                distance=EarthMoverDistance(exact_1d=False),
            )


#: The histogram and ECDF distances of the pooled path, on an identity frame
#: so that nothing but the binning (or the sorted ECDF) sees the rows.
PANEL_DISTANCES = {
    "emd": lambda: EarthMoverDistance(n_bins=8, standardize=False, exact_1d=False),
    "kl": lambda: KLDivergence(n_bins=8, standardize=False),
    "kl-sym": lambda: KLDivergence(n_bins=8, standardize=False, symmetrized=True),
    "js": lambda: JensenShannonDistance(n_bins=8, standardize=False),
    "ks": lambda: KolmogorovSmirnovDistance(),
}


def _panel_sample(n, d, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.gamma(1.5, 2.0, size=(n, d)) + rng.normal(0, 1, size=(n, d))


class TestPooledPanelInvariants:
    """What a strategy panel's values may and may not depend on.

    Bin counts and sorted ECDFs are functions of the sample as a multiset,
    so the order rows arrive in (a slab engine and the block engine pool
    them differently) never changes a value, bit for bit; neither does the
    order of the candidates within one panel.
    """

    @pytest.fixture()
    def panel(self):
        p = _panel_sample(500, 2, seed=20)
        qs = [_panel_sample(400, 2, seed=21), _panel_sample(380, 2, seed=22, scale=1.4)]
        return p, qs

    @pytest.mark.parametrize("name", sorted(PANEL_DISTANCES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_order_never_changes_values(self, panel, name, seed):
        p, qs = panel
        distance = PANEL_DISTANCES[name]()
        rng = np.random.default_rng(seed)
        shuffled_p = p[rng.permutation(len(p))]
        shuffled_qs = [q[rng.permutation(len(q))] for q in qs]
        assert distance.pairwise(shuffled_p, shuffled_qs) == distance.pairwise(p, qs)

    @pytest.mark.parametrize("name", sorted(PANEL_DISTANCES))
    def test_candidate_order_never_changes_values(self, panel, name):
        p, qs = panel
        distance = PANEL_DISTANCES[name]()
        forward = distance.pairwise(p, qs)
        assert distance.pairwise(p, qs[::-1]) == forward[::-1]

    @pytest.mark.parametrize("name", sorted(PANEL_DISTANCES))
    def test_panel_of_one_matches_single_pair(self, panel, name):
        p, qs = panel
        distance = PANEL_DISTANCES[name]()
        for q in qs:
            assert distance.pairwise(p, [q]) == [distance(p, q)]

    @pytest.mark.parametrize("name", sorted(PANEL_DISTANCES))
    def test_batch_matches_pairwise_on_pooled_rows(self, panel, name):
        p, qs = panel
        distance = PANEL_DISTANCES[name]()
        got = statistical_distortion_batch(
            _as_dataset(p), [_as_dataset(q) for q in qs], distance=distance
        )
        assert got == distance.pairwise(p, qs)

    @pytest.mark.parametrize("name", ["kl", "kl-sym", "js"])
    def test_out_of_support_mass_keeps_panel_ordering(self, name):
        # KL/JS respond to how candidate mass outside the reference support
        # is binned; on the panel's union grid a candidate that moves mass
        # out of that support must still rank behind one that stays inside.
        p = _panel_sample(600, 3, seed=21)
        perm = np.random.default_rng(5).permutation(len(p))
        inside = p[perm][:450]
        outside = p[perm[::-1]][:420] + 3.0 * p.std(axis=0)
        distance = {
            "kl": lambda: KLDivergence(n_bins=8, binning="uniform"),
            "kl-sym": lambda: KLDivergence(
                n_bins=8, binning="uniform", symmetrized=True
            ),
            "js": lambda: JensenShannonDistance(n_bins=8, binning="uniform"),
        }[name]()
        near, far = distance.pairwise(p, [inside, outside])
        assert 0.0 <= near < far


class TestDivergenceProperties:
    """Property tests over random sample pairs: JS stays within its
    analytic bound, symmetrized KL is symmetric, under any draw."""

    @given(st.integers(0, 10_000), st.floats(-3, 3), st.floats(0.1, 4))
    @settings(max_examples=25, deadline=None)
    def test_js_bounded_by_sqrt_log2(self, seed, shift, spread):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(200, 2))
        y = rng.normal(shift, spread, size=(150, 2))
        assert 0.0 <= JensenShannonDistance()(x, y) <= np.sqrt(np.log(2)) + 1e-12

    @given(st.integers(0, 10_000), st.floats(-2, 2))
    @settings(max_examples=25, deadline=None)
    def test_symmetrized_kl_is_symmetric(self, seed, shift):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(150, 2))
        y = rng.normal(shift, 1.4, size=(150, 2))
        kl = KLDivergence(symmetrized=True, standardize=False)
        assert kl(x, y) == pytest.approx(kl(y, x), rel=1e-9, abs=1e-12)


class TestDistanceRegistry:
    def test_names_round_trip(self):
        for name, cls in DISTANCES.items():
            assert isinstance(distance_by_name(name), cls)
            assert cls.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(DistanceError):
            distance_by_name("wasserstein-3000")

    def test_kwargs_forwarded(self):
        kl = distance_by_name("kl", binning="uniform", pseudo_count=0.25)
        assert kl.binner.binning == "uniform"
        assert kl.pseudo_count == 0.25


class TestSlicedEmd:
    def test_identity_zero(self, rng):
        x = rng.normal(size=(300, 3))
        assert SlicedEmd()(x, x.copy()) == pytest.approx(0.0, abs=1e-9)

    def test_deterministic_given_seed(self, pair):
        x, y = pair
        assert SlicedEmd(seed=5)(x, y) == SlicedEmd(seed=5)(x, y)

    def test_1d_equals_exact(self, rng):
        x = rng.normal(size=400)
        y = rng.normal(1.0, 1.0, 400)
        sliced = SlicedEmd(standardize=False)(x, y)
        assert sliced == pytest.approx(emd_1d(x, y), rel=1e-9)

    def test_correlates_with_exact_emd(self, rng):
        from repro.distance.emd import EarthMoverDistance

        x = rng.normal(size=(600, 2))
        shifts = [0.2, 1.0, 2.5]
        exact = [EarthMoverDistance(n_bins=16)(x, x + s) for s in shifts]
        sliced = [SlicedEmd(n_projections=64)(x, x + s) for s in shifts]
        assert np.argsort(exact).tolist() == np.argsort(sliced).tolist()


class TestMarginalEmd:
    def test_identity_zero(self, rng):
        x = rng.normal(size=(300, 3))
        assert MarginalEmd()(x, x.copy()) == pytest.approx(0.0, abs=1e-9)

    def test_average_of_univariate_distances(self, rng):
        x = rng.normal(size=(500, 2))
        y = x + np.array([1.0, 3.0])
        d = MarginalEmd(standardize=False)(x, y)
        assert d == pytest.approx(2.0, rel=1e-6)
