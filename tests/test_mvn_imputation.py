"""EM for the multivariate normal and the PROC-MI-style imputation."""

import numpy as np
import pytest

from repro.cleaning import mvn_imputation
from repro.cleaning.base import CleaningContext
from repro.cleaning.mvn_imputation import (
    MvnImputation,
    draw_conditional,
    fit_mvn_em,
)
from repro.cleaning.registry import paper_strategies
from repro.core.framework import ExperimentConfig, ExperimentRunner
from repro.errors import CleaningError
from repro.glitches.detectors import ScaleTransform


def mcar_sample(rng, n=3000, missing=0.2):
    mean = np.array([1.0, -2.0, 0.5])
    cov = np.array([[2.0, 0.8, 0.3], [0.8, 1.5, -0.4], [0.3, -0.4, 1.0]])
    x = rng.multivariate_normal(mean, cov, size=n)
    mask = rng.random(x.shape) < missing
    x[mask] = np.nan
    return x, mean, cov


class TestFitMvnEm:
    def test_recovers_parameters_under_mcar(self, rng):
        x, mean, cov = mcar_sample(rng)
        est = fit_mvn_em(x)
        assert est.converged
        assert np.allclose(est.mean, mean, atol=0.15)
        assert np.allclose(est.cov, cov, atol=0.3)

    def test_complete_data_matches_mle(self, rng):
        x = rng.multivariate_normal([0, 0], [[1, 0.5], [0.5, 2]], size=2000)
        est = fit_mvn_em(x)
        assert np.allclose(est.mean, x.mean(axis=0), atol=1e-6)
        assert np.allclose(est.cov, np.cov(x, rowvar=False, ddof=0), atol=1e-3)

    def test_fully_missing_rows_dropped(self, rng):
        x, _, _ = mcar_sample(rng, n=500)
        x_with_empty = np.vstack([x, np.full((5, 3), np.nan)])
        a = fit_mvn_em(x)
        b = fit_mvn_em(x_with_empty)
        assert np.allclose(a.mean, b.mean)

    def test_rejects_1d(self):
        with pytest.raises(CleaningError):
            fit_mvn_em(np.zeros(5))

    def test_rejects_all_missing_column(self):
        x = np.array([[1.0, np.nan], [2.0, np.nan], [3.0, np.nan]])
        with pytest.raises(CleaningError):
            fit_mvn_em(x)

    def test_rejects_too_few_rows(self):
        with pytest.raises(CleaningError):
            fit_mvn_em(np.array([[1.0, 2.0]]))

    def test_covariance_positive_definite(self, rng):
        x, _, _ = mcar_sample(rng, n=400, missing=0.4)
        est = fit_mvn_em(x)
        assert np.linalg.eigvalsh(est.cov).min() > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iter": 0},
            {"max_iter": -3},
            {"max_iter": 2.0},
            {"tol": 0.0},
            {"tol": -1e-6},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"ridge": -1e-9},
            {"ridge": float("nan")},
            {"ridge": float("inf")},
        ],
        ids=repr,
    )
    def test_rejects_bad_settings(self, rng, kwargs):
        x, _, _ = mcar_sample(rng, n=50)
        with pytest.raises(CleaningError):
            fit_mvn_em(x, **kwargs)

    @pytest.mark.parametrize("cell", [np.inf, -np.inf])
    def test_rejects_infinite_cell(self, rng, cell):
        x, _, _ = mcar_sample(rng, n=50)
        x[7, 1] = cell
        with pytest.raises(CleaningError, match="infinite"):
            fit_mvn_em(x)

    def test_zero_ridge_allowed(self, rng):
        x, _, _ = mcar_sample(rng, n=400)
        assert fit_mvn_em(x, ridge=0.0).converged


class TestDrawConditional:
    def test_fills_all_nans(self, rng):
        x, _, _ = mcar_sample(rng, n=400)
        est = fit_mvn_em(x)
        out = draw_conditional(x, est, rng)
        assert not np.isnan(out).any()

    def test_observed_untouched(self, rng):
        x, _, _ = mcar_sample(rng, n=400)
        est = fit_mvn_em(x)
        out = draw_conditional(x, est, rng)
        obs = ~np.isnan(x)
        assert np.array_equal(out[obs], x[obs])

    def test_draws_follow_conditional_mean(self, rng):
        """With strong correlation, imputed x2 tracks observed x1."""
        cov = np.array([[1.0, 0.95], [0.95, 1.0]])
        x = rng.multivariate_normal([0, 0], cov, size=4000)
        holes = x.copy()
        holes[:2000, 1] = np.nan
        est = fit_mvn_em(holes)
        out = draw_conditional(holes, est, rng)
        corr = np.corrcoef(out[:2000, 0], out[:2000, 1])[0, 1]
        assert corr > 0.8

    def test_wrong_width_raises(self, rng):
        x, _, _ = mcar_sample(rng, n=300)
        est = fit_mvn_em(x)
        with pytest.raises(CleaningError):
            draw_conditional(np.zeros((5, 2)), est, rng)

    def test_fully_missing_row_drawn_from_marginal(self, rng):
        x, mean, _ = mcar_sample(rng, n=500, missing=0.1)
        est = fit_mvn_em(x)
        empty = np.full((2000, 3), np.nan)
        out = draw_conditional(empty, est, rng)
        assert np.allclose(out.mean(axis=0), est.mean, atol=0.2)


class TestMvnImputationTreatment:
    def test_no_missing_after(self, tiny_pair, raw_context):
        treated = MvnImputation().apply(tiny_pair.dirty, raw_context)
        assert treated.missing_fraction == 0.0

    def test_untreatable_cells_unchanged(self, tiny_pair, raw_context):
        treated = MvnImputation().apply(tiny_pair.dirty, raw_context)
        for before, after in zip(tiny_pair.dirty, treated):
            mask = raw_context.treatable_mask(before)
            assert np.array_equal(before.values[~mask], after.values[~mask])

    def test_raw_scale_imputes_negative_attr1(self, tiny_pair, raw_context):
        """Figure 4a: Gaussian on the raw skewed scale imputes negatives."""
        treated = MvnImputation().apply(tiny_pair.dirty, raw_context)
        negatives = 0
        for before, after in zip(tiny_pair.dirty, treated):
            mask = raw_context.treatable_mask(before)[:, 0]
            negatives += int((after.values[mask, 0] < 0).sum())
        assert negatives > 0

    def test_log_scale_never_imputes_negative_attr1(self, tiny_pair, log_context):
        """Figure 4b: on the log scale the back-transform is positive."""
        treated = MvnImputation().apply(tiny_pair.dirty, log_context)
        for before, after in zip(tiny_pair.dirty, treated):
            mask = log_context.treatable_mask(before)[:, 0]
            assert (after.values[mask, 0] > 0).all()

    def test_imputes_attr3_above_one(self, tiny_pair, raw_context):
        """Figure 5: the Gaussian plants impossible ratios above 1."""
        treated = MvnImputation().apply(tiny_pair.dirty, raw_context)
        above = 0
        for before, after in zip(tiny_pair.dirty, treated):
            mask = raw_context.treatable_mask(before)[:, 2]
            above += int((after.values[mask, 2] > 1).sum())
        assert above > 0

    def test_deterministic_given_context_seed(self, tiny_pair):
        a = MvnImputation().apply(
            tiny_pair.dirty, CleaningContext(ideal=tiny_pair.ideal, seed=3)
        )
        b = MvnImputation().apply(
            tiny_pair.dirty, CleaningContext(ideal=tiny_pair.ideal, seed=3)
        )
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.values, sb.values)

    def test_rejects_bad_tol(self):
        with pytest.raises(CleaningError):
            MvnImputation(tol=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"tol": float("nan")}, {"tol": float("inf")}, {"max_iter": 0}],
        ids=repr,
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(CleaningError):
            MvnImputation(**kwargs)

    def test_one_fit_per_replication(self, tiny_bundle, monkeypatch):
        """Strategies 1 and 2 pool the same blanked sample, so one
        replication of the paper panel fits the MVN once, not twice."""
        calls = []

        def counting(data, **kwargs):
            calls.append(kwargs)
            return fit_mvn_em(data, **kwargs)

        monkeypatch.setattr(mvn_imputation, "fit_mvn_em", counting)
        config = ExperimentConfig(n_replications=1, sample_size=12, seed=0)
        result = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=config
        ).run(paper_strategies())
        assert {o.strategy for o in result.outcomes} >= {"strategy1", "strategy2"}
        assert len(calls) == 1
