"""EM fits against a frozen row-filling reference.

``_reference_fit`` below is the original E-step of :func:`fit_mvn_em`: each
iteration fills every incomplete row's missing cells with their conditional
mean, takes the moments of the filled matrix, and adds each group's
conditional covariance. The production E-step works on per-pattern moment
matrices instead. Both compute the same expectations in a different order of
floating-point operations, so the fits must agree to rounding (1e-9
relative) and stop at the same iteration with the same verdict.
"""

import numpy as np
import pytest

from repro.cleaning import mvn_imputation
from repro.cleaning.base import CleaningContext
from repro.cleaning.mvn_imputation import fit_mvn_em
from repro.cleaning.registry import strategy_by_name
from repro.glitches.detectors import ScaleTransform
from repro.sampling.replication import generate_test_pairs


def _reference_fit(data, max_iter=100, tol=1e-6, ridge=1e-9):
    x = np.asarray(data, dtype=float)
    x = x[~np.isnan(x).all(axis=1)]
    n, d = x.shape
    miss = np.isnan(x)
    mean = np.nanmean(x, axis=0)
    var = np.nanvar(x, axis=0)
    var = np.where(var > 0, var, 1.0)
    cov = np.diag(var)
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(miss):
        groups.setdefault(row.tobytes(), []).append(i)
    filled = x.copy()
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        reg = cov + ridge * max(np.trace(cov) / d, 1e-12) * np.eye(d)
        sum_xx = np.zeros((d, d))
        for key, idx in groups.items():
            pattern = np.frombuffer(key, dtype=bool)
            if not pattern.any():
                continue
            m = np.flatnonzero(pattern)
            o = np.flatnonzero(~pattern)
            s_oo = reg[np.ix_(o, o)]
            s_mo = reg[np.ix_(m, o)]
            gain = np.linalg.solve(s_oo, s_mo.T).T
            resid = x[np.ix_(idx, o)] - mean[o]
            filled[np.ix_(idx, m)] = mean[m] + resid @ gain.T
            sum_xx[np.ix_(m, m)] += (reg[np.ix_(m, m)] - gain @ s_mo.T) * len(idx)
        sum_xx += filled.T @ filled
        new_mean = filled.sum(axis=0) / n
        new_cov = sum_xx / n - np.outer(new_mean, new_mean)
        new_cov = 0.5 * (new_cov + new_cov.T)
        delta = max(
            float(np.max(np.abs(new_mean - mean))),
            float(np.max(np.abs(new_cov - cov))),
        )
        mean, cov = new_mean, new_cov
        if delta < tol:
            converged = True
            break
    cov = cov + ridge * max(np.trace(cov) / d, 1e-12) * np.eye(d)
    return mean, cov, it, converged


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _assert_matches_reference(data, **kwargs):
    est = fit_mvn_em(data, **kwargs)
    mean, cov, n_iter, converged = _reference_fit(data, **kwargs)
    assert (est.n_iter, est.converged) == (n_iter, converged)
    assert _rel(est.mean, mean) <= 1e-9
    assert _rel(est.cov, cov) <= 1e-9
    return est


def _mvn(rng, d, n):
    root = rng.normal(size=(d, d))
    cov = root @ root.T + d * np.eye(d)
    return rng.multivariate_normal(rng.normal(size=d) * 3.0, cov, size=n)


class TestAgainstRowFillingReference:
    def test_one_dimension(self, rng):
        x = rng.normal(5.0, 2.0, size=(300, 1))
        x[rng.random(300) < 0.3] = np.nan
        _assert_matches_reference(x)

    def test_three_dimensions(self, rng):
        x = _mvn(rng, 3, 2000)
        x[rng.random(x.shape) < 0.25] = np.nan
        _assert_matches_reference(x)

    def test_five_dimensions_every_pattern(self, rng):
        d = 5
        x = _mvn(rng, d, 3000)
        codes = rng.integers(0, 2**d - 1, size=len(x))
        codes[: 2**d - 1] = np.arange(2**d - 1)
        miss = ((codes[:, None] >> np.arange(d)) & 1).astype(bool)
        x[miss] = np.nan
        assert len(mvn_imputation._pattern_groups(np.isnan(x))) == 2**d - 1
        _assert_matches_reference(x)
        _assert_matches_reference(x, tol=1e-9, max_iter=7)

    def test_pattern_group_of_one_row(self, rng):
        x = _mvn(rng, 3, 500)
        x[rng.random(len(x)) < 0.3, 0] = np.nan
        x[17, 0] = 1.5
        x[17, 1:] = np.nan
        groups = mvn_imputation._pattern_groups(np.isnan(x))
        assert min(idx.size for idx in groups.values()) == 1
        _assert_matches_reference(x)

    def test_attribute_observed_in_two_rows(self, rng):
        x = _mvn(rng, 3, 400)
        x[rng.random(x.shape) < 0.1] = np.nan
        x[2:, 2] = np.nan
        x[:2, 2] = [0.5, -1.0]
        x[:2, :2] = [[1.0, 2.0], [-0.5, 0.25]]
        _assert_matches_reference(x)

    @pytest.mark.parametrize("scale_fixture", ["tiny_bundle", "small_bundle"])
    @pytest.mark.parametrize("log", [True, False], ids=["log", "raw"])
    def test_pooled_strategy1_samples(self, request, monkeypatch, scale_fixture, log):
        bundle = request.getfixturevalue(scale_fixture)
        pooled = []

        def capture(data, **kwargs):
            pooled.append((np.array(data), kwargs))
            return fit_mvn_em(data, **kwargs)

        monkeypatch.setattr(mvn_imputation, "fit_mvn_em", capture)
        transform = ScaleTransform.log_attr1() if log else None
        strategy = strategy_by_name("strategy1")
        for seed, pair in enumerate(
            generate_test_pairs(bundle.dirty, bundle.ideal, 3, 30, seed=5)
        ):
            context = CleaningContext(
                ideal=pair.ideal,
                transform=transform,
                seed=seed,
                ideal_block=pair.ideal_block,
            )
            strategy.clean_block(pair.dirty_block, context)
        assert len(pooled) == 3
        for data, kwargs in pooled:
            assert np.isnan(data).any()
            _assert_matches_reference(data, **kwargs)


class TestCompleteData:
    @pytest.mark.parametrize("ridge", [1e-9, 0.0])
    def test_closed_form_mle(self, rng, ridge):
        x = _mvn(rng, 3, 1000)
        est = fit_mvn_em(x, ridge=ridge)
        centred = x - x.mean(axis=0)
        biased = centred.T @ centred / len(x)
        want = biased + ridge * np.trace(biased) / 3 * np.eye(3)
        assert est.n_iter == 2 and est.converged
        assert _rel(est.mean, x.mean(axis=0)) <= 1e-12
        assert _rel(est.cov, want) <= 1e-12
