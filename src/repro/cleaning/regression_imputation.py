"""Regression imputation (extension strategy).

Deterministic counterpart of the MVN conditional draw: each attribute is
ridge-regressed on the others over the complete rows of the pooled sample,
and treatable cells are filled with the regression prediction (falling back
to the ideal mean when no predictor is observed). Sits between mean
replacement (no conditioning) and MVN draws (conditioning + noise) in the
distortion spectrum — the ablation benches use it to decompose *where* the
MI distortion comes from.
"""

from __future__ import annotations

import numpy as np

from repro.cleaning.base import CleaningContext, MissingInconsistentTreatment
from repro.data.block import SampleBlock
from repro.data.dataset import StreamDataset
from repro.data.stream import TimeSeries
from repro.errors import CleaningError
from repro.utils.rows import complete_rows, nan_rows

__all__ = ["RegressionImputation"]


class RegressionImputation(MissingInconsistentTreatment):
    """Fill treatable cells with ridge-regression predictions.

    Parameters
    ----------
    ridge:
        L2 penalty (relative to predictor scale) keeping the normal equations
        well posed even when attributes are collinear.
    """

    name = "regression"
    supports_block = True

    def __init__(self, ridge: float = 1e-6):
        if ridge < 0:
            raise CleaningError("ridge must be >= 0")
        self.ridge = float(ridge)

    def _fit(self, pooled: np.ndarray) -> list[tuple[np.ndarray, float]]:
        """Per-target ``(coef, intercept)`` fitted on complete rows."""
        complete = complete_rows(pooled)
        d = pooled.shape[1]
        if complete.shape[0] < d + 1:
            raise CleaningError(
                f"regression imputation needs > {d} complete rows, "
                f"got {complete.shape[0]}"
            )
        models: list[tuple[np.ndarray, float]] = []
        for target in range(d):
            predictors = [j for j in range(d) if j != target]
            x = complete[:, predictors]
            y = complete[:, target]
            x_mean = x.mean(axis=0)
            y_mean = y.mean()
            xc = x - x_mean
            yc = y - y_mean
            gram = xc.T @ xc
            penalty = self.ridge * max(float(np.trace(gram)) / max(d - 1, 1), 1e-12)
            coef = np.linalg.solve(gram + penalty * np.eye(d - 1), xc.T @ yc)
            intercept = float(y_mean - x_mean @ coef)
            models.append((coef, intercept))
        return models

    @staticmethod
    def _predict_series(
        analysis: np.ndarray, models: "list[tuple[np.ndarray, float]]"
    ) -> np.ndarray:
        """One series' analysis-scale values with regression-filled gaps.

        Shared by the per-series and block paths so the gap predictions are
        the same arithmetic (shape for shape) on both.
        """
        d = analysis.shape[1]
        filled = analysis.copy()
        for target in range(d):
            gaps = np.isnan(analysis[:, target])
            if not gaps.any():
                continue
            predictors = [j for j in range(d) if j != target]
            coef, intercept = models[target]
            x = analysis[np.ix_(np.flatnonzero(gaps), predictors)]
            usable = ~nan_rows(x)
            pred = np.full(int(gaps.sum()), np.nan)
            pred[usable] = x[usable] @ coef + intercept
            filled[gaps, target] = pred
        return filled

    def apply(self, sample: StreamDataset, context: CleaningContext) -> StreamDataset:
        attributes = sample.attributes
        blanked: list[np.ndarray] = []
        masks: list[np.ndarray] = []
        for series in sample:
            mask = context.treatable_mask(series)
            values = series.values.copy()
            values[mask] = np.nan
            blanked.append(context.to_analysis(values, attributes))
            masks.append(mask)
        pooled = np.concatenate(blanked, axis=0)
        models = self._fit(pooled)
        means = context.ideal_means

        treated: list[TimeSeries] = []
        for series, analysis, mask in zip(sample, blanked, masks):
            filled = self._predict_series(analysis, models)
            raw_filled = context.from_analysis(filled, attributes)
            values = series.values.copy()
            values[mask] = raw_filled[mask]
            # Cells with no observed predictors fall back to the ideal mean.
            for j, attr in enumerate(attributes):
                hole = mask[:, j] & np.isnan(values[:, j])
                values[hole, j] = means[attr]
            treated.append(series.with_values(values))
        return StreamDataset(treated)

    def apply_block(self, block: SampleBlock, context: CleaningContext) -> SampleBlock:
        """Block path: vectorised blanking/transform/pooling and one model
        fit; the per-series gap predictions replay the per-series arithmetic
        (same matrix shapes) so the result is bitwise-identical to
        :meth:`apply`."""
        attributes = block.attributes
        mask = context.treatable_mask_values(block.values, attributes)
        blanked = block.values.copy()
        blanked[mask] = np.nan
        analysis = context.to_analysis(blanked, attributes)
        pooled = analysis.reshape(-1, analysis.shape[-1])
        models = self._fit(pooled)
        means = context.ideal_means

        filled = np.empty_like(analysis)
        for i in range(block.n_series):
            filled[i] = self._predict_series(analysis[i], models)
        raw_filled = context.from_analysis(filled, attributes)
        values = block.values.copy()
        values[mask] = raw_filled[mask]
        for j, attr in enumerate(attributes):
            col = values[..., j]
            hole = mask[..., j] & np.isnan(col)
            col[hole] = means[attr]
        return block.with_values(values)
