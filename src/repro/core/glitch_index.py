"""The glitch index ``G(D)`` — Sections 2.1.3 and 3.4 of the paper.

The overall glitch score of a data set is

.. math::

    G(D) = I_{1 \\times v} \\Big[ \\sum_{ijk} \\sum_t G_{t,ijk} / T_{ijk} \\Big] W

— per series, the glitch bit matrix is summed over time and normalised by the
series' own length ("to adjust for the amount of data available at each node,
to ensure that it contributes equally"), summed over attributes, and weighted
per glitch type by the user-supplied weight vector ``W``. The paper's
experiments use weights 0.25 (missing), 0.25 (inconsistent), 0.5 (outlier)
(Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import StreamDataset
from repro.errors import ValidationError
from repro.glitches.detectors import DetectorSuite
from repro.glitches.types import BlockGlitches, DatasetGlitches, GlitchMatrix, GlitchType

__all__ = [
    "GlitchWeights",
    "series_glitch_score",
    "series_glitch_scores",
    "series_glitch_scores_block",
    "glitch_index",
    "glitch_improvement",
]


@dataclass(frozen=True)
class GlitchWeights:
    """User-supplied glitch-type weights ``W`` (Section 2.1.3).

    Defaults are the paper's experimental choice: "a weight of 0.25 each to
    missing and inconsistent values, and 0.5 to outlier glitches"
    (Section 5.1).
    """

    missing: float = 0.25
    inconsistent: float = 0.25
    outlier: float = 0.5

    def __post_init__(self) -> None:
        for name in ("missing", "inconsistent", "outlier"):
            if getattr(self, name) < 0:
                raise ValidationError(f"weight {name} must be >= 0")
        if self.missing + self.inconsistent + self.outlier <= 0:
            raise ValidationError("at least one weight must be positive")

    def as_array(self) -> np.ndarray:
        """``(m,)`` weight vector ordered by :class:`GlitchType`."""
        out = np.empty(len(GlitchType))
        out[int(GlitchType.MISSING)] = self.missing
        out[int(GlitchType.INCONSISTENT)] = self.inconsistent
        out[int(GlitchType.OUTLIER)] = self.outlier
        return out


def series_glitch_score(matrix: GlitchMatrix, weights: GlitchWeights | None = None) -> float:
    """Length-normalised weighted glitch score of one series.

    ``sum_j sum_k (sum_t bits[t, j, k] / T) * w_k`` — one node's contribution
    to ``G(D)``.
    """
    weights = weights or GlitchWeights()
    if matrix.length == 0:
        return 0.0
    per_attr_type = matrix.bits.sum(axis=0) / matrix.length  # (v, m)
    return float((per_attr_type @ weights.as_array()).sum())


def series_glitch_scores(
    glitches: DatasetGlitches, weights: GlitchWeights | None = None
) -> np.ndarray:
    """Per-series normalised glitch scores, in data-set order.

    These scores drive the cost model: series are ranked by score and only
    the top x% get cleaned (Section 5.2).
    """
    weights = weights or GlitchWeights()
    return np.array([series_glitch_score(m, weights) for m in glitches])


def series_glitch_scores_block(
    glitches: BlockGlitches, weights: GlitchWeights | None = None
) -> np.ndarray:
    """Per-series scores from a whole-block annotation tensor.

    Bitwise-identical to :func:`series_glitch_scores` over the equivalent
    :class:`~repro.glitches.types.DatasetGlitches` — the time-axis bit counts
    are exact integers and the float tail is the per-series expression
    batched over the series (:meth:`~repro.glitches.types.BlockGlitches.series_scores`).
    """
    weights = weights or GlitchWeights()
    return glitches.series_scores(weights.as_array())


def glitch_index(
    dataset: StreamDataset,
    suite: DetectorSuite,
    weights: GlitchWeights | None = None,
) -> float:
    """The overall glitch index ``G(D)`` of a data set.

    Lower is cleaner. Annotation and scoring are separated so callers that
    already hold a :class:`DatasetGlitches` can sum
    :func:`series_glitch_scores` directly.
    """
    glitches = suite.annotate_dataset(dataset)
    return float(series_glitch_scores(glitches, weights).sum())


def glitch_improvement(
    dirty: StreamDataset,
    treated: StreamDataset,
    suite: DetectorSuite,
    weights: GlitchWeights | None = None,
) -> float:
    """``G(D) - G(DC)`` — the x-axis of Figures 6 and 7.

    Positive values mean the strategy removed more weighted glitches than it
    introduced; a strategy that plants new inconsistencies (Gaussian
    imputation on skewed data) pays for them here.
    """
    return glitch_index(dirty, suite, weights) - glitch_index(treated, suite, weights)
