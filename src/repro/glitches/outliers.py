"""Outlier (anomaly) detectors — the detector ``f_O`` (Section 3.3).

The paper's case study identifies outliers "using 3-sigma limits on an
attribute by attribute basis, where the limits are computed using ideal data
set DI" (Section 4.1). The detector may alternatively emit p-values so users
can move the outlyingness threshold (Section 3.3); :meth:`SigmaOutlierDetector.scores`
provides that mode. The windowed variant implements the self-history form
``f_O(X^t | X^{F_t^w})``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
from scipy import stats as scipy_stats

from repro.data.dataset import StreamDataset
from repro.data.stream import TimeSeries
from repro.errors import ValidationError
from repro.stats.descriptive import sigma_limits
from repro.utils.validation import check_positive_int

__all__ = [
    "SigmaLimits",
    "SigmaOutlierDetector",
    "WindowedOutlierDetector",
]


class SigmaLimits:
    """Per-attribute ``(lower, upper)`` acceptance limits.

    Used both for detection (values outside the limits are outliers) and for
    repair (Winsorization clips to the same limits, Section 5.1). Limits are
    computed once from an ideal data set and then applied to every sample —
    exactly the paper's protocol.
    """

    def __init__(self, limits: Mapping[str, tuple[float, float]]):
        if not limits:
            raise ValidationError("SigmaLimits needs at least one attribute")
        for attr, (lo, hi) in limits.items():
            if not np.isfinite(lo) or not np.isfinite(hi) or lo > hi:
                raise ValidationError(f"bad limits for {attr}: ({lo}, {hi})")
        self._limits = {a: (float(lo), float(hi)) for a, (lo, hi) in limits.items()}

    @classmethod
    def from_dataset(
        cls,
        dataset: StreamDataset,
        k: float = 3.0,
    ) -> "SigmaLimits":
        """Compute ``mean +/- k*sd`` per attribute.

        NaNs (missing values) are excluded; the data set would normally be an
        ideal data set ``DI`` or an ideal replication sample ``DiI``.
        """
        return cls(
            {
                attr: sigma_limits(dataset.pooled_column(attr, dropna=True), k=k)
                for attr in dataset.attributes
            }
        )

    @property
    def attributes(self) -> list[str]:
        """Attributes the limits cover."""
        return list(self._limits)

    def bounds(self, attribute: str) -> tuple[float, float]:
        """``(lower, upper)`` for one attribute."""
        try:
            return self._limits[attribute]
        except KeyError:
            raise KeyError(
                f"no limits for {attribute!r}; have {sorted(self._limits)}"
            ) from None

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._limits

    def items(self):
        """Iterate ``(attribute, (lower, upper))`` pairs."""
        return self._limits.items()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{a}=[{lo:.3g}, {hi:.3g}]" for a, (lo, hi) in self._limits.items()
        )
        return f"SigmaLimits({parts})"


class SigmaOutlierDetector:
    """Flags populated cells outside fixed per-attribute limits.

    Attributes without limits are never flagged, which lets callers restrict
    outlier hunting to a subset of attributes.
    """

    def __init__(self, limits: SigmaLimits):
        self.limits = limits

    def detect(self, series: TimeSeries) -> np.ndarray:
        """``(T, v)`` outlier mask; NaN cells are never outliers.

        A hair of tolerance (relative to the limit width) keeps values that
        Winsorization placed *exactly at* a limit from being re-flagged after
        an analysis-scale round trip (``log`` then ``exp``) perturbs them by
        an ulp.
        """
        return self.detect_values(series.values, series.attributes)

    def detect_values(
        self, values: np.ndarray, attributes: tuple[str, ...]
    ) -> np.ndarray:
        """Outlier mask for a ``(..., v)`` value array (same shape out).

        The detection rule is purely elementwise, so a whole
        :class:`~repro.data.block.SampleBlock` tensor flags in one pass,
        bitwise-identical to flagging each series separately.
        """
        mask = np.zeros(values.shape, dtype=bool)
        for j, attr in enumerate(attributes):
            if attr not in self.limits:
                continue
            lo, hi = self.limits.bounds(attr)
            tol = 1e-9 * (abs(hi - lo) + 1.0)
            col = values[..., j]
            with np.errstate(invalid="ignore"):
                mask[..., j] = np.isfinite(col) & ((col < lo - tol) | (col > hi + tol))
        return mask

    def scores(self, series: TimeSeries) -> np.ndarray:
        """Two-sided normal p-values of outlyingness, ``(T, v)``.

        Section 3.3: "Alternatively, the output of f_O can be a vector of the
        actual p values ... This gives the user flexibility to change the
        thresholds for outliers." Limits are interpreted as ``mean +/- k*sd``
        with ``k`` implied by their width; NaN cells get p-value NaN.
        """
        out = np.full(series.values.shape, np.nan)
        for j, attr in enumerate(series.attributes):
            if attr not in self.limits:
                continue
            lo, hi = self.limits.bounds(attr)
            center = 0.5 * (lo + hi)
            # The limits span 2k sigma; recover sigma assuming k = 3 is not
            # necessary — any monotone standardisation gives valid p-ordering,
            # so we use the half-width as a 3-sigma yardstick.
            sigma = (hi - lo) / 6.0
            col = series.values[:, j]
            if sigma == 0:
                z = np.where(col == center, 0.0, np.inf)
            else:
                z = np.abs(col - center) / sigma
            out[:, j] = 2.0 * scipy_stats.norm.sf(z)
        return out


class WindowedOutlierDetector:
    """Self-history detector: flags ``X^t`` far from its own window mean.

    Implements ``f_O(X^t | X^{F_t^w})`` (Section 3.3): a populated cell is an
    outlier when it deviates from the mean of the preceding ``w``-step window
    by more than ``k`` window standard deviations. Cells with fewer than
    ``min_history`` populated window entries are never flagged.
    """

    def __init__(self, window: int = 24, k: float = 3.0, min_history: int = 8):
        self.window = check_positive_int(window, "window")
        self.min_history = check_positive_int(min_history, "min_history")
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        self.k = float(k)

    def detect(self, series: TimeSeries) -> np.ndarray:
        mask = np.zeros(series.values.shape, dtype=bool)
        values = series.values
        for t in range(series.length):
            start = max(0, t - self.window)
            hist = values[start:t]
            if hist.shape[0] == 0:
                continue
            for j in range(series.n_attributes):
                x = values[t, j]
                if not np.isfinite(x):
                    continue
                col = hist[:, j]
                col = col[np.isfinite(col)]
                if col.size < self.min_history:
                    continue
                mu = col.mean()
                sd = col.std(ddof=1)
                if sd == 0:
                    continue
                mask[t, j] = abs(x - mu) > self.k * sd
        return mask
