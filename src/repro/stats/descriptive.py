"""Descriptive statistics.

These helpers underpin both glitch detection (3-sigma limits computed from the
ideal data set, Section 4.1 of the paper) and the Winsorization repair
(Section 5.1). All functions are NaN-aware because "not populated" values are
represented as NaN throughout the library.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["sigma_limits", "winsorize_array"]


def sigma_limits(values: np.ndarray, k: float = 3.0) -> tuple[float, float]:
    """Classical ``mean +/- k * std`` limits, ignoring NaNs.

    This is the paper's outlier rule: "Outliers are identified using 3-sigma
    limits on an attribute by attribute basis, where the limits are computed
    using ideal data set DI" (Section 4.1).
    """
    arr = np.asarray(values, dtype=float).ravel()
    finite = arr[np.isfinite(arr)]
    if finite.size < 2:
        raise ValidationError(
            f"sigma_limits needs at least 2 finite values, got {finite.size}"
        )
    if k <= 0:
        raise ValidationError(f"k must be positive, got {k}")
    mean = float(finite.mean())
    std = float(finite.std(ddof=1))
    return mean - k * std, mean + k * std


def winsorize_array(
    values: np.ndarray, lower: float, upper: float
) -> tuple[np.ndarray, np.ndarray]:
    """Clip *values* to ``[lower, upper]``; NaNs pass through untouched.

    Returns ``(clipped, changed)`` where ``changed`` is a boolean mask of the
    entries that were moved. This is the repair half of the Winsorization
    strategy: "repair the outliers by setting them to the closest acceptable
    value" (Section 1.1).
    """
    if lower > upper:
        raise ValidationError(f"lower ({lower}) must be <= upper ({upper})")
    arr = np.asarray(values, dtype=float)
    clipped = np.clip(arr, lower, upper)
    with np.errstate(invalid="ignore"):
        changed = np.isfinite(arr) & (clipped != arr)
    out = np.where(np.isnan(arr), np.nan, clipped)
    return out, changed
