"""Empirical cumulative distribution functions.

The exact 1-D Earth Mover's Distance is the L1 distance between ECDFs, so this
module is the foundation of the fast univariate EMD path and of the
Kolmogorov-Smirnov distance.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["Ecdf"]


class Ecdf:
    """Right-continuous empirical CDF of a finite sample.

    NaNs in the input are dropped (they carry no distributional mass; the
    paper pools only populated values when computing distances).
    """

    def __init__(self, values: np.ndarray):
        arr = np.asarray(values, dtype=float).ravel()
        finite = arr[np.isfinite(arr)]
        if finite.size == 0:
            raise ValidationError("Ecdf needs at least one finite value")
        self._sorted = np.sort(finite)

    @property
    def n(self) -> int:
        """Number of finite observations backing the ECDF."""
        return int(self._sorted.size)

    @property
    def support(self) -> tuple[float, float]:
        """Minimum and maximum observed values."""
        return float(self._sorted[0]), float(self._sorted[-1])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate ``F(x) = P(X <= x)`` at the given points."""
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self._sorted, x, side="right") / self.n

    def quantile(self, q: np.ndarray) -> np.ndarray:
        """Inverse CDF via the standard left-continuous generalized inverse."""
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ValidationError("quantile levels must lie in [0, 1]")
        idx = np.clip(np.ceil(q * self.n).astype(int) - 1, 0, self.n - 1)
        return self._sorted[idx]

    def l1_distance(self, other: "Ecdf") -> float:
        """Integral of ``|F - G|`` over the union support.

        For empirical distributions this equals the 1-D Earth Mover's
        (1-Wasserstein) distance.
        """
        grid = np.union1d(self._sorted, other._sorted)
        if grid.size == 1:
            return 0.0
        f = self(grid[:-1])
        g = other(grid[:-1])
        widths = np.diff(grid)
        return float(np.sum(np.abs(f - g) * widths))
