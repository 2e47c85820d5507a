"""Kolmogorov-Smirnov distance (extension).

Not named by the paper but a natural cheap alternative: the maximum over
attributes of the per-attribute two-sample KS statistic. Unlike EMD it is
insensitive to *how far* mass moved, only to how much — the ablation bench
contrasts the two on Winsorization (which moves mass a long way).

KS is a pure function of per-attribute empirical CDFs
(:class:`~repro.stats.ecdf.Ecdf`), so it is invariant under per-attribute
monotone maps and no standardisation frame is involved.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.distance.base import Distance
from repro.errors import DistanceError
from repro.stats.ecdf import Ecdf

__all__ = ["KolmogorovSmirnovDistance"]


class KolmogorovSmirnovDistance(Distance):
    """``max_j sup_x |F_j(x) - G_j(x)|`` over the attributes ``j``.

    The statistic is a maximum of per-attribute *marginal* comparisons, so
    NaN handling is per attribute as well: each column keeps its own finite
    values (the way the pooled per-column paths drop NaNs), an attribute
    unpopulated on either side is skipped rather than poisoning the whole
    comparison — a cleaner that blanks one column still gets scored on the
    remaining attributes — and NaNs never reach the evaluation grid.
    """

    name = "ks"
    #: Rows reach the statistic whole; each attribute filters its own NaNs.
    complete_case = False

    def __call__(self, p: np.ndarray, q: np.ndarray) -> float:
        # Per-attribute completeness instead of the base class's
        # complete-row filter: dropping a whole row because *another*
        # attribute is missing would discard marginal mass, and an
        # entirely-NaN column would empty the sample.
        p = _coerce(p, "p")
        q = _coerce(q, "q")
        if p.shape[1] != q.shape[1]:
            raise DistanceError(
                f"dimension mismatch: p has d={p.shape[1]}, q has d={q.shape[1]}"
            )
        return float(self.compute(p, q))

    def compute(self, p: np.ndarray, q: np.ndarray) -> float:
        worst: Optional[float] = None
        for j in range(p.shape[1]):
            x = p[:, j]
            y = q[:, j]
            x = x[np.isfinite(x)]
            y = y[np.isfinite(y)]
            if x.size == 0 or y.size == 0:
                continue  # unpopulated on one side: no marginal to compare
            f = Ecdf(x)
            g = Ecdf(y)
            grid = np.union1d(x, y)
            gap = float(np.max(np.abs(f(grid) - g(grid))))
            worst = gap if worst is None else max(worst, gap)
        if worst is None:
            raise DistanceError("no attribute populated on both sides")
        return worst


def _coerce(values: np.ndarray, name: str) -> np.ndarray:
    """Coerce to ``(N, d)`` float rows *without* dropping incomplete rows."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DistanceError(f"{name} must be (N, d) or (N,), got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise DistanceError(f"{name} has no rows")
    return arr
