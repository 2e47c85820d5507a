"""Common interface for distribution distances.

All distances operate on two empirical samples given as ``(N, d)`` arrays
(rows = observations). One-dimensional inputs may be passed as flat arrays.
Rows containing NaN are dropped — missing cells carry no distributional mass.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.errors import DistanceError
from repro.utils.rows import complete_rows

__all__ = ["Distance", "clean_sample", "clean_panel"]


def clean_sample(values: np.ndarray, name: str) -> np.ndarray:
    """Coerce a sample to a complete-case ``(N, d)`` float array.

    A row-major sample with no NaN-bearing row is returned as given (no
    copy); the pooled rows the framework scores are already complete.
    Other layouts are copied row-major first, so reductions over the rows
    sum in the same order whatever layout the caller passes.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DistanceError(f"{name} must be (N, d) or (N,), got shape {arr.shape}")
    arr = complete_rows(np.ascontiguousarray(arr))
    if arr.shape[0] == 0:
        raise DistanceError(f"{name} has no complete rows")
    return arr


def clean_panel(
    p: np.ndarray, qs: "Sequence[np.ndarray]"
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Clean a reference and its candidate panel, enforcing one dimension.

    The shared validation front of every batched ``pairwise`` fast path
    (EMD, KL, JS): complete-case coercion per sample plus the reference-vs-
    candidate dimension check, with stable error wording.
    """
    p = clean_sample(p, "p")
    cleaned = []
    for i, q in enumerate(qs):
        q = clean_sample(q, f"q[{i}]")
        if q.shape[1] != p.shape[1]:
            raise DistanceError(
                f"dimension mismatch: p has d={p.shape[1]}, "
                f"q[{i}] has d={q.shape[1]}"
            )
        cleaned.append(q)
    return p, cleaned


class Distance(ABC):
    """A distance between two empirical distributions.

    Subclasses implement :meth:`compute` on cleaned samples; callers use the
    instance as a callable.
    """

    #: Short identifier used in reports ("emd", "kl", ...).
    name: str = "distance"

    #: Whether the distance needs complete-case rows. The pooling layer
    #: (``statistical_distortion_batch``) drops NaN-bearing rows for
    #: complete-case distances (multivariate binning needs whole rows) and
    #: keeps them for distances with their own per-attribute NaN handling
    #: (KS), so the framework reproduces each distance's documented
    #: semantics instead of silently discarding marginal mass.
    complete_case: bool = True

    def __call__(self, p: np.ndarray, q: np.ndarray) -> float:
        """Distance between samples *p* and *q* (complete rows only)."""
        p = clean_sample(p, "p")
        q = clean_sample(q, "q")
        if p.shape[1] != q.shape[1]:
            raise DistanceError(
                f"dimension mismatch: p has d={p.shape[1]}, q has d={q.shape[1]}"
            )
        return float(self.compute(p, q))

    @abstractmethod
    def compute(self, p: np.ndarray, q: np.ndarray) -> float:
        """Distance between pre-validated ``(N, d)`` samples."""

    def pairwise(self, p: np.ndarray, qs: "Sequence[np.ndarray]") -> list[float]:
        """Distances from one reference *p* to each candidate in *qs*.

        The default just loops; distances with cacheable per-reference work
        (see :meth:`repro.distance.emd.EarthMoverDistance.pairwise`)
        override this with a batched fast path.
        """
        return [self(p, q) for q in qs]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
