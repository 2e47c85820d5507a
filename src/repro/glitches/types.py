"""Glitch taxonomy and the glitch bit-matrix containers.

Section 3.3: "given node Nijk and time t, a v x 3 bit matrix G_{t,ijk} =
[f_M(X), f_I(X), f_O(X | history)]". We store the whole stream's annotation as
one ``(T, v, m)`` boolean tensor per series.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable, Iterator

import numpy as np

from repro.data.stream import TimeSeries
from repro.errors import DataShapeError, ValidationError
from repro.utils.rows import rows_any, time_counts

__all__ = [
    "GlitchType",
    "N_GLITCH_TYPES",
    "GlitchMatrix",
    "DatasetGlitches",
    "BlockGlitches",
]


class GlitchType(IntEnum):
    """The three glitch families of the paper's case study (Section 3.2)."""

    MISSING = 0
    INCONSISTENT = 1
    OUTLIER = 2

    @property
    def label(self) -> str:
        """Human-readable label used in reports."""
        return self.name.lower()


#: Number of glitch types (``m`` in the paper's notation).
N_GLITCH_TYPES = len(GlitchType)


class GlitchMatrix:
    """Glitch annotation of one series: a ``(T, v, m)`` boolean tensor.

    ``bits[t, j, k]`` is 1 iff glitch type ``k`` affects attribute ``j`` at
    time ``t`` — the glitch vector ``g_ij(k)`` of Section 2.1.3 stacked over
    the stream.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 3 or bits.shape[2] != N_GLITCH_TYPES:
            raise DataShapeError(
                f"bits must be (T, v, {N_GLITCH_TYPES}), got shape {bits.shape}"
            )
        self.bits = bits

    @classmethod
    def empty(cls, length: int, n_attributes: int) -> "GlitchMatrix":
        """All-clean annotation of the given shape."""
        return cls(np.zeros((length, n_attributes, N_GLITCH_TYPES), dtype=bool))

    @classmethod
    def for_series(cls, series: TimeSeries) -> "GlitchMatrix":
        """All-clean annotation shaped like *series*."""
        return cls.empty(series.length, series.n_attributes)

    # -- shape -----------------------------------------------------------------

    @property
    def length(self) -> int:
        """Number of time steps ``T``."""
        return int(self.bits.shape[0])

    @property
    def n_attributes(self) -> int:
        """Number of attributes ``v``."""
        return int(self.bits.shape[1])

    # -- views -----------------------------------------------------------------

    def plane(self, glitch: GlitchType) -> np.ndarray:
        """The ``(T, v)`` bit plane of one glitch type (a view)."""
        return self.bits[:, :, int(glitch)]

    def record_any(self, glitch: GlitchType) -> np.ndarray:
        """``(T,)`` mask: glitch type present on *any* attribute at time t."""
        return rows_any(self.bits[:, :, int(glitch)])

    def cell_any(self) -> np.ndarray:
        """``(T, v)`` mask: any glitch type present in the cell."""
        return self.bits.any(axis=2)

    # -- summaries ----------------------------------------------------------------

    def record_fraction(self, glitch: GlitchType) -> float:
        """Fraction of time steps carrying the glitch on some attribute.

        This record-level rate is what Table 1 reports and what the < 5%
        cleanliness rule of Section 4.1 thresholds.
        """
        if self.length == 0:
            return 0.0
        return float(self.record_any(glitch).mean())

    def cell_fraction(self, glitch: GlitchType) -> float:
        """Fraction of cells carrying the glitch."""
        plane = self.plane(glitch)
        if plane.size == 0:
            return 0.0
        return float(plane.mean())

    def counts_by_type(self) -> np.ndarray:
        """``(m,)`` total cell-level counts per glitch type."""
        return self.bits.sum(axis=(0, 1))

    # -- algebra ------------------------------------------------------------------

    def union(self, other: "GlitchMatrix") -> "GlitchMatrix":
        """Cell-wise OR of two annotations of identical shape."""
        if self.bits.shape != other.bits.shape:
            raise DataShapeError(
                f"shape mismatch: {self.bits.shape} vs {other.bits.shape}"
            )
        return GlitchMatrix(self.bits | other.bits)

    def copy(self) -> "GlitchMatrix":
        """Deep copy."""
        return GlitchMatrix(self.bits.copy())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fracs = ", ".join(
            f"{g.label}={self.record_fraction(g):.1%}" for g in GlitchType
        )
        return f"GlitchMatrix(T={self.length}, v={self.n_attributes}, {fracs})"


class DatasetGlitches:
    """Glitch annotations for every series of a data set, in order."""

    def __init__(self, matrices: Iterable[GlitchMatrix]):
        self._matrices = list(matrices)
        if not self._matrices:
            raise ValidationError("DatasetGlitches needs at least one matrix")

    def __len__(self) -> int:
        return len(self._matrices)

    def __iter__(self) -> Iterator[GlitchMatrix]:
        return iter(self._matrices)

    def __getitem__(self, index: int) -> GlitchMatrix:
        return self._matrices[index]

    @property
    def matrices(self) -> list[GlitchMatrix]:
        """The per-series matrices (list copy, elements shared)."""
        return list(self._matrices)

    def record_fraction(self, glitch: GlitchType) -> float:
        """Record-level glitch rate pooled over all series."""
        total = sum(m.length for m in self._matrices)
        if total == 0:
            return 0.0
        hits = sum(int(m.record_any(glitch).sum()) for m in self._matrices)
        return hits / total

    def record_fractions(self) -> dict[GlitchType, float]:
        """Record-level rate of each glitch type (the Table 1 columns)."""
        return {g: self.record_fraction(g) for g in GlitchType}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fracs = ", ".join(
            f"{g.label}={self.record_fraction(g):.1%}" for g in GlitchType
        )
        return f"DatasetGlitches(n={len(self)}, {fracs})"


class BlockGlitches:
    """Glitch annotation of a whole sample block: one ``(n, T, v, m)`` tensor.

    The columnar counterpart of :class:`DatasetGlitches` for uniform-length
    samples: summaries run as whole-tensor integer reductions, and every
    float it reports is **bitwise-identical** to the per-series object path
    (integer counts are order-independent, and the per-series float
    arithmetic is replayed with the exact shapes the per-series path uses).
    """

    __slots__ = ("bits",)

    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 4 or bits.shape[3] != N_GLITCH_TYPES:
            raise DataShapeError(
                f"bits must be (n, T, v, {N_GLITCH_TYPES}), got shape {bits.shape}"
            )
        self.bits = bits

    # -- shape -----------------------------------------------------------------

    @property
    def n_series(self) -> int:
        """Number of annotated series ``n``."""
        return int(self.bits.shape[0])

    @property
    def length(self) -> int:
        """Shared series length ``T``."""
        return int(self.bits.shape[1])

    def __len__(self) -> int:
        return self.n_series

    # -- views -----------------------------------------------------------------

    def matrix(self, index: int) -> GlitchMatrix:
        """The per-series :class:`GlitchMatrix` of one member (a view)."""
        return GlitchMatrix(self.bits[index])

    def to_dataset_glitches(self) -> DatasetGlitches:
        """Per-series object form (views into the shared tensor)."""
        return DatasetGlitches(self.matrix(i) for i in range(self.n_series))

    # -- summaries ----------------------------------------------------------------

    def series_scores(self, weights_vector: np.ndarray) -> np.ndarray:
        """Length-normalised weighted glitch score per series.

        ``weights_vector`` is the ``(m,)`` array from
        :meth:`~repro.core.glitch_index.GlitchWeights.as_array`. The time-axis
        bit counts are exact integers
        (:func:`~repro.utils.rows.time_counts`). The float tail is one batched
        ``(n, v, m) / T @ w`` summed over the attributes: each series' row
        of it is the per-series ``(v, m) / T @ w`` summed, so the scores
        match :func:`series_glitch_scores` bit for bit.
        """
        n, length = self.bits.shape[:2]
        if length == 0:
            return np.zeros(n)
        counts = time_counts(self.bits)
        return (counts / length @ weights_vector).sum(axis=1)

    def record_fraction(self, glitch: GlitchType) -> float:
        """Record-level glitch rate pooled over all series."""
        total = self.n_series * self.length
        if total == 0:
            return 0.0
        hits = np.count_nonzero(rows_any(self.bits[..., int(glitch)]))
        return int(hits) / total

    def record_fractions(self) -> dict[GlitchType, float]:
        """Record-level rate of each glitch type (the Table 1 columns)."""
        return {g: self.record_fraction(g) for g in GlitchType}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fracs = ", ".join(
            f"{g.label}={self.record_fraction(g):.1%}" for g in GlitchType
        )
        return f"BlockGlitches(n={self.n_series}, T={self.length}, {fracs})"
