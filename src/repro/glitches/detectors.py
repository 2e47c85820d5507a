"""The detector suite: assembling ``G_{t,ijk}`` and identifying ideal data.

Two protocol details from the paper are encoded here:

* **Scale of detection.** Missing values and inconsistencies are facts about
  the raw records, so ``f_M`` and ``f_I`` always run on the untransformed
  data. The log transform of Attribute 1 is an experimental factor for
  *outlier* detection and repair only — Table 1 shows identical
  missing/inconsistent rates with and without the log but very different
  outlier rates.
* **Ideal-set identification.** "We identify parts of the dirty data set D
  that meet the clean requirements ... and treat these as the ideal data set"
  (Section 2.1.2); concretely, sectors "where the time series contained less
  than 5% each of missing, inconsistencies and outliers" (Section 4.1). Since
  outlier limits are themselves computed from the ideal data, the split is a
  fixed point — :func:`identify_ideal` iterates to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from repro.data.dataset import StreamDataset
from repro.data.stream import TimeSeries
from repro.errors import ValidationError
from repro.glitches.constraints import ConstraintSet, paper_constraints
from repro.glitches.missing import detect_missing
from repro.glitches.outliers import SigmaLimits, SigmaOutlierDetector
from repro.glitches.types import (
    BlockGlitches,
    DatasetGlitches,
    GlitchMatrix,
    GlitchType,
    N_GLITCH_TYPES,
)
from repro.utils.validation import check_fraction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> cleaning -> glitches)
    from repro.data.block import SampleBlock

__all__ = [
    "ScaleTransform",
    "DetectorSuite",
    "AnalysisBlock",
    "CleanlinessPartition",
    "partition_by_cleanliness",
    "identify_ideal",
]


@dataclass(frozen=True)
class ScaleTransform:
    """An elementwise transform of one attribute defining the analysis scale.

    The paper's factor is a natural-log transform of Attribute 1
    (Section 5.3); :meth:`log_attr1` builds exactly that. Non-finite results
    (log of the negative values planted by constraint-1 violations) become
    NaN, so they are simply invisible to the outlier detector — they are
    already flagged as inconsistencies on the raw scale.

    ``inverse`` (when given) lets cleaning strategies operate on the analysis
    scale and write repaired values back on the raw scale: Winsorization
    clips on the transformed scale, imputation models the transformed joint
    distribution (Figure 4b), and the repaired column is mapped back through
    the inverse.
    """

    attribute: str
    forward: Callable[[np.ndarray], np.ndarray]
    name: str
    inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @classmethod
    def log_attr1(cls) -> "ScaleTransform":
        """The paper's log transform of Attribute 1 (inverse: exp)."""
        return cls(attribute="attr1", forward=np.log, name="log(attr1)", inverse=np.exp)

    def apply(self, series: TimeSeries) -> TimeSeries:
        """Transform one series (returns a new series)."""
        return series.transformed(self.attribute, self.forward)

    def apply_dataset(self, dataset: StreamDataset) -> StreamDataset:
        """Transform every series of a data set."""
        return dataset.transformed(self.attribute, self.forward)

    def forward_values(self, values: np.ndarray, attributes: tuple[str, ...]) -> np.ndarray:
        """Transform the matching column of a raw ``(..., v)`` array (copy).

        The transform is elementwise, so per-series ``(T, v)`` arrays and
        whole sample-block ``(n, T, v)`` tensors produce bitwise-identical
        cells.
        """
        out = np.asarray(values, dtype=float).copy()
        if self.attribute in attributes:
            j = attributes.index(self.attribute)
            with np.errstate(invalid="ignore", divide="ignore"):
                col = np.asarray(self.forward(out[..., j]), dtype=float)
            col[~np.isfinite(col)] = np.nan
            out[..., j] = col
        return out

    def inverse_values(self, values: np.ndarray, attributes: tuple[str, ...]) -> np.ndarray:
        """Map an analysis-scale ``(..., v)`` array back to the raw scale (copy)."""
        if self.inverse is None:
            raise ValidationError(f"transform {self.name!r} has no inverse")
        out = np.asarray(values, dtype=float).copy()
        if self.attribute in attributes:
            j = attributes.index(self.attribute)
            with np.errstate(invalid="ignore", over="ignore"):
                out[..., j] = self.inverse(out[..., j])
        return out


@dataclass(frozen=True)
class AnalysisBlock:
    """A sample block with its values on a detector suite's analysis scale.

    Made by :meth:`DetectorSuite.analysis_block`, so ``scaled`` is always
    ``transform`` applied to ``raw``; :meth:`DetectorSuite.annotate_block`
    accepts it only from a suite with that same transform.
    """

    raw: "SampleBlock"
    scaled: "SampleBlock"
    transform: Optional[ScaleTransform]


class DetectorSuite:
    """Composite detector producing the full glitch bit matrix per series.

    Parameters
    ----------
    constraints:
        The inconsistency rules ``f_I``; defaults to the paper's three.
    outlier_detector:
        A fitted :class:`SigmaOutlierDetector` (or compatible object with a
        ``detect(series) -> (T, v) bool`` method). ``None`` disables outlier
        flagging — used while bootstrapping the ideal set.
    transform:
        Optional :class:`ScaleTransform` applied *only* for outlier
        detection. The detector's limits must have been computed on the same
        scale (use :meth:`from_ideal`).
    """

    def __init__(
        self,
        constraints: Optional[ConstraintSet] = None,
        outlier_detector: Optional[SigmaOutlierDetector] = None,
        transform: Optional[ScaleTransform] = None,
    ):
        self.constraints = constraints if constraints is not None else paper_constraints()
        self.outlier_detector = outlier_detector
        self.transform = transform

    @classmethod
    def from_ideal(
        cls,
        ideal: StreamDataset,
        constraints: Optional[ConstraintSet] = None,
        transform: Optional[ScaleTransform] = None,
        k: float = 3.0,
    ) -> "DetectorSuite":
        """Build the paper's suite with 3-sigma limits fitted on *ideal*.

        The ideal data are transformed first when a transform is given, so
        limits live on the analysis scale (Section 5.3).
        """
        scaled = transform.apply_dataset(ideal) if transform else ideal
        limits = SigmaLimits.from_dataset(scaled, k=k)
        return cls(
            constraints=constraints,
            outlier_detector=SigmaOutlierDetector(limits),
            transform=transform,
        )

    # -- annotation --------------------------------------------------------------

    def annotate(self, series: TimeSeries) -> GlitchMatrix:
        """Glitch bit matrix ``(T, v, m)`` of one series."""
        bits = np.zeros((series.length, series.n_attributes, N_GLITCH_TYPES), dtype=bool)
        bits[:, :, int(GlitchType.MISSING)] = detect_missing(series)
        bits[:, :, int(GlitchType.INCONSISTENT)] = self.constraints.evaluate(series)
        if self.outlier_detector is not None:
            scaled = self.transform.apply(series) if self.transform else series
            bits[:, :, int(GlitchType.OUTLIER)] = self.outlier_detector.detect(scaled)
        return GlitchMatrix(bits)

    def annotate_dataset(self, dataset: StreamDataset) -> DatasetGlitches:
        """Glitch annotations for every series, in data-set order."""
        return DatasetGlitches(self.annotate(s) for s in dataset)

    def analysis_block(self, block: "SampleBlock") -> "AnalysisBlock":
        """*block* with its values on this suite's analysis scale.

        One whole-tensor transform (the block itself when the suite has no
        transform). :meth:`annotate_block` takes the result and flags
        outliers on its scaled tensor, so a caller that also scores the
        scaled values (the experiment framework's distortion) transforms
        each block once.
        """
        scaled = (
            block.with_values(
                self.transform.forward_values(block.values, block.attributes)
            )
            if self.transform
            else block
        )
        return AnalysisBlock(raw=block, scaled=scaled, transform=self.transform)

    def annotate_block(
        self, block: "Union[SampleBlock, AnalysisBlock]"
    ) -> BlockGlitches:
        """Glitch bit tensor ``(n, T, v, m)`` of a whole sample block.

        The columnar analogue of :meth:`annotate_dataset`: missing,
        inconsistency and outlier detection each run as one whole-block
        boolean reduction instead of ``n`` per-series passes. Every bit is
        identical to the per-series path (the detectors are elementwise); an
        outlier detector without an array-level ``detect_values`` falls back
        to series views. An :class:`AnalysisBlock` from
        :meth:`analysis_block` is flagged on its scaled tensor instead of
        transforming the raw one again; one made by a suite with another
        transform is refused.
        """
        if isinstance(block, AnalysisBlock):
            if block.transform != self.transform:
                raise ValidationError(
                    "analysis block was scaled by another transform than "
                    "this suite's"
                )
            raw, scaled = block.raw, block.scaled.values
        else:
            raw, scaled = block, None
        return BlockGlitches(self._cell_bits(raw.values, raw.attributes, scaled))

    def cell_bits(
        self, values: np.ndarray, attributes: tuple[str, ...]
    ) -> np.ndarray:
        """Glitch bit tensor ``(..., T, v, m)`` of a raw ``(..., T, v)`` tensor.

        One window, one block or one padded chunk: the missing, inconsistent
        and outlier planes each come from one elementwise pass, so every
        bit equals the per-series :meth:`annotate` bit of the same cell.
        """
        return self._cell_bits(values, attributes, None)

    def _cell_bits(
        self,
        values: np.ndarray,
        attributes: tuple[str, ...],
        scaled: Optional[np.ndarray],
    ) -> np.ndarray:
        """:meth:`cell_bits`, with the analysis-scale tensor when the caller
        holds it already."""
        bits = np.zeros(values.shape + (N_GLITCH_TYPES,), dtype=bool)
        bits[..., int(GlitchType.MISSING)] = np.isnan(values)
        bits[..., int(GlitchType.INCONSISTENT)] = self.constraints.evaluate_values(
            values, attributes
        )
        if self.outlier_detector is not None:
            bits[..., int(GlitchType.OUTLIER)] = (
                self.outlier_cells(values, attributes)
                if scaled is None
                else self._flag_outliers(scaled, attributes)
            )
        return bits

    def outlier_cells(
        self, values: np.ndarray, attributes: tuple[str, ...]
    ) -> np.ndarray:
        """Outlier mask of a raw ``(..., T, v)`` value tensor (same shape out).

        Scales the tensor to the analysis scale, then flags it in one
        elementwise pass — bitwise the per-series :meth:`annotate` outlier
        plane. An outlier detector without an array-level ``detect_values``
        falls back to series views.
        """
        scaled = (
            self.transform.forward_values(values, attributes)
            if self.transform
            else values
        )
        return self._flag_outliers(scaled, attributes)

    def _flag_outliers(
        self, scaled: np.ndarray, attributes: tuple[str, ...]
    ) -> np.ndarray:
        detect_values = getattr(self.outlier_detector, "detect_values", None)
        if detect_values is not None:
            return detect_values(scaled, attributes)
        rows = scaled.reshape((-1,) + scaled.shape[-2:])  # pragma: no cover
        return np.stack(  # pragma: no cover - custom detector shim
            [
                self.outlier_detector.detect(TimeSeries(None, r, attributes))
                for r in rows
            ]
        ).reshape(scaled.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        t = self.transform.name if self.transform else "raw"
        return (
            f"DetectorSuite(constraints={len(self.constraints)}, "
            f"outliers={'on' if self.outlier_detector else 'off'}, scale={t})"
        )


@dataclass
class CleanlinessPartition:
    """Result of splitting a population into dirty and ideal parts."""

    dirty: StreamDataset
    ideal: StreamDataset
    dirty_indices: list[int]
    ideal_indices: list[int]

    @property
    def ideal_fraction(self) -> float:
        """Share of series that met the cleanliness requirement."""
        total = len(self.dirty_indices) + len(self.ideal_indices)
        return len(self.ideal_indices) / total if total else 0.0


def _partition(dataset: StreamDataset, verdicts: np.ndarray) -> CleanlinessPartition:
    from repro.core.incremental import split_verdicts

    dirty_idx, ideal_idx = split_verdicts(verdicts)
    return CleanlinessPartition(
        dirty=dataset.subset(dirty_idx),
        ideal=dataset.subset(ideal_idx),
        dirty_indices=dirty_idx,
        ideal_indices=ideal_idx,
    )


def partition_by_cleanliness(
    dataset: StreamDataset,
    suite: DetectorSuite,
    max_fraction: float = 0.05,
) -> CleanlinessPartition:
    """Split *dataset* into dirty and ideal parts by the < 5% rule.

    A series is ideal when its record-level rate of **each** glitch type is
    below *max_fraction* (Section 4.1). Raises if either side ends up empty —
    the experimental framework needs both.
    """
    from repro.core.incremental import (
        cleanliness_fractions,
        outlier_fractions,
        series_chunks,
    )

    max_fraction = check_fraction(max_fraction, "max_fraction")
    series = dataset.series
    miss, inc = cleanliness_fractions(series_chunks(series), suite.constraints)
    verdicts = (miss < max_fraction) & (inc < max_fraction)
    if suite.outlier_detector is not None:
        verdicts &= outlier_fractions(series_chunks(series), suite) < max_fraction
    return _partition(dataset, verdicts)


def identify_ideal(
    dataset: StreamDataset,
    constraints: Optional[ConstraintSet] = None,
    transform: Optional[ScaleTransform] = None,
    k: float = 3.0,
    max_fraction: float = 0.05,
    max_iter: int = 3,
) -> tuple[CleanlinessPartition, DetectorSuite]:
    """Iterate the ideal-set / outlier-limit fixed point.

    Round 0 partitions on missing + inconsistent rates alone (no outlier
    limits exist yet); each subsequent round fits 3-sigma limits on the
    current ideal set and re-partitions on the outlier rates under them. The
    loop stops early once the ideal membership is stable. Returns the final
    partition and the fitted :class:`DetectorSuite` (which downstream code
    reuses for glitch scoring).

    The missing and inconsistent rates are round-invariant, so they are
    computed once, serially; the loop itself is
    :func:`~repro.core.incremental.identify_fixed_point`, the one the
    streaming engine and the push service run too.
    """
    from repro.core.incremental import (
        cleanliness_fractions,
        identify_series,
        series_chunks,
    )

    if constraints is None:
        constraints = paper_constraints()
    series = dataset.series

    def chunks(keep: Optional[np.ndarray]):
        return series_chunks(
            series if keep is None else [s for s, kept in zip(series, keep) if kept]
        )

    miss, inc = cleanliness_fractions(chunks(None), constraints)
    verdicts, suite = identify_series(
        chunks,
        dataset.attributes,
        miss,
        inc,
        constraints,
        transform,
        k,
        max_fraction,
        max_iter,
    )
    return _partition(dataset, verdicts), suite
