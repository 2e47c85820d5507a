"""Collections of time series — the data sets ``D``, ``DI``, ``Di`` etc.

A :class:`StreamDataset` is an ordered collection of
:class:`~repro.data.stream.TimeSeries` with a shared attribute schema. All
data sets in the experimental framework (the dirty data ``D``, the ideal data
``DI``, each replication sample ``Di`` and its cleaned counterpart ``DiC``)
are instances of this class.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.data.block import SampleBlock
from repro.data.stream import TimeSeries
from repro.errors import DataShapeError, ValidationError
from repro.utils.rows import complete_rows, rows_all

__all__ = ["StreamDataset"]


class StreamDataset:
    """An ordered collection of multivariate time series.

    Parameters
    ----------
    series:
        The member time series. All must share the same attribute tuple;
        lengths may differ (``T_ijk`` varies with node uptime, Section 3.4).
    """

    def __init__(self, series: Iterable[TimeSeries]):
        self._series = list(series)
        if not self._series:
            raise ValidationError("StreamDataset needs at least one series")
        attrs = self._series[0].attributes
        for s in self._series[1:]:
            if s.attributes != attrs:
                raise DataShapeError(
                    f"inconsistent attributes: {s.attributes} vs {attrs}"
                )
        self.attributes = attrs

    # -- container protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterator[TimeSeries]:
        return iter(self._series)

    def __getitem__(self, index: int) -> TimeSeries:
        return self._series[index]

    @property
    def series(self) -> list[TimeSeries]:
        """The member series (list is a copy; elements are shared)."""
        return list(self._series)

    @property
    def n_attributes(self) -> int:
        """Number of attributes ``v`` shared by every series."""
        return len(self.attributes)

    @property
    def n_records(self) -> int:
        """Total number of ``(t, node)`` records across all series."""
        return int(sum(s.length for s in self._series))

    @property
    def max_length(self) -> int:
        """Length of the longest member series."""
        return max(s.length for s in self._series)

    # -- pooling --------------------------------------------------------------------

    def pooled(self, dropna: str = "none") -> np.ndarray:
        """Stack every time instant of every series into an ``(N, v)`` array.

        This realises the paper's distance computation: "while we sampled
        entire time series, we computed EMD treating each time instance as a
        separate data point" (Section 6.1).

        Parameters
        ----------
        dropna:
            ``"none"`` keeps all rows, ``"any"`` drops rows with any NaN
            (required before multivariate binning), ``"all"`` drops rows that
            are entirely NaN.
        """
        if dropna not in ("none", "any", "all"):
            raise ValidationError(f"dropna must be none/any/all, got {dropna!r}")
        stacked = np.concatenate([s.values for s in self._series], axis=0)
        if dropna == "any":
            return complete_rows(stacked)
        if dropna == "all":
            return stacked[~rows_all(np.isnan(stacked))]
        return stacked

    def pooled_column(self, attribute: str, dropna: bool = True) -> np.ndarray:
        """Pool a single attribute across all series."""
        j = self._series[0].attribute_index(attribute)
        col = np.concatenate([s.values[:, j] for s in self._series])
        if dropna:
            return col[~np.isnan(col)]
        return col

    @property
    def missing_fraction(self) -> float:
        """Fraction of missing cells over the whole data set."""
        total = sum(s.values.size for s in self._series)
        if total == 0:
            return 0.0
        miss = sum(int(np.isnan(s.values).sum()) for s in self._series)
        return miss / total

    # -- derivation -----------------------------------------------------------------

    def copy(self) -> "StreamDataset":
        """Deep copy of all member series' values."""
        return StreamDataset(s.copy() for s in self._series)

    def subset(self, indices: Sequence[int]) -> "StreamDataset":
        """A new data set consisting of the series at *indices* (with repeats).

        Repeated indices are allowed — sampling with replacement produces
        exactly that (Section 2.1.1).
        """
        idx = list(indices)
        if not idx:
            raise ValidationError("subset needs at least one index")
        n = len(self._series)
        for i in idx:
            if not -n <= i < n:
                raise ValidationError(f"index {i} out of range for {n} series")
        return StreamDataset(self._series[i] for i in idx)

    def map(self, fn: Callable[[TimeSeries], TimeSeries]) -> "StreamDataset":
        """Apply *fn* to each member series, returning a new data set."""
        return StreamDataset(fn(s) for s in self._series)

    def transformed(self, attribute: str, forward) -> "StreamDataset":
        """Elementwise transform of one attribute across all series.

        Used for the log-transform experimental factor (Section 5.3).
        """
        return self.map(lambda s: s.transformed(attribute, forward))

    # -- columnar block layout -------------------------------------------------

    def to_block(self) -> SampleBlock:
        """This data set as one contiguous ``(n, T, v)`` sample block.

        Requires a uniform series length (``T_ijk`` equal for every member);
        ragged data sets raise :class:`~repro.errors.DataShapeError` and stay
        on the per-series path. The ground-truth tensor is included only when
        every member series carries one.
        """
        lengths = {s.length for s in self._series}
        if len(lengths) != 1:
            raise DataShapeError(
                f"to_block needs a uniform series length, got lengths {sorted(lengths)}"
            )
        values = np.stack([s.values for s in self._series])
        truth = None
        if all(s.truth is not None for s in self._series):
            truth = np.stack([s.truth for s in self._series])
        return SampleBlock(
            values=values,
            attributes=self.attributes,
            nodes=tuple(s.node for s in self._series),
            truth=truth,
        )

    @staticmethod
    def from_block(block: SampleBlock) -> "StreamDataset":
        """A data set of **zero-copy** series views into *block*.

        Each member's ``values`` (and ``truth``) array is a view of the block
        tensor: mutating a view mutates the block, and vice versa. Strategies
        never mutate their input, so sharing is safe throughout the library;
        copy the block first if the caller intends in-place edits.
        """
        return StreamDataset(
            TimeSeries(
                block.nodes[i],
                block.values[i],
                block.attributes,
                None if block.truth is None else block.truth[i],
            )
            for i in range(block.n_series)
        )

    @staticmethod
    def from_shards(chunks: Iterable[Iterable[TimeSeries]]) -> "StreamDataset":
        """Deterministic merge of per-shard series lists into one data set.

        *chunks* are the outputs of a sharded stage in shard order (shard
        ``k`` holds the series of index range ``[start_k, stop_k)``); the
        merge is plain ordered concatenation, so the result is identical to
        a serial pass regardless of shard layout or execution backend.
        """
        series: list[TimeSeries] = []
        for chunk in chunks:
            series.extend(chunk)
        return StreamDataset(series)

    @staticmethod
    def concat(datasets: Sequence["StreamDataset"]) -> "StreamDataset":
        """Concatenate several data sets into one."""
        if not datasets:
            raise ValidationError("concat needs at least one dataset")
        series: list[TimeSeries] = []
        for d in datasets:
            series.extend(d.series)
        return StreamDataset(series)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamDataset(n_series={len(self)}, v={self.n_attributes}, "
            f"records={self.n_records})"
        )
