"""The engine-agnostic incremental scoring core.

Every execution front of the experiment — the in-memory block path, the
pull-driven streaming slab engine (:mod:`repro.core.streaming`), and the
push-driven live monitoring service (:mod:`repro.service`) — computes the
same per-series statistics: record-level cleanliness fractions, weighted
glitch scores and sigma-limit fits over pooled ideal columns. This module
owns those folds once, engine-agnostically, so the engines reduce to
*drivers* that decide where the windows come from (shard passes, live
feeds) and what executes them (serial/thread/process backends) — never what
the numbers are.

The identity contract every fold honours: folding a series window by window
(any window widths, any arrival order, duplicates deduplicated upstream)
yields results **bitwise-identical** to the one-shot per-series computation,
because

* every per-record verdict (missing, inconsistent, outlier) is row-local —
  a window's annotation is literally a slice of the full series' annotation;
* fold state is held as exact integers (record counts, glitch-cell counts),
  whose accumulation is associative and commutative;
* the floats the batch path reports are *derived* from those integers by a
  fixed expression (one division, one matmul, one sum), replayed here
  operation for operation at read time.

Identification runs on one row-verdict kernel. Series are packed into
NaN-padded ``(n, T, v)`` chunks of at most :data:`CHUNK_SERIES` series that
carry a valid-row mask and the true lengths (:class:`RowChunk`); each
detector flags a whole chunk in one elementwise pass, and a series' rate is
its count of valid flagged rows (:func:`count_rows`) over its length; the
missing and inconsistent rates count row flags directly
(:func:`~repro.utils.rows.nan_rows` and
:meth:`~repro.glitches.constraints.ConstraintSet.row_violations`). The
batch passes (:func:`cleanliness_fractions`, :func:`outlier_fractions`,
:func:`ideal_column`) consume chunks from either source: the block path
packs in-memory series (:func:`series_chunks`), and the streaming engine's
shard passes and the push service cut them straight from a row segment —
a stored shard's, or the window journal's
(:meth:`WindowJournal.segment`) — with :func:`segment_chunks`. The live
folds count through the same kernel: :class:`CleanlinessFold` counts each
arriving window's missing and inconsistent rows, and :class:`GlitchFold`
counts glitch cells and outlier rows (:func:`_glitch_counts`) per window
after a suite froze, and per chunk when the journal is backfilled at a
freeze. Padding is masked out, so ragged populations run the same passes
as uniform ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.data.block import CHUNK_SERIES
from repro.data.stream import TimeSeries
from repro.data.window import StreamWindow, cut_series_windows
from repro.errors import ValidationError
from repro.glitches.constraints import ConstraintSet
from repro.glitches.detectors import (
    DetectorSuite,
    ScaleTransform,
    SigmaLimits,
    SigmaOutlierDetector,
)
from repro.glitches.types import N_GLITCH_TYPES, GlitchType
from repro.core.framework import ExperimentConfig
from repro.core.glitch_index import GlitchWeights
from repro.sampling.replication import (
    ParentGather,
    TestPair,
    iter_test_pairs,
    replication_index_streams,
)
from repro.stats.descriptive import sigma_limits
from repro.utils.rows import nan_rows, rows_any, time_counts
from repro.utils.validation import check_fraction

__all__ = [
    "StreamWindow",
    "cut_series_windows",
    "WindowDelta",
    "WindowJournal",
    "CleanlinessFold",
    "GlitchFold",
    "IncrementalScorer",
    "CHUNK_SERIES",
    "RowChunk",
    "series_chunks",
    "segment_chunks",
    "count_rows",
    "cleanliness_fractions",
    "outlier_fractions",
    "ideal_column",
    "split_verdicts",
    "identify_fixed_point",
    "identify_series",
    "fit_sigma_limits",
    "iter_test_pairs",
    "replication_pairs",
]


# ---------------------------------------------------------------------------
# The row-verdict kernel: padded-block passes shared by every engine
# ---------------------------------------------------------------------------


def _count_flagged(rows: np.ndarray, valid: Optional[np.ndarray]) -> np.ndarray:
    """Per series, its real rows among the ``(..., T)`` row flags *rows*
    (consumed in place).

    One window's flags count through ``np.count_nonzero``, which is several
    times cheaper per call than a reduction; with an axis it is not, so
    padded chunks sum along it. Both are the same exact integers.
    """
    if valid is not None:
        rows &= valid
    return rows.sum(axis=-1) if rows.ndim > 1 else np.count_nonzero(rows)


def count_rows(cells: np.ndarray, valid: Optional[np.ndarray] = None) -> np.ndarray:
    """The row-verdict kernel over cells: per series, its real rows with a
    flagged cell.

    *cells* is a cell-verdict tensor whose last two axes are ``(T, v)`` —
    one window, or a padded ``(n, T, v)`` :class:`RowChunk`; *valid* is the
    matching ``(..., T)`` real-row mask (``None``: every row is real). The
    counts are exact integers. The outlier and glitch passes count through
    it; the cleanliness rates reduce to row flags without a cell tensor
    (:func:`_cleanliness_counts`), counting the same integers.
    """
    return _count_flagged(rows_any(cells), valid)


def _cleanliness_counts(
    values: np.ndarray,
    attributes: tuple[str, ...],
    constraints: ConstraintSet,
    valid: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-series ``(missing, inconsistent)`` row counts of a
    ``(..., T, v)`` value tensor.

    A row is missing when any cell is NaN and inconsistent when
    :meth:`~repro.glitches.constraints.ConstraintSet.row_violations` flags
    it — the same integers :func:`count_rows` takes from the cell masks,
    with no ``(..., T, v)`` mask per constraint. The block, stream and push
    passes all count through here.
    """
    return (
        _count_flagged(nan_rows(values), valid),
        _count_flagged(constraints.row_violations(values, attributes), valid),
    )


def _outlier_counts(
    values: np.ndarray,
    attributes: tuple[str, ...],
    suite: DetectorSuite,
    valid: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Outlier :func:`count_rows` of a ``(..., T, v)`` value tensor under a
    fitted suite."""
    return count_rows(suite.outlier_cells(values, attributes), valid)


def _glitch_counts(
    values: np.ndarray,
    attributes: tuple[str, ...],
    suite: DetectorSuite,
    valid: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-series glitch cell counts and outlier-row counts of a
    ``(..., T, v)`` value tensor under *suite*.

    The cell counts are the ``(..., v, m)`` bits of
    :meth:`~repro.glitches.detectors.DetectorSuite.cell_bits` summed over
    the real rows (:func:`~repro.utils.rows.time_counts`); the outlier-row
    counts are :func:`count_rows` of the outlier plane. Both are exact
    integers.
    """
    bits = suite.cell_bits(values, attributes)
    if valid is not None:
        bits &= valid[..., None, None]
    return time_counts(bits), count_rows(bits[..., int(GlitchType.OUTLIER)])


@dataclass(frozen=True)
class RowChunk:
    """Up to :data:`CHUNK_SERIES` series as one NaN-padded ``(n, T, v)`` block.

    ``T`` is the longest member's length and ``valid[i, t]`` marks the rows
    series ``i`` really has (``t < lengths[i]``). Every detector is
    row-local and :func:`count_rows` masks the padding out, so ragged
    populations run the same passes as uniform ones.
    """

    values: np.ndarray
    valid: np.ndarray
    lengths: np.ndarray
    attributes: tuple[str, ...]

    @classmethod
    def pack(cls, series: Sequence[TimeSeries]) -> "RowChunk":
        """Pad *series* (same attributes, any lengths) into one block."""
        return cls.from_rows([s.values for s in series], series[0].attributes)

    @classmethod
    def from_rows(
        cls, rows: Sequence[np.ndarray], attributes: Sequence[str]
    ) -> "RowChunk":
        """Pad per-series ``(T_i, v)`` row arrays into one block."""
        lengths = np.array([len(r) for r in rows], dtype=np.intp)
        width = int(lengths.max(initial=0))
        values = np.full((len(rows), width, len(attributes)), np.nan)
        for row, r in zip(values, rows):
            row[: len(r)] = r
        valid = np.arange(width) < lengths[:, None]
        return cls(values, valid, lengths, tuple(attributes))

    def fractions(self, counts: np.ndarray) -> np.ndarray:
        """Per-series record fractions of row counts (any leading axes).

        An exact integer count divided once by the length is bitwise the
        boolean ``.mean()`` over the series' rows; a zero-length series
        gets NaN, which no ``< max_fraction`` test passes.
        """
        with np.errstate(invalid="ignore"):
            return counts / self.lengths


def series_chunks(series: Sequence[TimeSeries]) -> Iterator[RowChunk]:
    """*series* as consecutive padded chunks, in order (one copy per row)."""
    for start in range(0, len(series), CHUNK_SERIES):
        yield RowChunk.pack(series[start : start + CHUNK_SERIES])


def segment_chunks(
    values: np.ndarray,
    lengths: np.ndarray,
    attributes: Sequence[str],
    keep: Optional[np.ndarray] = None,
) -> Iterator[RowChunk]:
    """A series-concatenated ``(sum(lengths), v)`` row segment as
    consecutive padded chunks, in order.

    The segment is the layout a stored shard already has
    (:class:`~repro.store.shards.ShardHandle`). Each :data:`CHUNK_SERIES`
    slice whose members share one length is a zero-copy reshape of the
    segment; a ragged slice costs one masked scatter into a NaN-padded
    block. *keep* (a per-series mask) selects members first, copying only
    their rows; slices with no kept member are skipped. The chunks carry
    the same rows :func:`series_chunks` would pack, so every kernel pass
    over them is bitwise the same.
    """
    values = np.asarray(values)
    lengths = np.asarray(lengths, dtype=np.intp)
    attributes = tuple(attributes)
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    for lo in range(0, len(lengths), CHUNK_SERIES):
        hi = min(lo + CHUNK_SERIES, len(lengths))
        rows = values[bounds[lo] : bounds[hi]]
        part = lengths[lo:hi]
        uniform = bool((part == part[0]).all())
        if uniform:
            rows = rows.reshape(len(part), int(part[0]), len(attributes))
        if keep is not None:
            mask = np.asarray(keep[lo:hi], dtype=bool)
            if not mask.any():
                continue
            if not mask.all():
                rows = rows[mask if uniform else np.repeat(mask, part)]
                part = part[mask]
        width = int(part.max())
        valid = np.arange(width) < part[:, None]
        if uniform:
            block = rows
        else:
            block = np.full((len(part), width, len(attributes)), np.nan)
            block[valid] = rows
        yield RowChunk(block, valid, part, attributes)


def cleanliness_fractions(
    chunks: Iterable[RowChunk], constraints: ConstraintSet
) -> tuple[np.ndarray, np.ndarray]:
    """Per-series record-level ``(missing, inconsistent)`` fraction vectors
    of the series in *chunks*, in order.

    Neither rate depends on the fitted outlier detector, so every driver
    computes them once and reuses them in every fixed-point round; the
    floats replay ``GlitchMatrix.record_fraction`` exactly.
    """
    miss: list[np.ndarray] = []
    inc: list[np.ndarray] = []
    for chunk in chunks:
        m, i = _cleanliness_counts(
            chunk.values, chunk.attributes, constraints, chunk.valid
        )
        miss.append(chunk.fractions(m))
        inc.append(chunk.fractions(i))
    return np.concatenate(miss or [np.empty(0)]), np.concatenate(inc or [np.empty(0)])


def outlier_fractions(
    chunks: Iterable[RowChunk], suite: DetectorSuite
) -> np.ndarray:
    """Per-series record-level outlier fractions of the series in *chunks*
    under a fitted suite.

    Replays ``GlitchMatrix.record_fraction(OUTLIER)``: scale, detect,
    any-attribute reduce, mean over records.
    """
    parts = [
        chunk.fractions(
            _outlier_counts(chunk.values, chunk.attributes, suite, chunk.valid)
        )
        for chunk in chunks
    ]
    return np.concatenate(parts or [np.empty(0)])


def ideal_column(
    chunks: Iterable[RowChunk],
    attr_index: int,
    transform: Optional[ScaleTransform],
) -> np.ndarray:
    """The pooled analysis-scale values of one attribute over the series in
    *chunks* (the kept ones: selecting them is the chunk source's job).

    The inner step of the sigma-limit fit: apply the transform when it
    targets this attribute and keep the finite values (else drop NaNs
    only), in series order and then time order — exactly the order of
    ``StreamDataset.pooled_column`` over the kept series. The transform and
    the filter are elementwise, so the pooled column is bitwise the same
    whether the chunks were packed from memory, cut from stored shard
    segments, or packed from reassembled live windows.
    """
    parts = []
    for chunk in chunks:
        col = chunk.values[..., attr_index]
        attr = chunk.attributes[attr_index]
        if transform is not None and transform.attribute == attr:
            with np.errstate(invalid="ignore", divide="ignore"):
                col = np.asarray(transform.forward(col), dtype=float)
            present = np.isfinite(col)
        else:
            present = ~np.isnan(col)
        parts.append(col[present & chunk.valid])
    return np.concatenate(parts or [np.empty(0)])


def split_verdicts(verdicts: np.ndarray) -> tuple[list[int], list[int]]:
    """``(dirty_indices, ideal_indices)`` of a cleanliness verdict vector.

    Raises when either side is empty — an experiment needs both a dirty
    population to clean and an ideal one to calibrate against.
    """
    dirty_idx = [int(i) for i in np.flatnonzero(~verdicts)]
    ideal_idx = [int(i) for i in np.flatnonzero(verdicts)]
    if not ideal_idx:
        raise ValidationError(
            "no series met the cleanliness requirement; loosen max_fraction"
        )
    if not dirty_idx:
        raise ValidationError("every series is ideal; nothing to clean")
    return dirty_idx, ideal_idx


def fit_sigma_limits(
    attributes: Sequence[str],
    columns: Callable[[int, str], Sequence[np.ndarray]],
    k: float,
) -> SigmaLimits:
    """The 3-sigma fit over pooled per-attribute ideal columns.

    *columns(attr_index, attr_name)* yields the kept series' filtered
    analysis-scale columns **in population order** — the concatenation
    order is part of the bitwise contract (``np.mean`` accumulates
    pairwise, so the pooled column must be assembled identically by every
    engine). Peak memory is one attribute's pooled column: a single part
    is fitted as is, never copied again.
    """
    limits: dict[str, tuple[float, float]] = {}
    for j, attr in enumerate(attributes):
        cols = list(columns(j, attr))
        col = cols[0] if len(cols) == 1 else np.concatenate(cols or [np.empty(0)])
        limits[attr] = sigma_limits(col, k=k)
    return SigmaLimits(limits)


def identify_fixed_point(
    miss: np.ndarray,
    inc: np.ndarray,
    constraints: ConstraintSet,
    transform: Optional[ScaleTransform],
    fit_limits: Callable[[np.ndarray], SigmaLimits],
    outlier_fractions: Callable[[DetectorSuite], np.ndarray],
    max_fraction: float,
    max_iter: int,
) -> tuple[np.ndarray, DetectorSuite]:
    """The ideal-set / outlier-limit fixed point — its one implementation.

    Bootstrap split on the suite-independent missing/inconsistent rates,
    then fit → re-verdict → re-split until membership is stable or
    *max_iter* rounds ran, with the two engine-specific steps injected:
    *fit_limits(verdicts)* fits the sigma limits on the current ideal set,
    *outlier_fractions(suite)* computes every series' record-level outlier
    rate under the fitted suite. In-memory series go through
    :func:`identify_series`; the pull engine fans both steps over shard
    passes. Identical callables in, identical verdicts and suite out — bit
    for bit.

    When membership converges, the returned suite was fitted on the
    returned ideal set. When *max_iter* runs out first, it was not: the
    suite was fitted on the previous round's ideal set, and the returned
    verdicts are that suite's re-split. The paper-scale population of
    seed 0 stops this way (``max_iter=3``), with the two sets 4 series
    apart; seed 1 converges. Refitting once more would move every
    downstream number, so the loop deliberately returns the last fitted
    suite together with the verdicts it produced.
    """
    if N_GLITCH_TYPES != 3:  # pragma: no cover - future-taxonomy tripwire
        raise ValidationError(
            "the cleanliness verdicts cover exactly the missing/inconsistent/"
            "outlier taxonomy; a new GlitchType needs its record fraction "
            "added to identify_fixed_point and its callers"
        )
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    mf = check_fraction(max_fraction, "max_fraction")
    verdicts = (miss < mf) & (inc < mf)
    split_verdicts(verdicts)
    previous = set(np.flatnonzero(verdicts).tolist())
    for _ in range(max_iter):
        suite = DetectorSuite(
            constraints=constraints,
            outlier_detector=SigmaOutlierDetector(fit_limits(verdicts)),
            transform=transform,
        )
        out = outlier_fractions(suite)
        verdicts = (miss < mf) & (inc < mf) & (out < mf)
        split_verdicts(verdicts)
        current = set(np.flatnonzero(verdicts).tolist())
        if current == previous:
            break
        previous = current
    return verdicts, suite


#: A population's chunk source: ``chunks(keep)`` yields, in population
#: order, the padded chunks of the series the boolean mask *keep* selects
#: (``None``: every series).
ChunkSource = Callable[[Optional[np.ndarray]], Iterable[RowChunk]]


def identify_series(
    chunks: ChunkSource,
    attributes: Sequence[str],
    miss: np.ndarray,
    inc: np.ndarray,
    constraints: ConstraintSet,
    transform: Optional[ScaleTransform],
    k: float,
    max_fraction: float,
    max_iter: int,
) -> tuple[np.ndarray, DetectorSuite]:
    """:func:`identify_fixed_point` over a population held in memory.

    The driver of the block path
    (:func:`~repro.glitches.detectors.identify_ideal`, which packs its
    series with :func:`series_chunks`) and the push service
    (:meth:`IncrementalScorer.identify`, which cuts the journal's row
    segment with :func:`segment_chunks`). Both engine steps are
    padded-block passes over the *chunks* source: the fit pools each
    attribute's :func:`ideal_column` over the ideal series in population
    order, and the verdict pass is one :func:`outlier_fractions` call over
    every series. Detection runs once per chunk.
    """

    def fit_limits(verdicts: np.ndarray) -> SigmaLimits:
        return fit_sigma_limits(
            attributes,
            lambda j, attr: [ideal_column(chunks(verdicts), j, transform)],
            k,
        )

    return identify_fixed_point(
        miss,
        inc,
        constraints,
        transform,
        fit_limits,
        lambda suite: outlier_fractions(chunks(None), suite),
        max_fraction,
        max_iter,
    )


# ---------------------------------------------------------------------------
# Replications over a verdict split (shared by the pull engine and the service)
# ---------------------------------------------------------------------------


def replication_pairs(
    dirty_idx: Sequence[int],
    ideal_idx: Sequence[int],
    lengths: np.ndarray,
    gather: Callable[[frozenset], Dict[int, TimeSeries]],
    config: ExperimentConfig,
) -> tuple[Iterator[TestPair], int]:
    """Draw and gather the replications of a verdict split.

    The pair source of the engines that hold the population's verdicts and
    series lengths rather than its series. It draws the in-memory path's
    exact per-replication index streams
    (:func:`~repro.sampling.replication.replication_index_streams`), hands
    the set of touched population indices to *gather* (which returns
    ``population index -> series`` for at least those), and stands each
    side's parent up as a :class:`ParentGather` whose layout follows the
    whole side's *lengths*. Returns the lazy pairs of
    :func:`~repro.sampling.replication.iter_test_pairs` (the per-draw loop
    the block path shares) and the number of gathered series; evaluated by
    :func:`~repro.core.framework.run_pair_panels_stream`, the pairs give
    outcomes bitwise-identical to
    :class:`~repro.core.framework.ExperimentRunner` on the materialised
    population.
    """
    draws = list(
        replication_index_streams(
            len(dirty_idx),
            len(ideal_idx),
            config.n_replications,
            config.sample_size,
            seed=config.seed,
        )
    )
    needed = frozenset(
        {dirty_idx[int(i)] for d_idx, _ in draws for i in d_idx}
        | {ideal_idx[int(i)] for _, i_idx in draws for i in i_idx}
    )
    entries = gather(needed)

    def parent(idx: Sequence[int]) -> ParentGather:
        # A side's positions in the verdict split are its parent indices.
        return ParentGather(
            {pos: entries[i] for pos, i in enumerate(idx) if i in entries},
            lengths[list(idx)],
        )

    pairs = iter_test_pairs(draws, parent(dirty_idx), parent(ideal_idx))
    return pairs, len(entries)


# ---------------------------------------------------------------------------
# Window journal — dedup and canonical reassembly
# ---------------------------------------------------------------------------


class WindowJournal:
    """Arrival-order-invariant record of the windows a stream delivered.

    Windows are keyed by ``(stream_id, seq)``; duplicates are refused at
    :meth:`offer` (the fold layer above therefore counts every record
    exactly once, whatever the delivery pattern), and :meth:`series`
    reassembles a stream by concatenating its windows in ``seq`` order —
    the exact inverse of :func:`cut_series_windows`, so the reassembled
    series equals the source bit for bit regardless of how arrival
    shuffled, duplicated, or batched the windows.
    """

    def __init__(self) -> None:
        self._streams: Dict[int, Dict[int, StreamWindow]] = {}
        self._attributes: Optional[tuple[str, ...]] = None

    def offer(self, window: StreamWindow) -> bool:
        """Record *window*; ``False`` (and no state change) on a duplicate.

        A window whose attributes do not match the journal's schema raises
        :class:`ValidationError` and leaves no trace — not even its stream
        id.
        """
        per_stream = self._streams.get(window.stream_id)
        if per_stream is not None and window.seq in per_stream:
            return False
        if self._attributes is None:
            self._attributes = tuple(window.attributes)
        elif tuple(window.attributes) != self._attributes:
            raise ValidationError(
                f"window attributes {window.attributes} do not match the "
                f"journal's {self._attributes}"
            )
        if per_stream is None:
            per_stream = self._streams[window.stream_id] = {}
        per_stream[window.seq] = window
        return True

    @property
    def attributes(self) -> Optional[tuple[str, ...]]:
        """The attribute schema, discovered from the first window."""
        return self._attributes

    @property
    def n_streams(self) -> int:
        """Number of distinct streams seen so far."""
        return len(self._streams)

    @property
    def n_windows(self) -> int:
        """Number of distinct ``(stream, seq)`` windows retained."""
        return sum(len(s) for s in self._streams.values())

    def stream_ids(self) -> list[int]:
        """Stream ids seen so far, ascending."""
        return sorted(self._streams)

    def _windows(self, stream_id: int) -> list[StreamWindow]:
        """One stream's windows in ``seq`` order (gaps allowed)."""
        per_stream = self._streams.get(stream_id)
        if not per_stream:
            raise ValidationError(f"no windows journaled for stream {stream_id}")
        return [per_stream[s] for s in sorted(per_stream)]

    def rows(self, stream_id: int) -> np.ndarray:
        """One stream's journaled rows: its windows concatenated in ``seq``
        order. Gaps are allowed — the row-local glitch counts of a partly
        delivered stream do not depend on where the missing windows sit."""
        return np.concatenate([w.values for w in self._windows(stream_id)], axis=0)

    def _complete_windows(self, stream_id: int) -> list[StreamWindow]:
        """One stream's windows in ``seq`` order, which must be gap-free
        from ``seq=0``."""
        ordered = self._windows(stream_id)
        seqs = [w.seq for w in ordered]
        if seqs[-1] != len(seqs) - 1:
            raise ValidationError(
                f"stream {stream_id} has {seqs[-1] + 1 - len(seqs)} window "
                f"gaps, first at seq {_first_gaps(seqs)}; cannot reassemble"
            )
        return ordered

    def _population_ids(self) -> list[int]:
        """The stream ids, which must be dense (``0..n_streams-1``) — a
        population, not a sparse sample of one."""
        ids = self.stream_ids()
        if ids and ids[-1] != len(ids) - 1:
            raise ValidationError(
                f"{ids[-1] + 1 - len(ids)} missing streams, first "
                f"{_first_gaps(ids)}; cannot assemble the population"
            )
        return ids

    def series(self, stream_id: int) -> TimeSeries:
        """The reassembled series of one stream (its windows must be
        gap-free from ``seq=0``)."""
        ordered = self._complete_windows(stream_id)
        first = ordered[0]
        values = np.concatenate([w.values for w in ordered], axis=0)
        truth = None
        if all(w.truth is not None for w in ordered):
            truth = np.concatenate([w.truth for w in ordered], axis=0)
        return TimeSeries(first.node, values, first.attributes, truth)

    def assemble(self) -> list[TimeSeries]:
        """Every stream reassembled, in population (stream-id) order.

        Requires a dense id space ``0..n_streams-1`` and gap-free streams.
        """
        return [self.series(i) for i in self._population_ids()]

    def segment(self) -> tuple[np.ndarray, np.ndarray]:
        """The population as one row segment: ``(values, lengths)``.

        *values* is every stream's rows concatenated in (stream id, seq)
        order — the series-concatenated ``(sum(lengths), v)`` layout a
        stored shard has, which :func:`segment_chunks` cuts — and
        *lengths* the per-stream row counts. No per-stream object is
        built. Raises :class:`ValidationError` where :meth:`assemble`
        does: the ids must be dense and every stream gap-free.
        """
        streams = [self._complete_windows(i) for i in self._population_ids()]
        lengths = np.array(
            [sum(w.width for w in windows) for windows in streams], dtype=np.intp
        )
        rows = [w.values for windows in streams for w in windows]
        empty = np.empty((0, len(self._attributes or ())))
        return np.concatenate(rows or [empty], axis=0), lengths


def _first_gaps(keys: Sequence[int], limit: int = 10) -> list[int]:
    """The first *limit* integers in ``0..keys[-1]`` absent from the sorted,
    distinct *keys* — one walk over the keys, whatever the key range."""
    gaps: list[int] = []
    expected = 0
    for key in keys:
        if key > expected:
            gaps.extend(range(expected, min(key, expected + limit - len(gaps))))
            if len(gaps) >= limit:
                break
        expected = key + 1
    return gaps


# ---------------------------------------------------------------------------
# The per-stream folds
# ---------------------------------------------------------------------------


class CleanlinessFold:
    """Per-stream missing and inconsistent record counters.

    Folds each window's row-local verdicts into exact integer counts:
    records with any missing cell and records violating any constraint.
    Neither depends on a fitted detector, so the fold runs from the first
    arrival; outlier rows are :class:`GlitchFold`'s, once a suite froze.
    The window's rows go through the batch passes' row-verdict kernel
    (:func:`_cleanliness_counts`: :func:`~repro.utils.rows.nan_rows` and
    :meth:`~repro.glitches.constraints.ConstraintSet.row_violations`) with
    every row real, so a fold builds no per-window series and no cell
    mask. The fractions read back as ``count / n_records``, which is
    bitwise what the batch pass's ``mask.any(axis=1).mean()`` computes (a
    boolean mean is an exact integer sum divided by the length), so fold
    order and window widths never show in the result.
    """

    def __init__(self, constraints: ConstraintSet):
        self.constraints = constraints
        self._miss: Dict[int, int] = {}
        self._inc: Dict[int, int] = {}
        self._records: Dict[int, int] = {}

    def fold(self, stream_id: int, window: "StreamWindow | TimeSeries") -> None:
        """Fold one window's rows into the stream's counters (anything
        with ``values`` and ``attributes``: a window or a series)."""
        miss, inc = _cleanliness_counts(
            window.values, window.attributes, self.constraints
        )
        self._records[stream_id] = (
            self._records.get(stream_id, 0) + window.values.shape[0]
        )
        self._miss[stream_id] = self._miss.get(stream_id, 0) + int(miss)
        self._inc[stream_id] = self._inc.get(stream_id, 0) + int(inc)

    def n_records(self, stream_id: int) -> int:
        """Records folded for one stream so far."""
        return self._records.get(stream_id, 0)

    def _fraction(self, counter: Dict[int, int], stream_id: int) -> float:
        total = self._records.get(stream_id, 0)
        if total == 0:
            return 0.0
        return counter.get(stream_id, 0) / total

    def miss_fraction(self, stream_id: int) -> float:
        """Fraction of the stream's records with a missing cell."""
        return self._fraction(self._miss, stream_id)

    def inc_fraction(self, stream_id: int) -> float:
        """Fraction of the stream's records violating a constraint."""
        return self._fraction(self._inc, stream_id)

    def fraction_arrays(self, n_streams: int) -> tuple[np.ndarray, np.ndarray]:
        """``(miss, inc)`` fraction vectors over streams ``0..n-1``."""
        miss = np.empty(n_streams)
        inc = np.empty(n_streams)
        for i in range(n_streams):
            if self._records.get(i, 0) == 0:
                raise ValidationError(f"stream {i} has no folded records")
            miss[i] = self.miss_fraction(i)
            inc[i] = self.inc_fraction(i)
        return miss, inc


class GlitchFold:
    """Per-stream glitch-score and outlier-rate state under a frozen suite.

    Folds rows into exact integers per stream: per-``(attribute, type)``
    glitch cell counts and the count of records with an outlier cell, both
    from the padded-block kernel :func:`_glitch_counts`. :meth:`fold` takes
    one arriving window; :meth:`fold_chunk` takes a whole :class:`RowChunk`
    of streams in one pass (the journal backfill at a freeze). The sums are
    associative, so neither the split into windows or chunks nor the order
    shows. :meth:`score` then replays
    :func:`~repro.core.glitch_index.series_glitch_score` — the same
    count-over-length division, the same weight matmul, the same sum — so a
    stream's live score after its last window is bitwise the batch score of
    the whole series, however the windows arrived; :meth:`out_fraction`
    replays ``GlitchMatrix.record_fraction(OUTLIER)`` the same way.
    """

    def __init__(self, suite: DetectorSuite, weights: Optional[GlitchWeights] = None):
        self.suite = suite
        self.weights = weights or GlitchWeights()
        self._counts: Dict[int, np.ndarray] = {}
        self._out: Dict[int, int] = {}
        self._length: Dict[int, int] = {}

    def _add(self, stream_id: int, cells: np.ndarray, out: int, length: int) -> None:
        if stream_id in self._counts:
            self._counts[stream_id] += cells
            self._out[stream_id] += out
            self._length[stream_id] += length
        else:
            self._counts[stream_id] = cells
            self._out[stream_id] = out
            self._length[stream_id] = length

    def fold(self, stream_id: int, window: "StreamWindow | TimeSeries") -> None:
        """Fold one window's glitch counts into the stream's state (anything
        with ``values`` and ``attributes``: a window or a series)."""
        cells, out = _glitch_counts(window.values, window.attributes, self.suite)
        self._add(stream_id, cells, int(out), window.values.shape[0])

    def fold_chunk(self, stream_ids: Sequence[int], chunk: RowChunk) -> None:
        """Fold a padded chunk, row ``i`` belonging to ``stream_ids[i]``."""
        cells, out = _glitch_counts(
            chunk.values, chunk.attributes, self.suite, chunk.valid
        )
        for stream_id, c, o, n in zip(stream_ids, cells, out, chunk.lengths):
            self._add(stream_id, c, int(o), int(n))

    def score(self, stream_id: int) -> float:
        """The stream's length-normalised weighted glitch score so far."""
        length = self._length.get(stream_id, 0)
        if length == 0:
            return 0.0
        per_attr_type = self._counts[stream_id] / length
        return float((per_attr_type @ self.weights.as_array()).sum())

    def out_fraction(self, stream_id: int) -> float:
        """Fraction of the stream's records with an outlier cell (0.0 for a
        stream with no records)."""
        length = self._length.get(stream_id, 0)
        if length == 0:
            return 0.0
        return self._out[stream_id] / length

    def n_records(self, stream_id: int) -> int:
        """Records annotated for one stream so far."""
        return self._length.get(stream_id, 0)


# ---------------------------------------------------------------------------
# The incremental scorer — per-arrival fold state over a window journal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowDelta:
    """What one window arrival changed.

    ``accepted`` is ``False`` for a duplicate delivery (no state changed);
    the fractions and scores are the stream's **live** values after this
    arrival — derived from exact counts, so they are arrival-order
    invariant, and once a stream is complete they equal the batch values
    bitwise. ``glitch_score``/``out_fraction`` are ``None`` until a
    detector suite has been frozen.
    """

    stream_id: int
    seq: int
    arrival: int
    accepted: bool
    n_records: int
    miss_fraction: float
    inc_fraction: float
    out_fraction: Optional[float] = None
    glitch_score: Optional[float] = None


class IncrementalScorer:
    """Engine-agnostic per-stream fold state with ``fold(window) -> delta``.

    The core the push service sits on: windows arrive in any order, with
    duplicates, from any number of interleaved streams; each accepted
    window updates exact per-stream counters (cleanliness fractions, and —
    once :meth:`freeze_suite` has fixed a detector suite — weighted glitch
    scores), and the journal retains the deduplicated windows for
    canonical reassembly into the batch engine's exact inputs. Live reads
    are derived from the counters at ask time, so they are independent of
    arrival order at every prefix that covers the same window set.
    """

    def __init__(
        self,
        constraints: ConstraintSet,
        transform: Optional[ScaleTransform] = None,
        weights: Optional[GlitchWeights] = None,
    ):
        self.constraints = constraints
        self.transform = transform
        self.weights = weights or GlitchWeights()
        self.journal = WindowJournal()
        self.cleanliness = CleanlinessFold(constraints)
        self.suite: Optional[DetectorSuite] = None
        self._glitch: Optional[GlitchFold] = None
        self._arrivals = 0
        self._duplicates = 0

    @property
    def n_arrivals(self) -> int:
        """Total window deliveries seen (including duplicates)."""
        return self._arrivals

    @property
    def n_duplicates(self) -> int:
        """Deliveries refused as duplicates."""
        return self._duplicates

    def freeze_suite(self, suite: DetectorSuite) -> None:
        """Fix the detector suite for live glitch scoring.

        Windows journaled before the freeze are backfilled into the glitch
        fold as padded-block passes: the journal's streams in
        :data:`CHUNK_SERIES` chunks, each stream's rows
        (:meth:`WindowJournal.rows`, gaps allowed) one chunk row, one
        :func:`_glitch_counts` call per chunk. Counts are order-invariant,
        so freezing late — even mid-ingestion — equals having frozen before
        the first arrival.
        """
        ids = self.journal.stream_ids()
        self._backfill(
            suite,
            ids,
            (
                RowChunk.from_rows(
                    [self.journal.rows(i) for i in ids[start : start + CHUNK_SERIES]],
                    self.journal.attributes,
                )
                for start in range(0, len(ids), CHUNK_SERIES)
            ),
        )

    def _backfill(
        self, suite: DetectorSuite, ids: Sequence[int], chunks: Iterable[RowChunk]
    ) -> None:
        """Freeze *suite* and fold the journal into a fresh glitch fold;
        *chunks* hold the streams *ids*, in order."""
        self.suite = suite
        self._glitch = GlitchFold(suite, self.weights)
        start = 0
        for chunk in chunks:
            stop = start + len(chunk.lengths)
            self._glitch.fold_chunk(ids[start:stop], chunk)
            start = stop

    def fold(self, window: StreamWindow) -> WindowDelta:
        """Fold one arriving window; returns the stream's live delta."""
        self._arrivals += 1
        accepted = self.journal.offer(window)
        sid = window.stream_id
        if accepted:
            self.cleanliness.fold(sid, window)
            if self._glitch is not None:
                self._glitch.fold(sid, window)
        else:
            self._duplicates += 1
        return WindowDelta(
            stream_id=sid,
            seq=window.seq,
            arrival=self._arrivals,
            accepted=accepted,
            n_records=self.cleanliness.n_records(sid),
            miss_fraction=self.cleanliness.miss_fraction(sid),
            inc_fraction=self.cleanliness.inc_fraction(sid),
            out_fraction=self.out_fraction(sid),
            glitch_score=self.glitch_score(sid),
        )

    def glitch_score(self, stream_id: int) -> Optional[float]:
        """The stream's live glitch score (``None`` before a suite froze)."""
        if self._glitch is None:
            return None
        return self._glitch.score(stream_id)

    def out_fraction(self, stream_id: int) -> Optional[float]:
        """The stream's live outlier-record fraction (``None`` before a
        suite froze)."""
        if self._glitch is None:
            return None
        return self._glitch.out_fraction(stream_id)

    # -- identification over the journal ------------------------------------

    def identify(
        self,
        k: float = 3.0,
        max_fraction: float = 0.05,
        max_iter: int = 3,
    ) -> tuple[np.ndarray, DetectorSuite]:
        """The ideal-set fixed point over the journaled population.

        Takes the journal's row segment (:meth:`WindowJournal.segment`; the
        streams must be complete) and runs :func:`identify_series` over
        :func:`segment_chunks` of it — the cutter the streaming engine's
        shard passes use, a zero-copy reshape for uniform streams — with
        the folded missing/inconsistent fractions. The driver is the one
        the block path shares, computing what the pull engine computes over
        shard passes, so the verdicts and fitted suite replay
        :meth:`StreamingExperiment.identify` bit for bit. Freezes the
        fitted suite for live scoring as a side effect, backfilling the
        glitch fold from the same chunks. No per-stream series is built
        and no rows are packed.
        """
        values, lengths = self.journal.segment()
        attributes = self.journal.attributes or ()
        miss, inc = self.cleanliness.fraction_arrays(len(lengths))

        def chunks(keep: Optional[np.ndarray]) -> Iterator[RowChunk]:
            return segment_chunks(values, lengths, attributes, keep)

        verdicts, suite = identify_series(
            chunks,
            attributes,
            miss,
            inc,
            self.constraints,
            self.transform,
            k,
            max_fraction,
            max_iter,
        )
        self._backfill(suite, range(len(lengths)), chunks(None))
        return verdicts, suite
