"""Test-pair generation — the replications of Section 2.1.1.

"We generate pairs of dirty and clean data sets by sampling with replacement
from the dirty data set D and the ideal data set DI, to create the test pair
{Di, DiI}, i = 1..R. Each pair is called a replication, with B records in
each of the data sets in the test pair."

A run needs at most ``2 x R x B`` series, so a replication copies only its
own: each side of a pair is a :class:`ParentGather` over the parent's series
(references, no copies), and every draw stacks exactly its ``B`` drawn
series. Uniform-length parents give **columnar sample blocks**
(:class:`~repro.data.block.SampleBlock`) — one ``(B, T, v)`` tensor per
side, one array pickle when work units ship to process-pool workers — whose
per-series ``dirty`` / ``ideal`` data sets are materialised lazily as
zero-copy views, so consumers of either layout see the exact same values.
Ragged parents are drawn as per-series data sets. The block engine, the
streaming engine and the push service share the draws
(:func:`replication_index_streams`) and the per-draw loop
(:func:`iter_test_pairs`); they differ only in which series the gathers
hold.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.data.block import SampleBlock
from repro.data.dataset import StreamDataset
from repro.data.stream import TimeSeries
from repro.errors import ValidationError
from repro.sampling.simple import sample_indices
from repro.utils.rng import Seed, spawn_generators
from repro.utils.validation import check_positive_int

__all__ = [
    "TestPair",
    "generate_test_pairs",
    "iter_test_pairs",
    "replication_index_streams",
    "ParentGather",
]


class TestPair:
    """One replication: a dirty sample ``Di`` and an ideal sample ``DiI``.

    Holds either layout of each side — per-series :class:`StreamDataset`,
    columnar :class:`SampleBlock`, or both. Whichever is absent is derived on
    first access (`dirty`/`ideal` materialise zero-copy views of the block),
    and pickling prefers the block so process workers receive one contiguous
    array per side.
    """

    __slots__ = ("index", "dirty_block", "ideal_block", "_dirty", "_ideal")

    def __init__(
        self,
        index: int,
        dirty: Optional[StreamDataset] = None,
        ideal: Optional[StreamDataset] = None,
        dirty_block: Optional[SampleBlock] = None,
        ideal_block: Optional[SampleBlock] = None,
    ):
        if dirty is None and dirty_block is None:
            raise ValidationError("TestPair needs dirty or dirty_block")
        if ideal is None and ideal_block is None:
            raise ValidationError("TestPair needs ideal or ideal_block")
        self.index = int(index)
        self.dirty_block = dirty_block
        self.ideal_block = ideal_block
        self._dirty = dirty
        self._ideal = ideal

    @property
    def dirty(self) -> StreamDataset:
        """The dirty sample ``Di`` (materialised from the block if needed)."""
        if self._dirty is None:
            self._dirty = StreamDataset.from_block(self.dirty_block)
        return self._dirty

    @property
    def ideal(self) -> StreamDataset:
        """The ideal sample ``DiI`` (materialised from the block if needed)."""
        if self._ideal is None:
            self._ideal = StreamDataset.from_block(self.ideal_block)
        return self._ideal

    def __getstate__(self):
        # Ship one array per side when the block layout exists; the view
        # data sets are rebuilt lazily on the receiving end.
        return (
            self.index,
            self.dirty_block,
            self.ideal_block,
            None if self.dirty_block is not None else self._dirty,
            None if self.ideal_block is not None else self._ideal,
        )

    def __setstate__(self, state) -> None:
        self.index, self.dirty_block, self.ideal_block, self._dirty, self._ideal = state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        layout = "block" if self.dirty_block is not None else "series"
        return f"TestPair(index={self.index}, layout={layout})"


def replication_index_streams(
    n_dirty: int,
    n_ideal: int,
    n_pairs: int,
    sample_size: int,
    seed: Seed = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the ``(dirty_indices, ideal_indices)`` draws of every replication.

    This is the *entire* randomness of replication sampling, factored out so
    every consumer draws it identically: :func:`generate_test_pairs` gathers
    the drawn series from the whole in-memory parents, while the streaming
    slab engine and the push service use the same draws to decide which few
    series to gather at all — every path selects bitwise-identical samples
    by construction. Each
    replication consumes its own spawned stream (dirty draw first, then
    ideal), so replication ``i`` is a function of ``(seed, i)`` alone.
    """
    n_pairs = check_positive_int(n_pairs, "n_pairs")
    sample_size = check_positive_int(sample_size, "sample_size")
    for rng in spawn_generators(seed, n_pairs):
        d_idx = sample_indices(n_dirty, sample_size, rng)
        i_idx = sample_indices(n_ideal, sample_size, rng)
        yield d_idx, i_idx


class ParentGather:
    """One side's parent population as replication sampling sees it.

    A ``parent index -> TimeSeries`` map of references: building one copies
    no values. The block path hands it the whole in-memory parent; the
    streaming engine and the push service hand it only the series the
    replications touch — at most ``R x B`` distinct of them, whatever the
    population size. Either way, ``sample(idx)`` stacks exactly the drawn
    series into a fresh :class:`SampleBlock` (or a per-series data set), so
    a replication costs its own ``B`` rows and the parent is never copied.

    Parameters
    ----------
    entries:
        ``parent index -> TimeSeries`` for every gathered series.
    lengths:
        The length of every series of the *full* parent, in parent order.
        Indices are validated against its size, and the gather has the
        block layout when every length is equal: deciding on the
        population, not the gathered subset, puts every engine on the same
        block/per-series branch.
    """

    def __init__(self, entries: Mapping[int, TimeSeries], lengths: Sequence[int]):
        lengths = np.asarray(lengths)
        self.n_total = check_positive_int(len(lengths), "parent size")
        self._entries = dict(entries)
        for idx in self._entries:
            if not 0 <= idx < self.n_total:
                raise ValidationError(
                    f"gathered index {idx} out of range for {self.n_total} series"
                )
        self.uniform = bool((lengths == lengths[0]).all())
        # Samples carry truth only when every gathered series has one: the
        # whole-parent rule, decided once and never per draw.
        self._truth = all(s.truth is not None for s in self._entries.values())

    @property
    def block_layout(self) -> bool:
        """Whether :meth:`sample` produces :class:`SampleBlock` samples."""
        return self.uniform and bool(self._entries)

    def sample(self, indices: Sequence[int], block: Optional[bool] = None):
        """The sample of the parent series at *indices* (repeats allowed).

        ``block=None`` follows this gather's own layout; pass ``False`` to
        force the per-series :class:`StreamDataset` form (needed when the
        *other* side of a pair is ragged — :func:`iter_test_pairs` only uses
        the block layout when both sides have it).
        """
        idx = np.array(indices, dtype=np.intp)
        if idx.ndim != 1 or idx.size == 0:
            raise ValidationError("sample needs at least one index")
        missing = [i for i in idx.tolist() if i not in self._entries]
        if missing:
            raise ValidationError(
                f"indices {missing[:5]} were not gathered; the gather only "
                f"holds {len(self._entries)} of {self.n_total} series"
            )
        series = [self._entries[i] for i in idx.tolist()]
        if block is None:
            block = self.block_layout
        if not block:
            return StreamDataset(series)
        if not self.block_layout:
            raise ValidationError("this gather has no block layout")
        return SampleBlock(
            values=np.stack([s.values for s in series]),
            attributes=series[0].attributes,
            nodes=tuple(s.node for s in series),
            truth=np.stack([s.truth for s in series]) if self._truth else None,
            indices=idx,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParentGather(n_total={self.n_total}, gathered={len(self._entries)}, "
            f"layout={'block' if self.block_layout else 'series'})"
        )


def iter_test_pairs(
    draws: Iterable[tuple[np.ndarray, np.ndarray]],
    dirty: ParentGather,
    ideal: ParentGather,
) -> Iterator[TestPair]:
    """The replication pairs of pre-drawn index streams.

    The one per-draw loop of every engine, with the one layout rule: both
    sides are blocks when both parents have the block layout, and
    per-series data sets otherwise.
    """
    use_block = dirty.block_layout and ideal.block_layout
    for i, (d_idx, i_idx) in enumerate(draws):
        d = dirty.sample(d_idx, block=use_block)
        s = ideal.sample(i_idx, block=use_block)
        if use_block:
            yield TestPair(index=i, dirty_block=d, ideal_block=s)
        else:
            yield TestPair(index=i, dirty=d, ideal=s)


def generate_test_pairs(
    dirty: StreamDataset,
    ideal: StreamDataset,
    n_pairs: int,
    sample_size: int,
    seed: Seed = None,
) -> Iterator[TestPair]:
    """Yield ``n_pairs`` replications of ``sample_size`` series each.

    Each replication draws from its own spawned random stream, so replication
    ``i`` is identical no matter how many replications are consumed — the
    property that makes sweeps over R reproducible. The paper notes "any
    value of R more than 30 is sufficient" and uses R = 50.

    The index streams come from :func:`replication_index_streams` — shared
    with the streaming engine and the push service — and each replication
    stacks only its own drawn series out of a :class:`ParentGather` over
    the whole parent (:func:`iter_test_pairs`); neither parent is copied.
    """
    n_pairs = check_positive_int(n_pairs, "n_pairs")
    sample_size = check_positive_int(sample_size, "sample_size")
    draws = replication_index_streams(
        len(dirty), len(ideal), n_pairs, sample_size, seed=seed
    )
    dirty_gather, ideal_gather = (
        ParentGather(dict(enumerate(p)), [s.length for s in p]) for p in (dirty, ideal)
    )
    yield from iter_test_pairs(draws, dirty_gather, ideal_gather)
