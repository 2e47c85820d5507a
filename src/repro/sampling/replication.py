"""Test-pair generation — the replications of Section 2.1.1.

"We generate pairs of dirty and clean data sets by sampling with replacement
from the dirty data set D and the ideal data set DI, to create the test pair
{Di, DiI}, i = 1..R. Each pair is called a replication, with B records in
each of the data sets in the test pair."

When the populations have a uniform series length, each replication is drawn
as a **columnar sample block** (:class:`~repro.data.block.SampleBlock`): one
C-level index gather into the parent block instead of ``B`` per-series object
selections, and — when work units ship to process-pool workers — one array
pickle instead of ``B`` ``TimeSeries`` pickles. The per-series ``dirty`` /
``ideal`` data sets are materialised lazily as zero-copy views, so consumers
of either layout see the exact same values. Ragged populations are drawn as
per-series data sets.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

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
    every consumer draws it identically: :func:`generate_test_pairs` feeds
    the indices to whole-population parents, while the streaming slab engine
    uses the same draws to decide which few series to gather at all — the
    two paths select bitwise-identical samples by construction. Each
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
    """A bounded stand-in for one side's parent population.

    The block path materialises the *whole* population as one parent block
    and replications gather into it. At out-of-core scale the streaming
    engine instead gathers only the few series any replication actually
    touches — at most ``R x B`` distinct of them, independent of the
    population size — and this class replays the parent-block semantics on
    that bounded subset: ``sample(idx)`` returns exactly the
    :class:`SampleBlock` (or per-series data set) the full parent would
    have produced for the same index draw, series-index vector included.

    Parameters
    ----------
    n_total:
        Size of the (un-materialised) parent population this gather stands
        in for; indices are validated against it.
    entries:
        ``parent index -> TimeSeries`` for every gathered series.
    uniform:
        Whether the *full* parent population has a uniform series length —
        the layout decision must match the population, not the gathered
        subset, so both paths take the same block/per-series branch.
    """

    def __init__(
        self,
        n_total: int,
        entries: Mapping[int, TimeSeries],
        uniform: bool,
    ):
        self.n_total = check_positive_int(n_total, "n_total")
        self._entries = dict(entries)
        for idx in self._entries:
            if not 0 <= idx < self.n_total:
                raise ValidationError(
                    f"gathered index {idx} out of range for {self.n_total} series"
                )
        self.uniform = bool(uniform)
        self._block: Optional[SampleBlock] = None
        self._rows: Optional[dict[int, int]] = None
        if self.uniform and self._entries:
            order = sorted(self._entries)
            series = [self._entries[i] for i in order]
            truth = None
            if all(s.truth is not None for s in series):
                truth = np.stack([s.truth for s in series])
            self._block = SampleBlock(
                values=np.stack([s.values for s in series]),
                attributes=series[0].attributes,
                nodes=tuple(s.node for s in series),
                truth=truth,
                indices=np.array(order, dtype=np.intp),
            )
            self._rows = {idx: row for row, idx in enumerate(order)}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def gathered_indices(self) -> list[int]:
        """Parent indices present in the gather, ascending."""
        return sorted(self._entries)

    @property
    def block_layout(self) -> bool:
        """Whether :meth:`sample` produces :class:`SampleBlock` parents."""
        return self._block is not None

    def sample(self, indices: Sequence[int], block: Optional[bool] = None):
        """The sample the full parent would yield for *indices*.

        ``block=None`` follows this gather's own layout; pass ``False`` to
        force the per-series :class:`StreamDataset` form (needed when the
        *other* side of a pair is ragged — ``generate_test_pairs`` only uses
        the block layout when both sides have it).
        """
        idx = np.asarray(indices, dtype=np.intp)
        missing = [int(i) for i in idx if int(i) not in self._entries]
        if missing:
            raise ValidationError(
                f"indices {missing[:5]} were not gathered; the gather only "
                f"holds {len(self._entries)} of {self.n_total} series"
            )
        if block is None:
            block = self._block is not None
        if block:
            if self._block is None:
                raise ValidationError("this gather has no block layout")
            return self._block.take([self._rows[int(i)] for i in idx])
        return StreamDataset(self._entries[int(i)] for i in idx)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParentGather(n_total={self.n_total}, gathered={len(self)}, "
            f"layout={'block' if self.block_layout else 'series'})"
        )


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

    Uniform-length populations are converted to parent blocks once, and every
    replication is then an index gather (``SampleBlock.take``) into them; the
    index streams come from :func:`replication_index_streams` — shared with
    the streaming slab engine — and are the very same ``rng.integers`` draws
    the per-series path consumes, so the sampled values are identical in
    either layout.
    """
    n_pairs = check_positive_int(n_pairs, "n_pairs")
    sample_size = check_positive_int(sample_size, "sample_size")
    dirty_block = dirty.try_to_block()
    ideal_block = ideal.try_to_block()
    draws = replication_index_streams(
        len(dirty), len(ideal), n_pairs, sample_size, seed=seed
    )
    for i, (d_idx, i_idx) in enumerate(draws):
        if dirty_block is not None and ideal_block is not None:
            yield TestPair(
                index=i,
                dirty_block=dirty_block.take(d_idx),
                ideal_block=ideal_block.take(i_idx),
            )
        else:
            yield TestPair(
                index=i,
                dirty=dirty.subset(d_idx.tolist()),
                ideal=ideal.subset(i_idx.tolist()),
            )
