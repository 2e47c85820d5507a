"""Columnar sample blocks — the contiguous fast-path representation.

A replication sample is ``B`` whole series of identical shape drawn with
replacement from one population (Section 2.1.1), and the experiment evaluates
R x B x |strategies| of them. Object-at-a-time ``TimeSeries`` loops pay Python
overhead per series; :class:`SampleBlock` stores the same sample as **one**
``(n_series, T, v)`` float tensor plus shared attribute metadata and a
series-index vector, so cleaning, annotation and scoring can run as whole-
block array programs (cf. the columnar scan-sharing lessons the database
literature draws for exactly this repeated-small-matrix workload).

The block is an alternative *layout*, never an alternative *semantics*:
``StreamDataset.to_block()`` / ``StreamDataset.from_block()`` round-trip
losslessly, ``from_block`` hands out zero-copy ``TimeSeries`` views into the
block tensor, and every block-level operation in the library is contractually
bitwise-identical to its per-series counterpart (enforced by
``tests/test_block_strategies.py``).

Blocks require a uniform series length: uniform populations always take the
block path, and ragged populations take the per-series path, which also
serves the tests as the reference the block path must match.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.data.topology import NodeId
from repro.errors import DataShapeError, ValidationError
from repro.utils.rows import complete_rows, rows_all

__all__ = ["CHUNK_SERIES", "SampleBlock"]

#: Series per padded chunk, the unit of every per-series block pass: the
#: population build computes and the identification passes score one
#: ``(n, T, v)`` chunk at a time. Bounds each pass's temporaries at a few MB
#: (512 x 170 x 3 float64 is 2 MB) whatever the population size.
CHUNK_SERIES = 512


class SampleBlock:
    """A uniform-shape sample as one contiguous ``(n, T, v)`` tensor.

    Parameters
    ----------
    values:
        ``(n_series, T, v)`` float array; NaN marks missing entries.
    attributes:
        Names of the ``v`` attributes, shared by every series.
    nodes:
        The :class:`~repro.data.topology.NodeId` of each series, in order.
    truth:
        Optional ``(n_series, T, v)`` pre-glitch ground truth (present only
        when every member series carries one).
    indices:
        ``(n_series,)`` series-index vector: which parent-population series
        each row was drawn from (repeats allowed — sampling is with
        replacement). Defaults to ``arange(n_series)``.
    """

    __slots__ = ("values", "attributes", "nodes", "truth", "indices")

    def __init__(
        self,
        values: np.ndarray,
        attributes: Sequence[str],
        nodes: Sequence[NodeId],
        truth: Optional[np.ndarray] = None,
        indices: Optional[np.ndarray] = None,
    ):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3:
            raise DataShapeError(
                f"values must be (n, T, v), got shape {values.shape}"
            )
        attributes = tuple(attributes)
        if len(attributes) != values.shape[2]:
            raise DataShapeError(
                f"got {len(attributes)} attribute names for {values.shape[2]} columns"
            )
        nodes = tuple(nodes)
        if len(nodes) != values.shape[0]:
            raise DataShapeError(
                f"got {len(nodes)} nodes for {values.shape[0]} series"
            )
        if truth is not None:
            truth = np.asarray(truth, dtype=float)
            if truth.shape != values.shape:
                raise DataShapeError(
                    f"truth shape {truth.shape} does not match values shape {values.shape}"
                )
        if indices is None:
            indices = np.arange(values.shape[0], dtype=np.intp)
        else:
            indices = np.asarray(indices, dtype=np.intp)
            if indices.shape != (values.shape[0],):
                raise DataShapeError(
                    f"indices must be ({values.shape[0]},), got {indices.shape}"
                )
        self.values = values
        self.attributes = attributes
        self.nodes = nodes
        self.truth = truth
        self.indices = indices

    # -- shape -----------------------------------------------------------------

    @property
    def n_series(self) -> int:
        """Number of member series ``n`` (``B`` for a replication sample)."""
        return int(self.values.shape[0])

    @property
    def length(self) -> int:
        """Shared number of time steps ``T``."""
        return int(self.values.shape[1])

    @property
    def n_attributes(self) -> int:
        """Number of attributes ``v``."""
        return int(self.values.shape[2])

    def __len__(self) -> int:
        return self.n_series

    def attribute_index(self, name: str) -> int:
        """Column index of attribute *name* (raises ``KeyError`` if absent)."""
        try:
            return self.attributes.index(name)
        except ValueError:
            raise KeyError(
                f"unknown attribute {name!r}; have {self.attributes}"
            ) from None

    # -- masks -----------------------------------------------------------------

    @property
    def missing_mask(self) -> np.ndarray:
        """Boolean ``(n, T, v)`` mask of not-populated cells."""
        return np.isnan(self.values)

    # -- derivation ------------------------------------------------------------

    def take(self, indices: Sequence[int]) -> "SampleBlock":
        """A new block of the series at *indices* (repeats allowed).

        This is the block analogue of ``StreamDataset.subset``: one C-level
        gather into a fresh contiguous tensor instead of per-series object
        work — the shape replication sampling uses to draw ``Di`` from ``D``.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1 or idx.size == 0:
            raise ValidationError("take needs at least one index")
        n = self.n_series
        if idx.size and (int(idx.min()) < -n or int(idx.max()) >= n):
            raise ValidationError(f"index out of range for {n} series")
        return SampleBlock(
            values=self.values[idx],
            attributes=self.attributes,
            nodes=tuple(self.nodes[int(i)] for i in idx),
            truth=None if self.truth is None else self.truth[idx],
            indices=self.indices[idx],
        )

    def copy(self) -> "SampleBlock":
        """Deep copy of the value tensor (truth/metadata shared: never mutated)."""
        return SampleBlock(
            values=self.values.copy(),
            attributes=self.attributes,
            nodes=self.nodes,
            truth=self.truth,
            indices=self.indices,
        )

    def with_values(self, values: np.ndarray) -> "SampleBlock":
        """A new block with replaced values and shared metadata."""
        return SampleBlock(
            values=values,
            attributes=self.attributes,
            nodes=self.nodes,
            truth=self.truth,
            indices=self.indices,
        )

    # -- pooling ---------------------------------------------------------------

    def pooled(self, dropna: str = "none") -> np.ndarray:
        """Stack every time instant of every series into an ``(N, v)`` array.

        Row order matches ``StreamDataset.pooled`` exactly (series-major,
        time-minor), so distances computed from block columns are bitwise
        identical to the per-series pooling path.
        """
        if dropna not in ("none", "any", "all"):
            raise ValidationError(f"dropna must be none/any/all, got {dropna!r}")
        stacked = self.values.reshape(-1, self.n_attributes)
        if dropna == "any":
            return complete_rows(stacked)
        if dropna == "all":
            return stacked[~rows_all(np.isnan(stacked))]
        return stacked

    # -- pickling (``__slots__`` has no instance dict) ---------------------------

    def __getstate__(self):
        return (self.values, self.attributes, self.nodes, self.truth, self.indices)

    def __setstate__(self, state) -> None:
        values, attributes, nodes, truth, indices = state
        self.values = values
        self.attributes = attributes
        self.nodes = nodes
        self.truth = truth
        self.indices = indices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SampleBlock(n={self.n_series}, T={self.length}, "
            f"v={self.n_attributes}, truth={'yes' if self.truth is not None else 'no'})"
        )
