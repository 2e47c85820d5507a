"""Statistical distortion — Definition 1 of the paper.

``S(C, D) = d(D, DC)``: the distributional distance between a data set and
its cleaned counterpart. Distortion is measured **against the dirty data**
("we measure distortion against the original, but calibrate cleanliness with
respect to the ideal", Section 1.1), pooling every time instant as one
``v``-tuple (Section 6.1) on the analysis scale of the experiment.

Distortion is computed per test pair, on each sampled replication's dirty
and treated data, so the pooled arrays stay replication-sized.
:func:`statistical_distortion_batch` is the one evaluation path: the block,
streaming-slab and push-service engines all score their strategy panels
through it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.data.block import SampleBlock
from repro.data.dataset import StreamDataset
from repro.distance.base import Distance
from repro.distance.emd import EarthMoverDistance
from repro.errors import DistanceError
from repro.glitches.detectors import ScaleTransform

__all__ = [
    "statistical_distortion",
    "statistical_distortion_batch",
]

#: Either layout of one replication sample.
Sample = Union[StreamDataset, SampleBlock]


def _pooled_analysis(
    sample: Sample,
    transform: Optional[ScaleTransform],
    keep_partial: bool = False,
) -> np.ndarray:
    """Analysis-scale rows of a data set or sample block.

    The block branch transforms the whole ``(n, T, v)`` tensor in place of
    per-series passes and reads the pooled matrix straight off the block
    columns; row order and every cell match the per-series pooling, so the
    downstream distances are bitwise-identical across layouts. Rows with a
    NaN are dropped by default (the complete-case semantics multivariate
    binning needs); ``keep_partial`` keeps them for distances with
    per-attribute NaN handling (KS).
    """
    dropna = "none" if keep_partial else "any"
    if isinstance(sample, SampleBlock):
        if transform is not None:
            sample = sample.with_values(
                transform.forward_values(sample.values, sample.attributes)
            )
        return sample.pooled(dropna)
    scaled = transform.apply_dataset(sample) if transform is not None else sample
    return scaled.pooled(dropna)


def statistical_distortion(
    dirty: Sample,
    treated: Sample,
    distance: Optional[Distance] = None,
    transform: Optional[ScaleTransform] = None,
) -> float:
    """Distance between the pooled empirical distributions of two data sets.

    Parameters
    ----------
    dirty:
        The untreated data set ``D`` (the reference distribution).
    treated:
        The cleaned data set ``DC``.
    distance:
        Any :class:`~repro.distance.base.Distance`; defaults to the paper's
        EMD.
    transform:
        Optional analysis-scale transform applied to both sides first (the
        log-attr1 experimental factor). Rows with missing values carry no
        mass and are dropped by the distance.
    """
    return statistical_distortion_batch(
        dirty, [treated], distance=distance, transform=transform
    )[0]


def statistical_distortion_batch(
    dirty: Sample,
    treated_seq: Sequence[Sample],
    distance: Optional[Distance] = None,
    transform: Optional[ScaleTransform] = None,
    pooled_reference: Optional[np.ndarray] = None,
) -> list[float]:
    """Distortion of many treated data sets against one dirty reference.

    The batched form of :func:`statistical_distortion` used by the
    experiment framework to score a whole strategy panel per replication:
    the dirty side is transformed and pooled exactly once, and distances
    that implement a cached ``pairwise`` path (the default EMD does) bin
    the reference once on a grid shared by all candidates instead of
    re-binning it per strategy. Returns one distortion per treated data
    set, in order. Either side may be a columnar
    :class:`~repro.data.block.SampleBlock` — its pooled rows are read
    straight off the block columns, bitwise-identical to the per-series
    pooling.

    **Shared-support semantics** (multivariate EMD): the grid spans the
    pooled union of the dirty sample and *every* treated candidate — the
    paper's "bins covering this support". All values within one panel are
    therefore computed on identical bins and are directly comparable to
    each other, but a candidate with an extreme range stretches the grid
    for the whole panel, so an individual value can shift slightly (within
    EMD's binning-insensitivity envelope) when the panel composition
    changes. For a panel-independent per-pair value, call
    :func:`statistical_distortion`, which covers only that pair's support.
    The exact univariate path bins nothing and is panel-independent either
    way.

    **NaN semantics** follow the distance's ``complete_case`` declaration:
    complete-case distances (the default — multivariate binning needs whole
    rows) see NaN-bearing rows dropped here; distances with per-attribute
    NaN handling (KS) receive the rows whole, so a cleaner that blanks one
    column still gets scored on the remaining attributes exactly as the
    distance's own documentation promises.

    *pooled_reference* short-circuits the dirty side: pass the array a prior
    call to ``_pooled_analysis(dirty, transform, keep_partial=...)`` (with
    the **same** transform and the distance's own ``complete_case``
    semantics) produced, and the reference is not re-pooled. The sweep
    planner's shared-frame evaluation uses this to pool each replication's
    dirty sample once across a whole group of strategy panels — the arrays
    are identical, so the distances are too.
    """
    distance = distance or EarthMoverDistance()
    keep_partial = not getattr(distance, "complete_case", True)
    p = (
        pooled_reference
        if pooled_reference is not None
        else _pooled_analysis(dirty, transform, keep_partial=keep_partial)
    )
    qs = [
        _pooled_analysis(t, transform, keep_partial=keep_partial)
        for t in treated_seq
    ]
    if p.shape[0] == 0 or any(q.shape[0] == 0 for q in qs):
        raise DistanceError("no complete records to compare")
    return [float(d) for d in distance.pairwise(p, qs)]
