"""The streaming slab engine — the full experiment, out of core.

The materialised path builds one :class:`PopulationBundle` (every series,
ledger and mask in memory at once) and samples replications from it. This
module runs the *same* experiment — generate → inject →
identify_ideal → sample replications → clean → score — over bounded
:mod:`slab <repro.data.slab>` passes instead, so peak memory is O(one shard)
plus O(what the replications actually touch), never O(population):

* the **fixed-point split** (Section 2.1.2's ideal-set identification)
  re-streams the spilled shards once per round, reading padded chunk views
  of each shard's row segment: cleanliness verdicts come back as a few
  floats per series, and the 3-sigma fit pools one attribute's ideal
  column at a time;
* **replication sampling** draws the exact per-replication index streams of
  :func:`~repro.sampling.replication.replication_index_streams` first, and
  then gathers only the union of touched series — at most ``2 x R x B``
  distinct of them, independent of the population size — into a
  :class:`~repro.sampling.replication.ParentGather`
  (:func:`~repro.core.incremental.replication_pairs`, the pair source the
  push service shares).

The engine is contractually **bitwise-identical** to the in-memory path:
every per-series random stream is pre-spawned by index (the PR 2 contract),
the sigma fit replays the exact pooled-column arithmetic, and replications
are drawn by the block path's own per-draw loop from gathers that hold the
touched series instead of every series — ``tests/test_streaming.py``
pins outcome equality across the serial, thread and process backends.
Select the engine with ``ExperimentConfig(streaming=True)`` or
``REPRO_STREAM=1`` (see :func:`streaming_enabled`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.cleaning.base import CleaningStrategy
from repro.core.executor import resolve_backend
from repro.core.framework import (
    ExperimentConfig,
    ExperimentResult,
    run_pair_panels_stream,
)
from repro.core.glitch_index import GlitchWeights
from repro.data.generator import GeneratorConfig
from repro.data.glitch_injection import GlitchInjectionConfig
from repro.data.slab import SlabFeed, SlabSource, open_slab
from repro.data.stream import TimeSeries
from repro.distance.base import Distance
from repro.errors import ValidationError
from repro.core.incremental import (
    RowChunk,
    cleanliness_fractions,
    fit_sigma_limits,
    identify_fixed_point,
    ideal_column,
    outlier_fractions,
    replication_pairs,
    segment_chunks,
    split_verdicts,
)
from repro.glitches.constraints import ConstraintSet, paper_constraints
from repro.glitches.detectors import DetectorSuite, ScaleTransform, SigmaLimits
from repro.sampling.replication import TestPair
from repro.testing.faults import inject_fault
from repro.utils.rng import Seed
from repro.utils.validation import check_fraction, env_flag

__all__ = [
    "STREAM_ENV_VAR",
    "streaming_enabled",
    "StreamingExperiment",
    "StreamingResult",
]

#: Environment variable selecting the streaming engine (``1``/``on`` enable).
STREAM_ENV_VAR = "REPRO_STREAM"


def streaming_enabled(config: Optional[ExperimentConfig] = None) -> bool:
    """Whether the streaming slab engine is selected.

    An explicit ``ExperimentConfig(streaming=...)`` wins; ``None`` defers to
    the ``REPRO_STREAM`` environment variable; the default is the in-memory
    path. Either choice computes identical numbers — streaming changes the
    memory profile, never the outcomes.
    """
    if config is not None and config.streaming is not None:
        return bool(config.streaming)
    return env_flag(STREAM_ENV_VAR, default=False)


# ---------------------------------------------------------------------------
# Per-shard work units (module-level and frozen: they ship to process pools)
# ---------------------------------------------------------------------------


def _shard_chunks(
    source: SlabSource, spill: bool = False, keep: Optional[np.ndarray] = None
) -> Iterator[RowChunk]:
    """The shard's padded chunks, cut straight from its row segment."""
    shard = open_slab(source, spill=spill)
    return segment_chunks(shard.values, shard.lengths, shard.attributes, keep)


@dataclass(frozen=True)
class _ProfileSpec:
    """Round-0 pass: spill + the suite-independent cleanliness fractions."""

    constraints: ConstraintSet


def _profile_slab(spec: _ProfileSpec, source: SlabSource) -> tuple[np.ndarray, np.ndarray]:
    """Per-series record-level missing/inconsistent fractions of one shard
    (computed once, reused by every fixed-point round)."""
    inject_fault("unit")
    return cleanliness_fractions(_shard_chunks(source, spill=True), spec.constraints)


@dataclass(frozen=True)
class _OutlierSpec:
    """Per-round pass: outlier record fractions under the current suite."""

    suite: DetectorSuite


def _outlier_slab(spec: _OutlierSpec, source: SlabSource) -> np.ndarray:
    inject_fault("unit")
    return outlier_fractions(_shard_chunks(source), spec.suite)


@dataclass(frozen=True)
class _ColumnSpec:
    """Fit pass: one attribute's analysis-scale ideal column, shard by shard."""

    transform: Optional[ScaleTransform]
    attr_index: int


def _column_slab(spec: _ColumnSpec, unit: tuple[SlabSource, np.ndarray]) -> np.ndarray:
    """The shard's slice of the pooled ideal column: one padded-block
    :func:`~repro.core.incremental.ideal_column` pass over its
    ideal-verdict series.

    The elementwise transform and the NaN drop both commute with
    concatenation, so the coordinator's concatenated column is
    bitwise-identical to pooling the materialised ideal data set.
    """
    inject_fault("unit")
    source, keep = unit
    return ideal_column(
        _shard_chunks(source, keep=keep), spec.attr_index, spec.transform
    )


def _gather_slab(
    needed: frozenset, source: SlabSource
) -> list[tuple[int, TimeSeries]]:
    """``(population index, series)`` for the shard's series in *needed*,
    in shard order.

    Only those series' rows are copied out of the segment: store-backed
    rows are views into the whole shard's mapping, and keeping a view
    would pin the shard — exactly the O(population) retention the gather
    exists to avoid.
    """
    inject_fault("unit")
    shard = open_slab(source)
    bounds = np.concatenate([[0], np.cumsum(shard.lengths)])
    attributes = shard.attributes or None
    kept: list[tuple[int, TimeSeries]] = []
    for offset, idx in enumerate(range(source.start, source.stop)):
        if idx in needed:
            rows = slice(bounds[offset], bounds[offset + 1])
            kept.append(
                (
                    idx,
                    TimeSeries(
                        source.nodes[offset],
                        np.array(shard.values[rows]),
                        attributes,
                        None if shard.truth is None else np.array(shard.truth[rows]),
                    ),
                )
            )
    return kept


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


def _int_seeded(config: ExperimentConfig) -> ExperimentConfig:
    """*config*, if its seed is an int.

    The in-memory path consumes a shared SeedSequence/Generator config seed
    in lazy spawn order (strategy seeds first, pair draws second); the
    engine draws pairs eagerly, so only the disjoint int derivation (seed
    vs seed + 1) replays identically.
    """
    if not isinstance(config.seed, int):
        raise ValidationError(
            "streaming identity requires an int ExperimentConfig.seed; "
            "SeedSequence/Generator seeds are consumed order-dependently "
            "by the in-memory replication loop"
        )
    return config


@dataclass
class StreamingResult:
    """Everything one streaming run produced.

    ``result`` is the ordinary :class:`ExperimentResult` —
    outcome-for-outcome identical to the in-memory path. The rest is the
    engine's bounded population summary: the dirty/ideal split, the fitted
    suite, and the store's traffic.
    """

    result: ExperimentResult
    n_series: int
    dirty_indices: list[int]
    ideal_indices: list[int]
    suite: DetectorSuite
    n_gathered: int
    n_store_passes: int
    spilled_bytes: int
    n_evicted: int = 0

    @property
    def outcomes(self):
        """The outcome list (shorthand for ``result.outcomes``)."""
        return self.result.outcomes


class StreamingExperiment:
    """Runs the full experiment over a :class:`~repro.data.slab.SlabFeed`.

    Parameters
    ----------
    generator_config, injection_config, seed:
        The population recipe — identical to what
        :func:`~repro.experiments.config.build_population` would take; for
        equal inputs the engine's outcomes equal the materialised path's bit
        for bit.
    config:
        The :class:`ExperimentConfig` of the replication loop.
    constraints, transform, k, max_fraction, max_iter:
        The ideal-identification parameters (same defaults as
        :func:`~repro.glitches.detectors.identify_ideal`).
    backend, n_workers, shard_size:
        Execution backend and shard layout for every streamed pass (and the
        replication evaluation, whose resolved backend is
        ``eval_backend``); a pure wall-clock knob.
    spill, spill_dir, disk_budget:
        Whether/where shards spill to disk after the first materialisation;
        with spilling off every pass regenerates from the seed recipes
        (same numbers, more compute, zero disk). Spilled shards are
        fingerprinted columnar store files (:mod:`repro.store.shards`)
        served back as zero-copy memory-mapped views; ``disk_budget``
        bounds the store in bytes (``REPRO_DISK_BUDGET`` applies when
        ``None``), evicting over-budget shards back to their recipes
        between passes — a pure disk/compute trade, never a numbers
        change.
    """

    def __init__(
        self,
        generator_config: Optional[GeneratorConfig] = None,
        injection_config: Optional[GlitchInjectionConfig] = None,
        seed: Seed = 0,
        config: Optional[ExperimentConfig] = None,
        constraints: Optional[ConstraintSet] = None,
        transform: Optional[ScaleTransform] = None,
        k: float = 3.0,
        max_fraction: float = 0.05,
        max_iter: int = 3,
        backend: Optional[object] = None,
        n_workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        spill: bool = True,
        spill_dir: Optional[str] = None,
        disk_budget: Optional[int] = None,
    ):
        if max_iter < 1:
            raise ValidationError("max_iter must be >= 1")
        self.config = _int_seeded(config or ExperimentConfig())
        self.constraints = (
            constraints if constraints is not None else paper_constraints()
        )
        self.transform = transform
        self.k = k
        self.max_fraction = check_fraction(max_fraction, "max_fraction")
        self.max_iter = max_iter
        # The ExperimentConfig backend knob applies here exactly as it does
        # to ExperimentRunner: an explicit argument wins, then the config's
        # backend/n_workers, then REPRO_BACKEND (inside Pipeline.coerce).
        if backend is None:
            backend = self.config.backend
        if n_workers is None:
            n_workers = self.config.n_workers
        # The replication evaluation resolves its backend separately: the
        # feed's Pipeline exempts coarse shard passes from the process
        # backend's small-batch fallback, but the pair units are exactly the
        # cheap stream that fallback protects (matching ExperimentRunner).
        from repro.core.executor import ProcessBackend
        from repro.core.pipeline import Pipeline as _Pipeline

        if isinstance(backend, _Pipeline):
            eval_backend = backend.backend
            if type(eval_backend) is ProcessBackend:
                # Undo the pipeline's coarse-stage exemption for pair
                # evaluation: rebuild a sibling with the default threshold.
                eval_backend = ProcessBackend(
                    n_workers=eval_backend.n_workers,
                    chunksize=eval_backend.chunksize,
                    start_method=eval_backend.start_method,
                )
            self.eval_backend = eval_backend
        else:
            self.eval_backend = resolve_backend(backend, n_workers=n_workers)
        self.feed = SlabFeed(
            generator_config,
            injection_config,
            seed=seed,
            backend=backend,
            n_workers=n_workers,
            shard_size=shard_size,
            spill=spill,
            spill_dir=spill_dir,
            disk_budget=disk_budget,
        )
        self._store_passes = 0
        self._identified: Optional[tuple[np.ndarray, DetectorSuite]] = None

    @classmethod
    def from_scale(cls, scale: str = "small", seed: Seed = 0, **kwargs) -> "StreamingExperiment":
        """An engine for one of the named scale presets (tiny/small/paper)."""
        from repro.experiments.config import SCALES, experiment_config
        from repro.errors import ExperimentError

        if scale not in SCALES:
            raise ExperimentError(
                f"scale must be one of {sorted(SCALES)}, got {scale!r}"
            )
        kwargs.setdefault("config", experiment_config(scale))
        return cls(
            generator_config=SCALES[scale].generator, seed=seed, **kwargs
        )

    # -- streamed passes --------------------------------------------------------

    def _map(self, fn, items=None) -> list:
        self._store_passes += 1
        return self.feed.map(fn, items)

    def _shard_units(self, per_series: np.ndarray) -> list:
        """Zip every source with its slice of a per-series array."""
        return [
            (source, per_series[source.start : source.stop])
            for source in self.feed.sources
        ]

    def _gather(self, needed: frozenset) -> dict[int, TimeSeries]:
        """One store pass keeping only the series in *needed*."""
        chunks = self._map(partial(_gather_slab, needed))
        return {idx: s for kept in chunks for idx, s in kept}

    def _fit_limits(self, verdicts: np.ndarray) -> SigmaLimits:
        """The 3-sigma fit on the current ideal set, one attribute at a time.

        Peak memory is one attribute's pooled ideal column — the engine
        never holds the ideal *data set*. The concatenated column replays
        ``StreamDataset.pooled_column`` exactly (see :func:`_column_slab`),
        so the limits are bitwise-identical to
        ``SigmaLimits.from_dataset(scaled_ideal, k=k)``.
        """
        def columns(j: int, attr: str) -> list[np.ndarray]:
            spec = _ColumnSpec(transform=self.transform, attr_index=j)
            return self._map(partial(_column_slab, spec), self._shard_units(verdicts))

        return fit_sigma_limits(self.attributes, columns, self.k)

    def identify(self) -> tuple[np.ndarray, DetectorSuite]:
        """Stream the ideal-set / outlier-limit fixed point.

        Drives :func:`~repro.core.incremental.identify_fixed_point`, the
        loop the block path and the push service share, with every pass
        fanned over the feed's backend as one padded-block kernel pass per
        shard, and nothing retained beyond verdicts and a handful of floats
        per series. Each pass reads the shard's stored row segment and cuts
        its chunks straight from it (:func:`_shard_chunks`): no per-series
        objects are rebuilt and no rows are re-packed.

        The fixed point is a pure function of the population recipe and the
        identification parameters (all fixed at construction), so it is
        memoised: repeated :meth:`run` calls on one engine — the sweep
        planner evaluates every cell of a shared-recipe group through one
        engine — pay the identification passes once.
        """
        if self._identified is not None:
            return self._identified
        if not hasattr(self, "attributes"):
            # Peek one shard for the attribute schema (it spills for reuse).
            self.attributes = open_slab(self.feed.sources[0], spill=True).attributes
        profile = self._map(partial(_profile_slab, _ProfileSpec(self.constraints)))
        miss = np.concatenate([m for m, _ in profile])
        inc = np.concatenate([i for _, i in profile])
        verdicts, suite = identify_fixed_point(
            miss,
            inc,
            self.constraints,
            self.transform,
            fit_limits=self._fit_limits,
            outlier_fractions=lambda suite: np.concatenate(
                self._map(partial(_outlier_slab, _OutlierSpec(suite)))
            ),
            max_fraction=self.max_fraction,
            max_iter=self.max_iter,
        )
        self._identified = (verdicts, suite)
        return verdicts, suite

    # -- the full run -----------------------------------------------------------

    def replication_pairs(
        self, config: Optional[ExperimentConfig] = None
    ) -> tuple[Iterator[TestPair], int]:
        """The lazy replication pairs of one config, and the number of
        series gathered for them.

        Identifies the population (memoised), draws the index streams and
        gathers just the touched series in one store pass
        (:func:`~repro.core.incremental.replication_pairs`). *config*
        overrides the engine's replication config; the population recipe
        and identification parameters stay fixed, so the sweep planner
        draws every frame group of a shared-recipe group from one engine.
        """
        cfg = self.config if config is None else _int_seeded(config)
        dirty_idx, ideal_idx = split_verdicts(self.identify()[0])
        return replication_pairs(
            dirty_idx, ideal_idx, self.feed.lengths, self._gather, cfg
        )

    def run(
        self,
        strategies: Sequence[CleaningStrategy],
        distance: Optional[Distance] = None,
        weights: Optional[GlitchWeights] = None,
        constraints: Optional[ConstraintSet] = None,
        cleanup: bool = True,
    ) -> StreamingResult:
        """Run the whole experiment out of core.

        *constraints* here are the evaluation-time rules (defaulting to the
        paper's, like :class:`~repro.core.framework.ExperimentRunner`);
        the identification-time rules were fixed at construction.
        *distance* is any :class:`~repro.distance.base.Distance` instance;
        ``None`` defers to the config's ``distance`` selector and then the
        paper's EMD — the same resolution the in-memory runner applies, so
        KL/JS/KS-scored streaming runs stay bitwise-identical to their
        block-path counterparts. Pass ``cleanup=False`` to keep the
        spilled shards for a later call.
        """
        try:
            pairs, n_gathered = self.replication_pairs()
            result = run_pair_panels_stream(
                pairs,
                [strategies],
                config=self.config,
                distances=[distance],
                weights=weights,
                constraints=constraints,
                backend=self.eval_backend,
            )[0]
            verdicts, suite = self.identify()
            dirty_idx, ideal_idx = split_verdicts(verdicts)
            return StreamingResult(
                result=result,
                n_series=self.feed.n_series,
                dirty_indices=dirty_idx,
                ideal_indices=ideal_idx,
                suite=suite,
                n_gathered=n_gathered,
                n_store_passes=self._store_passes,
                spilled_bytes=self.feed.spilled_bytes(),
                n_evicted=self.feed.n_evicted,
            )
        finally:
            if cleanup:
                self.feed.cleanup()
