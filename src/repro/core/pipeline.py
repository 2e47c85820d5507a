"""Sharded pipeline — staged, backend-parallel maps over population shards.

The population build (generate -> inject -> identify_ideal) is a sequence of
per-series computations punctuated by global synchronisation points (the
event-window draw, the detector fit, the fixed-point test). This module owns
the generic machinery that fans the randomized per-series parts (generate
and inject) out:

* :func:`plan_shards` splits ``n`` items into contiguous index ranges — the
  *shard layout*. The layout is a pure performance knob: every per-item
  random stream is pre-spawned from the root seed by item index
  (:func:`repro.utils.rng.spawn_sequences`), so regrouping items into more
  or fewer shards can never change a single drawn number.
* :class:`ShardSpec` describes one shard — its index range plus the
  pre-spawned per-item seed sequences. Specs are plain picklable data.
* :class:`ShardedStage` pairs a picklable work function with a work-unit
  builder; :class:`Pipeline` runs stages through an
  :class:`~repro.core.executor.ExecutionBackend` and re-assembles per-item
  results in shard order.

Because backends preserve order and every work function is pure (all
randomness comes through the shard's own seed sequences), a pipeline run is
*bitwise identical* across the serial, thread and process backends — the
same contract the replication loop already honours.

The default shard size targets a few shards per worker (so stragglers level
out) and can be pinned with the ``REPRO_SHARD_SIZE`` environment variable
or a ``shard_size=`` argument at any entry point.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Generic, Optional, Sequence, TypeVar

import numpy as np

from repro.core.executor import (
    MIN_UNITS_ENV_VAR,
    ExecutionBackend,
    ProcessBackend,
    default_worker_count,
    resolve_backend,
)
from repro.errors import ExperimentError
from repro.utils.rng import Seed, spawn_sequences
from repro.utils.validation import check_positive_int

__all__ = [
    "SHARD_SIZE_ENV_VAR",
    "ShardSpec",
    "plan_shards",
    "build_shards",
    "ShardedStage",
    "Pipeline",
]

U = TypeVar("U")
R = TypeVar("R")

#: Environment variable pinning the shard size of every sharded stage.
SHARD_SIZE_ENV_VAR = "REPRO_SHARD_SIZE"

#: Target number of shards per worker; a few shards each lets fast workers
#: absorb a slow shard without idling (pure wall-clock tuning, never numbers).
_SHARDS_PER_WORKER = 4


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous slice ``[start, stop)`` of a population of items.

    ``seeds`` holds the pre-spawned per-item seed sequences for the slice
    (``seeds[i]`` belongs to item ``start + i``). Instances are small and
    picklable by design — they ride inside every process-backend work unit.
    """

    index: int
    start: int
    stop: int
    seeds: tuple[np.random.SeedSequence, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.start <= self.stop:
            raise ExperimentError(f"bad shard range [{self.start}, {self.stop})")
        if self.seeds and len(self.seeds) != self.n_items:
            raise ExperimentError(
                f"shard has {self.n_items} items but {len(self.seeds)} seeds"
            )

    @property
    def n_items(self) -> int:
        """Number of items in the shard."""
        return self.stop - self.start


def _exempt_from_small_batch_fallback(backend: ExecutionBackend) -> ExecutionBackend:
    """Disable the process backend's small-batch serial fallback for stages.

    The fallback threshold exists for streams of *cheap* work units (the
    replication loop's ~10-unit small-scale runs, where pool start-up
    dominates). Sharded stages are the opposite regime by construction:
    a handful of *coarse* shards, each seconds of generation/injection
    work, where the pool pays for itself — an item-count heuristic would
    silently serialise exactly the workload this module parallelises. An
    explicitly configured threshold (constructor ``min_units`` or the
    ``REPRO_PROCESS_MIN_UNITS`` variable) is respected as given.
    """
    if (
        type(backend) is ProcessBackend
        and backend.min_units is None
        and not os.environ.get(MIN_UNITS_ENV_VAR, "").strip()
    ):
        return ProcessBackend(
            n_workers=backend.n_workers,
            chunksize=backend.chunksize,
            start_method=backend.start_method,
            min_units=1,
        )
    return backend


def _resolve_shard_size(n_items: int, shard_size: Optional[int]) -> int:
    if shard_size is None:
        env = os.environ.get(SHARD_SIZE_ENV_VAR, "").strip()
        if env:
            try:
                shard_size = int(env)
            except ValueError:
                raise ExperimentError(
                    f"{SHARD_SIZE_ENV_VAR} must be an integer, got {env!r}"
                ) from None
    if shard_size is None:
        target = _SHARDS_PER_WORKER * default_worker_count()
        shard_size = max(1, math.ceil(n_items / target))
    return check_positive_int(shard_size, "shard_size")


def plan_shards(
    n_items: int, shard_size: Optional[int] = None
) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` ranges covering ``range(n_items)``.

    ``shard_size`` defaults to the ``REPRO_SHARD_SIZE`` environment variable
    and then to an even split targeting a few shards per available worker.
    The layout affects scheduling only — per-item seed streams make every
    layout produce identical numbers.
    """
    if n_items < 0:
        raise ExperimentError(f"n_items must be >= 0, got {n_items}")
    if n_items == 0:
        return []
    size = _resolve_shard_size(n_items, shard_size)
    return [(lo, min(lo + size, n_items)) for lo in range(0, n_items, size)]


def build_shards(
    n_items: int,
    seed: Seed = None,
    shard_size: Optional[int] = None,
) -> list[ShardSpec]:
    """Shard specs for ``n_items`` items with per-item streams from *seed*.

    All ``n_items`` child sequences are spawned up front and sliced into the
    shards, so item ``i`` receives the same stream no matter the layout.

    A sharded stage must say where its randomness comes from: ``seed=None``
    raises rather than silently spawning OS-entropy streams that would break
    the bitwise-determinism contract two layers up. Callers that genuinely
    want fresh entropy can pass ``numpy.random.default_rng()`` explicitly.
    """
    if seed is None:
        raise ExperimentError(
            "a sharded stage needs an explicit seed (int, SeedSequence or "
            "Generator); pass numpy.random.default_rng() for entropy"
        )
    bounds = plan_shards(n_items, shard_size)
    seeds = spawn_sequences(seed, n_items)
    return [
        ShardSpec(index=k, start=lo, stop=hi, seeds=tuple(seeds[lo:hi]))
        for k, (lo, hi) in enumerate(bounds)
    ]


class ShardedStage(Generic[U, R]):
    """One named stage of a sharded pipeline.

    Parameters
    ----------
    name:
        Stage label used in reprs and error messages.
    fn:
        The work function, mapping one work unit to the *list* of per-item
        results for its shard. Must be a module-level callable (picklable)
        for the process backend.
    make_unit:
        Builds the picklable work unit for one :class:`ShardSpec` —
        typically a frozen dataclass bundling the shard with the stage's
        configuration and input slice.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[U], Sequence[R]],
        make_unit: Callable[[ShardSpec], U],
    ):
        if not callable(fn) or not callable(make_unit):
            raise ExperimentError("fn and make_unit must be callable")
        self.name = name
        self.fn = fn
        self.make_unit = make_unit

    def units(self, shards: Sequence[ShardSpec]) -> list[U]:
        """The picklable work units for *shards*, in shard order."""
        return [self.make_unit(shard) for shard in shards]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardedStage({self.name!r})"


class Pipeline:
    """Runs sharded stages through one resolved execution backend.

    ``backend`` accepts anything :func:`~repro.core.executor.resolve_backend`
    does — a name (``"serial"``/``"thread"``/``"process:4"``), an
    :class:`~repro.core.executor.ExecutionBackend` instance, or ``None`` to
    defer to ``REPRO_BACKEND`` and fall back to serial.
    """

    def __init__(
        self,
        backend: Optional[object] = None,
        n_workers: Optional[int] = None,
        shard_size: Optional[int] = None,
    ):
        self.backend: ExecutionBackend = _exempt_from_small_batch_fallback(
            resolve_backend(backend, n_workers=n_workers)
        )
        self.shard_size = (
            check_positive_int(shard_size, "shard_size")
            if shard_size is not None
            else None
        )

    @classmethod
    def coerce(
        cls,
        backend: Optional[object] = None,
        n_workers: Optional[int] = None,
        shard_size: Optional[int] = None,
    ) -> "Pipeline":
        """Normalise any backend spec into a :class:`Pipeline`.

        A passed-in :class:`Pipeline` is reused; when an explicit
        ``shard_size`` disagrees with its own, a sibling on the same
        resolved backend is built so the argument is never silently
        dropped. ``n_workers`` cannot be applied to a pipeline's
        already-resolved backend, so that combination raises instead of
        being ignored. Everything else goes through the constructor. All
        sharded entry points coerce through here, so the precedence rule is
        one decision, not one per call site.
        """
        if isinstance(backend, cls):
            if n_workers is not None:
                raise ExperimentError(
                    "n_workers cannot be applied to an existing Pipeline; "
                    "construct the Pipeline with the desired worker count"
                )
            if shard_size is not None and shard_size != backend.shard_size:
                return cls(backend.backend, shard_size=shard_size)
            return backend
        return cls(backend, n_workers=n_workers, shard_size=shard_size)

    def shards(self, n_items: int, seed: Seed = None) -> list[ShardSpec]:
        """Shard specs for ``n_items`` under this pipeline's shard size."""
        return build_shards(n_items, seed=seed, shard_size=self.shard_size)

    def run_chunks(
        self, stage: ShardedStage[U, R], shards: Sequence[ShardSpec]
    ) -> list[list[R]]:
        """Evaluate *stage* over *shards*, returning per-shard result lists.

        Each shard's result list must have one entry per item; the check
        catches work functions that silently drop or duplicate items, which
        would desynchronise the downstream merge.
        """
        chunks = self.backend.map(stage.fn, stage.units(shards))
        out: list[list[R]] = []
        for shard, chunk in zip(shards, chunks):
            chunk = list(chunk)
            if len(chunk) != shard.n_items:
                raise ExperimentError(
                    f"stage {stage.name!r} returned {len(chunk)} results for "
                    f"shard {shard.index} of {shard.n_items} items"
                )
            out.append(chunk)
        return out

    def run(self, stage: ShardedStage[U, R], shards: Sequence[ShardSpec]) -> list[R]:
        """Evaluate *stage* over *shards*, flattened to per-item order."""
        return [r for chunk in self.run_chunks(stage, shards) for r in chunk]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Pipeline(backend={self.backend.name!r}, shard_size={self.shard_size})"
