"""Streaming slab feed — bounded, recomputable population chunks.

Section 3.1 frames the whole problem as a data-stream setting where "it is
often infeasible to store all the data". The materialised population build
(:func:`repro.experiments.config.build_population`) violates that premise on
purpose — it is the in-memory reference — and this module supplies the
out-of-core alternative the streaming engine runs on:

* :class:`SlabSource` is a **recipe** for one population shard: the node
  range, the per-series seed sequences of the generation and injection
  stages, and the centrally drawn event windows. A recipe is a few hundred
  bytes; materialising it (:func:`load_slab`) reproduces the shard's dirty
  series bit for bit, because every series is a pure function of its own
  pre-spawned stream — the same contract the sharded pipeline (PR 2) pins.
* A source can **spill**: the first materialisation writes the shard to one
  memory-mapped columnar file (:mod:`repro.store.shards`), and later passes
  stream it back as zero-copy views instead of recomputing — the classic
  out-of-core trade (disk for memory), with ``float64`` round-tripping
  exactly. Every shard file carries its recipe's fingerprint (hashed once
  per recipe, at plan time), and :func:`open_slab` refuses to serve a file
  whose fingerprint does not match the source in hand (a spill directory
  reused across configs or seeds regenerates and overwrites instead of
  silently serving the wrong population). A **disk budget** (``disk_budget=`` /
  ``REPRO_DISK_BUDGET``) bounds the store: over-budget shard files are
  evicted back to their seed recipes — free correctness-wise, because
  recipes round-trip bitwise.
* :class:`SlabFeed` plans the shard layout (reusing
  :class:`~repro.core.pipeline.Pipeline` / ``REPRO_SHARD_SIZE``), owns the
  spill directory, fans per-shard work across the execution backend, and
  serves the shards one at a time — as series, or cut into the
  :class:`~repro.data.window.StreamWindow` sequences a push service
  ingests.

Peak memory of any pass over a feed is O(one shard), never O(population).
"""

from __future__ import annotations

import os
import tempfile
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

import numpy as np

from repro.data.generator import (
    GenerationShard,
    GeneratorConfig,
    NetworkDataGenerator,
    generate_shard,
)
from repro.data.glitch_injection import (
    GlitchInjectionConfig,
    InjectionShard,
    _event_windows,
    inject_shard,
)
from repro.data.stream import TimeSeries
from repro.data.topology import NodeId
from repro.errors import StoreWarning, ValidationError
from repro.utils.rng import Seed, as_generator, snapshot_seed, spawn_sequences
from repro.utils.validation import check_int

if TYPE_CHECKING:
    from repro.store.shards import ShardHandle

__all__ = [
    "DISK_BUDGET_ENV_VAR",
    "SlabSource",
    "SlabFeed",
    "open_slab",
    "load_slab",
]

#: Environment variable bounding the spill store, in bytes (unset = unlimited).
DISK_BUDGET_ENV_VAR = "REPRO_DISK_BUDGET"


@dataclass(frozen=True)
class SlabSource:
    """Recipe for one contiguous shard ``[start, stop)`` of a dirty population.

    Everything needed to reproduce the shard's series exactly, on any
    backend, in any order: the stage configs, the node identities, the
    per-series seed sequences of both stages, and the shared event-window
    mask (global state, drawn once centrally). ``store_path`` names the
    shard's spill file; when the file exists, :func:`open_slab` streams it
    back instead of recomputing.
    """

    index: int
    start: int
    stop: int
    nodes: tuple[NodeId, ...]
    gen_config: GeneratorConfig
    gen_seeds: tuple[np.random.SeedSequence, ...]
    inj_config: GlitchInjectionConfig
    inj_seeds: tuple[np.random.SeedSequence, ...]
    events: np.ndarray
    store_path: Optional[str] = None

    @property
    def n_series(self) -> int:
        """Number of series in the shard."""
        return self.stop - self.start

    @cached_property
    def fingerprint(self) -> str:
        """The recipe's :func:`~repro.store.shards.recipe_fingerprint`.

        Hashed once per recipe: :class:`SlabFeed` computes it at plan time,
        and a pickled source carries it to process workers. Every
        :func:`open_slab` still compares it with the stored header.
        """
        from repro.store.shards import recipe_fingerprint

        return recipe_fingerprint(self)


def _materialize(source: SlabSource) -> list[TimeSeries]:
    """Generate and glitch the shard's series from their seed recipes."""
    from repro.core.pipeline import ShardSpec

    gen_unit = GenerationShard(
        config=source.gen_config,
        nodes=source.nodes,
        shard=ShardSpec(
            index=source.index,
            start=source.start,
            stop=source.stop,
            seeds=source.gen_seeds,
        ),
    )
    clean = generate_shard(gen_unit)
    inj_unit = InjectionShard(
        config=source.inj_config,
        series=tuple(clean),
        events=source.events,
        shard=ShardSpec(
            index=source.index,
            start=source.start,
            stop=source.stop,
            seeds=source.inj_seeds,
        ),
    )
    return [dirty for dirty, _record in inject_shard(inj_unit)]


def _rows(source: SlabSource) -> "ShardHandle":
    """Regenerate the shard from its seed recipes as an in-memory row
    segment (the layout a stored shard has)."""
    from repro.store.shards import ShardHandle

    series = _materialize(source)
    n_attrs = series[0].n_attributes if series else 0
    return ShardHandle(
        path=None,
        fingerprint=source.fingerprint,
        attributes=series[0].attributes if series else (),
        lengths=np.array([s.length for s in series], dtype=np.int64),
        values=(
            np.concatenate([s.values for s in series], axis=0)
            if series
            else np.empty((0, n_attrs))
        ),
        truth=(
            np.concatenate([s.truth for s in series], axis=0)
            if series and all(s.truth is not None for s in series)
            else None
        ),
    )


def _spill(source: SlabSource, shard: "ShardHandle") -> None:
    """Write the shard to its columnar spill file (atomic, fingerprinted;
    float64 round-trips exactly)."""
    from repro.store.shards import write_shard

    # The directory may have been cleaned up since planning (e.g. a second
    # run() of the same engine); spilling recreates it rather than crashing.
    os.makedirs(os.path.dirname(source.store_path), exist_ok=True)
    write_shard(
        source.store_path,
        lengths=shard.lengths,
        values=shard.values,
        truth=shard.truth,
        fingerprint=source.fingerprint,
        attributes=shard.attributes,
    )


def open_slab(source: SlabSource, spill: bool = False) -> "ShardHandle":
    """The shard's dirty rows as one series-concatenated segment — from the
    spill store when present, regenerated from the seed recipes otherwise
    (bitwise-identical either way).

    A stored shard is served only after its header fingerprint matches the
    recipe's (:attr:`SlabSource.fingerprint`), on every load: a stale or
    foreign file at ``store_path`` — a spill directory reused across
    configs or seeds, a legacy-format leftover, a torn write — is
    regenerated from the seed recipe and **overwritten**, never silently
    served. A stored shard's segments are read-only memory maps; a
    regenerated one is held in memory.

    With ``spill=True`` a regenerated shard is written to its store path so
    later passes stream instead of recompute; workers spill their own
    disjoint files atomically, so the write needs no coordination. A failed
    write (a full disk) is non-fatal: the shard is served from memory.
    """
    from repro.errors import StoreError
    from repro.store.shards import read_shard

    stale = False
    stale_reason = ""
    if source.store_path and os.path.exists(source.store_path):
        try:
            handle = read_shard(source.store_path)
        except StoreError as exc:
            stale = True  # torn/legacy/corrupt file: fall back to the recipe
            stale_reason = f"unreadable ({exc})"
        else:
            if handle.fingerprint == source.fingerprint:
                return handle
            stale = True  # right place, wrong population: regenerate
            stale_reason = "recipe fingerprint mismatch (stale or foreign population)"
    if stale:
        warnings.warn(
            f"regenerating slab {source.store_path!r} from its seed recipe: "
            f"{stale_reason}",
            StoreWarning,
            stacklevel=2,
        )
    shard = _rows(source)
    if source.store_path and (spill or stale):
        try:
            _spill(source, shard)
        except (OSError, StoreError) as exc:
            # Non-fatal: the shard is already in memory, so the pass keeps
            # its numbers; only the disk cache is missing, which later
            # passes will regenerate (eviction pressure stays unrelieved).
            warnings.warn(
                f"could not spill slab {source.store_path!r} ({exc}); serving "
                "the shard from its in-memory seed recipe instead",
                StoreWarning,
                stacklevel=2,
            )
    return shard


def load_slab(source: SlabSource, spill: bool = False) -> list[TimeSeries]:
    """The shard's dirty series: :func:`open_slab`'s rows as per-series
    views.

    Store-backed series are zero-copy views into the shard's memory-mapped
    segments (read-only; consumers that mutate must copy, as the gather and
    cleaning paths already do).
    """
    return open_slab(source, spill=spill).series(source.nodes)


def _resolve_disk_budget(disk_budget: Optional[int]) -> Optional[int]:
    """The spill-store bound in bytes: the argument, else
    ``REPRO_DISK_BUDGET``, else ``None`` (unlimited).

    A malformed value raises :class:`~repro.errors.ValidationError` — a
    budget that silently failed to apply would defeat its purpose.
    """
    if disk_budget is not None:
        return check_int(disk_budget, "disk_budget")
    raw = os.environ.get(DISK_BUDGET_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        budget = int(raw)
    except ValueError:
        raise ValidationError(
            f"{DISK_BUDGET_ENV_VAR} must be an integer byte count, got {raw!r}"
        ) from None
    return check_int(budget, DISK_BUDGET_ENV_VAR)


class SlabFeed:
    """Plans, materialises and streams one dirty population as bounded slabs.

    Parameters
    ----------
    generator_config, injection_config:
        The population recipe — the same configs
        :func:`~repro.experiments.config.build_population` takes.
    seed:
        Root seed; the feed derives its stage streams exactly as the
        materialised build does, so for equal ``(configs, seed)`` the fed
        series are bitwise-identical to the bundle's population.
    backend, n_workers, shard_size:
        Shard layout and execution backend, via
        :class:`~repro.core.pipeline.Pipeline` (``REPRO_BACKEND`` /
        ``REPRO_SHARD_SIZE`` apply). The layout is a pure performance knob.
    spill:
        Whether the first materialisation writes each shard to disk for
        later passes (default True). ``spill_dir`` pins the location; by
        default a private temp directory is created and removed by
        :meth:`cleanup` / the context manager.
    disk_budget:
        Spill-store bound in bytes (``None`` defers to the
        ``REPRO_DISK_BUDGET`` environment variable, unset = unlimited).
        After each streamed pass, over-budget shard files are evicted —
        oldest first — back to their seed recipes (:meth:`evict`); a later
        pass regenerates them bitwise, so the budget trades compute for
        disk and never changes a number.
    """

    def __init__(
        self,
        generator_config: Optional[GeneratorConfig] = None,
        injection_config: Optional[GlitchInjectionConfig] = None,
        seed: Seed = 0,
        backend: Optional[object] = None,
        n_workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        spill: bool = True,
        spill_dir: Optional[str] = None,
        disk_budget: Optional[int] = None,
    ):
        from repro.core.pipeline import Pipeline

        if isinstance(seed, np.random.Generator):
            raise ValidationError(
                "SlabFeed needs a replayable seed (int or SeedSequence); a "
                "live Generator cannot be re-derived across passes"
            )
        self.gen_config = generator_config or GeneratorConfig()
        self.inj_config = injection_config or GlitchInjectionConfig()
        # Snapshot: a SeedSequence's spawn counter mutates on use, and the
        # feed must derive the same stage streams an unspawned sequence
        # would, no matter what the caller spawned from it before.
        self.seed = snapshot_seed(seed)
        self.pipeline = Pipeline.coerce(
            backend, n_workers=n_workers, shard_size=shard_size
        )
        self.disk_budget = _resolve_disk_budget(disk_budget)
        self._owns_spill_dir = spill and spill_dir is None
        self.spill_dir = (
            (spill_dir or tempfile.mkdtemp(prefix="repro-slabs-")) if spill else None
        )
        self.n_evicted = 0
        self._plan()

    # -- planning ---------------------------------------------------------------

    def _plan(self) -> None:
        # Stage streams derived exactly like build_population: one child per
        # stage from the root seed, then per-series children by index.
        gen_seq, inject_seq = spawn_sequences(as_generator(self.seed), 2)
        generator = NetworkDataGenerator(self.gen_config, seed=gen_seq)
        shards, _stage = generator.generate_shards(self.pipeline)
        nodes = generator.topology.nodes
        self.n_series = len(nodes)

        cfg = self.gen_config
        if cfg.min_length == cfg.series_length:
            self.lengths = np.full(self.n_series, cfg.series_length, dtype=np.int64)
        else:
            # A series' length is the first draw of its own stream; reading
            # it from a fresh generator consumes nothing the real
            # materialisation will miss (SeedSequences only mutate on spawn).
            self.lengths = np.array(
                [
                    int(
                        np.random.default_rng(seq).integers(
                            cfg.min_length, cfg.series_length + 1
                        )
                    )
                    for shard in shards
                    for seq in shard.seeds
                ],
                dtype=np.int64,
            )
        self.max_length = int(self.lengths.max())
        self.uniform = bool((self.lengths == self.lengths[0]).all())

        # Injection global state and per-series streams, exactly as
        # GlitchInjector.inject_shards derives them.
        event_seq, series_root = spawn_sequences(as_generator(inject_seq), 2)
        events = _event_windows(
            self.inj_config, np.random.default_rng(event_seq), self.max_length
        )
        inj_seeds = spawn_sequences(series_root, self.n_series)

        self.sources: list[SlabSource] = [
            SlabSource(
                index=shard.index,
                start=shard.start,
                stop=shard.stop,
                nodes=tuple(nodes[shard.start : shard.stop]),
                gen_config=self.gen_config,
                gen_seeds=shard.seeds,
                inj_config=self.inj_config,
                inj_seeds=tuple(inj_seeds[shard.start : shard.stop]),
                events=events,
                store_path=(
                    os.path.join(self.spill_dir, f"slab-{shard.index:05d}.slab")
                    if self.spill_dir
                    else None
                ),
            )
            for shard in shards
        ]
        for source in self.sources:
            source.fingerprint  # hash each recipe once, here, not per load

    # -- fan-out ----------------------------------------------------------------

    def map(self, fn: Callable, items: Optional[Sequence] = None) -> list:
        """Evaluate *fn* over work items (default: the sources) on the
        feed's execution backend, preserving order. When a disk budget is
        set, over-budget shard files are evicted after the pass (between
        passes is the only safe point: no worker holds a tmp file open)."""
        out = self.pipeline.backend.map(
            fn, self.sources if items is None else items
        )
        if self.disk_budget is not None:
            self.evict()
        return out

    def iter_series(self, spill: bool = True) -> Iterator[tuple[SlabSource, list[TimeSeries]]]:
        """Serially yield ``(source, dirty series)`` per shard, one shard in
        memory at a time."""
        for source in self.sources:
            yield source, load_slab(source, spill=spill)
        if self.disk_budget is not None:
            self.evict()

    # -- stream windows ----------------------------------------------------------

    def iter_stream_windows(
        self, width: int, spill: bool = True
    ) -> "Iterator[StreamWindow]":
        """Yield every series' :class:`~repro.data.window.StreamWindow`
        sequence, shard by shard, in population and ``seq`` order.

        The feed→service bridge: each series is cut with
        :func:`~repro.data.window.cut_series_windows` (so seq-order
        concatenation reproduces it bitwise) and keyed by its population
        index, ready to be pushed at a
        :class:`~repro.service.session.MonitoringSession` — in this order,
        or any reordering/duplication of it. Works on ragged populations
        (the cut is per series; nothing is stacked).
        """
        from repro.data.window import cut_series_windows

        for source, series in self.iter_series(spill=spill):
            for offset, s in enumerate(series):
                yield from cut_series_windows(s, source.start + offset, width)

    # -- lifecycle ---------------------------------------------------------------

    def _shard_files(self) -> list[os.DirEntry]:
        """Completed shard files in the spill dir (tmp stragglers excluded)."""
        if not self.spill_dir or not os.path.isdir(self.spill_dir):
            return []
        with os.scandir(self.spill_dir) as it:
            return [
                entry
                for entry in it
                if entry.is_file() and ".tmp" not in entry.name
            ]

    def spilled_bytes(self) -> int:
        """Total size of the spill store on disk (0 when spilling is off).

        Counts only completed shard files: ``*.tmp*`` stragglers — the
        leftovers of a worker that died between writing its tmp file and
        publishing it with ``os.replace`` — are never part of the store and
        are excluded (and swept by :meth:`evict` / :meth:`cleanup`).
        """
        return sum(entry.stat().st_size for entry in self._shard_files())

    def sweep_tmp(self) -> int:
        """Remove orphan ``*.tmp*`` spill files; returns bytes freed.

        Only safe between passes — a live worker mid-spill holds its tmp
        file open, and :meth:`map` / :meth:`evict` / :meth:`cleanup` call
        this only from the coordinating process once a pass has completed.
        """
        if not self.spill_dir or not os.path.isdir(self.spill_dir):
            return 0
        freed = 0
        with os.scandir(self.spill_dir) as it:
            stragglers = [
                entry for entry in it if entry.is_file() and ".tmp" in entry.name
            ]
        for entry in stragglers:
            try:
                size = entry.stat().st_size
                os.unlink(entry.path)
                freed += size
            except OSError:  # pragma: no cover - raced by another sweeper
                continue
        return freed

    def evict(self, budget: Optional[int] = None) -> int:
        """Drop shard files back to their seed recipes until the store fits
        *budget* bytes (default: the feed's ``disk_budget``); returns bytes
        freed.

        Oldest files (by modification time) go first. Eviction is free
        correctness-wise — an evicted shard regenerates bitwise from its
        recipe on the next :func:`load_slab` — and also sweeps orphan
        ``*.tmp*`` stragglers, which never count toward the budget.
        """
        freed = self.sweep_tmp()
        if budget is None:
            budget = self.disk_budget
        if budget is None or not self.spill_dir:
            return freed
        entries = sorted(
            ((e.stat().st_mtime_ns, e.name, e.stat().st_size, e.path)
             for e in self._shard_files()),
        )
        total = sum(size for _, _, size, _ in entries)
        for _, _, size, path in entries:
            if total <= budget:
                break
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - raced by another evictor
                continue
            total -= size
            freed += size
            self.n_evicted += 1
        return freed

    def cleanup(self) -> None:
        """Remove the spill store if this feed owns it; sweep tmp stragglers
        out of an external (caller-owned) spill directory either way."""
        if self._owns_spill_dir and self.spill_dir and os.path.isdir(self.spill_dir):
            import shutil

            shutil.rmtree(self.spill_dir, ignore_errors=True)
        else:
            self.sweep_tmp()

    def __enter__(self) -> "SlabFeed":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SlabFeed(n_series={self.n_series}, shards={len(self.sources)}, "
            f"uniform={self.uniform}, spill={'on' if self.spill_dir else 'off'})"
        )
