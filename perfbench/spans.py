"""Span tracing of the library's layer boundaries, installed from outside.

The benchmark never edits ``src/``: a :class:`Tracer` replaces public
functions and methods of each layer with timing wrappers for the duration
of a traced run and restores the originals afterwards. A function imported
by name into other ``repro`` modules is replaced there too, so every call
site reaches the wrapper.

Each call through a wrapper records one span ``(name, start, end, parent)``.
A span nested inside a span of the same name (``generate`` calling
``generate_shard``) is counted as a call but not recorded again, so a
metric's total never counts the same wall time twice. Self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

PAPER_STRATEGIES = tuple(f"strategy{i}" for i in range(1, 6))


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: Closed spans: ``[name, start, end, parent_index]``.
        self.spans: list[list] = []
        #: Per-name call counts, including calls suppressed as nested.
        self.calls: Counter = Counter()
        #: Free-form counters filled by the ``after`` hooks.
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> Optional[int]:
        self.calls[name] += 1
        if self._active[name]:
            return None
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._active[name] += 1
        return index

    def _close(self, index: Optional[int]) -> None:
        if index is None:
            return
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._active[span[0]] -= 1

    def wrap(self, name, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """A wrapper recording a span around every call of *fn*.

        *name* is the span name, or a callable of the call's arguments
        returning it (``None`` skips the span). *after* is called as
        ``after(result, *args, **kwargs)`` to update counters. A generator
        result is wrapped so each ``next()`` is a span of its own: lazily
        materialised work is timed where it happens.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            if span_name is None:
                return fn(*args, **kwargs)
            index = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(result, *args, **kwargs)
            if hasattr(result, "__next__") and hasattr(result, "send"):
                return tracer._timed_iter(span_name, result)
            return result

        return wrapper

    def _timed_iter(self, name: str, iterator):
        while True:
            index = self._open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(index)
            yield item

    # -- patching ------------------------------------------------------------

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr = new``, remembering what to put back."""
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, new)

    def patch_function(self, module, attr: str, name, after=None) -> None:
        """Wrap ``module.attr`` and every ``repro`` module alias of it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, after)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name, after=None) -> None:
        """Wrap the method ``cls.attr`` (an inherited one included)."""
        self.replace(cls, attr, self.wrap(name, getattr(cls, attr), after))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction -----------------------------------------------------------

    def totals(self) -> dict[str, tuple[float, float]]:
        """``{name: (inclusive seconds, self seconds)}``."""
        child_time: dict[int, float] = defaultdict(float)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list[float]] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(name, [0.0, 0.0])
            row[0] += end - start
            row[1] += end - start - child_time[index]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def table(self) -> str:
        """The per-name totals as a text table, sorted by self time."""
        rows = sorted(self.totals().items(), key=lambda kv: -kv[1][1])
        lines = [f"  {'span':<28} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
        for name, (total, own) in rows:
            lines.append(
                f"  {name:<28} {self.calls[name]:>8} {total:>10.4f} {own:>10.4f}"
            )
        return "\n".join(lines)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    Call after the workload's set-up, so every lazily imported ``repro``
    module is loaded and its by-name aliases are patched too.
    """
    from repro.cleaning.base import CompositeStrategy
    from repro.core import distortion, framework, incremental
    from repro.core.executor import SerialBackend
    from repro.core.streaming import StreamingExperiment
    from repro.data import generator, glitch_injection
    from repro.distance import transport
    from repro.experiments.config import PopulationBundle
    from repro.glitches import detectors
    from repro.sampling import replication
    from repro.service.session import MonitoringSession
    from repro.store import shards
    from repro.store.catalog import Catalog

    counters = tracer.counters

    def shard_built(_result, unit) -> None:
        counters[("shard", unit.shard.index)] += 1

    def bytes_written(_result, path, *args, **kwargs) -> None:
        counters["store.bytes_written"] += os.path.getsize(path)

    def catalog_lookup(result, *args, **kwargs) -> None:
        counters["catalog.hits" if result is not None else "catalog.misses"] += 1

    def strategy_span(strategy, *args, **kwargs) -> Optional[str]:
        name = strategy.name
        return f"cleaning.{name}" if name in PAPER_STRATEGIES else None

    serial_map = SerialBackend.map

    def counted_map(self, fn, items):
        def unit(item):
            counters["executor.units"] += 1
            return fn(item)

        return serial_map(self, unit, items)

    tracer.patch_method(generator.NetworkDataGenerator, "generate", "data.generate")
    tracer.patch_function(generator, "generate_shard", "data.generate", shard_built)
    tracer.patch_method(glitch_injection.GlitchInjector, "inject", "data.inject")
    tracer.patch_function(glitch_injection, "inject_shard", "data.inject")
    tracer.patch_function(detectors, "identify_ideal", "glitches.identify")
    tracer.patch_function(detectors, "partition_by_cleanliness", "glitches.partition")
    tracer.patch_method(detectors.DetectorSuite, "annotate", "glitches.annotate")
    tracer.patch_method(
        detectors.DetectorSuite, "annotate_block", "glitches.annotate_block"
    )
    tracer.patch_function(replication, "generate_test_pairs", "sampling.pairs")
    tracer.patch_function(incremental, "iter_test_pairs", "sampling.pairs")
    tracer.patch_method(CompositeStrategy, "clean_block", strategy_span)
    tracer.patch_function(framework, "evaluate_pair_panels", "framework.pair")
    tracer.patch_function(
        distortion, "statistical_distortion_batch", "distortion.batch"
    )
    tracer.patch_function(transport, "solve_transport_batch", "distance.solve")
    tracer.patch_method(StreamingExperiment, "identify", "streaming.identify")
    tracer.patch_function(
        incremental, "identify_fixed_point", "incremental.fixed_point"
    )
    tracer.patch_function(shards, "write_shard", "store.write", bytes_written)
    tracer.patch_function(shards, "read_shard", "store.read")
    tracer.patch_method(Catalog, "get_outcome", "catalog.get", catalog_lookup)
    tracer.patch_method(Catalog, "put_outcome", "catalog.put")
    tracer.patch_method(PopulationBundle, "content_key", "catalog.key")
    tracer.patch_method(
        incremental.WindowJournal, "assemble", "service.assemble"
    )
    tracer.patch_method(MonitoringSession, "identify", "service.identify")
    tracer.replace(SerialBackend, "map", counted_map)


def layer_metrics(tracer: Tracer, n_series: int) -> dict[str, float]:
    """The per-layer metrics a traced unit produced, by metric name."""
    totals = tracer.totals()
    calls = tracer.calls
    counters = tracer.counters

    def seconds(name: str) -> float:
        return totals.get(name, (0.0, 0.0))[0]

    builds = [n for key, n in counters.items() if isinstance(key, tuple)]
    metrics = {
        "data.generate_s": seconds("data.generate"),
        "data.inject_s": seconds("data.inject"),
        "glitches.identify_s": seconds("glitches.identify"),
        "glitches.identify_rounds": calls["glitches.partition"],
        "glitches.annotate_calls": calls["glitches.annotate"],
        "glitches.annotate_per_series": calls["glitches.annotate"] / n_series,
        "glitches.annotate_block_s": seconds("glitches.annotate_block"),
        "sampling.pairs_s": seconds("sampling.pairs"),
        "framework.pair_s": seconds("framework.pair"),
        "framework.pairs": calls["framework.pair"],
        "distortion.batch_s": seconds("distortion.batch"),
        "distance.solve_s": seconds("distance.solve"),
        "distance.solve_calls": calls["distance.solve"],
        "streaming.identify_s": seconds("streaming.identify"),
        "incremental.fixed_point_s": seconds("incremental.fixed_point"),
        "store.shard_writes": calls["store.write"],
        "store.write_s": seconds("store.write"),
        "store.bytes_written": counters["store.bytes_written"],
        "store.shard_reads": calls["store.read"],
        "store.read_s": seconds("store.read"),
        "store.regenerated": sum(n - 1 for n in builds),
        "catalog.get_s": seconds("catalog.get"),
        "catalog.put_s": seconds("catalog.put"),
        "catalog.hits": counters["catalog.hits"],
        "catalog.misses": counters["catalog.misses"],
        "catalog.key_s": seconds("catalog.key"),
        "catalog.key_calls": calls["catalog.key"],
        "service.assemble_s": seconds("service.assemble"),
        "service.identify_s": seconds("service.identify"),
        "executor.units": counters["executor.units"],
    }
    for name in PAPER_STRATEGIES:
        metrics[f"cleaning.{name}_s"] = seconds(f"cleaning.{name}")
    return metrics
