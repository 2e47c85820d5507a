"""The benchmark's four workloads, driven through the library's public API.

Every workload runs serially with no catalog unless the catalog is what it
measures, and derives all its inputs from the ``--seed`` it is given. Each
one offers three steps to the runner:

* ``setup()`` — make the inputs and fresh temp dirs, then make one untimed
  ``tiny``-scale call of the timed entry point so lazy imports and first-call
  costs land in set-up (the runner repeats it and reports the median);
* ``unit()`` — one timed unit of work, returning a :class:`Unit`;
* ``after()`` — checks that must stay outside every timed region.

Output checks append to ``problems``; outcome fingerprints go to
``fingerprints`` by input key, so the runner can require that every run of
the same inputs agrees.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.cleaning.registry import paper_strategies
from repro.core.streaming import StreamingExperiment
from repro.data.generator import GeneratorConfig
from repro.data.slab import SlabFeed
from repro.errors import ValidationError
from repro.experiments.config import SCALES, build_population, experiment_config
from repro.experiments.paper import run_experiment, run_table1
from repro.service import MonitoringSession, arrival_schedule

from checks import fingerprint, paper_shape

#: The push session's population: 5 000 series x 170 steps (the paper's
#: topology with a quarter of its RNCs).
SERVICE_RECIPE = GeneratorConfig(n_rnc=5, towers_per_rnc=50, sectors_per_tower=20)
#: Window width of the push session's deliveries.
WINDOW_WIDTH = 16
#: Shard size of the streaming engine, pinned so the shard layout does not
#: follow the machine's CPU count.
STREAM_SHARD_SIZE = 1000
#: Warm re-serves of the Table 1 sweep after each cold one.
WARM_SERVES = 3


def _n_series(gen: GeneratorConfig) -> int:
    return gen.n_rnc * gen.towers_per_rnc * gen.sectors_per_tower


def _config(scale: str, seed: int, **changes):
    """The scale preset's config: serial, in-memory engine, seeded."""
    return experiment_config(scale, seed=seed, backend="serial").variant(
        streaming=False, **changes
    )


@dataclass
class Unit:
    """What one timed unit measured."""

    #: Samples by metric name; ``wall_s`` (one sample) is the unit's
    #: end-to-end time.
    samples: dict[str, list[float]]
    #: Operations attempted (replications, sweep cells or deliveries).
    attempted: int
    #: Failed or degraded operations by kind.
    failures: Counter = field(default_factory=Counter)


class Workload:
    """Shared state of one workload run."""

    name = ""
    #: Population size, for per-series ratios.
    n_series = 1

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.problems: list[str] = []
        self.fingerprints: dict[str, set[str]] = {}

    def tempdir(self) -> str:
        """A fresh directory under the run's scratch space."""
        return tempfile.mkdtemp(dir=self.scratch)

    def record(self, key: str, result, log_transform: bool) -> None:
        """Fingerprint *result* under *key* and check its paper shape."""
        self.fingerprints.setdefault(key, set()).add(fingerprint(result))
        self.problems.extend(paper_shape(result, log_transform, key))

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self) -> Unit:
        raise NotImplementedError

    def after(self) -> None:
        """Checks run once, outside every timed region."""


class Fig6aPaper(Workload):
    """``run_experiment(scale="paper")`` on the block engine."""

    name = "fig6a_paper"
    n_series = _n_series(SCALES["paper"].generator)

    def setup(self) -> None:
        run_experiment(
            "tiny", seed=self.seed, config=_config("tiny", self.seed),
            backend="serial",
        )

    def unit(self) -> Unit:
        config = _config("paper", self.seed)
        t0 = time.perf_counter()
        result = run_experiment(
            "paper", seed=self.seed, config=config, backend="serial"
        )
        wall = time.perf_counter() - t0
        self.record(f"fig6a:{self.seed}", result, log_transform=True)
        return Unit(
            {"wall_s": [wall], "experiment_s": [wall]},
            attempted=config.n_replications,
            failures=Counter(degraded_units=result.n_degraded),
        )


class Fig6aStream(Workload):
    """The same recipe through the streaming slab engine, spilling to disk.

    Its fingerprint key is shared with :class:`Fig6aPaper`, so a streamed
    run that disagrees with a block run of the same seed fails.
    """

    name = "fig6a_stream"
    n_series = _n_series(SCALES["paper"].generator)

    def _run(self, scale: str):
        spill = self.tempdir()
        try:
            t0 = time.perf_counter()
            engine = StreamingExperiment.from_scale(
                scale, seed=self.seed, config=_config(scale, self.seed),
                backend="serial", shard_size=STREAM_SHARD_SIZE, spill_dir=spill,
            )
            result = engine.run(paper_strategies()).result
            return result, time.perf_counter() - t0
        finally:
            shutil.rmtree(spill, ignore_errors=True)

    def setup(self) -> None:
        self.tiny, _wall = self._run("tiny")

    def unit(self) -> Unit:
        result, wall = self._run("paper")
        self.record(f"fig6a:{self.seed}", result, log_transform=True)
        return Unit(
            {"wall_s": [wall], "experiment_s": [wall]},
            attempted=result.config.n_replications,
            failures=Counter(degraded_units=result.n_degraded),
        )

    def after(self) -> None:
        block = run_experiment(
            "tiny", seed=self.seed, config=_config("tiny", self.seed),
            backend="serial",
        )
        if fingerprint(block) != fingerprint(self.tiny):
            self.problems.append("fig6a_stream: tiny streamed run != block run")


class Table1Sweep(Workload):
    """``run_table1`` on a ``small`` bundle: cold into an empty catalog,
    then re-served warm.

    A unit is one cold sweep at the preset's R = 10 plus its warm re-serves;
    the runner repeats units to fill the run and reports medians, which
    resists bursts of load on a shared machine better than one long sweep.
    """

    name = "table1_sweep"
    n_series = _n_series(SCALES["small"].generator)

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.config = _config("small", seed)

    def setup(self) -> None:
        self.bundle = build_population("small", seed=self.seed, backend="serial")
        tiny = build_population("tiny", seed=self.seed, backend="serial")
        run_table1(
            tiny, base_config=_config("tiny", self.seed), backend="serial",
            catalog=os.path.join(self.tempdir(), "catalog.sqlite"),
        )

    def _sweep(self, catalog: str):
        t0 = time.perf_counter()
        sweep = run_table1(
            self.bundle, base_config=self.config, backend="serial", catalog=catalog
        )
        return sweep, time.perf_counter() - t0

    def unit(self) -> Unit:
        directory = self.tempdir()
        catalog = os.path.join(directory, "catalog.sqlite")
        cold, cold_s = self._sweep(catalog)
        failures = Counter(sweep_cells=cold.n_failed, degraded_units=cold.n_degraded)
        prefix = f"table1:{self.seed}:R{self.config.n_replications}"
        for name, result in cold.items():
            if result is not None:
                self.record(f"{prefix}:{name}", result, "no log" not in name)
        cold_prints = {
            name: fingerprint(r) for name, r in cold.items() if r is not None
        }
        warm_walls, hits, recomputed = [], [], []
        for _ in range(WARM_SERVES):
            warm, warm_s = self._sweep(catalog)
            warm_walls.append(warm_s)
            hits.append(warm.n_hits)
            recomputed.append(warm.n_recomputed)
            failures.update(sweep_cells=warm.n_failed, degraded_units=warm.n_degraded)
            if warm.n_hits != len(cold) or warm.n_recomputed:
                self.problems.append(
                    f"table1 warm serve: {warm.n_hits} hits, "
                    f"{warm.n_recomputed} recomputed (want {len(cold)}, 0)"
                )
            warm_prints = {
                name: fingerprint(r) for name, r in warm.items() if r is not None
            }
            if warm_prints != cold_prints:
                self.problems.append("table1 warm serve != cold sweep")
        shutil.rmtree(directory, ignore_errors=True)
        return Unit(
            {
                "wall_s": [cold_s],
                "sweep_s": [cold_s],
                "warm_sweep_s": warm_walls,
                "sweep.hits": [statistics.median(hits)],
                "sweep.recomputed": [statistics.median(recomputed)],
                "sweep.builds": [cold.n_builds],
            },
            attempted=len(cold) * (1 + WARM_SERVES),
            failures=failures,
        )


def _hostile_plan(generator: GeneratorConfig, seed: int):
    """A recipe's width-16 windows and their hostile delivery plan: full
    shuffle, 30% re-delivered duplicates, bursts of 3."""
    feed = SlabFeed(generator, None, seed=seed, backend="serial", spill=False)
    try:
        windows = list(feed.iter_stream_windows(width=WINDOW_WIDTH, spill=False))
    finally:
        feed.cleanup()
    plan = arrival_schedule(windows, seed=seed, reorder=1.0, duplicate=0.3, burst=3)
    return windows, plan


@dataclass
class _Session:
    result: object
    session: MonitoringSession
    fold_s: np.ndarray
    ingest_s: float
    finalize_s: float
    rejected: int


def _push(plan, config) -> _Session:
    """Feed *plan* to a fresh session closed-loop, one producer, then
    identify and finalize it with the paper's five strategies."""
    session = MonitoringSession(config=config)
    fold_s = np.empty(len(plan))
    rejected = 0
    t0 = time.perf_counter()
    for i, window in enumerate(plan):
        f0 = time.perf_counter()
        try:
            session.ingest(window)
        except ValidationError:
            rejected += 1
        fold_s[i] = time.perf_counter() - f0
    ingest_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    session.identify()
    result = session.finalize(paper_strategies())
    finalize_s = time.perf_counter() - t0
    session.close()
    return _Session(result, session, fold_s, ingest_s, finalize_s, rejected)


class ServicePush(Workload):
    """A :class:`MonitoringSession` fed a hostile plan, then finalized."""

    name = "service_push"
    n_series = _n_series(SERVICE_RECIPE)

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.config = _config("paper", seed)

    def setup(self) -> None:
        self.windows, self.plan = _hostile_plan(SERVICE_RECIPE, self.seed)
        _tiny_windows, tiny_plan = _hostile_plan(
            SCALES["tiny"].generator, self.seed
        )
        self.tiny = _push(tiny_plan, _config("tiny", self.seed)).result

    def unit(self) -> Unit:
        run = _push(self.plan, self.config)
        scorer = run.session.scorer
        planted = len(self.plan) - len(self.windows)
        if scorer.n_duplicates != planted:
            self.problems.append(
                f"service refused {scorer.n_duplicates} duplicates, the plan "
                f"planted {planted}"
            )
        accepted = scorer.journal.n_windows
        if accepted != len(self.windows):
            self.problems.append(
                f"service accepted {accepted} of {len(self.windows)} windows"
            )
        self.record(f"service:{self.seed}", run.result, log_transform=True)
        return Unit(
            {
                "wall_s": [run.ingest_s + run.finalize_s],
                "ingest_windows_per_s": [len(self.plan) / run.ingest_s],
                "fold_p50_us": [float(np.percentile(run.fold_s, 50) * 1e6)],
                "fold_p99_us": [float(np.percentile(run.fold_s, 99) * 1e6)],
                "finalize_s": [run.finalize_s],
                "service.fold_s": [float(run.fold_s.sum())],
                "service.duplicates_refused": [scorer.n_duplicates],
                "service.accepted_ratio": [accepted / len(self.plan)],
            },
            attempted=len(self.plan) + 1,
            failures=Counter(
                rejected_windows=run.rejected,
                degraded_units=run.result.n_degraded,
            ),
        )

    def after(self) -> None:
        spill = self.tempdir()
        batch = StreamingExperiment.from_scale(
            "tiny", seed=self.seed, config=_config("tiny", self.seed),
            backend="serial", spill_dir=spill,
        ).run(paper_strategies()).result
        shutil.rmtree(spill, ignore_errors=True)
        if fingerprint(batch) != fingerprint(self.tiny):
            self.problems.append("service_push: tiny push session != batch engine")


WORKLOADS = {
    cls.name: cls for cls in (Fig6aPaper, Fig6aStream, Table1Sweep, ServicePush)
}
