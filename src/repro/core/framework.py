"""The experimental framework (Sections 2.1.1 and 4).

:class:`ExperimentRunner` drives the full loop:

1. generate ``R`` replication pairs ``(Di, DiI)`` by whole-series sampling
   with replacement from the dirty and ideal populations;
2. per replication, derive the cleaning context from ``DiI`` (sigma limits on
   the analysis scale, ideal means) — so the sampling variability of the
   limits across runs is faithfully present (Figure 4's caption);
3. apply every candidate strategy to ``Di``;
4. score glitch improvement with the weighted glitch index and statistical
   distortion with the configured distance (EMD by default).

Replications are independent by construction — each draws from its own
pre-spawned random stream — so the loop is expressed as picklable per-pair
work units evaluated through an :mod:`execution backend
<repro.core.executor>`. Serial, threaded and multi-process runs of the same
config produce identical outcome lists; pick the backend through
``ExperimentConfig(backend=...)``, the runner's ``backend`` argument, or the
``REPRO_BACKEND`` environment variable.

The outcome stream feeds Figures 6 and 7 and Table 1 directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from repro.cleaning.base import CleaningContext, CleaningStrategy
from repro.core.distortion import _pooled_analysis, statistical_distortion_batch
from repro.core.evaluation import StrategyOutcome, StrategySummary, summarize_outcomes
from repro.core.executor import ExecutionBackend, parse_backend_spec, resolve_backend
from repro.core.resilience import drain_degradations
from repro.core.glitch_index import (
    GlitchWeights,
    series_glitch_scores,
    series_glitch_scores_block,
)
from repro.data.dataset import StreamDataset
from repro.distance.base import Distance
from repro.distance.emd import EarthMoverDistance
from repro.errors import ExperimentError
from repro.glitches.constraints import ConstraintSet, paper_constraints
from repro.glitches.detectors import DetectorSuite, ScaleTransform
from repro.glitches.outliers import SigmaOutlierDetector
from repro.sampling.replication import TestPair, generate_test_pairs
from repro.testing.faults import inject_fault
from repro.utils.rng import Seed, spawn_generators
from repro.utils.validation import check_finite, check_int, check_positive_int

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentRunner",
    "evaluate_pair_panels",
    "run_pair_panels_stream",
    "strategy_seeds",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experimental configuration.

    The paper's three Figure 6 panels are
    ``ExperimentConfig(sample_size=100, log_transform=True)`` (a),
    ``... log_transform=False`` (b) and ``... sample_size=500`` (c), all with
    ``n_replications=50``.

    ``backend`` names the execution backend evaluating the replication work
    units (``"serial"``/``"thread"``/``"process"``, optionally with a worker
    count as in ``"process:4"``); ``None`` defers to the ``REPRO_BACKEND``
    environment variable and falls back to serial. The backend never changes
    the numbers — only the wall clock. ``n_workers`` sizes worker-aware
    backends (default: all available CPUs).

    ``streaming`` selects the out-of-core slab engine
    (:mod:`repro.core.streaming`) for drivers that support both paths:
    ``True``/``False`` pin it, ``None`` defers to the ``REPRO_STREAM``
    environment variable and falls back to the in-memory path. Like the
    backend, streaming is a pure execution choice — the streamed experiment
    is bitwise-identical to the materialised one.

    ``distance`` names the distortion distance by its registered identifier
    (``"emd"``/``"kl"``/``"js"``/``"ks"``/...; see
    :data:`repro.distance.DISTANCES`); ``None`` keeps the paper's EMD. An
    explicit :class:`~repro.distance.base.Distance` *instance* passed to a
    runner or evaluator always wins over the config name. Both engines
    honour the selector, so a block run and a streamed run of the same
    config score with the same distance — and stay bitwise-identical to
    each other.
    """

    n_replications: int = 50
    sample_size: int = 100
    log_transform: bool = True
    sigma_k: float = 3.0
    seed: Seed = 0
    backend: Optional[str] = None
    n_workers: Optional[int] = None
    streaming: Optional[bool] = None
    distance: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive_int(self.n_replications, "n_replications")
        check_positive_int(self.sample_size, "sample_size")
        check_finite(self.sigma_k, "sigma_k")
        if self.sigma_k <= 0:
            raise ExperimentError("sigma_k must be positive")
        if not isinstance(self.log_transform, bool):
            raise ExperimentError(
                f"log_transform must be a bool, got {self.log_transform!r}"
            )
        if self.seed is not None and not isinstance(
            self.seed, (np.random.Generator, np.random.SeedSequence)
        ):
            check_int(self.seed, "seed")
        if self.backend is not None:
            parse_backend_spec(self.backend)
        if self.n_workers is not None:
            check_positive_int(self.n_workers, "n_workers")
        if self.streaming is not None and not isinstance(self.streaming, bool):
            raise ExperimentError(
                f"streaming must be None or a bool, got {self.streaming!r}"
            )
        if self.distance is not None:
            from repro.distance import parse_distance_spec

            parse_distance_spec(self.distance)

    @property
    def transform(self) -> Optional[ScaleTransform]:
        """The analysis-scale transform implied by ``log_transform``."""
        return ScaleTransform.log_attr1() if self.log_transform else None

    def make_distance(self) -> Distance:
        """The configured distortion distance, freshly instantiated.

        The paper's :class:`~repro.distance.emd.EarthMoverDistance` when
        ``distance`` is ``None``, otherwise the registered class named by
        the selector with its default parameters (construct an instance and
        pass it explicitly for non-default parameters).
        """
        if self.distance is None:
            return EarthMoverDistance()
        from repro.distance import distance_by_name

        return distance_by_name(self.distance)

    def variant(self, **changes) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass
class ExperimentResult:
    """All outcomes of one experiment run.

    ``degradations`` is execution provenance, not an outcome: the backend
    ladder steps (process→thread→serial) the run survived,
    drained from :func:`~repro.core.resilience.drain_degradations`. A run
    that silently fell back to a slower backend is thereby visible in
    saved outcomes — the outcome floats themselves are unchanged by any
    ladder step (units are pure).
    """

    config: ExperimentConfig
    outcomes: list[StrategyOutcome] = field(default_factory=list)
    degradations: list[str] = field(default_factory=list)

    def __getattr__(self, name: str):
        # Results unpickled from catalogs written before degradation
        # provenance existed lack the attribute; treat them as clean runs.
        if name == "degradations":
            return []
        raise AttributeError(name)

    @property
    def n_degraded(self) -> int:
        """Number of backend ladder steps this run survived."""
        return len(self.degradations)

    @property
    def strategies(self) -> list[str]:
        """Strategy names in first-appearance order."""
        seen: dict[str, None] = {}
        for o in self.outcomes:
            seen.setdefault(o.strategy, None)
        return list(seen)

    def for_strategy(self, name: str) -> list[StrategyOutcome]:
        """Outcomes of one strategy across replications."""
        return [o for o in self.outcomes if o.strategy == name]

    def summaries(self) -> list[StrategySummary]:
        """Per-strategy mean/std aggregates."""
        return summarize_outcomes(self.outcomes)

    def scatter(self, name: str) -> tuple[list[float], list[float]]:
        """(improvement, distortion) point lists for one strategy — one
        Figure 6 glyph series."""
        rows = self.for_strategy(name)
        return [r.improvement for r in rows], [r.distortion for r in rows]


def _shared_context(template: CleaningContext, seed: Seed) -> CleaningContext:
    """A per-panel cleaning context sharing *template*'s derived state.

    The derived statistics (sigma limits, replacement means) are pure
    functions of the ideal sample, and everything in the memo is a pure
    function of its key (the :meth:`CleaningContext.memo` contract), so
    sharing them across panels only skips bitwise-identical recomputation.
    The random stream is **not** shared — each panel consumes its own
    *seed*, exactly as it would in a standalone run.
    """
    ctx = CleaningContext(
        ideal=template.ideal,
        transform=template.transform,
        constraints=template.constraints,
        sigma_k=template.sigma_k,
        seed=seed,
        ideal_block=template.ideal_block,
    )
    ctx._memo = template._memo
    for name in ("limits", "ideal_means", "analysis_means"):
        if name in template.__dict__:
            ctx.__dict__[name] = template.__dict__[name]
    return ctx


def _panel_distances(
    distances: Optional[Sequence[Optional[Distance]]],
    n_panels: int,
    config: ExperimentConfig,
) -> list[Distance]:
    """One distance per panel; ``None`` entries become
    ``config.make_distance()``."""
    if distances is None:
        distances = [None] * n_panels
    if len(distances) != n_panels:
        raise ExperimentError(
            f"got {len(distances)} distances for {n_panels} panels"
        )
    return [d if d is not None else config.make_distance() for d in distances]


def strategy_seeds(config: ExperimentConfig) -> list[np.random.Generator]:
    """The per-replication random streams the cleaning strategies consume.

    Spawned from ``config.seed + 1`` for an int seed, so they stay disjoint
    from the pair draws spawned from ``config.seed``. A ``SeedSequence`` or
    ``Generator`` seed is spawned from directly; that advances its spawn
    counter, so these streams must be spawned *before* the pair draws
    consume the same seed.
    """
    seed = config.seed
    return spawn_generators(
        seed + 1 if isinstance(seed, int) else seed, config.n_replications
    )


def evaluate_pair_panels(
    pair: TestPair,
    panels: Sequence[Sequence[CleaningStrategy]],
    config: ExperimentConfig,
    distances: Optional[Sequence[Optional[Distance]]] = None,
    weights: Optional[GlitchWeights] = None,
    constraints: Optional[ConstraintSet] = None,
    seeds: Optional[Sequence[Seed]] = None,
) -> list[list[StrategyOutcome]]:
    """Evaluate many strategy panels on one replication pair, sharing the
    dirty reference frame.

    The sweep planner's work-sharing core: all panels of one shared-frame
    cell group see the same pair, so the expensive panel-independent work —
    the cleaning context's sigma limits, the detector suite, the dirty
    sample's glitch annotation, and the pooled dirty reference rows of the
    distortion distance — is computed **once** and reused, while everything
    panel-dependent stays per panel: each panel cleans with its own random
    stream (*seeds*, one per panel), and each panel's distortion grid spans
    its own pooled union (the shared-support semantics of
    :func:`~repro.core.distortion.statistical_distortion_batch` make the
    grid a function of the panel composition, so merging panels would
    change the numbers — sharing stops exactly where bitwise identity
    would break).

    *distances* supplies one distance per panel (``None`` entries — or the
    argument itself being ``None`` — fall back to a fresh
    ``config.make_distance()`` per panel, matching the one-instance-per-run
    layout of a single-panel run). Returns one outcome list per panel, in
    panel order.

    Pairs carrying a columnar :class:`~repro.data.block.SampleBlock` (the
    layout ``generate_test_pairs`` draws from uniform-length populations)
    run the whole clean → annotate → score loop on block tensors; pairs of
    per-series data sets (ragged populations) take the per-series path. The
    two layouts give bitwise-identical outcomes.
    """
    panels = [list(panel) for panel in panels]
    if not panels:
        raise ExperimentError("need at least one strategy panel")
    weights = weights or GlitchWeights()
    constraints = constraints if constraints is not None else paper_constraints()
    panel_distances = _panel_distances(distances, len(panels), config)
    panel_seeds = list(seeds) if seeds is not None else [None] * len(panels)
    if len(panel_seeds) != len(panels):
        raise ExperimentError(
            f"got {len(panel_seeds)} seeds for {len(panels)} panels"
        )
    template = CleaningContext(
        ideal=pair.ideal,
        transform=config.transform,
        constraints=constraints,
        sigma_k=config.sigma_k,
        seed=None,
        ideal_block=getattr(pair, "ideal_block", None),
    )
    suite = DetectorSuite(
        constraints=constraints,
        outlier_detector=SigmaOutlierDetector(template.limits),
        transform=config.transform,
    )
    block = getattr(pair, "dirty_block", None)
    use_block = block is not None
    # Glitch indexes are reported per reference sample of 100 series, so
    # experiments with different B land on directly comparable axes —
    # the paper's Figures 6(a) and 6(c) (B = 100 vs 500) share their
    # improvement axis, which only works under such a normalisation.
    if use_block:
        per_100 = 100.0 / block.n_series
        # Each block is transformed to the suite's analysis scale once: the
        # tensor serves both its outlier plane and its pooled distortion
        # rows, which are then scored with no further transform.
        dirty_analysis = suite.analysis_block(block)
        reference = dirty_analysis.scaled
        scoring_transform = None
        dirty_glitches = suite.annotate_block(dirty_analysis)
        g_dirty = per_100 * float(
            series_glitch_scores_block(dirty_glitches, weights).sum()
        )
    else:
        reference = pair.dirty
        scoring_transform = config.transform
        per_100 = 100.0 / len(pair.dirty)
        dirty_glitches = suite.annotate_dataset(pair.dirty)
        g_dirty = per_100 * float(
            series_glitch_scores(dirty_glitches, weights).sum()
        )
    dirty_fractions = dirty_glitches.record_fractions()
    # The pooled dirty reference is panel-independent (for one NaN
    # semantics); pool it once per semantics and hand it to every panel's
    # batched distortion call.
    pooled_refs: dict[bool, object] = {}

    results: list[list[StrategyOutcome]] = []
    for panel, distance, seed in zip(panels, panel_distances, panel_seeds):
        context = _shared_context(template, seed)
        keep_partial = not getattr(distance, "complete_case", True)
        if keep_partial not in pooled_refs:
            pooled_refs[keep_partial] = _pooled_analysis(
                reference, scoring_transform, keep_partial=keep_partial
            )
        if use_block:
            treated_list: list = []
            for strategy in panel:
                # A strategy without a block implementation transparently
                # falls back to its per-series ``clean`` (on zero-copy
                # views) for just that panel slot.
                treated = strategy.clean_block(block, context)
                if treated is None:
                    treated = strategy.clean(pair.dirty, context).to_block()
                treated_list.append(treated)
            analyses = [suite.analysis_block(t) for t in treated_list]
            scored = [a.scaled for a in analyses]
        else:
            treated_list = [
                strategy.clean(pair.dirty, context) for strategy in panel
            ]
            analyses = scored = treated_list
        distortions = statistical_distortion_batch(
            reference, scored, distance=distance,
            transform=scoring_transform,
            pooled_reference=pooled_refs[keep_partial],
        )
        # Derived statistics a panel computed lazily (replacement means,
        # say) are pure — promote them so later panels reuse instead of
        # recompute.
        for name in ("limits", "ideal_means", "analysis_means"):
            if name in context.__dict__ and name not in template.__dict__:
                template.__dict__[name] = context.__dict__[name]
        outcomes = []
        for strategy, treated, analysis, distortion in zip(
            panel, treated_list, analyses, distortions
        ):
            if use_block:
                treated_glitches = suite.annotate_block(analysis)
                g_treated = per_100 * float(
                    series_glitch_scores_block(treated_glitches, weights).sum()
                )
            else:
                treated_glitches = suite.annotate_dataset(treated)
                g_treated = per_100 * float(
                    series_glitch_scores(treated_glitches, weights).sum()
                )
            outcomes.append(
                StrategyOutcome(
                    strategy=strategy.name,
                    replication=pair.index,
                    improvement=g_dirty - g_treated,
                    distortion=distortion,
                    glitch_index_dirty=g_dirty,
                    glitch_index_treated=g_treated,
                    dirty_fractions=dict(dirty_fractions),
                    treated_fractions=dict(treated_glitches.record_fractions()),
                    cost_fraction=float(strategy.cost_fraction),
                )
            )
        results.append(outcomes)
    return results


@dataclass(frozen=True)
class _PanelsSpec:
    """Everything a worker needs to evaluate one pair across many panels."""

    config: ExperimentConfig
    panels: tuple[tuple[CleaningStrategy, ...], ...]
    distances: tuple[Distance, ...]
    weights: GlitchWeights
    constraints: ConstraintSet


def _evaluate_panels_unit(spec: _PanelsSpec, unit: tuple) -> list[list[StrategyOutcome]]:
    """Evaluate one ``(pair, per-panel seeds)`` work unit under a spec."""
    inject_fault("unit")
    pair, seeds = unit
    return evaluate_pair_panels(
        pair,
        spec.panels,
        config=spec.config,
        distances=spec.distances,
        weights=spec.weights,
        constraints=spec.constraints,
        seeds=seeds,
    )


def _work_units(pairs, seed_lists, n_pairs: int):
    """``(pair, per-panel seeds)`` units; the stream must hold exactly
    *n_pairs* pairs."""
    seeds = zip(*seed_lists)
    n = 0
    for pair in pairs:
        if n == n_pairs:
            raise ExperimentError(
                f"pair stream holds more than the {n_pairs} configured "
                "replications"
            )
        yield pair, next(seeds)
        n += 1
    if n != n_pairs:
        raise ExperimentError(
            f"pair stream held {n} pairs, but {n_pairs} replications are "
            "configured"
        )


def run_pair_panels_stream(
    pairs,
    panels: Sequence[Sequence[CleaningStrategy]],
    config: ExperimentConfig,
    distances: Optional[Sequence[Optional[Distance]]] = None,
    weights: Optional[GlitchWeights] = None,
    constraints: Optional[ConstraintSet] = None,
    backend: Union[None, str, ExecutionBackend] = None,
    result_configs: Optional[Sequence[ExperimentConfig]] = None,
) -> list[ExperimentResult]:
    """Evaluate strategy panels over one stream of test pairs.

    The one replication driver. :meth:`ExperimentRunner.run` feeds it pairs
    sampled from materialised populations, the streaming slab engine and
    the push service feed it pairs gathered from a bounded parent subset,
    and the incremental sweep planner (:mod:`repro.experiments.sweep`)
    hands it every panel of a group of cells that share a population and
    an outcome-determining config. The per-pair dirty reference frame is
    hoisted once by :func:`evaluate_pair_panels`, while every panel gets
    its own per-replication random streams (:func:`strategy_seeds`), which
    keeps each panel's outcomes bitwise-identical to a single-panel run.

    *pairs* must yield exactly ``config.n_replications`` pairs in
    replication order (a shorter or longer stream raises
    :class:`~repro.errors.ExperimentError`); they are shared by every panel
    (pairs are never mutated — every strategy copies). The serial backend
    consumes the stream lazily, one pair in memory at a time; parallel
    backends materialise it to dispatch. A single-panel call accepts any
    config seed; a multi-panel call requires an int ``config.seed``,
    because a ``SeedSequence``/``Generator`` seed hands out new streams at
    every spawn. *result_configs* optionally stamps each returned
    :class:`ExperimentResult` with its own cell config (the cells of one
    group may differ in execution-only fields); outcome evaluation always
    uses *config*. Returns one result per panel, in panel order.
    """
    panels = tuple(tuple(panel) for panel in panels)
    if not panels:
        raise ExperimentError("need at least one strategy panel")
    for panel in panels:
        if not panel:
            raise ExperimentError("need at least one strategy")
        names = [s.name for s in panel]
        if len(set(names)) != len(names):
            raise ExperimentError(f"duplicate strategy names: {names}")
    if len(panels) > 1 and not isinstance(config.seed, int):
        raise ExperimentError(
            "a multi-panel pass requires an int config seed; a "
            "SeedSequence/Generator seed hands out different streams to "
            "every spawn, so panels after the first would not replay a "
            "standalone run"
        )
    if result_configs is not None and len(result_configs) != len(panels):
        raise ExperimentError(
            f"got {len(result_configs)} result configs for {len(panels)} panels"
        )
    panel_distances = tuple(_panel_distances(distances, len(panels), config))
    # One independent per-replication stream family per panel — the exact
    # spawn a standalone run of that panel performs. Spawned before the
    # first pair is drawn: a non-int seed is shared with the pair draws.
    seed_lists = [strategy_seeds(config) for _ in panels]
    spec = _PanelsSpec(
        config=config,
        panels=panels,
        distances=panel_distances,
        weights=weights or GlitchWeights(),
        constraints=constraints if constraints is not None else paper_constraints(),
    )
    resolved = resolve_backend(
        backend if backend is not None else config.backend,
        n_workers=config.n_workers,
    )
    batches = resolved.map(
        partial(_evaluate_panels_unit, spec),
        _work_units(pairs, seed_lists, config.n_replications),
    )
    results = [
        ExperimentResult(
            config=result_configs[k] if result_configs is not None else config
        )
        for k in range(len(panels))
    ]
    # Ladder steps of the shared pass belong to every panel it evaluated.
    events = drain_degradations()
    for result in results:
        result.degradations.extend(events)
    for batch in batches:
        for k, outcomes in enumerate(batch):
            results[k].outcomes.extend(outcomes)
    return results


class ExperimentRunner:
    """Evaluates cleaning strategies on replication pairs.

    Parameters
    ----------
    dirty:
        The dirty population ``D`` (after partitioning off the ideal part).
    ideal:
        The ideal population ``DI``.
    config:
        Experiment parameters.
    distance:
        Distortion distance instance; defaults to the config's ``distance``
        selector (the paper's EMD when that is unset too).
    weights:
        Glitch-index weights; defaults to the paper's (0.25/0.25/0.5).
    constraints:
        Inconsistency rules; defaults to the paper's three.
    backend:
        Execution backend evaluating the replication work units: a name
        (``"serial"``/``"thread"``/``"process"``/``"process:4"``), an
        :class:`~repro.core.executor.ExecutionBackend` instance, or ``None``
        to defer to ``config.backend`` and the ``REPRO_BACKEND`` environment
        variable. Any choice yields identical results.
    """

    def __init__(
        self,
        dirty: StreamDataset,
        ideal: StreamDataset,
        config: ExperimentConfig | None = None,
        distance: Optional[Distance] = None,
        weights: GlitchWeights | None = None,
        constraints: Optional[ConstraintSet] = None,
        backend: Union[None, str, ExecutionBackend] = None,
    ):
        self.dirty = dirty
        self.ideal = ideal
        self.config = config or ExperimentConfig()
        # An explicit instance wins; otherwise the config's named selector
        # (falling back to the paper's EMD) — one resolution for every run.
        self.distance = distance or self.config.make_distance()
        self.weights = weights or GlitchWeights()
        self.constraints = constraints if constraints is not None else paper_constraints()
        self.backend = backend

    # -- single replication -----------------------------------------------------

    def evaluate_pair(
        self,
        pair: TestPair,
        strategies: Sequence[CleaningStrategy],
        seed: Seed = None,
    ) -> list[StrategyOutcome]:
        """Evaluate every strategy on one replication pair."""
        return evaluate_pair_panels(
            pair,
            [strategies],
            config=self.config,
            distances=[self.distance],
            weights=self.weights,
            constraints=self.constraints,
            seeds=[seed],
        )[0]

    # -- full run -------------------------------------------------------------------

    def resolve_backend(self) -> ExecutionBackend:
        """The execution backend this runner will use for :meth:`run`."""
        return resolve_backend(
            self.backend if self.backend is not None else self.config.backend,
            n_workers=self.config.n_workers,
        )

    def run(self, strategies: Sequence[CleaningStrategy]) -> ExperimentResult:
        """Run all replications against all strategies.

        Work units stream out of the pair generator zipped with
        pre-spawned per-replication random streams (both deterministic
        functions of the config seed) into the resolved execution backend:
        the serial backend consumes them one at a time — the original
        loop's memory footprint — while parallel backends materialise them
        to dispatch. Because each unit carries its own generator and the
        backends preserve order, the outcome list is identical for serial,
        threaded and multi-process execution.
        """
        cfg = self.config
        pair_stream = generate_test_pairs(
            self.dirty,
            self.ideal,
            n_pairs=cfg.n_replications,
            sample_size=cfg.sample_size,
            seed=cfg.seed,
        )
        return run_pair_panels_stream(
            pair_stream,
            [strategies],
            config=cfg,
            distances=[self.distance],
            weights=self.weights,
            constraints=self.constraints,
            backend=self.resolve_backend(),
        )[0]
