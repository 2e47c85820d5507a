"""Drivers regenerating every figure and table of the paper's evaluation.

Each function maps one paper artifact to library calls:

* :func:`figure3_counts` — glitch counts over time, aggregated over runs.
* :func:`collect_treatment_scatter` / :func:`figure4_stats` /
  :func:`figure5_stats` — before/after scatter data for Attribute 1
  (Strategy 1, with/without log) and Attribute 3 (Strategies 1-2).
* :func:`run_figure6` — the distortion vs improvement scatter for the five
  strategies.
* :func:`run_figure7` — the cost sweep of Strategy 1.
* :func:`run_table1` — glitch percentages before/after per strategy and
  configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.cleaning.base import CleaningContext, CleaningStrategy
from repro.cleaning.registry import strategy_by_name
from repro.core.cost import PAPER_COST_FRACTIONS, CostSweepResult, cost_sweep
from repro.core.framework import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
    strategy_seeds,
)
from repro.experiments.config import PopulationBundle, experiment_config
from repro.glitches.detectors import DetectorSuite
from repro.glitches.outliers import SigmaOutlierDetector
from repro.glitches.patterns import counts_over_time
from repro.glitches.types import DatasetGlitches
from repro.sampling.replication import generate_test_pairs
from repro.utils.rng import Seed

__all__ = [
    "figure3_counts",
    "ScatterData",
    "collect_treatment_scatter",
    "figure4_stats",
    "figure5_stats",
    "run_experiment",
    "run_figure6",
    "run_figure7",
    "run_table1",
]


def run_experiment(
    scale: str = "small",
    seed: Seed = 0,
    config: Optional[ExperimentConfig] = None,
    strategies: Optional[Sequence[CleaningStrategy]] = None,
    backend=None,
    distance=None,
    catalog=None,
    **streaming_kwargs,
) -> ExperimentResult:
    """The Figure-6 experiment at a named scale, through either engine.

    Runs one recipe cell (``scale`` + ``seed``) through the executor of
    :func:`~repro.experiments.sweep.run_sweep`, in its one-cell mode: a
    failure raises instead of being recorded. The ``REPRO_STREAM``
    environment variable / ``config.streaming`` field selects the engine:
    the default materialises the population
    (:func:`~repro.experiments.config.build_population`), while the
    streaming choice runs the out-of-core slab engine
    (:class:`~repro.core.streaming.StreamingExperiment`) with peak memory
    bounded by the shard size instead of the population. The two engines
    return bitwise-identical outcomes; extra keyword arguments
    (``shard_size=``, ``spill_dir=``, ``disk_budget=``, ...) reach the
    streaming engine only. *distance* — an instance, or the config's
    ``distance`` name selector — is honoured identically by both engines.

    *catalog* — a :class:`~repro.store.catalog.Catalog`, a path, or ``None``
    to defer to ``REPRO_CATALOG`` — enables cross-run reuse: a cell whose
    ``(population recipe, seed, config, distance, strategies)`` key is
    already scored is served back bitwise-identically **without building the
    population at all**, and a computed cell is stored for the next run.
    Because catalog keys cover only outcome-determining inputs, a hit is
    valid for either engine, any backend and any shard layout; streaming
    arguments other than the execution-only ones (shard layout, spill,
    disk budget, workers) bypass the catalog. An explicit *distance*
    instance that equals its registry default (per
    :func:`~repro.store.catalog.distance_key_name`) is keyed by the registry
    name — the same cell as the equivalent name selector; only genuinely
    customised instances bypass the catalog.
    """
    from repro.experiments.sweep import SweepCell, _execute

    cell = SweepCell(
        name="experiment",
        config=config or experiment_config(scale),
        strategies=tuple(strategies or ()),
        scale=scale,
        seed=seed,
    )
    return _execute(
        [cell], catalog, backend, distance=distance,
        engine_kwargs=streaming_kwargs, strict=True,
    )[cell.name]


# ---------------------------------------------------------------------------
# Figure 3 — glitch counts over time
# ---------------------------------------------------------------------------


def figure3_counts(
    bundle: PopulationBundle,
    n_replications: int = 50,
    sample_size: int = 100,
    seed: Seed = 0,
) -> np.ndarray:
    """``(T, m)`` glitch counts at each time step, pooled over all runs.

    Figure 3 aggregates 50 runs of 100 sampled series ("roughly 5000 data
    points at any given time"); the same aggregation is reproduced on the
    bundle's dirty population with its fitted detector suite.
    """
    matrices = []
    pairs = generate_test_pairs(
        bundle.dirty, bundle.ideal, n_replications, sample_size, seed=seed
    )
    for pair in pairs:
        matrices.extend(bundle.suite.annotate(s) for s in pair.dirty)
    return counts_over_time(DatasetGlitches(matrices))


# ---------------------------------------------------------------------------
# Figures 4 and 5 — before/after scatter of one attribute
# ---------------------------------------------------------------------------


@dataclass
class ScatterData:
    """Before/after cell values of one attribute, pooled over replications.

    The categories mirror the paper's glyphs: ``imputed`` cells were missing
    or inconsistent (grey points — ``before`` is NaN for originally-missing
    cells), ``repaired`` cells were changed by outlier repair (the horizontal
    Winsorization bands), ``untouched`` cells lie on the ``y = x`` line.
    """

    attribute: str
    strategy: str
    imputed_before: np.ndarray = field(default_factory=lambda: np.empty(0))
    imputed_after: np.ndarray = field(default_factory=lambda: np.empty(0))
    repaired_before: np.ndarray = field(default_factory=lambda: np.empty(0))
    repaired_after: np.ndarray = field(default_factory=lambda: np.empty(0))
    untouched: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def n_imputed(self) -> int:
        """Number of imputed cells."""
        return int(self.imputed_after.size)

    @property
    def n_repaired(self) -> int:
        """Number of outlier-repaired cells."""
        return int(self.repaired_after.size)


def collect_treatment_scatter(
    bundle: PopulationBundle,
    strategy: CleaningStrategy,
    attribute: str,
    config: Optional[ExperimentConfig] = None,
) -> ScatterData:
    """Pool before/after values of *attribute* across replications.

    Reproduces the data behind Figures 4 and 5 for any strategy. Values are
    reported on the experiment's analysis scale (log-attr1 when the config
    enables the transform), matching the paper's plot axes.
    """
    config = config or ExperimentConfig()
    transform = config.transform
    imputed_b: list[np.ndarray] = []
    imputed_a: list[np.ndarray] = []
    repaired_b: list[np.ndarray] = []
    repaired_a: list[np.ndarray] = []
    untouched: list[np.ndarray] = []
    pairs = generate_test_pairs(
        bundle.dirty, bundle.ideal, config.n_replications, config.sample_size,
        seed=config.seed,
    )
    seeds = strategy_seeds(config)
    for pair, rng in zip(pairs, seeds):
        context = CleaningContext(
            ideal=pair.ideal,
            transform=transform,
            sigma_k=config.sigma_k,
            seed=rng,
        )
        treated = strategy.clean(pair.dirty, context)
        for before_s, after_s in zip(pair.dirty, treated):
            j = before_s.attribute_index(attribute)
            mask = context.treatable_mask(before_s)[:, j]
            before = context.to_analysis(before_s.values, before_s.attributes)[:, j]
            after = context.to_analysis(after_s.values, after_s.attributes)[:, j]
            with np.errstate(invalid="ignore"):
                changed = (
                    ~mask
                    & ~(np.isnan(before) & np.isnan(after))
                    & (np.nan_to_num(before) != np.nan_to_num(after))
                )
            same = ~mask & ~changed & ~np.isnan(before)
            imputed_b.append(before[mask])
            imputed_a.append(after[mask])
            repaired_b.append(before[changed])
            repaired_a.append(after[changed])
            untouched.append(before[same])
    return ScatterData(
        attribute=attribute,
        strategy=strategy.name,
        imputed_before=np.concatenate(imputed_b) if imputed_b else np.empty(0),
        imputed_after=np.concatenate(imputed_a) if imputed_a else np.empty(0),
        repaired_before=np.concatenate(repaired_b) if repaired_b else np.empty(0),
        repaired_after=np.concatenate(repaired_a) if repaired_a else np.empty(0),
        untouched=np.concatenate(untouched) if untouched else np.empty(0),
    )


def figure4_stats(
    bundle: PopulationBundle,
    log_transform: bool,
    config: Optional[ExperimentConfig] = None,
) -> dict[str, float]:
    """Summary statistics of the Figure 4 scatter (Attribute 1, Strategy 1).

    Keys:

    * ``frac_imputed_negative`` — share of imputed raw-scale values below 0
      (the new inconsistencies of Figure 4a; structurally 0 with the log).
    * ``frac_repaired_upper`` / ``frac_repaired_lower`` — which tail
      Winsorization clipped (upper without the log, lower with it).
    * ``n_imputed``, ``n_repaired`` — category sizes.
    """
    config = (config or ExperimentConfig()).variant(log_transform=log_transform)
    scatter = collect_treatment_scatter(
        bundle, strategy_by_name("strategy1"), "attr1", config
    )
    after = scatter.imputed_after
    if log_transform:
        # Analysis scale is log(attr1): imputed raw values are exp(.) > 0.
        frac_negative = 0.0
    else:
        frac_negative = float((after < 0).mean()) if after.size else 0.0
    rep_b, rep_a = scatter.repaired_before, scatter.repaired_after
    upper = int(((rep_a < rep_b)).sum())
    lower = int(((rep_a > rep_b)).sum())
    n_rep = max(rep_a.size, 1)
    return {
        "n_imputed": float(scatter.n_imputed),
        "n_repaired": float(scatter.n_repaired),
        "frac_imputed_negative": frac_negative,
        "frac_repaired_upper": upper / n_rep,
        "frac_repaired_lower": lower / n_rep,
    }


def figure5_stats(
    bundle: PopulationBundle,
    strategy_name: str,
    config: Optional[ExperimentConfig] = None,
) -> dict[str, float]:
    """Summary statistics of the Figure 5 scatter (Attribute 3).

    Keys: ``frac_imputed_above_one`` (the new constraint-2 violations the
    imputer plants), ``max_imputed``, ``n_imputed``, ``n_repaired``.
    """
    config = config or ExperimentConfig()
    scatter = collect_treatment_scatter(
        bundle, strategy_by_name(strategy_name), "attr3", config
    )
    after = scatter.imputed_after
    return {
        "n_imputed": float(scatter.n_imputed),
        "n_repaired": float(scatter.n_repaired),
        "frac_imputed_above_one": float((after > 1).mean()) if after.size else 0.0,
        "max_imputed": float(after.max()) if after.size else float("nan"),
    }


# ---------------------------------------------------------------------------
# Figure 6 — distortion vs improvement for the five strategies
# ---------------------------------------------------------------------------


def run_figure6(
    bundle: PopulationBundle,
    config: Optional[ExperimentConfig] = None,
    strategies: Optional[Sequence[CleaningStrategy]] = None,
    backend=None,
    distance=None,
    catalog=None,
) -> ExperimentResult:
    """Evaluate the five paper strategies on one configuration.

    Panel (a) is the default config with the log transform; pass
    ``config.variant(log_transform=False)`` for panel (b) and
    ``config.variant(sample_size=500)`` for panel (c). ``backend`` (a name
    or :class:`~repro.core.executor.ExecutionBackend`) overrides the
    config's execution backend; replications fan out across it with
    identical results on any choice. ``distance`` (an instance) overrides
    the config's ``distance`` selector, EMD by default.

    Runs one bundle cell through the executor of
    :func:`~repro.experiments.sweep.run_sweep`, in its one-cell mode: a
    failure raises instead of being recorded. *catalog* (a
    :class:`~repro.store.catalog.Catalog`, a path, or ``None`` deferring to
    ``REPRO_CATALOG``) keys the cell by the bundle's **content** identity
    (:meth:`PopulationBundle.content_key`) plus the config and strategy
    panel: a cell already scored against a bitwise-identical bundle is
    served from the catalog instead of recomputed, and computed cells are
    stored. Without a catalog the bundle is never hashed. An explicit
    *distance* instance equal to its registry default is keyed by the
    registry name (:func:`~repro.store.catalog.distance_key_name`); only
    customised instances bypass the catalog.
    """
    from repro.experiments.sweep import SweepCell, _execute

    cell = SweepCell(
        name="figure6",
        config=config or ExperimentConfig(),
        strategies=tuple(strategies or ()),
        bundle=bundle,
    )
    return _execute(
        [cell], catalog, backend, distance=distance, strict=True
    )[cell.name]


# ---------------------------------------------------------------------------
# Figure 7 — cost sweep of Strategy 1
# ---------------------------------------------------------------------------


def run_figure7(
    bundle: PopulationBundle,
    config: Optional[ExperimentConfig] = None,
    fractions: Sequence[float] = PAPER_COST_FRACTIONS,
    backend=None,
) -> CostSweepResult:
    """Sweep Strategy 1 over cleaning fractions (100/50/20/0% in the paper)."""
    runner = ExperimentRunner(
        bundle.dirty, bundle.ideal, config=config, backend=backend
    )
    return cost_sweep(runner, strategy_by_name("strategy1"), fractions)


# ---------------------------------------------------------------------------
# Table 1 — glitch percentages before/after cleaning
# ---------------------------------------------------------------------------


def run_table1(
    bundle: PopulationBundle,
    configs: Optional[dict[str, ExperimentConfig]] = None,
    backend=None,
    base_config: Optional[ExperimentConfig] = None,
    catalog=None,
):
    """Run the five strategies under each named configuration.

    The paper's three blocks are ``n=100, log(attribute 1)``, ``n=500,
    log(attribute 1)`` and ``n=100, no log``. When *configs* is ``None``
    they are derived from *base_config* — pass it for a bundle built with a
    custom generator or replication setup, otherwise the blocks are rebuilt
    from the ``bundle.scale`` preset and any customisation would silently
    revert. Render with :func:`repro.experiments.report.render_table1`.

    The blocks run as one incremental sweep
    (:func:`~repro.experiments.sweep.run_sweep`): with a *catalog*,
    already-scored blocks are served bitwise-identically and only the
    invalid ones recompute. Returns a
    :class:`~repro.experiments.sweep.SweepResult` — a mapping
    ``{label -> ExperimentResult}`` exactly like the dict this driver used
    to return, plus per-cell provenance and hit/recompute counters.
    """
    from repro.experiments.sweep import run_sweep, table1_cells

    if configs is None:
        base = base_config or experiment_config(bundle.scale, log_transform=True)
        configs = {
            f"n={base.sample_size}, log(attr1)": base.variant(log_transform=True),
            f"n={5 * base.sample_size}, log(attr1)": base.variant(
                log_transform=True, sample_size=5 * base.sample_size
            ),
            f"n={base.sample_size}, no log": base.variant(log_transform=False),
        }
    return run_sweep(
        table1_cells(bundle, configs),
        catalog=catalog,
        backend=backend,
        name="table1",
    )
