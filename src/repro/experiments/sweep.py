"""The incremental sweep planner — catalog-backed invalidation + batching.

The paper's headline artifacts (Table 1, Figure 6, the cost sweeps) are
*grids* of experiment cells: one population recipe crossed with a handful of
replication configs and strategy panels. This module turns such a grid into
an explicit plan keyed by the catalog's outcome-determining tokens
(:mod:`repro.store.catalog`) and executes only the frontier that is actually
invalid:

* **invalidation diff** — every cell's key covers exactly the inputs that
  determine its outcome floats (population recipe, replication config,
  distance, strategy panel, code-version salt). A cell whose key is already
  scored in the catalog is served back bitwise-identically without building
  anything; :func:`diff_manifests` reports *which* component of a changed
  cell's key moved (a seed change invalidates every cell, a single panel's
  ``cost_fraction`` edit invalidates only that cell, a distance swap leaves
  the population rows reusable);
* **work sharing across the cells that do run** — cells are grouped by
  shared population, and each group gets one *pair source*: a bundle built
  **once** per group, or one streaming engine whose identification fixed
  point is memoised per group. Within a group, cells that share an outcome
  config form a *frame group*, which differs only in its strategy panels
  and is evaluated in one pass over one lazy stream of replication pairs
  by :func:`~repro.core.framework.run_pair_panels_stream`, which hoists the
  per-pair dirty reference frame (sigma limits, detector suite, dirty
  annotation, pooled distortion reference) once per pair;
* a first-class :class:`SweepResult` — cells + keys + provenance +
  hit/miss/build counters, diffable across runs, with a mapping facade so
  drivers that used to return ``dict[str, ExperimentResult]`` can return it
  unchanged.

Sharing stops exactly where bitwise identity would break: each panel keeps
its own per-replication random streams and its own distortion grid (the
shared-support grid is a function of the panel composition), and a cell
whose config seed is not a plain int is a frame group of its own (such a
seed hands out new streams at every spawn).

The executor is the only code that serves, computes and records an
experiment cell: :func:`~repro.experiments.paper.run_experiment` and
:func:`~repro.experiments.paper.run_figure6` run one-cell sweeps through it.

``REPRO_SWEEP_INCREMENTAL=0`` disables catalog serving (every cell
recomputes — the from-scratch reference the benchmarks compare against);
the default is incremental.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.cleaning.base import CleaningStrategy
from repro.core.framework import ExperimentConfig, ExperimentResult
from repro.errors import ExperimentError, ResilienceWarning, ValidationError
from repro.utils.rng import Seed
from repro.utils.validation import env_flag

__all__ = [
    "SWEEP_INCREMENTAL_ENV_VAR",
    "sweep_incremental_enabled",
    "SweepCell",
    "CellKey",
    "cell_key",
    "cell_strategies",
    "SweepPlan",
    "plan_sweep",
    "PlanDiff",
    "diff_manifests",
    "CellResult",
    "SweepResult",
    "run_sweep",
    "figure6_cells",
    "table1_cells",
    "cost_cells",
]

#: Environment variable disabling incremental serving (``0``/``off``).
SWEEP_INCREMENTAL_ENV_VAR = "REPRO_SWEEP_INCREMENTAL"


def sweep_incremental_enabled(override: Optional[bool] = None) -> bool:
    """Whether :func:`run_sweep` serves unchanged cells from the catalog.

    An explicit *override* wins; ``None`` defers to the
    ``REPRO_SWEEP_INCREMENTAL`` environment variable; the default is on.
    Disabling never changes a number — every cell then recomputes through
    the same grouped evaluation, bitwise-identical to the served payloads.
    """
    if override is not None:
        return bool(override)
    return env_flag(SWEEP_INCREMENTAL_ENV_VAR, default=True)


# ---------------------------------------------------------------------------
# Cells and keys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One cell of a sweep: a population identity crossed with one
    replication config and one strategy panel.

    The population is named either by *recipe* (``scale`` — or an explicit
    ``generator_config``/``injection_config`` pair — plus ``seed``; the
    planner builds it at most once per sweep) or by an already-built
    *bundle* (content-addressed identity; nothing is ever built). An empty
    ``strategies`` tuple means the paper's five-strategy panel.
    """

    name: str
    config: ExperimentConfig
    strategies: tuple[CleaningStrategy, ...] = ()
    scale: str = "small"
    seed: Seed = 0
    generator_config: Optional[object] = None
    injection_config: Optional[object] = None
    bundle: Optional[object] = None  # PopulationBundle

    def __post_init__(self) -> None:
        if not self.name:
            raise ExperimentError("every sweep cell needs a name")
        object.__setattr__(self, "strategies", tuple(self.strategies))


def cell_strategies(cell: SweepCell) -> list[CleaningStrategy]:
    """The cell's strategy panel (the paper's five when unspecified)."""
    from repro.cleaning.registry import paper_strategies

    return list(cell.strategies) if cell.strategies else paper_strategies()


def _recipe_configs(cell: SweepCell) -> tuple[object, object]:
    """The (generator, injection) configs naming a recipe cell's population."""
    from repro.data.glitch_injection import GlitchInjectionConfig
    from repro.experiments.config import SCALES

    if cell.generator_config is not None:
        gen_cfg = cell.generator_config
    else:
        if cell.scale not in SCALES:
            raise ExperimentError(
                f"scale must be one of {sorted(SCALES)}, got {cell.scale!r}"
            )
        gen_cfg = SCALES[cell.scale].generator
    inj_cfg = cell.injection_config or GlitchInjectionConfig()
    return gen_cfg, inj_cfg


@dataclass(frozen=True)
class CellKey:
    """The decomposed catalog identity of one cell.

    ``outcome`` is the cell's :func:`~repro.store.catalog.experiment_key` —
    the string the catalog stores under. The components exist so a diff can
    say *why* a cell moved: population recipe, outcome config, strategy
    panel, or code salt.
    """

    population: str
    config: str
    strategies: str
    salt: str
    outcome: str

    def components(self) -> dict[str, str]:
        """The key as a plain dict (the manifest row of this cell)."""
        return {
            "population": self.population,
            "config": self.config,
            "strategies": self.strategies,
            "salt": self.salt,
            "outcome": self.outcome,
        }


def cell_key(cell: SweepCell) -> CellKey:
    """Compute one cell's catalog identity.

    Raises :class:`~repro.errors.ValidationError` when the cell cannot be
    keyed (a live ``Generator`` population or config seed has no replayable
    identity) — the planner then treats the cell as uncacheable and always
    recomputes it.
    """
    import json

    from repro.store.catalog import (
        code_salt,
        config_token,
        experiment_key,
        population_recipe_key,
        strategies_token,
    )

    if cell.bundle is not None:
        pop_key = cell.bundle.content_key()
    else:
        gen_cfg, inj_cfg = _recipe_configs(cell)
        pop_key = population_recipe_key(gen_cfg, inj_cfg, cell.seed)
    strategies = cell_strategies(cell)
    return CellKey(
        population=pop_key,
        config=json.dumps(config_token(cell.config), sort_keys=True),
        strategies=json.dumps(strategies_token(strategies), sort_keys=True),
        salt=code_salt(),
        outcome=experiment_key(pop_key, cell.config, strategies),
    )


# ---------------------------------------------------------------------------
# Plans and diffs
# ---------------------------------------------------------------------------


@dataclass
class SweepPlan:
    """The keyed DAG of one sweep: cells in order, plus their identities.

    ``keys[name]`` is ``None`` for uncacheable cells. The plan is what the
    planner diffs, serves and records — computing it touches no data and
    builds nothing.
    """

    cells: list[SweepCell]
    keys: dict[str, Optional[CellKey]]

    def manifest(self) -> dict[str, dict[str, str]]:
        """``{cell name -> key components}`` for every keyable cell —
        the JSON-serialisable form recorded in the catalog's ``sweeps``
        table and consumed by :func:`diff_manifests`."""
        return {
            name: key.components()
            for name, key in self.keys.items()
            if key is not None
        }


def plan_sweep(cells: Sequence[SweepCell]) -> SweepPlan:
    """Key every cell of a sweep (no data is touched, nothing is built).

    A bundle's content key hashes every series; the bundle memoises it, so
    each distinct bundle is hashed once, however many cells share it.
    """
    return _plan(cells)


def _plan(
    cells: Sequence[SweepCell],
    keyed: bool = True,
    distance_name: Optional[str] = None,
) -> SweepPlan:
    """:func:`plan_sweep`; with *keyed* off every cell is uncacheable and
    nothing is hashed. *distance_name* keys every cell as if its config
    selected that distance (the key of an explicit default-parameter
    instance, :func:`~repro.store.catalog.distance_key_name`)."""
    cells = list(cells)
    names = [c.name for c in cells]
    if len(set(names)) != len(names):
        raise ExperimentError(f"duplicate cell names: {names}")
    keys: dict[str, Optional[CellKey]] = dict.fromkeys(names)
    for cell in cells if keyed else ():
        if distance_name is not None:
            cell = replace(cell, config=cell.config.variant(distance=distance_name))
        try:
            keys[cell.name] = cell_key(cell)
        except ValidationError:
            pass  # no replayable identity: the cell is uncacheable
    return SweepPlan(cells=cells, keys=keys)


@dataclass
class PlanDiff:
    """What changed between two sweep manifests.

    ``changed`` maps a cell name to the key components that moved
    (``population`` / ``config`` / ``strategies`` / ``salt``) — the
    invalidation reason the planner reports for every cell it recomputes.
    """

    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    unchanged: list[str] = field(default_factory=list)
    changed: dict[str, list[str]] = field(default_factory=dict)

    @property
    def invalidated(self) -> list[str]:
        """Cells the previous run had whose keys moved (changed only —
        added cells were never valid to begin with)."""
        return list(self.changed)


def diff_manifests(
    old: Optional[Mapping[str, Mapping[str, str]]],
    new: Mapping[str, Mapping[str, str]],
) -> PlanDiff:
    """Diff two key manifests (see :meth:`SweepPlan.manifest`).

    *old* is typically :meth:`~repro.store.catalog.Catalog.last_sweep`;
    ``None`` (no previous run) reports every cell as added.
    """
    old = dict(old or {})
    diff = PlanDiff()
    for name, components in new.items():
        if name not in old:
            diff.added.append(name)
            continue
        prev = old[name]
        if prev.get("outcome") == components.get("outcome"):
            diff.unchanged.append(name)
            continue
        moved = [
            part
            for part in ("population", "config", "strategies", "salt")
            if prev.get(part) != components.get(part)
        ]
        diff.changed[name] = moved or ["outcome"]
    diff.removed = [name for name in old if name not in new]
    return diff


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class CellResult:
    """One scored cell: its identity, its result, and where it came from.

    ``source`` is ``"catalog"`` (served bitwise-identically from a prior
    run), ``"computed"`` (evaluated this run and stored when a catalog is
    attached), ``"uncacheable"`` (evaluated this run; no replayable key) or
    ``"failed"`` (the cell's evaluation raised after every recovery layer;
    ``result`` is ``None`` and ``error`` carries the provenance — the
    exception type and message). Failed cells are never recorded in the
    catalog, so the next run retries exactly them.
    """

    name: str
    key: Optional[CellKey]
    result: Optional[ExperimentResult]
    source: str
    error: Optional[str] = None


@dataclass
class SweepResult:
    """Every cell of one sweep, with provenance and reuse counters.

    Behaves as a mapping ``{cell name -> ExperimentResult}`` (iteration
    order = cell order), so drivers that historically returned a plain dict
    — :func:`~repro.experiments.paper.run_table1` — return a ``SweepResult``
    without breaking a single consumer. The extra surface is the planner's:
    ``cells`` carries per-cell provenance, ``diff`` the invalidation diff
    against the previous recorded run of the same named sweep, and the
    counters say how much work the plan actually avoided
    (``n_hits``/``n_recomputed``/``n_builds``/``n_groups``) and how much of
    it was lost to failures (``n_failed`` — see :meth:`failed`; the
    completed frontier is always kept). ``source_cells`` retains the
    original :class:`SweepCell` objects by name so :meth:`retry_failed`
    can re-plan exactly the failed frontier.
    """

    cells: list[CellResult] = field(default_factory=list)
    diff: Optional[PlanDiff] = None
    n_hits: int = 0
    n_recomputed: int = 0
    n_uncacheable: int = 0
    n_builds: int = 0
    n_groups: int = 0
    n_failed: int = 0
    source_cells: dict = field(default_factory=dict, repr=False)

    # -- mapping facade ---------------------------------------------------------

    def __iter__(self) -> Iterator[str]:
        return (c.name for c in self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, name: object) -> bool:
        return any(c.name == name for c in self.cells)

    def __getitem__(self, name: str) -> ExperimentResult:
        for c in self.cells:
            if c.name == name:
                if c.result is None:
                    raise ExperimentError(
                        f"sweep cell {name!r} failed: {c.error}"
                    )
                return c.result
        raise KeyError(name)

    def keys(self) -> list[str]:
        """Cell names, in cell order."""
        return [c.name for c in self.cells]

    def values(self) -> list[ExperimentResult]:
        """Cell results, in cell order."""
        return [c.result for c in self.cells]

    def items(self) -> list[tuple[str, ExperimentResult]]:
        """``(name, result)`` pairs, in cell order."""
        return [(c.name, c.result) for c in self.cells]

    def get(self, name: str, default=None):
        """Mapping-style ``get``."""
        for c in self.cells:
            if c.name == name:
                return c.result
        return default

    # -- provenance -------------------------------------------------------------

    def cell(self, name: str) -> CellResult:
        """The full :class:`CellResult` of one cell."""
        for c in self.cells:
            if c.name == name:
                return c
        raise KeyError(name)

    def failed(self) -> dict[str, str]:
        """``{cell name -> error provenance}`` of every failed cell."""
        return {
            c.name: c.error or "unknown error"
            for c in self.cells
            if c.source == "failed"
        }

    def degradations(self) -> dict[str, list[str]]:
        """``{cell name -> backend ladder steps}`` of every degraded cell.

        Aggregated from each cell result's
        :attr:`~repro.core.framework.ExperimentResult.degradations` — runs
        that fell back (process→thread→serial) are visible
        here instead of only in the warning stream.
        """
        events: dict[str, list[str]] = {}
        for c in self.cells:
            if c.result is not None and getattr(c.result, "degradations", []):
                events[c.name] = list(c.result.degradations)
        return events

    @property
    def n_degraded(self) -> int:
        """Total backend ladder steps survived across all cells."""
        return sum(len(steps) for steps in self.degradations().values())

    def retry_failed(self, catalog=None, backend=None, incremental=None) -> "SweepResult":
        """Re-plan and re-run exactly the :meth:`failed` cells.

        Closes the loop the planner opened by never caching failures: the
        failed frontier is re-planned through :func:`run_sweep` (so a
        now-healthy environment serves or recomputes it normally) and the
        retried cells are merged over this result's. Completed cells are
        carried over untouched — never re-evaluated. Returns a new
        :class:`SweepResult`; with nothing failed, returns ``self``.
        """
        failed_names = list(self.failed())
        if not failed_names:
            return self
        missing = [name for name in failed_names if name not in self.source_cells]
        if missing:
            raise ExperimentError(
                f"cannot retry cells {missing!r}: their SweepCell definitions "
                "were not retained (result predates retry support?)"
            )
        retry = run_sweep(
            [self.source_cells[name] for name in failed_names],
            catalog=catalog,
            backend=backend,
            incremental=incremental,
        )
        retried = {c.name: c for c in retry.cells}
        merged = SweepResult(
            diff=self.diff,
            n_builds=self.n_builds + retry.n_builds,
            n_groups=self.n_groups + retry.n_groups,
            source_cells=dict(self.source_cells),
        )
        for c in self.cells:
            merged._append(retried[c.name] if c.source == "failed" else c)
        return merged

    def _append(self, cell: CellResult) -> None:
        """Add one cell, counted by its source."""
        self.cells.append(cell)
        if cell.source == "catalog":
            self.n_hits += 1
        elif cell.source == "failed":
            self.n_failed += 1
        else:
            self.n_recomputed += 1
            self.n_uncacheable += cell.source == "uncacheable"

    def served(self) -> list[str]:
        """Names of cells served from the catalog."""
        return [c.name for c in self.cells if c.source == "catalog"]

    def recomputed(self) -> list[str]:
        """Names of cells evaluated this run."""
        return [c.name for c in self.cells if c.source != "catalog"]

    def key_manifest(self) -> dict[str, dict[str, str]]:
        """``{name -> key components}`` of every keyed cell — the shape
        :func:`diff_manifests` consumes, so two ``SweepResult``s (or a
        result and a recorded manifest) are directly diffable."""
        return {
            c.name: c.key.components() for c in self.cells if c.key is not None
        }

    def cost_result(self, strategy_name: str):
        """Reassemble the per-fraction cells of one :func:`cost_cells`
        family into a :class:`~repro.core.cost.CostSweepResult`.

        Collects every outcome whose strategy is ``strategy_name@..%``
        (the :class:`~repro.cleaning.partial.PartialCleaner` labels),
        relabels them with the bare strategy name (the
        :func:`~repro.core.cost.cost_sweep` convention — the sweep
        coordinate lives in ``cost_fraction``), and orders fractions as
        first encountered in cell order.
        """
        from repro.core.cost import CostSweepResult
        from repro.core.evaluation import StrategyOutcome

        prefix = f"{strategy_name}@"
        fractions: list[float] = []
        outcomes: list[StrategyOutcome] = []
        for cell in self.cells:
            if cell.result is None:
                continue
            for o in cell.result.outcomes:
                if o.strategy != strategy_name and not o.strategy.startswith(prefix):
                    continue
                if o.cost_fraction not in fractions:
                    fractions.append(o.cost_fraction)
                outcomes.append(
                    StrategyOutcome(
                        strategy=strategy_name,
                        replication=o.replication,
                        improvement=o.improvement,
                        distortion=o.distortion,
                        glitch_index_dirty=o.glitch_index_dirty,
                        glitch_index_treated=o.glitch_index_treated,
                        dirty_fractions=o.dirty_fractions,
                        treated_fractions=o.treated_fractions,
                        cost_fraction=o.cost_fraction,
                    )
                )
        if not outcomes:
            raise ExperimentError(
                f"no outcomes for strategy {strategy_name!r} in this sweep"
            )
        return CostSweepResult(
            strategy=strategy_name,
            fractions=tuple(fractions),
            outcomes=outcomes,
        )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

#: Streaming-engine keyword arguments that are pure execution choices —
#: they never change an outcome float, so a catalog hit stays valid under
#: any combination of them. Anything else (identification parameters, say)
#: leaves the cells unkeyed rather than risk a wrong key.
_EXECUTION_ONLY_KWARGS = frozenset(
    {"shard_size", "spill", "spill_dir", "disk_budget", "n_workers"}
)


def _group_ident(cell: SweepCell, key: Optional[CellKey]) -> tuple:
    """The population-sharing identity of one cell.

    Keyed cells group by their population component (recipe or content
    key). An unkeyable *config* seed still allows population sharing when
    the population itself is replayable, so retry just that half. A live
    ``Generator`` population seed is consumed by building — sharing one
    build across cells would diverge from per-cell semantics, so each such
    cell is its own group.
    """
    if key is not None:
        return ("pop", key.population)
    if cell.bundle is not None:
        return ("bundle", id(cell.bundle))
    try:
        from repro.store.catalog import population_recipe_key

        gen_cfg, inj_cfg = _recipe_configs(cell)
        return ("pop", population_recipe_key(gen_cfg, inj_cfg, cell.seed))
    except ValidationError:
        return ("cell", cell.name)


def _frame_token(cell: SweepCell) -> object:
    """The shared-frame identity of one cell's config.

    Cells of one population group whose outcome configs agree are evaluated
    as one multi-panel pass; execution fields (backend, workers, streaming)
    are rightly excluded — they never change an outcome float. A non-int
    config seed hands out new streams at every spawn, so such a cell is a
    frame group of its own: a single-panel pass over a lazily drawn pair
    stream.
    """
    import json

    from repro.store.catalog import config_token

    if not isinstance(cell.config.seed, int):
        return ("cell", cell.name)
    return json.dumps(config_token(cell.config), sort_keys=True)


def _record_cell(
    cat, cell: SweepCell, key: CellKey, result, engine: str, wall_s: float,
    distance_name: Optional[str],
) -> None:
    """Store one computed cell (population row + outcome payload)."""
    if cell.bundle is not None:
        cat.record_population(
            key.population,
            "content",
            scale=cell.bundle.scale,
            n_series=len(cell.bundle.population),
        )
    else:
        gen_cfg, inj_cfg = _recipe_configs(cell)
        cat.record_population(
            key.population,
            "recipe",
            scale=cell.scale if cell.generator_config is None else None,
            seed=repr(cell.seed),
            generator=repr(gen_cfg),
            injection=repr(inj_cfg),
            n_series=gen_cfg.n_sectors,
        )
    cat.put_outcome(
        key.outcome,
        result,
        population_key=key.population,
        config=cell.config,
        strategies=cell_strategies(cell),
        engine=engine,
        wall_s=wall_s,
        distance_name=distance_name,
    )


def run_sweep(
    cells: Sequence[SweepCell],
    catalog=None,
    backend=None,
    incremental: Optional[bool] = None,
    name: Optional[str] = None,
) -> SweepResult:
    """Execute a sweep incrementally: serve what is valid, batch what is not.

    1. **Plan** — key every cell (:func:`plan_sweep`); when *name* is given
       and a catalog is attached, diff the plan against the last recorded
       manifest of that sweep (the invalidation report in ``result.diff``).
    2. **Serve** — with incremental on (the default; *incremental* argument,
       then ``REPRO_SWEEP_INCREMENTAL``), each keyed cell is looked up in
       the catalog exactly once and served bitwise-identically on a hit.
    3. **Batch** — missing cells are grouped by shared population. Each
       group gets one pair source: a bundle built at most once
       (``result.n_builds`` counts), or — when every cell selects the
       streaming engine — one shared
       :class:`~repro.core.streaming.StreamingExperiment` (one feed, one
       memoised identification fixed point, no materialised population).
       Within a group, cells whose outcome configs agree form a frame
       group, evaluated as one multi-panel pass over one lazy pair stream
       (:func:`~repro.core.framework.run_pair_panels_stream`); a cell with
       a non-int config seed is a frame group of its own.
    4. **Record** — computed cells are stored; when *name* is given the
       plan's manifest is appended to the catalog's ``sweeps`` table for
       the next run's diff.

    *backend* overrides every evaluation's execution backend (a name or an
    :class:`~repro.core.executor.ExecutionBackend`); *catalog* follows
    :func:`~repro.store.catalog.resolve_catalog` (an instance, a path, or
    ``None`` deferring to ``REPRO_CATALOG``).
    """
    return _execute(cells, catalog, backend, incremental=incremental, name=name)


def _execute(
    cells: Sequence[SweepCell],
    catalog,
    backend,
    incremental: Optional[bool] = None,
    name: Optional[str] = None,
    distance=None,
    engine_kwargs: Optional[Mapping] = None,
    strict: bool = False,
) -> SweepResult:
    """The one executor that serves, computes and records experiment cells.

    *distance* (an explicit instance) scores every cell, and
    *engine_kwargs* reach every streaming engine the executor builds; a
    group on the block engine refuses them. A customised *distance* (one
    :func:`~repro.store.catalog.distance_key_name` cannot name) or an
    engine argument outside :data:`_EXECUTION_ONLY_KWARGS` leaves every
    cell unkeyed, so the cells bypass the catalog; a default-parameter
    instance is keyed by its registry name.

    *strict* is the one-cell mode of
    :func:`~repro.experiments.paper.run_experiment` and
    :func:`~repro.experiments.paper.run_figure6`: a failure raises instead
    of being recorded, the catalog is consulted whatever
    ``REPRO_SWEEP_INCREMENTAL`` says, and without a catalog nothing is
    keyed, so no bundle is hashed.
    """
    from repro.store.catalog import distance_key_name, resolve_catalog

    engine_kwargs = dict(engine_kwargs or {})
    distance_name = distance_key_name(distance)
    cacheable = (distance is None or distance_name is not None) and set(
        engine_kwargs
    ) <= _EXECUTION_ONLY_KWARGS
    incremental = strict or sweep_incremental_enabled(incremental)
    cat, owned = resolve_catalog(catalog)
    try:
        plan = _plan(
            cells,
            keyed=cacheable and (cat is not None or not strict),
            distance_name=distance_name,
        )
        diff = None
        if cat is not None and name is not None:
            diff = diff_manifests(cat.last_sweep(name), plan.manifest())

        served: dict[str, ExperimentResult] = {}
        if cat is not None and incremental:
            for cell in plan.cells:
                key = plan.keys[cell.name]
                if key is None:
                    continue
                cached = cat.get_outcome(key.outcome)
                if cached is not None:
                    served[cell.name] = cached

        executor = _Executor(
            plan.keys, cat, backend, distance=distance,
            distance_name=distance_name, engine_kwargs=engine_kwargs,
            strict=strict,
        )
        executor.run([c for c in plan.cells if c.name not in served])

        result = SweepResult(
            diff=diff,
            n_builds=executor.n_builds,
            n_groups=executor.n_groups,
            source_cells={c.name: c for c in plan.cells},
        )
        for cell in plan.cells:
            key = plan.keys[cell.name]
            if cell.name in served:
                cell_result = CellResult(cell.name, key, served[cell.name], "catalog")
            elif cell.name in executor.errors:
                error = executor.errors[cell.name]
                cell_result = CellResult(cell.name, key, None, "failed", error)
            else:
                source = "computed" if key is not None else "uncacheable"
                computed = executor.results[cell.name]
                cell_result = CellResult(cell.name, key, computed, source)
            result._append(cell_result)
        if cat is not None and name is not None:
            cat.record_sweep(name, plan.manifest())
        return result
    finally:
        if owned and cat is not None:
            cat.close()


@dataclass
class _PairSource:
    """Where one population group's replication pairs come from.

    ``pairs(config)`` is the group's lazy pair stream for one replication
    config, ``engine`` the catalog's engine label and ``backend`` the
    evaluation backend; ``close`` releases what the source holds.
    """

    pairs: Callable[[ExperimentConfig], Iterable]
    engine: str
    backend: object = None
    close: Callable[[], None] = lambda: None


@dataclass
class _Executor:
    """Evaluates the invalid frontier of one sweep, group by group.

    A cell lands in exactly one of ``results`` and ``errors``: a failure
    anywhere in a group's evaluation fails that group's still-unscored
    cells (with provenance) and never the completed frontier. ``n_builds``
    counts population materialisations and ``n_groups`` the multi-panel
    passes actually dispatched.
    """

    keys: Mapping[str, Optional[CellKey]]
    cat: object
    backend: object
    distance: object = None
    distance_name: Optional[str] = None
    engine_kwargs: dict = field(default_factory=dict)
    strict: bool = False
    results: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    n_builds: int = 0
    n_groups: int = 0

    def run(self, cells: Sequence[SweepCell]) -> None:
        """Evaluate *cells*, one shared-population group at a time."""
        groups: dict[tuple, list[SweepCell]] = {}
        for cell in cells:
            ident = _group_ident(cell, self.keys.get(cell.name))
            groups.setdefault(ident, []).append(cell)
        for members in groups.values():
            try:
                source = self._source(members)
            except Exception as exc:
                self._fail(members, exc)
                continue
            try:
                self._run_group(members, source)
            finally:
                source.close()

    def _source(self, members: Sequence[SweepCell]) -> _PairSource:
        """The group's pair source: a shared streaming engine when every
        cell selects it (with an int config seed), else a bundle — the
        cells' own, or one built from their recipe."""
        from repro.core.streaming import StreamingExperiment, streaming_enabled
        from repro.experiments.config import build_population
        from repro.sampling.replication import generate_test_pairs

        head = members[0]
        if head.bundle is None and all(
            streaming_enabled(c.config) and isinstance(c.config.seed, int)
            for c in members
        ):
            gen_cfg, inj_cfg = _recipe_configs(head)
            engine = StreamingExperiment(
                generator_config=gen_cfg,
                injection_config=inj_cfg,
                seed=head.seed,
                config=head.config,
                backend=self.backend,
                **self.engine_kwargs,
            )
            return _PairSource(
                lambda cfg: engine.replication_pairs(cfg)[0],
                "streaming",
                engine.eval_backend,
                engine.feed.cleanup,
            )
        if self.engine_kwargs:
            raise ExperimentError(
                f"streaming-only arguments {sorted(self.engine_kwargs)} given, "
                "but the streaming engine is not selected"
            )
        bundle = head.bundle
        if bundle is None:
            gen_cfg, inj_cfg = _recipe_configs(head)
            bundle = build_population(
                scale=head.scale if head.generator_config is None else "small",
                seed=head.seed,
                generator_config=gen_cfg,
                injection_config=inj_cfg,
                backend=self.backend,
            )
            self.n_builds += 1

        def pairs(cfg: ExperimentConfig):
            return generate_test_pairs(
                bundle.dirty,
                bundle.ideal,
                n_pairs=cfg.n_replications,
                sample_size=cfg.sample_size,
                seed=cfg.seed,
            )

        return _PairSource(pairs, "block", self.backend)

    def _run_group(self, members: Sequence[SweepCell], source: _PairSource) -> None:
        """One multi-panel pass per frame group over the source's pairs.

        The pairs are drawn lazily, so the serial backend holds one pair at
        a time, and the per-panel strategy seeds are spawned before the
        first draw. A failed pass fails only its own cells.
        """
        from repro.core.framework import run_pair_panels_stream

        frames: dict[object, list[SweepCell]] = {}
        for cell in members:
            frames.setdefault(_frame_token(cell), []).append(cell)
        for group in frames.values():
            rep = group[0].config
            t0 = time.perf_counter()
            try:
                panel_results = run_pair_panels_stream(
                    source.pairs(rep),
                    [cell_strategies(cell) for cell in group],
                    config=rep,
                    distances=[self.distance] * len(group),
                    backend=source.backend,
                    result_configs=[cell.config for cell in group],
                )
            except Exception as exc:
                self._fail(group, exc)
                continue
            self.n_groups += 1
            wall = time.perf_counter() - t0
            for cell, result in zip(group, panel_results):
                self.results[cell.name] = result
                key = self.keys.get(cell.name)
                if self.cat is not None and key is not None:
                    _record_cell(
                        self.cat, cell, key, result, source.engine, wall,
                        self.distance_name,
                    )

    def _fail(self, cells: Sequence[SweepCell], exc: BaseException) -> None:
        """Record a failure for *cells* and keep the sweep going (in strict
        mode, raise it).

        The provenance string (exception type + message) lands in every
        affected cell's :class:`CellResult`; a :class:`ResilienceWarning`
        surfaces the loss immediately. The completed frontier is untouched.
        """
        if self.strict:
            raise exc
        message = f"{type(exc).__name__}: {exc}"
        names = [c.name for c in cells]
        for name in names:
            self.errors[name] = message
        warnings.warn(
            f"sweep cell(s) {', '.join(repr(n) for n in names)} failed "
            f"({message}); recording the failure and continuing with the "
            "remaining cells",
            ResilienceWarning,
            stacklevel=4,
        )


# ---------------------------------------------------------------------------
# Cell builders for the paper's grids
# ---------------------------------------------------------------------------


def figure6_cells(
    scale: str = "small",
    seed: Seed = 0,
    base_config: Optional[ExperimentConfig] = None,
    bundle=None,
) -> list[SweepCell]:
    """The three Figure 6 panels as sweep cells (one shared population).

    Panel (a) log-transformed, (b) raw scale, (c) five-fold sample size —
    all three share the population recipe, so a cold sweep builds it once.
    """
    from repro.experiments.config import experiment_config

    base = base_config or experiment_config(scale)
    variants = {
        "fig6a: log": base.variant(log_transform=True),
        "fig6b: no log": base.variant(log_transform=False),
        "fig6c: B x5": base.variant(
            log_transform=True, sample_size=5 * base.sample_size
        ),
    }
    return [
        SweepCell(name=label, config=cfg, scale=scale, seed=seed, bundle=bundle)
        for label, cfg in variants.items()
    ]


def table1_cells(
    bundle,
    configs: Mapping[str, ExperimentConfig],
) -> list[SweepCell]:
    """Table 1's named configuration blocks as cells over one bundle."""
    return [
        SweepCell(name=label, config=cfg, scale=bundle.scale, bundle=bundle)
        for label, cfg in configs.items()
    ]


def cost_cells(
    strategy: Union[str, CleaningStrategy],
    fractions: Sequence[float],
    config: ExperimentConfig,
    scale: str = "small",
    seed: Seed = 0,
    bundle=None,
) -> list[SweepCell]:
    """A cost sweep as per-fraction cells — one panel per fraction.

    Unlike :func:`~repro.core.cost.cost_sweep` (which scores all fractions
    as **one** strategy panel, sharing one distortion grid), each fraction
    here is its own cell with its own single-strategy panel: a later edit
    to one fraction invalidates only that cell, and every other fraction is
    served from the catalog. The per-fraction numbers differ from the
    one-panel sweep within EMD's binning-insensitivity envelope (the shared
    grid spans a different pooled union) — a sweep is internally consistent
    but the two sweep layouts are distinct experiments. Reassemble with
    :meth:`SweepResult.cost_result`.
    """
    from repro.cleaning.partial import PartialCleaner
    from repro.cleaning.registry import strategy_by_name

    if isinstance(strategy, str):
        strategy = strategy_by_name(strategy)
    fractions = tuple(fractions)
    if len(set(fractions)) != len(fractions):
        raise ExperimentError(f"duplicate fractions: {fractions}")
    return [
        SweepCell(
            name=f"cost: {strategy.name}@{int(round(f * 100))}%",
            config=config,
            strategies=(PartialCleaner(strategy, fraction=f),),
            scale=scale,
            seed=seed,
            bundle=bundle,
        )
        for f in fractions
    ]
