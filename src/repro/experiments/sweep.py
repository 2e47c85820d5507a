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
  shared population recipe (the population is built **once** per group, the
  streaming engine's identification fixed point is memoised per group) and,
  within a group, by shared outcome config: such a *frame group* differs
  only in its strategy panels and is evaluated in one pass over the shared
  replication pairs by
  :func:`~repro.core.framework.run_pair_panels_stream`, which hoists the
  per-pair dirty reference frame (sigma limits, detector suite, dirty
  annotation, pooled distortion reference) once per pair;
* a first-class :class:`SweepResult` — cells + keys + provenance +
  hit/miss/build counters, diffable across runs, with a mapping facade so
  drivers that used to return ``dict[str, ExperimentResult]`` can return it
  unchanged.

Sharing stops exactly where bitwise identity would break: each panel keeps
its own per-replication random streams and its own distortion grid (the
shared-support grid is a function of the panel composition), and cells whose
config seed is not a plain int fall back to standalone per-cell evaluation
(non-int seeds are consumed order-dependently by the replication loop).

``REPRO_SWEEP_INCREMENTAL=0`` disables catalog serving (every cell
recomputes — the from-scratch reference the benchmarks compare against);
the default is incremental.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence, Union

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
    cells = list(cells)
    names = [c.name for c in cells]
    if len(set(names)) != len(names):
        raise ExperimentError(f"duplicate cell names: {names}")
    keys: dict[str, Optional[CellKey]] = {}
    for cell in cells:
        try:
            keys[cell.name] = cell_key(cell)
        except ValidationError:
            keys[cell.name] = None
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
            cell = retried[c.name] if c.source == "failed" else c
            merged.cells.append(cell)
            if cell.source == "catalog":
                merged.n_hits += 1
            elif cell.source == "failed":
                merged.n_failed += 1
            else:
                merged.n_recomputed += 1
                if cell.source == "uncacheable":
                    merged.n_uncacheable += 1
        return merged

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


def _frame_token(cell: SweepCell) -> Optional[str]:
    """The shared-frame identity of one cell's config, or ``None``.

    Cells of one population group whose outcome configs agree (and whose
    seed is a plain int) are evaluated as one multi-panel pass; execution
    fields (backend, workers, streaming) are rightly excluded — they never
    change an outcome float.
    """
    import json

    from repro.store.catalog import config_token

    if not isinstance(cell.config.seed, int):
        return None
    try:
        return json.dumps(config_token(cell.config), sort_keys=True)
    except ValidationError:  # pragma: no cover - int seeds always tokenise
        return None


def _record_cell(cat, cell: SweepCell, key: CellKey, result, engine: str, wall_s: float) -> None:
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
        )
    cat.put_outcome(
        key.outcome,
        result,
        population_key=key.population,
        config=cell.config,
        strategies=cell_strategies(cell),
        engine=engine,
        wall_s=wall_s,
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
    3. **Batch** — missing cells are grouped by shared population (built at
       most once per group — ``result.n_builds`` counts), then by shared
       outcome config into frame groups evaluated in one multi-panel pass
       over shared replication pairs
       (:func:`~repro.core.framework.run_pair_panels_stream`). Groups whose
       cells all select the streaming engine share one
       :class:`~repro.core.streaming.StreamingExperiment` (one feed, one
       memoised identification fixed point) and never materialise the
       population. Cells that cannot share (non-int seeds) fall back to
       standalone evaluation.
    4. **Record** — computed cells are stored; when *name* is given the
       plan's manifest is appended to the catalog's ``sweeps`` table for
       the next run's diff.

    *backend* overrides every evaluation's execution backend (a name or an
    :class:`~repro.core.executor.ExecutionBackend`); *catalog* follows
    :func:`~repro.store.catalog.resolve_catalog` (an instance, a path, or
    ``None`` deferring to ``REPRO_CATALOG``).
    """
    from repro.store.catalog import resolve_catalog

    plan = plan_sweep(cells)
    incremental = sweep_incremental_enabled(incremental)
    cat, owned = resolve_catalog(catalog)
    try:
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

        to_compute = [c for c in plan.cells if c.name not in served]
        computed, errors, n_builds, n_groups = _compute_cells(
            to_compute, plan.keys, cat, backend
        )

        result = SweepResult(
            diff=diff,
            n_builds=n_builds,
            n_groups=n_groups,
            source_cells={c.name: c for c in plan.cells},
        )
        for cell in plan.cells:
            key = plan.keys[cell.name]
            if cell.name in served:
                result.cells.append(
                    CellResult(cell.name, key, served[cell.name], "catalog")
                )
                result.n_hits += 1
            elif cell.name in errors:
                result.cells.append(
                    CellResult(cell.name, key, None, "failed", errors[cell.name])
                )
                result.n_failed += 1
            else:
                source = "computed" if key is not None else "uncacheable"
                result.cells.append(
                    CellResult(cell.name, key, computed[cell.name], source)
                )
                result.n_recomputed += 1
                if key is None:
                    result.n_uncacheable += 1
        if cat is not None and name is not None:
            cat.record_sweep(name, plan.manifest())
        return result
    finally:
        if owned and cat is not None:
            cat.close()


def _fail_cells(
    cells: Sequence[SweepCell], exc: BaseException, errors: dict
) -> None:
    """Record a failure for *cells* and keep the sweep going.

    The provenance string (exception type + message) lands in every
    affected cell's :class:`CellResult`; a :class:`ResilienceWarning`
    surfaces the loss immediately. The completed frontier is untouched.
    """
    message = f"{type(exc).__name__}: {exc}"
    names = [c.name for c in cells]
    for name in names:
        errors[name] = message
    warnings.warn(
        f"sweep cell(s) {', '.join(repr(n) for n in names)} failed "
        f"({message}); recording the failure and continuing with the "
        "remaining cells",
        ResilienceWarning,
        stacklevel=3,
    )


def _compute_cells(
    cells: Sequence[SweepCell],
    keys: Mapping[str, Optional[CellKey]],
    cat,
    backend,
) -> tuple[dict[str, ExperimentResult], dict[str, str], int, int]:
    """Evaluate the invalid frontier, shared-population group by group.

    Returns ``({cell name -> result}, {cell name -> error}, n_builds,
    n_groups)`` where ``n_builds`` counts population materialisations and
    ``n_groups`` the evaluation batches actually dispatched. A cell appears
    in exactly one of the two dicts: a failure anywhere in a group's
    evaluation fails that group's still-unscored cells (with provenance)
    and never the already-completed frontier.
    """
    from repro.core.streaming import streaming_enabled

    groups: dict[tuple, list[SweepCell]] = {}
    for cell in cells:
        groups.setdefault(_group_ident(cell, keys.get(cell.name)), []).append(cell)

    results: dict[str, ExperimentResult] = {}
    errors: dict[str, str] = {}
    n_builds = 0
    n_groups = 0
    for members in groups.values():
        bundle = next((c.bundle for c in members if c.bundle is not None), None)
        if (
            bundle is None
            and all(streaming_enabled(c.config) for c in members)
            and all(isinstance(c.config.seed, int) for c in members)
        ):
            n_groups += _run_streaming_group(
                members, keys, cat, backend, results, errors
            )
            continue
        if bundle is None:
            from repro.experiments.config import build_population

            head = members[0]
            gen_cfg, inj_cfg = _recipe_configs(head)
            try:
                bundle = build_population(
                    scale=head.scale if head.generator_config is None else "small",
                    seed=head.seed,
                    generator_config=gen_cfg,
                    injection_config=inj_cfg,
                    backend=backend,
                )
            except Exception as exc:
                _fail_cells(members, exc, errors)
                continue
            n_builds += 1
        n_groups += _run_bundle_group(
            members, keys, cat, backend, bundle, results, errors
        )
    return results, errors, n_builds, n_groups


def _run_bundle_group(
    members: Sequence[SweepCell],
    keys: Mapping[str, Optional[CellKey]],
    cat,
    backend,
    bundle,
    results: dict,
    errors: dict,
) -> int:
    """Evaluate one shared-population group on a materialised bundle.

    Cells are sub-grouped by outcome config (:func:`_frame_token`): each
    frame group runs as one multi-panel pass over shared pairs; cells that
    cannot share fall back to a standalone runner. A failed pass fails only
    its own cells (recorded in *errors*). Returns the number of evaluation
    batches dispatched.
    """
    from repro.core.framework import ExperimentRunner, run_pair_panels_stream
    from repro.sampling.replication import generate_test_pairs

    frames: dict[Optional[str], list[SweepCell]] = {}
    for cell in members:
        frames.setdefault(_frame_token(cell), []).append(cell)

    batches = 0
    for token, group in frames.items():
        if token is None:
            # Standalone fallback: non-int seeds must consume their streams
            # in the exact lazy order of the single-panel loop.
            for cell in group:
                t0 = time.perf_counter()
                try:
                    runner = ExperimentRunner(
                        bundle.dirty, bundle.ideal, config=cell.config,
                        backend=backend,
                    )
                    results[cell.name] = runner.run(cell_strategies(cell))
                except Exception as exc:
                    _fail_cells([cell], exc, errors)
                    continue
                batches += 1
                _maybe_record(
                    cat, cell, keys, results[cell.name], "block",
                    time.perf_counter() - t0,
                )
            continue
        t0 = time.perf_counter()
        rep = group[0].config
        try:
            pairs = list(
                generate_test_pairs(
                    bundle.dirty,
                    bundle.ideal,
                    n_pairs=rep.n_replications,
                    sample_size=rep.sample_size,
                    seed=rep.seed,
                )
            )
            panel_results = run_pair_panels_stream(
                pairs,
                [cell_strategies(cell) for cell in group],
                config=rep,
                backend=backend,
                result_configs=[cell.config for cell in group],
            )
        except Exception as exc:
            _fail_cells(group, exc, errors)
            continue
        batches += 1
        wall = time.perf_counter() - t0
        for cell, res in zip(group, panel_results):
            results[cell.name] = res
            _maybe_record(cat, cell, keys, res, "block", wall)
    return batches


def _run_streaming_group(
    members: Sequence[SweepCell],
    keys: Mapping[str, Optional[CellKey]],
    cat,
    backend,
    results: dict,
    errors: dict,
) -> int:
    """Evaluate one shared-recipe group through a single streaming engine.

    The feed (and its spilled shards) and the identification fixed point
    are shared across every cell; each cell runs its own replication loop
    with its own config. An engine that cannot be constructed fails the
    whole group; a failed cell run fails only that cell (recorded in
    *errors*). Returns the number of engine runs dispatched.
    """
    from repro.core.streaming import StreamingExperiment

    head = members[0]
    try:
        gen_cfg, inj_cfg = _recipe_configs(head)
        engine = StreamingExperiment(
            generator_config=gen_cfg,
            injection_config=inj_cfg,
            seed=head.seed,
            config=head.config,
            backend=backend,
        )
    except Exception as exc:
        _fail_cells(members, exc, errors)
        return 0
    batches = 0
    try:
        for cell in members:
            t0 = time.perf_counter()
            try:
                streamed = engine.run(
                    cell_strategies(cell), cleanup=False, config=cell.config
                )
            except Exception as exc:
                _fail_cells([cell], exc, errors)
                continue
            results[cell.name] = streamed.result
            batches += 1
            _maybe_record(
                cat, cell, keys, streamed.result, "streaming",
                time.perf_counter() - t0,
            )
    finally:
        engine.feed.cleanup()
    return batches


def _maybe_record(cat, cell, keys, result, engine: str, wall_s: float) -> None:
    if cat is None:
        return
    key = keys.get(cell.name)
    if key is None:
        return
    _record_cell(cat, cell, key, result, engine, wall_s)


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
