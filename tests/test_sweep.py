"""Incremental sweep engine tests: planning, invalidation, batching.

The contract under test is the planner's double promise: (1) a cell whose
key did not move is served from the catalog bitwise-identically without
building anything, and exactly the cells a change invalidates recompute;
(2) the cells that do run share population builds and reference frames
without changing a single float relative to standalone per-cell runs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cleaning.partial import PartialCleaner
from repro.cleaning.registry import paper_strategies, strategy_by_name
import repro.core.framework as framework
import repro.sampling.replication as replication
from repro.core.executor import SerialBackend
from repro.core.framework import ExperimentConfig, ExperimentRunner
from repro.core.streaming import StreamingExperiment
from repro.errors import ExperimentError, ValidationError
from repro.experiments.config import SCALES, build_population, experiment_config
from repro.experiments.paper import run_experiment, run_figure6
from repro.experiments.sweep import (
    SWEEP_INCREMENTAL_ENV_VAR,
    PlanDiff,
    SweepCell,
    cell_key,
    cost_cells,
    diff_manifests,
    figure6_cells,
    plan_sweep,
    run_sweep,
    sweep_incremental_enabled,
)
from repro.store.catalog import CATALOG_ENV_VAR, CODE_SALT_ENV_VAR, Catalog


def _keys(result):
    return [
        (
            o.strategy,
            o.replication,
            o.improvement,
            o.distortion,
            o.glitch_index_dirty,
            o.glitch_index_treated,
            o.cost_fraction,
        )
        for o in result.outcomes
    ]


@pytest.fixture
def cfg():
    return ExperimentConfig(n_replications=2, sample_size=8, seed=0)


def _standalone(bundle, cell):
    strategies = list(cell.strategies) if cell.strategies else paper_strategies()
    runner = ExperimentRunner(bundle.dirty, bundle.ideal, config=cell.config)
    return runner.run(strategies)


# ---------------------------------------------------------------------------
# Planning and diffing
# ---------------------------------------------------------------------------


class TestPlan:
    def test_plan_keys_every_cell(self, cfg):
        cells = figure6_cells(scale="tiny", base_config=cfg)
        plan = plan_sweep(cells)
        assert set(plan.keys) == {c.name for c in cells}
        assert all(k is not None for k in plan.keys.values())
        outcomes = [k.outcome for k in plan.keys.values()]
        assert len(set(outcomes)) == len(outcomes)  # distinct cells

    def test_plan_rejects_duplicate_names(self, cfg):
        cells = [
            SweepCell(name="same", config=cfg, scale="tiny"),
            SweepCell(name="same", config=cfg.variant(seed=1), scale="tiny"),
        ]
        with pytest.raises(ExperimentError):
            plan_sweep(cells)

    def test_unkeyable_cell_is_marked(self, cfg):
        cells = [
            SweepCell(
                name="live",
                config=cfg,
                scale="tiny",
                seed=np.random.default_rng(0),
            )
        ]
        plan = plan_sweep(cells)
        assert plan.keys["live"] is None
        assert plan.manifest() == {}

    def test_diff_against_empty(self, cfg):
        manifest = plan_sweep(figure6_cells(scale="tiny", base_config=cfg)).manifest()
        diff = diff_manifests(None, manifest)
        assert sorted(diff.added) == sorted(manifest)
        assert not diff.changed and not diff.removed and not diff.unchanged

    def test_seed_change_invalidates_every_cell(self, cfg):
        """The population seed feeds every cell's key — changing it leaves
        nothing servable, and the diff names the population component."""
        old = plan_sweep(figure6_cells(scale="tiny", seed=0, base_config=cfg))
        new = plan_sweep(figure6_cells(scale="tiny", seed=1, base_config=cfg))
        diff = diff_manifests(old.manifest(), new.manifest())
        assert not diff.unchanged
        assert set(diff.changed) == set(old.manifest())
        assert all("population" in parts for parts in diff.changed.values())

    def test_single_panel_edit_invalidates_one_cell(self, cfg):
        """Editing one cell's ``cost_fraction`` moves only that cell's
        strategies component; every other cell stays valid."""
        s1 = strategy_by_name("strategy1")
        base = [
            SweepCell(
                name=f"f={f}",
                config=cfg,
                strategies=(PartialCleaner(s1, fraction=f),),
                scale="tiny",
            )
            for f in (0.2, 0.5)
        ]
        edited = list(base)
        edited[1] = SweepCell(
            name="f=0.5",
            config=cfg,
            strategies=(PartialCleaner(s1, fraction=0.6),),
            scale="tiny",
        )
        diff = diff_manifests(
            plan_sweep(base).manifest(), plan_sweep(edited).manifest()
        )
        assert diff.unchanged == ["f=0.2"]
        assert diff.changed == {"f=0.5": ["strategies"]}
        assert diff.invalidated == ["f=0.5"]

    def test_distance_swap_moves_config_not_population(self, cfg):
        """Swapping the distance re-keys the cell but leaves the population
        component untouched — the stored population rows stay reusable."""
        old = plan_sweep([SweepCell(name="c", config=cfg, scale="tiny")])
        new = plan_sweep(
            [SweepCell(name="c", config=cfg.variant(distance="kl"), scale="tiny")]
        )
        diff = diff_manifests(old.manifest(), new.manifest())
        assert diff.changed == {"c": ["config"]}
        assert (
            new.keys["c"].population == old.keys["c"].population
        )

    def test_salt_bump_invalidates_everything(self, cfg, monkeypatch):
        old = plan_sweep(figure6_cells(scale="tiny", base_config=cfg))
        monkeypatch.setenv(CODE_SALT_ENV_VAR, "numerics-changed")
        new = plan_sweep(figure6_cells(scale="tiny", base_config=cfg))
        diff = diff_manifests(old.manifest(), new.manifest())
        assert not diff.unchanged
        assert all(parts == ["salt"] for parts in diff.changed.values())

    def test_removed_cells_reported(self, cfg):
        full = plan_sweep(figure6_cells(scale="tiny", base_config=cfg))
        two = plan_sweep(figure6_cells(scale="tiny", base_config=cfg)[:2])
        diff = diff_manifests(full.manifest(), two.manifest())
        assert len(diff.removed) == 1 and len(diff.unchanged) == 2


# ---------------------------------------------------------------------------
# Execution: sharing without drift
# ---------------------------------------------------------------------------


class TestRunSweep:
    def test_shared_population_built_once(self, cfg):
        """Cells sharing a recipe build it exactly once (the acceptance
        counter), and each cell still equals its standalone run."""
        cells = figure6_cells(scale="tiny", base_config=cfg)
        res = run_sweep(cells)
        assert res.n_builds == 1
        assert res.n_recomputed == len(cells) and res.n_hits == 0
        bundle = build_population(scale="tiny", seed=0)
        for cell in cells:
            assert _keys(res[cell.name]) == _keys(_standalone(bundle, cell))

    def test_shared_frame_batches_panels(self, cfg, tiny_bundle):
        """Cells differing only in their strategy panel run as one batched
        multi-panel pass — one group — bitwise-identical to standalone."""
        strategies = paper_strategies()
        cells = [
            SweepCell(
                name="head", config=cfg, strategies=tuple(strategies[:2]),
                bundle=tiny_bundle,
            ),
            SweepCell(
                name="tail", config=cfg, strategies=tuple(strategies[2:]),
                bundle=tiny_bundle,
            ),
        ]
        res = run_sweep(cells)
        assert res.n_groups == 1 and res.n_builds == 0
        for cell in cells:
            assert _keys(res[cell.name]) == _keys(_standalone(tiny_bundle, cell))

    def test_mapping_facade(self, cfg, tiny_bundle):
        cells = [SweepCell(name="only", config=cfg, bundle=tiny_bundle)]
        res = run_sweep(cells)
        assert list(res) == ["only"] and len(res) == 1
        assert "only" in res and "other" not in res
        assert res.keys() == ["only"]
        assert res.items() == [("only", res["only"])]
        assert res.values() == [res["only"]]
        assert res.get("other") is None
        assert res.cell("only").source in ("computed", "uncacheable")
        with pytest.raises(KeyError):
            res["other"]

    def test_streaming_group_shares_engine(self, cfg):
        """An all-streaming group runs through one engine (no materialised
        build) and matches the in-memory path bit for bit."""
        scfg = cfg.variant(streaming=True)
        cells = [
            SweepCell(name="log", config=scfg.variant(log_transform=True),
                      scale="tiny"),
            SweepCell(name="raw", config=scfg.variant(log_transform=False),
                      scale="tiny"),
        ]
        res = run_sweep(cells)
        assert res.n_builds == 0
        bundle = build_population(scale="tiny", seed=0)
        for cell in cells:
            expect = ExperimentRunner(
                bundle.dirty, bundle.ideal,
                config=cell.config.variant(streaming=False),
            ).run(paper_strategies())
            assert _keys(res[cell.name]) == _keys(expect)

    def test_streaming_frame_group_matches_separate_runs(self, cfg):
        """Streaming cells that share a config run as one multi-panel pass
        over one engine's pairs, bitwise two separate engine runs."""
        scfg = cfg.variant(streaming=True)
        strategies = paper_strategies()
        cells = [
            SweepCell(name="head", config=scfg, strategies=tuple(strategies[:2]),
                      scale="tiny"),
            SweepCell(name="tail", config=scfg, strategies=tuple(strategies[2:]),
                      scale="tiny"),
        ]
        res = run_sweep(cells)
        assert res.n_groups == 1 and res.n_builds == 0
        for cell in cells:
            engine = StreamingExperiment.from_scale("tiny", seed=0, config=scfg)
            expect = engine.run(list(cell.strategies)).result
            assert _keys(res[cell.name]) == _keys(expect)

    def test_bundle_group_streams_its_pairs(self, cfg, tiny_bundle, monkeypatch):
        """On the serial backend a frame group evaluates pair r before it
        draws pair r + 1: the group never holds its pairs all at once."""
        draw = replication.generate_test_pairs
        evaluate = framework.evaluate_pair_panels
        events = []

        def spied_pairs(*args, **kwargs):
            for pair in draw(*args, **kwargs):
                events.append(("draw", pair.index))
                yield pair

        def spied_evaluate(pair, *args, **kwargs):
            events.append(("evaluate", pair.index))
            return evaluate(pair, *args, **kwargs)

        monkeypatch.setattr(replication, "generate_test_pairs", spied_pairs)
        monkeypatch.setattr(framework, "evaluate_pair_panels", spied_evaluate)
        rcfg = cfg.variant(n_replications=3)
        strategies = paper_strategies()
        cells = [
            SweepCell(name="head", config=rcfg, strategies=tuple(strategies[:2]),
                      bundle=tiny_bundle),
            SweepCell(name="tail", config=rcfg, strategies=tuple(strategies[2:]),
                      bundle=tiny_bundle),
        ]
        # An instance, not a name: REPRO_BACKEND overrides backend names.
        res = run_sweep(cells, backend=SerialBackend())
        assert res.n_groups == 1
        assert events == [
            (kind, r) for r in range(3) for kind in ("draw", "evaluate")
        ]

    def test_uncacheable_cell_still_runs(self, tiny_bundle):
        rng_cfg = ExperimentConfig(
            n_replications=2, sample_size=8, seed=np.random.default_rng(7)
        )
        res = run_sweep(
            [SweepCell(name="live", config=rng_cfg, bundle=tiny_bundle)]
        )
        assert res.n_uncacheable == 1
        assert res.cell("live").source == "uncacheable"
        assert res["live"].outcomes


class TestIncrementalServing:
    def test_warm_sweep_recomputes_nothing(self, cfg, tmp_path):
        cells = figure6_cells(scale="tiny", base_config=cfg)
        with Catalog(tmp_path / "cat.sqlite") as cat:
            cold = run_sweep(cells, catalog=cat, name="fig6")
            assert cold.n_recomputed == len(cells) and cold.n_builds == 1
            warm = run_sweep(cells, catalog=cat, name="fig6")
            assert warm.n_hits == len(cells)
            assert warm.n_recomputed == 0 and warm.n_builds == 0
            assert sorted(warm.diff.unchanged) == sorted(warm.keys())
            for name in cold.keys():
                assert _keys(warm[name]) == _keys(cold[name])
                assert warm.cell(name).source == "catalog"

    def test_single_cell_edit_recomputes_exactly_it(self, cfg, tmp_path):
        cells = figure6_cells(scale="tiny", base_config=cfg)
        with Catalog(tmp_path / "cat.sqlite") as cat:
            run_sweep(cells, catalog=cat, name="fig6")
            edited = list(cells)
            edited[1] = SweepCell(
                name=cells[1].name,
                config=cells[1].config.variant(sigma_k=2.5),
                scale="tiny",
            )
            res = run_sweep(edited, catalog=cat, name="fig6")
            assert res.n_hits == len(cells) - 1
            assert res.recomputed() == [cells[1].name]
            assert res.diff.changed == {cells[1].name: ["config"]}

    def test_seed_change_recomputes_all(self, cfg, tmp_path):
        with Catalog(tmp_path / "cat.sqlite") as cat:
            run_sweep(
                figure6_cells(scale="tiny", seed=0, base_config=cfg),
                catalog=cat, name="fig6",
            )
            res = run_sweep(
                figure6_cells(scale="tiny", seed=1, base_config=cfg),
                catalog=cat, name="fig6",
            )
            assert res.n_hits == 0 and res.n_recomputed == 3
            assert all(
                "population" in parts for parts in res.diff.changed.values()
            )

    def test_salt_bump_forces_full_recompute(self, cfg, tmp_path, monkeypatch):
        cells = figure6_cells(scale="tiny", base_config=cfg)
        with Catalog(tmp_path / "cat.sqlite") as cat:
            cold = run_sweep(cells, catalog=cat, name="fig6")
            monkeypatch.setenv(CODE_SALT_ENV_VAR, "v2")
            res = run_sweep(cells, catalog=cat, name="fig6")
            assert res.n_hits == 0 and res.n_recomputed == len(cells)
            assert all(parts == ["salt"] for parts in res.diff.changed.values())
            # same code, new salt: the numbers themselves must not move
            for name in cold.keys():
                assert _keys(res[name]) == _keys(cold[name])

    def test_incremental_off_recomputes_identically(self, cfg, tmp_path, monkeypatch):
        cells = figure6_cells(scale="tiny", base_config=cfg)
        with Catalog(tmp_path / "cat.sqlite") as cat:
            cold = run_sweep(cells, catalog=cat)
            monkeypatch.setenv(SWEEP_INCREMENTAL_ENV_VAR, "0")
            assert not sweep_incremental_enabled()
            res = run_sweep(cells, catalog=cat)
            assert res.n_hits == 0 and res.n_recomputed == len(cells)
            for name in cold.keys():
                assert _keys(res[name]) == _keys(cold[name])
            monkeypatch.delenv(SWEEP_INCREMENTAL_ENV_VAR)
            assert sweep_incremental_enabled()
            assert sweep_incremental_enabled(override=False) is False

    def test_recipe_row_records_n_series(self, cfg, tmp_path):
        """A recipe's population row carries its size whichever entry point
        wrote it first: the sweep records it as run_experiment does."""
        with Catalog(tmp_path / "cat.sqlite") as cat:
            run_sweep([SweepCell(name="c", config=cfg, scale="tiny")], catalog=cat)
            rows = cat._conn.execute(
                "SELECT kind, scale, n_series FROM populations"
            ).fetchall()
        gen = SCALES["tiny"].generator
        n_series = gen.n_rnc * gen.towers_per_rnc * gen.sectors_per_tower
        assert [tuple(r) for r in rows] == [("recipe", "tiny", n_series)]

    @pytest.mark.parametrize("raw", ["2", "maybe"])
    def test_malformed_incremental_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(SWEEP_INCREMENTAL_ENV_VAR, raw)
        with pytest.raises(ValidationError, match=SWEEP_INCREMENTAL_ENV_VAR):
            sweep_incremental_enabled()


# ---------------------------------------------------------------------------
# Cost sweeps as cells
# ---------------------------------------------------------------------------


class TestCostCells:
    def test_cost_cells_share_one_build_and_frame(self, cfg):
        cells = cost_cells("strategy1", (0.25, 0.5, 1.0), cfg, scale="tiny")
        res = run_sweep(cells)
        assert res.n_builds == 1 and res.n_groups == 1
        bundle = build_population(scale="tiny", seed=0)
        for cell in cells:
            assert _keys(res[cell.name]) == _keys(_standalone(bundle, cell))

    def test_cost_result_reassembles(self, cfg):
        cells = cost_cells("strategy1", (0.5, 1.0), cfg, scale="tiny")
        res = run_sweep(cells)
        sweep = res.cost_result("strategy1")
        assert sweep.strategy == "strategy1"
        assert sweep.fractions == (0.5, 1.0)
        assert all(o.strategy == "strategy1" for o in sweep.outcomes)
        assert {o.cost_fraction for o in sweep.outcomes} == {0.5, 1.0}
        assert len(sweep.summaries()) == 2

    def test_cost_fraction_edit_hits_other_fractions(self, cfg, tmp_path):
        with Catalog(tmp_path / "cat.sqlite") as cat:
            run_sweep(
                cost_cells("strategy1", (0.5, 1.0), cfg, scale="tiny"),
                catalog=cat, name="cost",
            )
            res = run_sweep(
                cost_cells("strategy1", (0.4, 1.0), cfg, scale="tiny"),
                catalog=cat, name="cost",
            )
            # 1.0 is unchanged and served; 0.4 is a new cell.
            assert res.n_hits == 1 and res.n_recomputed == 1
            assert res.diff.added == ["cost: strategy1@40%"]

    def test_duplicate_fractions_rejected(self, cfg):
        with pytest.raises(ExperimentError):
            cost_cells("strategy1", (0.5, 0.5), cfg)

    def test_cost_result_missing_strategy_raises(self, cfg, tiny_bundle):
        res = run_sweep([SweepCell(name="c", config=cfg, bundle=tiny_bundle)])
        with pytest.raises(ExperimentError):
            res.cost_result("nonexistent")


# ---------------------------------------------------------------------------
# Bundle-keyed sweeps (the run_table1 shape)
# ---------------------------------------------------------------------------


class TestBundleCells:
    def test_bundle_cells_key_by_content(self, cfg, tiny_bundle):
        cell = SweepCell(name="b", config=cfg, bundle=tiny_bundle)
        key = cell_key(cell)
        assert key.population == tiny_bundle.content_key()

    def test_plan_hashes_each_bundle_once(self, cfg, tiny_bundle, monkeypatch):
        """Every cell sharing a bundle shares one content hash per plan,
        and the keys equal the per-cell keys of equal bundles."""
        other = build_population(scale="tiny", seed=1)

        def make_cells(first, second):
            return [
                SweepCell(name="log", config=cfg.variant(log_transform=True),
                          bundle=first),
                SweepCell(name="raw", config=cfg.variant(log_transform=False),
                          bundle=first),
                SweepCell(name="recipe", config=cfg, scale="tiny"),
                SweepCell(name="other", config=cfg, bundle=second),
                SweepCell(name="other2", config=cfg.variant(seed=3),
                          bundle=second),
            ]

        # dataclasses.replace copies a bundle without its memoised key.
        expected = {
            cell.name: cell_key(cell)
            for cell in make_cells(replace(tiny_bundle), replace(other))
        }
        first, second = replace(tiny_bundle), replace(other)
        calls = []
        original = type(tiny_bundle).fingerprint

        def counted(bundle):
            calls.append(bundle)
            return original(bundle)

        monkeypatch.setattr(type(tiny_bundle), "fingerprint", counted)
        cells = make_cells(first, second)
        plan = plan_sweep(cells)
        assert plan.keys == expected
        assert len(calls) == 2
        assert {id(b) for b in calls} == {id(first), id(second)}
        assert plan_sweep(cells).keys == expected
        assert len(calls) == 2

    def test_bundle_sweep_round_trip(self, cfg, tiny_bundle, tmp_path):
        cells = [
            SweepCell(name="log", config=cfg.variant(log_transform=True),
                      bundle=tiny_bundle),
            SweepCell(name="raw", config=cfg.variant(log_transform=False),
                      bundle=tiny_bundle),
        ]
        with Catalog(tmp_path / "cat.sqlite") as cat:
            cold = run_sweep(cells, catalog=cat, name="t1")
            warm = run_sweep(cells, catalog=cat, name="t1")
            assert (warm.n_hits, warm.n_recomputed) == (2, 0)
            for name in cold.keys():
                assert _keys(warm[name]) == _keys(cold[name])


# ---------------------------------------------------------------------------
# One-cell entry points through the same executor
# ---------------------------------------------------------------------------


class TestOneCellEntryPoints:
    def test_entry_points_key_cells_as_the_sweep_does(self, cfg, tiny_bundle, tmp_path):
        """A cell scored by run_experiment or run_figure6 is a hit for the
        equal sweep cell, and back: one key, one record path."""
        with Catalog(tmp_path / "cat.sqlite") as cat:
            recipe = run_experiment(scale="tiny", seed=0, config=cfg, catalog=cat)
            bundle = run_figure6(tiny_bundle, config=cfg, catalog=cat)
            res = run_sweep(
                [
                    SweepCell(name="recipe", config=cfg, scale="tiny"),
                    SweepCell(name="bundle", config=cfg, bundle=tiny_bundle),
                ],
                catalog=cat,
            )
            assert res.n_hits == 2 and res.n_recomputed == 0
            assert _keys(res["recipe"]) == _keys(recipe)
            assert _keys(res["bundle"]) == _keys(bundle)
            assert cat.stats()["outcomes"] == 2

    def test_figure6_without_catalog_never_hashes(self, cfg, tiny_bundle, monkeypatch):
        monkeypatch.delenv(CATALOG_ENV_VAR, raising=False)
        bundle = replace(tiny_bundle)  # no memoised content key

        def boom(self):  # pragma: no cover - must never run
            raise AssertionError("run_figure6 hashed its bundle")

        monkeypatch.setattr(type(bundle), "fingerprint", boom)
        result = run_figure6(bundle, config=cfg)
        assert _keys(result) == _keys(_standalone(tiny_bundle, SweepCell(
            name="c", config=cfg, bundle=tiny_bundle)))
