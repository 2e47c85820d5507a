"""Experiment drivers and reports."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.executor import SerialBackend, ThreadBackend
from repro.core.framework import ExperimentConfig, ExperimentRunner
from repro.errors import ExperimentError
from repro.experiments.config import (
    SCALES,
    PopulationBundle,
    backend_from_env,
    build_population,
    experiment_config,
    scale_from_env,
)
from repro.experiments.paper import (
    collect_treatment_scatter,
    figure3_counts,
    figure4_stats,
    figure5_stats,
    run_figure6,
    run_figure7,
    run_table1,
)
from repro.experiments.report import (
    render_cost_summary,
    render_counts_series,
    render_strategy_summaries,
    render_table1,
)
from repro.cleaning.base import CleaningContext
from repro.cleaning.registry import strategy_by_name
from repro.sampling.replication import generate_test_pairs
from repro.utils.rng import spawn_generators


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(n_replications=2, sample_size=8, seed=0)


class TestScales:
    def test_three_presets(self):
        assert set(SCALES) == {"tiny", "small", "paper"}

    def test_paper_preset_is_paper_scale(self):
        preset = SCALES["paper"]
        assert preset.generator.n_sectors == 20000
        assert preset.n_replications == 50
        assert preset.sample_size == 100

    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert scale_from_env() == "tiny"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ExperimentError):
            scale_from_env()
        monkeypatch.delenv("REPRO_SCALE")
        assert scale_from_env(default="small") == "small"

    def test_scale_from_env_normalises_case_and_whitespace(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "  PaPeR  ")
        assert scale_from_env() == "paper"

    def test_scale_from_env_overrides_default(self, monkeypatch):
        # precedence: environment beats the caller's default
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert scale_from_env(default="paper") == "tiny"

    def test_scale_from_env_empty_string_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "")
        with pytest.raises(ExperimentError):
            scale_from_env()

    def test_experiment_config_rejects_unknown_scale(self):
        with pytest.raises(ExperimentError):
            experiment_config("huge")

    def test_build_population_rejects_unknown_scale(self):
        with pytest.raises(ExperimentError):
            build_population(scale="huge")

    def test_experiment_config_override(self):
        cfg = experiment_config("tiny", sample_size=99)
        assert cfg.sample_size == 99

    def test_bundle_properties(self, tiny_bundle):
        assert len(tiny_bundle.dirty) + len(tiny_bundle.ideal) == len(
            tiny_bundle.population
        )
        assert tiny_bundle.scale == "tiny"


def _unmemoised_key(bundle):
    """SHA-256 over the bundle's fingerprint, as ``content_key`` documents."""
    fp = bundle.fingerprint()
    h = hashlib.sha256()
    for name in sorted(fp):
        h.update(name.encode() + b"\x00" + repr(fp[name]).encode() + b"\x00")
    return "content:" + h.hexdigest()


class TestBundleKey:
    def test_content_key_hashes_once(self, tiny_bundle, monkeypatch):
        bundle = dataclasses.replace(tiny_bundle)  # a fresh, unhashed instance
        calls = []
        original = PopulationBundle.fingerprint

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(PopulationBundle, "fingerprint", counted)
        key = bundle.content_key()
        assert bundle.content_key() == key
        assert calls == [bundle]
        assert key == _unmemoised_key(bundle)

    def test_replaced_bundle_rehashes(self, tiny_bundle):
        """A bundle built from another's fields by ``dataclasses.replace``
        never inherits its key."""
        key = tiny_bundle.content_key()
        mixed = dataclasses.replace(tiny_bundle, clean=tiny_bundle.population)
        assert mixed.content_key() == _unmemoised_key(mixed) != key


class TestBackendSelection:
    def test_backend_from_env_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert backend_from_env() is None
        assert backend_from_env(default="thread") == "thread"

    def test_backend_from_env_reads_and_normalises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", " Process:2 ")
        assert backend_from_env() == "process:2"

    def test_backend_from_env_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        with pytest.raises(ExperimentError):
            backend_from_env()
        monkeypatch.delenv("REPRO_BACKEND")
        with pytest.raises(ExperimentError):
            backend_from_env(default="gpu")

    def test_backend_from_env_normalises_default_too(self, monkeypatch):
        # both resolution paths come back validated and lowercased
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert backend_from_env(default=" Process:4 ") == "process:4"
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert backend_from_env(default="THREAD") == "thread"

    def test_experiment_config_carries_backend(self):
        cfg = experiment_config("tiny", backend="thread", n_workers=2)
        assert cfg.backend == "thread"
        assert cfg.n_workers == 2

    def test_experiment_config_rejects_bad_backend(self):
        with pytest.raises(ExperimentError):
            experiment_config("tiny", backend="warp-drive")

    def test_run_figure6_backend_override(self, tiny_bundle, cfg, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        result = run_figure6(
            tiny_bundle, cfg, backend=ThreadBackend(n_workers=2)
        )
        assert len(result.outcomes) == 2 * 5

    def test_runner_env_precedence_over_config(self, tiny_bundle, monkeypatch):
        # REPRO_BACKEND beats the config's name...
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        runner = ExperimentRunner(
            tiny_bundle.dirty,
            tiny_bundle.ideal,
            config=ExperimentConfig(n_replications=1, sample_size=5, backend="thread"),
        )
        assert isinstance(runner.resolve_backend(), SerialBackend)
        # ...but an explicitly constructed instance beats the environment.
        runner = ExperimentRunner(
            tiny_bundle.dirty,
            tiny_bundle.ideal,
            config=ExperimentConfig(n_replications=1, sample_size=5),
            backend=ThreadBackend(n_workers=1),
        )
        assert isinstance(runner.resolve_backend(), ThreadBackend)


class TestConfigVariant:
    def test_variant_flips_transform(self):
        cfg = ExperimentConfig(log_transform=True)
        assert cfg.transform is not None
        assert cfg.variant(log_transform=False).transform is None

    def test_variant_revalidates(self):
        cfg = ExperimentConfig()
        with pytest.raises(Exception):
            cfg.variant(n_replications=0)
        with pytest.raises(ExperimentError):
            cfg.variant(sigma_k=-1.0)
        with pytest.raises(ExperimentError):
            cfg.variant(backend="bogus")

    def test_variant_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            ExperimentConfig().variant(sample_sise=10)

    def test_variant_preserves_untouched_fields(self):
        cfg = ExperimentConfig(seed=42, backend="process:2", n_workers=2)
        v = cfg.variant(sample_size=7)
        assert (v.seed, v.backend, v.n_workers) == (42, "process:2", 2)
        assert cfg.sample_size == 100  # original untouched (frozen)


class TestFigure3:
    def test_counts_shape_and_scale(self, tiny_bundle):
        counts = figure3_counts(tiny_bundle, n_replications=2, sample_size=10, seed=0)
        assert counts.shape == (tiny_bundle.dirty.max_length, 3)
        # 2 runs x 10 series = 20 records max per time step
        assert counts.max() <= 20

    def test_render_counts(self, tiny_bundle):
        counts = figure3_counts(tiny_bundle, n_replications=1, sample_size=5, seed=0)
        text = render_counts_series(counts, stride=20, title="fig3")
        assert "missing" in text and "outlier" in text and "fig3" in text


class TestScatter:
    def test_categories_partition_cells(self, tiny_bundle, cfg):
        scatter = collect_treatment_scatter(
            tiny_bundle, strategy_by_name("strategy1"), "attr1", cfg
        )
        assert scatter.n_imputed > 0
        assert scatter.untouched.size > 0

    @pytest.mark.parametrize(
        "make_seed",
        [lambda: 3, lambda: np.random.SeedSequence(3)],
        ids=["int", "seed_sequence"],
    )
    def test_imputations_use_the_driver_strategy_streams(
        self, tiny_bundle, make_seed
    ):
        # Strategy 1 imputes by random MVN draws, so the imputed values pin
        # which per-replication streams the scatter cleans with: the ones
        # the replication driver spawns (seed + 1 for an int seed, the seed
        # itself otherwise, spawned before the pair draws).
        strategy = strategy_by_name("strategy1")
        cfg = ExperimentConfig(n_replications=2, sample_size=8, seed=make_seed())
        scatter = collect_treatment_scatter(tiny_bundle, strategy, "attr1", cfg)

        seed = make_seed()
        rngs = spawn_generators(
            seed + 1 if isinstance(seed, int) else seed, cfg.n_replications
        )
        pairs = generate_test_pairs(
            tiny_bundle.dirty, tiny_bundle.ideal, cfg.n_replications,
            cfg.sample_size, seed=seed,
        )
        imputed = []
        for pair, rng in zip(pairs, rngs):
            context = CleaningContext(
                ideal=pair.ideal, transform=cfg.transform,
                sigma_k=cfg.sigma_k, seed=rng,
            )
            treated = strategy.clean(pair.dirty, context)
            for before_s, after_s in zip(pair.dirty, treated):
                j = before_s.attribute_index("attr1")
                mask = context.treatable_mask(before_s)[:, j]
                after = context.to_analysis(after_s.values, after_s.attributes)
                imputed.append(after[:, j][mask])
        assert scatter.n_imputed > 0
        assert np.array_equal(scatter.imputed_after, np.concatenate(imputed))

    def test_figure4_statistics(self, tiny_bundle, cfg):
        raw = figure4_stats(tiny_bundle, log_transform=False, config=cfg)
        log = figure4_stats(tiny_bundle, log_transform=True, config=cfg)
        # Figure 4a: negatives imputed on the raw scale only.
        assert raw["frac_imputed_negative"] > 0.0
        assert log["frac_imputed_negative"] == 0.0
        # Section 5.3 tail flip.
        assert raw["frac_repaired_upper"] > raw["frac_repaired_lower"]
        assert log["frac_repaired_lower"] > log["frac_repaired_upper"]

    def test_figure5_statistics(self, tiny_bundle, cfg):
        s1 = figure5_stats(tiny_bundle, "strategy1", config=cfg)
        s2 = figure5_stats(tiny_bundle, "strategy2", config=cfg)
        # Figure 5: the imputer plants ratios above 1 under both strategies;
        # strategy 2 ignores outliers entirely.
        assert s1["frac_imputed_above_one"] > 0.05
        assert s2["frac_imputed_above_one"] > 0.05
        assert s2["n_repaired"] == 0


class TestFigure6And7:
    def test_run_figure6_result(self, tiny_bundle, cfg):
        result = run_figure6(tiny_bundle, cfg)
        assert len(result.outcomes) == 2 * 5
        text = render_strategy_summaries(result.summaries(), title="t")
        assert "strategy1" in text and "Winsorize and impute" in text

    def test_run_figure7_result(self, tiny_bundle, cfg):
        sweep = run_figure7(tiny_bundle, cfg, fractions=(1.0, 0.0))
        assert sweep.strategy == "strategy1"
        text = render_cost_summary(sweep, title="fig7")
        assert "100%" in text and "0%" in text

    def test_run_table1_default_configs(self, tiny_bundle, monkeypatch):
        # shrink the default configs through a custom dict for speed
        configs = {
            "n=8, log(attr1)": ExperimentConfig(
                n_replications=2, sample_size=8, log_transform=True, seed=0
            ),
            "n=8, no log": ExperimentConfig(
                n_replications=2, sample_size=8, log_transform=False, seed=0
            ),
        }
        results = run_table1(tiny_bundle, configs)
        assert set(results) == set(configs)
        text = render_table1(results)
        assert "strategy5" in text and "n=8, no log" in text

    def test_run_table1_honours_base_config(self, tiny_bundle, monkeypatch):
        """A custom base config must drive the derived blocks instead of the
        bundle-scale preset silently taking over."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        base = ExperimentConfig(
            n_replications=1, sample_size=4, log_transform=True, seed=0
        )
        results = run_table1(tiny_bundle, base_config=base)
        assert set(results) == {
            "n=4, log(attr1)",
            "n=20, log(attr1)",
            "n=4, no log",
        }
        assert results["n=4, log(attr1)"].config.n_replications == 1
        assert results["n=20, log(attr1)"].config.sample_size == 20
        assert results["n=4, no log"].config.log_transform is False

    def test_table1_text_has_numeric_grid(self, tiny_bundle):
        configs = {
            "c": ExperimentConfig(n_replications=1, sample_size=6, seed=0)
        }
        text = render_table1(run_table1(tiny_bundle, configs))
        assert "Miss.Dirty" in text
        # five strategy rows
        assert sum(1 for line in text.splitlines() if "strategy" in line) == 5
