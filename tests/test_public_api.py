"""Public API contract: exports resolve, are documented, and stay stable."""

import importlib
import inspect
import pkgutil

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), (
                    f"{info.name}.__all__ lists missing {name!r}"
                )

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    def test_public_classes_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} has no docstring"

    def test_subpackages_documented(self):
        import repro.cleaning
        import repro.core
        import repro.data
        import repro.distance
        import repro.experiments
        import repro.glitches
        import repro.sampling
        import repro.stats

        for mod in (
            repro.data,
            repro.glitches,
            repro.cleaning,
            repro.distance,
            repro.sampling,
            repro.core,
            repro.experiments,
            repro.stats,
        ):
            assert mod.__doc__

    def test_strategy_names_stable(self):
        names = [s.name for s in repro.paper_strategies()]
        assert names == ["strategy1", "strategy2", "strategy3", "strategy4", "strategy5"]

    def test_distances_share_protocol(self):
        import numpy as np

        distances = [
            repro.EarthMoverDistance(n_bins=4),
            repro.SlicedEmd(n_projections=4),
            repro.MarginalEmd(),
            repro.KLDivergence(n_bins=4),
            repro.JensenShannonDistance(n_bins=4),
            repro.KolmogorovSmirnovDistance(),
            repro.MahalanobisDistance(),
        ]
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 2))
        y = rng.normal(0.5, 1.0, size=(60, 2))
        for d in distances:
            value = d(x, y)
            assert value >= 0.0
            assert isinstance(value, float)
            assert d.name


class TestReadmeQuickstartRuns:
    def test_quickstart_snippet(self, tiny_bundle):
        """The README's quickstart, at test scale."""
        config = repro.experiment_config("tiny", log_transform=True)
        result = repro.run_figure6(tiny_bundle, config)
        text = repro.render_strategy_summaries(result.summaries())
        assert "strategy5" in text
        front = repro.pareto_front(result.summaries())
        assert len(front) >= 1
