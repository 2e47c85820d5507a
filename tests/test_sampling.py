"""Sampling schemes: simple, replications."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.sampling.replication import generate_test_pairs
from repro.sampling.simple import sample_indices, sample_series


class TestSimple:
    def test_indices_in_range(self):
        idx = sample_indices(10, 50, seed=0)
        assert idx.shape == (50,)
        assert idx.min() >= 0 and idx.max() < 10

    def test_with_replacement(self):
        idx = sample_indices(3, 100, seed=0)
        assert len(np.unique(idx)) <= 3

    def test_deterministic(self):
        assert np.array_equal(sample_indices(10, 20, seed=1), sample_indices(10, 20, seed=1))

    def test_sample_series(self, tiny_bundle):
        sample = sample_series(tiny_bundle.dirty, 7, seed=0)
        assert len(sample) == 7

    def test_rejects_zero_size(self, tiny_bundle):
        with pytest.raises(ValidationError):
            sample_series(tiny_bundle.dirty, 0)


class TestReplications:
    def test_count_and_sizes(self, tiny_bundle):
        pairs = list(
            generate_test_pairs(tiny_bundle.dirty, tiny_bundle.ideal, 4, 9, seed=0)
        )
        assert len(pairs) == 4
        assert all(len(p.dirty) == 9 and len(p.ideal) == 9 for p in pairs)
        assert [p.index for p in pairs] == [0, 1, 2, 3]

    def test_deterministic(self, tiny_bundle):
        a = list(generate_test_pairs(tiny_bundle.dirty, tiny_bundle.ideal, 2, 5, seed=3))
        b = list(generate_test_pairs(tiny_bundle.dirty, tiny_bundle.ideal, 2, 5, seed=3))
        for pa, pb in zip(a, b):
            for sa, sb in zip(pa.dirty, pb.dirty):
                assert np.array_equal(sa.values, sb.values, equal_nan=True)

    def test_prefix_stability(self, tiny_bundle):
        """Replication i is identical regardless of how many are generated."""
        few = list(generate_test_pairs(tiny_bundle.dirty, tiny_bundle.ideal, 1, 5, seed=3))
        many = list(generate_test_pairs(tiny_bundle.dirty, tiny_bundle.ideal, 5, 5, seed=3))
        assert np.array_equal(
            few[0].dirty[0].values, many[0].dirty[0].values, equal_nan=True
        )

    def test_replications_differ(self, tiny_bundle):
        a, b = list(
            generate_test_pairs(tiny_bundle.dirty, tiny_bundle.ideal, 2, 8, seed=0)
        )
        assert not all(
            np.array_equal(x.values, y.values, equal_nan=True)
            for x, y in zip(a.dirty, b.dirty)
        )
