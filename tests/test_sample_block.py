"""SampleBlock: round-tripping, zero-copy views, sampling, pickling."""

import pickle

import numpy as np
import pytest

from repro.data.block import SampleBlock
from repro.data.dataset import StreamDataset
from repro.data.stream import TimeSeries
from repro.data.topology import NodeId
from repro.errors import DataShapeError, ValidationError

from helpers import make_series


def _uniform_dataset(n=4, t=6, v=3, seed=0, with_truth=True):
    rng = np.random.default_rng(seed)
    series = []
    for k in range(n):
        truth = rng.normal(size=(t, v)) if with_truth else None
        values = (truth.copy() if with_truth else rng.normal(size=(t, v)))
        values[rng.random(values.shape) < 0.2] = np.nan
        series.append(TimeSeries(NodeId(0, 0, k), values, truth=truth))
    return StreamDataset(series)


class TestRoundTrip:
    def test_to_block_shape_and_metadata(self):
        ds = _uniform_dataset()
        block = ds.to_block()
        assert (block.n_series, block.length, block.n_attributes) == (4, 6, 3)
        assert block.attributes == ds.attributes
        assert block.nodes == tuple(s.node for s in ds)
        assert np.array_equal(block.indices, np.arange(4))

    def test_values_masks_and_truth_lossless(self):
        ds = _uniform_dataset()
        block = ds.to_block()
        back = StreamDataset.from_block(block)
        assert back.attributes == ds.attributes
        for original, restored in zip(ds, back):
            assert restored.node == original.node
            assert np.array_equal(restored.values, original.values, equal_nan=True)
            assert np.array_equal(
                restored.missing_mask, original.missing_mask
            )
            assert np.array_equal(restored.truth, original.truth)

    def test_truth_omitted_when_any_series_lacks_it(self):
        ds = _uniform_dataset(with_truth=False)
        assert ds.to_block().truth is None

    def test_ragged_lengths_raise(self):
        ragged = StreamDataset(
            [
                make_series([[1.0, 2.0, 0.5], [2.0, 3.0, 0.6]]),
                make_series([[1.0, 2.0, 0.5]]),
            ]
        )
        with pytest.raises(DataShapeError):
            ragged.to_block()

    def test_pooled_matches_dataset_pooled(self):
        ds = _uniform_dataset()
        block = ds.to_block()
        for dropna in ("none", "any", "all"):
            assert np.array_equal(
                block.pooled(dropna), ds.pooled(dropna), equal_nan=True
            )


class TestZeroCopyViews:
    def test_view_mutation_visible_in_parent_block(self):
        block = _uniform_dataset().to_block()
        view_ds = StreamDataset.from_block(block)
        view_ds[2].values[0, 0] = 123.25
        assert block.values[2, 0, 0] == 123.25

    def test_block_mutation_visible_in_views(self):
        block = _uniform_dataset().to_block()
        view_ds = StreamDataset.from_block(block)
        block.values[1, 3, 2] = -7.5
        assert view_ds[1].values[3, 2] == -7.5

    def test_to_block_copies_out_of_the_source_series(self):
        ds = _uniform_dataset()
        block = ds.to_block()
        block.values[0, 0, 0] = 99.0
        assert ds[0].values[0, 0] != 99.0


class TestTakeAndCopy:
    def test_take_gathers_with_repeats(self):
        block = _uniform_dataset().to_block()
        sub = block.take([3, 1, 1])
        assert sub.n_series == 3
        assert np.array_equal(sub.values[1], sub.values[2], equal_nan=True)
        assert np.array_equal(sub.values[0], block.values[3], equal_nan=True)
        assert sub.nodes == (block.nodes[3], block.nodes[1], block.nodes[1])
        assert np.array_equal(sub.indices, [3, 1, 1])

    def test_take_is_a_copy(self):
        block = _uniform_dataset().to_block()
        sub = block.take([0])
        sub.values[0, 0, 0] = 42.0
        assert block.values[0, 0, 0] != 42.0

    def test_take_rejects_bad_indices(self):
        block = _uniform_dataset().to_block()
        with pytest.raises(ValidationError):
            block.take([])
        with pytest.raises(ValidationError):
            block.take([7])

    def test_copy_shares_metadata_but_not_values(self):
        block = _uniform_dataset().to_block()
        dup = block.copy()
        dup.values[0, 0, 0] = 5.5
        assert block.values[0, 0, 0] != 5.5
        assert dup.truth is block.truth
        assert dup.nodes is block.nodes


class TestPickling:
    def test_block_round_trips_through_pickle(self):
        block = _uniform_dataset().to_block()
        restored = pickle.loads(pickle.dumps(block))
        assert np.array_equal(restored.values, block.values, equal_nan=True)
        assert np.array_equal(restored.truth, block.truth)
        assert restored.attributes == block.attributes
        assert restored.nodes == block.nodes


class TestValidation:
    def test_rejects_wrong_rank(self):
        with pytest.raises(DataShapeError):
            SampleBlock(np.zeros((3, 4)), ("a",), (NodeId(0, 0, 0),) * 3)

    def test_rejects_attribute_mismatch(self):
        with pytest.raises(DataShapeError):
            SampleBlock(np.zeros((2, 3, 3)), ("a", "b"), (NodeId(0, 0, 0),) * 2)

    def test_rejects_node_count_mismatch(self):
        with pytest.raises(DataShapeError):
            SampleBlock(np.zeros((2, 3, 2)), ("a", "b"), (NodeId(0, 0, 0),))

    def test_rejects_truth_shape_mismatch(self):
        with pytest.raises(DataShapeError):
            SampleBlock(
                np.zeros((2, 3, 2)),
                ("a", "b"),
                (NodeId(0, 0, 0),) * 2,
                truth=np.zeros((2, 3, 3)),
            )
