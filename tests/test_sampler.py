"""Replication sampling copies only the drawn rows.

Every replication sample is stacked from exactly its drawn series: neither
``generate_test_pairs`` nor ``ParentGather`` copies a whole parent. The
oracle is a test-local copy of the old whole-parent gather — stack the
parent once (``to_block``) and index into it (``take``) — which the new
samples must equal bit for bit, NaN payloads included.
"""

import tracemalloc

import numpy as np
import pytest

from repro.data.block import SampleBlock
from repro.data.dataset import StreamDataset
from repro.data.generator import GeneratorConfig
from repro.data.stream import TimeSeries
from repro.data.topology import NodeId
from repro.errors import DataShapeError, ValidationError
from repro.experiments.config import build_population
from repro.sampling import replication
from repro.sampling.replication import (
    ParentGather,
    generate_test_pairs,
    iter_test_pairs,
    replication_index_streams,
)

RAGGED = GeneratorConfig(
    n_rnc=2,
    towers_per_rnc=5,
    sectors_per_tower=10,
    series_length=60,
    min_length=40,
)

#: A quiet NaN with a non-default payload: a copy that goes through float
#: arithmetic instead of a byte copy would be free to drop it.
PAYLOAD_NAN = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.uint64).view(np.float64)[0]


# -- the old whole-parent gather (test-local oracle) ---------------------------


def _old_parent_block(parent):
    try:
        return parent.to_block()
    except DataShapeError:
        return None


def _old_pairs(dirty, ideal, n_pairs, sample_size, seed):
    dirty_block = _old_parent_block(dirty)
    ideal_block = _old_parent_block(ideal)
    draws = replication_index_streams(
        len(dirty), len(ideal), n_pairs, sample_size, seed=seed
    )
    for i, (d_idx, i_idx) in enumerate(draws):
        if dirty_block is not None and ideal_block is not None:
            yield replication.TestPair(
                index=i,
                dirty_block=dirty_block.take(d_idx),
                ideal_block=ideal_block.take(i_idx),
            )
        else:
            yield replication.TestPair(
                index=i,
                dirty=dirty.subset(d_idx.tolist()),
                ideal=ideal.subset(i_idx.tolist()),
            )


def _old_gather_sample(entries, indices):
    """The old ``ParentGather``: the gathered set stacked once, ascending."""
    order = sorted(entries)
    stacked = StreamDataset(entries[i] for i in order).to_block()
    block = SampleBlock(
        values=stacked.values,
        attributes=stacked.attributes,
        nodes=stacked.nodes,
        truth=stacked.truth,
        indices=np.array(order, dtype=np.intp),
    )
    rows = {idx: row for row, idx in enumerate(order)}
    return block.take([rows[int(i)] for i in indices])


# -- bitwise comparison --------------------------------------------------------


def _same_array(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _same_block(a, b):
    _same_array(a.values, b.values)
    _same_array(a.truth, b.truth)
    _same_array(a.indices, b.indices)
    assert a.nodes == b.nodes
    assert a.attributes == b.attributes


def _same_dataset(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.node == y.node and x.attributes == y.attributes
        _same_array(x.values, y.values)
        _same_array(x.truth, y.truth)


def _same_pair(new, old):
    assert new.index == old.index
    assert (new.dirty_block is None) == (old.dirty_block is None)
    assert (new.ideal_block is None) == (old.ideal_block is None)
    if old.dirty_block is not None:
        _same_block(new.dirty_block, old.dirty_block)
        _same_block(new.ideal_block, old.ideal_block)
    _same_dataset(new.dirty, old.dirty)
    _same_dataset(new.ideal, old.ideal)


# -- parents -------------------------------------------------------------------


@pytest.fixture(scope="module")
def ragged_bundle():
    return build_population(scale="tiny", seed=0, generator_config=RAGGED)


def _with_payloads(parent, every=7):
    """*parent* with every *every*-th missing cell re-tagged with a payload."""
    out = []
    for k, s in enumerate(parent):
        values = s.values.copy()
        cells = np.flatnonzero(np.isnan(values))
        values.flat[cells[k % every :: every]] = PAYLOAD_NAN
        out.append(TimeSeries(s.node, values, s.attributes, s.truth))
    return StreamDataset(out)


def _lengths(parent):
    return [s.length for s in parent]


def _without_truth(parent, position):
    series = parent.series
    s = series[position]
    series[position] = TimeSeries(s.node, s.values, s.attributes, None)
    return StreamDataset(series)


# -- oracle: generate_test_pairs -----------------------------------------------


class TestGeneratePairsOracle:
    def _check(self, dirty, ideal, n_pairs=6, sample_size=9, seed=3):
        new = list(generate_test_pairs(dirty, ideal, n_pairs, sample_size, seed=seed))
        old = list(_old_pairs(dirty, ideal, n_pairs, sample_size, seed))
        assert len(new) == len(old) == n_pairs
        for a, b in zip(new, old):
            _same_pair(a, b)
        return new

    def test_tiny_blocks(self, tiny_bundle):
        pairs = self._check(tiny_bundle.dirty, tiny_bundle.ideal)
        assert all(p.dirty_block is not None for p in pairs)
        assert pairs[0].dirty_block.truth is not None

    def test_nan_payloads_survive(self, tiny_bundle):
        dirty = _with_payloads(tiny_bundle.dirty)
        pairs = self._check(dirty, tiny_bundle.ideal, n_pairs=10, sample_size=40)
        drawn = np.concatenate([p.dirty_block.values.ravel() for p in pairs])
        tagged = drawn.view(np.uint64) == PAYLOAD_NAN.view(np.uint64)
        assert tagged.any()

    def test_ragged_recipe_per_series(self, ragged_bundle):
        pairs = self._check(ragged_bundle.dirty, ragged_bundle.ideal)
        assert all(p.dirty_block is None for p in pairs)

    def test_one_ragged_side(self, tiny_bundle, ragged_bundle):
        pairs = self._check(tiny_bundle.dirty, ragged_bundle.ideal)
        assert all(p.dirty_block is None and p.ideal_block is None for p in pairs)
        pairs = self._check(ragged_bundle.dirty, tiny_bundle.ideal)
        assert all(p.dirty_block is None and p.ideal_block is None for p in pairs)

    def test_one_series_without_truth(self, tiny_bundle):
        # The truthless series is never drawn in most pairs: truth is decided
        # over the whole parent, not per draw.
        dirty = _without_truth(tiny_bundle.dirty, 5)
        pairs = self._check(dirty, tiny_bundle.ideal, n_pairs=8, sample_size=3)
        assert all(p.dirty_block.truth is None for p in pairs)
        assert all(p.ideal_block.truth is not None for p in pairs)


# -- oracle: ParentGather.sample -----------------------------------------------


class TestParentGatherOracle:
    def _draws(self, n, seed, size=12, count=5):
        rng = np.random.default_rng(seed)
        return [rng.integers(0, n, size) for _ in range(count)]

    @pytest.mark.parametrize("subset", [False, True])
    def test_matches_old_gather(self, tiny_bundle, subset):
        parent = _with_payloads(tiny_bundle.dirty)
        draws = self._draws(len(parent), seed=1)
        touched = {int(i) for d in draws for i in d}
        keep = touched if subset else range(len(parent))
        entries = {i: parent[i] for i in keep}
        gather = ParentGather(entries, _lengths(parent))
        assert gather.block_layout
        for idx in draws:
            _same_block(gather.sample(idx), _old_gather_sample(entries, idx))
            _same_dataset(gather.sample(idx, block=False), parent.subset(idx.tolist()))

    def test_truth_rule_is_the_gathered_set(self, tiny_bundle):
        parent = _without_truth(tiny_bundle.ideal, 0)
        draws = self._draws(len(parent), seed=2)
        touched = {int(i) for d in draws for i in d} - {0}
        with_truth = {i: parent[i] for i in touched}
        missing_truth = {**with_truth, 0: parent[0]}
        idx = np.array(sorted(touched)[:4])
        for entries, has_truth in ((with_truth, True), (missing_truth, False)):
            gather = ParentGather(entries, _lengths(parent))
            got = gather.sample(idx)
            _same_block(got, _old_gather_sample(entries, idx))
            assert (got.truth is not None) == has_truth

    def test_iter_test_pairs_matches_generate(self, tiny_bundle):
        """The shared per-draw loop over whole-parent gathers is
        ``generate_test_pairs``."""
        dirty, ideal = tiny_bundle.dirty, tiny_bundle.ideal
        draws = list(replication_index_streams(len(dirty), len(ideal), 4, 7, seed=9))
        gathers = [
            ParentGather(dict(enumerate(p)), _lengths(p))
            for p in (dirty, ideal)
        ]
        for a, b in zip(
            iter_test_pairs(draws, *gathers),
            generate_test_pairs(dirty, ideal, 4, 7, seed=9),
        ):
            _same_pair(a, b)

    def test_samples_own_their_indices(self, tiny_bundle):
        parent = tiny_bundle.dirty
        gather = ParentGather(dict(enumerate(parent)), _lengths(parent))
        idx = np.array([3, 1, 3], dtype=np.intp)
        block = gather.sample(idx)
        idx[0] = 0
        assert block.indices.tolist() == [3, 1, 3]

    def test_rejects_empty_and_ungathered(self, tiny_bundle):
        parent = tiny_bundle.dirty
        gather = ParentGather({0: parent[0], 2: parent[2]}, _lengths(parent))
        with pytest.raises(ValidationError):
            gather.sample([])
        with pytest.raises(ValidationError):
            gather.sample([0, 1])
        with pytest.raises(ValidationError):
            ParentGather({len(parent): parent[0]}, _lengths(parent))
        with pytest.raises(ValidationError):
            ParentGather({}, [])
        ragged = ParentGather({0: parent[0]}, [60, 59])
        assert not ragged.block_layout
        with pytest.raises(ValidationError):
            ragged.sample([0], block=True)


# -- memory guard --------------------------------------------------------------


def test_sampling_allocates_one_pair_not_the_parent(monkeypatch):
    """Drawing every pair from a 2 000-series parent allocates about one
    pair at a time: the tracemalloc peak stays below a small multiple of one
    pair's bytes (stacking both parents first peaks at ~21x, drawing only
    the rows at ~2x), and no parent is converted to a block."""
    n, length, v, sample_size, n_pairs = 2_000, 50, 3, 100, 10
    rng = np.random.default_rng(11)

    def parent(rnc):
        return StreamDataset(
            TimeSeries(
                NodeId(rnc, k // 10, k % 10),
                rng.random((length, v)),
                truth=rng.random((length, v)),
            )
            for k in range(n)
        )

    dirty, ideal = parent(0), parent(1)
    conversions = []
    to_block = StreamDataset.to_block

    def counted(self):
        conversions.append(len(self))
        return to_block(self)

    monkeypatch.setattr(StreamDataset, "to_block", counted)
    # values + truth, both sides of one pair
    pair_bytes = 2 * 2 * sample_size * length * v * 8
    tracemalloc.start()
    try:
        drawn = 0
        for pair in generate_test_pairs(dirty, ideal, n_pairs, sample_size, seed=4):
            assert pair.dirty_block.truth is not None
            drawn += pair.dirty_block.n_series + pair.ideal_block.n_series
            del pair
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert drawn == 2 * n_pairs * sample_size
    assert conversions == []
    assert peak < 4 * pair_bytes, (peak, pair_bytes)
