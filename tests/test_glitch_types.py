"""GlitchMatrix / DatasetGlitches containers."""

import numpy as np
import pytest

from repro.errors import DataShapeError, ValidationError
from repro.glitches.types import (
    N_GLITCH_TYPES,
    BlockGlitches,
    DatasetGlitches,
    GlitchMatrix,
    GlitchType,
)

from helpers import make_series


@pytest.fixture()
def matrix():
    bits = np.zeros((4, 3, 3), dtype=bool)
    bits[0, 0, int(GlitchType.MISSING)] = True
    bits[0, 1, int(GlitchType.MISSING)] = True
    bits[1, 2, int(GlitchType.INCONSISTENT)] = True
    bits[3, 0, int(GlitchType.OUTLIER)] = True
    return GlitchMatrix(bits)


class TestGlitchType:
    def test_three_types(self):
        assert N_GLITCH_TYPES == 3

    def test_labels(self):
        assert GlitchType.MISSING.label == "missing"
        assert GlitchType.OUTLIER.label == "outlier"

    def test_int_values_are_plane_indices(self):
        assert [int(g) for g in GlitchType] == [0, 1, 2]


class TestGlitchMatrix:
    def test_rejects_wrong_rank(self):
        with pytest.raises(DataShapeError):
            GlitchMatrix(np.zeros((2, 3), dtype=bool))

    def test_rejects_wrong_type_axis(self):
        with pytest.raises(DataShapeError):
            GlitchMatrix(np.zeros((2, 3, 4), dtype=bool))

    def test_empty_factory(self):
        m = GlitchMatrix.empty(5, 3)
        assert m.length == 5
        assert m.n_attributes == 3
        assert not m.bits.any()

    def test_for_series_factory(self, simple_series):
        m = GlitchMatrix.for_series(simple_series)
        assert m.length == simple_series.length

    def test_plane_is_view(self, matrix):
        plane = matrix.plane(GlitchType.MISSING)
        assert plane.shape == (4, 3)
        plane[2, 2] = True
        assert matrix.bits[2, 2, 0]

    def test_record_any(self, matrix):
        rec = matrix.record_any(GlitchType.MISSING)
        assert rec.tolist() == [True, False, False, False]

    def test_record_fraction(self, matrix):
        assert matrix.record_fraction(GlitchType.MISSING) == pytest.approx(0.25)
        assert matrix.record_fraction(GlitchType.OUTLIER) == pytest.approx(0.25)

    def test_cell_fraction(self, matrix):
        assert matrix.cell_fraction(GlitchType.MISSING) == pytest.approx(2 / 12)

    def test_cell_any(self, matrix):
        assert matrix.cell_any().sum() == 4

    def test_counts_by_type(self, matrix):
        assert matrix.counts_by_type().tolist() == [2, 1, 1]

    def test_union(self, matrix):
        other = GlitchMatrix.empty(4, 3)
        other.bits[2, 0, int(GlitchType.OUTLIER)] = True
        merged = matrix.union(other)
        assert merged.bits.sum() == 5

    def test_union_shape_mismatch_raises(self, matrix):
        with pytest.raises(DataShapeError):
            matrix.union(GlitchMatrix.empty(5, 3))

    def test_copy_is_deep(self, matrix):
        c = matrix.copy()
        c.bits[0, 0, 0] = False
        assert matrix.bits[0, 0, 0]


class TestDatasetGlitches:
    def test_empty_raises(self):
        with pytest.raises(ValidationError):
            DatasetGlitches([])

    def test_record_fraction_pooled(self, matrix):
        clean = GlitchMatrix.empty(4, 3)
        pooled = DatasetGlitches([matrix, clean])
        assert pooled.record_fraction(GlitchType.MISSING) == pytest.approx(1 / 8)

    def test_record_fractions_keys(self, matrix):
        fr = DatasetGlitches([matrix]).record_fractions()
        assert set(fr) == set(GlitchType)

    def test_indexing(self, matrix):
        d = DatasetGlitches([matrix])
        assert d[0] is matrix
        assert len(d) == 1


class TestBlockRecordFractions:
    """The one-pass ``BlockGlitches.record_fractions`` equals the per-type
    ``record_fraction`` and the per-series ``DatasetGlitches`` rates, bit
    for bit."""

    @pytest.mark.parametrize(
        "shape, fill",
        [
            ((7, 13, 3), "random"),
            ((1, 1, 1), "random"),
            ((4, 9, 5), "random"),
            ((3, 0, 3), "random"),
            ((5, 8, 3), "false"),
            ((5, 8, 3), "true"),
            ((2, 6, 0), "random"),
        ],
    )
    def test_matches_per_type_and_per_series(self, shape, fill):
        full = shape + (N_GLITCH_TYPES,)
        if fill == "random":
            bits = np.random.default_rng(sum(shape)).random(full) < 0.2
        else:
            bits = np.full(full, fill == "true")
        block = BlockGlitches(bits)
        got = block.record_fractions()
        assert list(got) == list(GlitchType)
        per_type = {g: block.record_fraction(g) for g in GlitchType}
        per_series = block.to_dataset_glitches().record_fractions()
        for g in GlitchType:
            assert type(got[g]) is float
            assert got[g] == per_type[g] == per_series[g]
        if fill != "random" and shape[1]:
            assert set(got.values()) == {1.0 if fill == "true" else 0.0}
