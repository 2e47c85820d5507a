"""Stream windows: StreamWindow's input checks and cut_series_windows' cut."""

import numpy as np
import pytest

from repro.data.stream import NodeId, TimeSeries
from repro.data.window import StreamWindow, cut_series_windows
from repro.errors import ValidationError

ATTRS = ("x", "y", "z")


def _series(length, truth=False, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(length, 3))
    if length:
        values[length // 2, 1] = np.nan
    return TimeSeries(
        NodeId(1, 2, 3),
        values,
        ATTRS,
        rng.normal(size=(length, 3)) if truth else None,
    )


class TestStreamWindow:
    def test_width_and_key(self):
        w = StreamWindow(4, 9, np.zeros((5, 3)), ATTRS)
        assert w.width == 5
        assert w.key == (4, 9)

    def test_numpy_integer_ids_become_int(self):
        w = StreamWindow(np.int64(3), np.uint8(2), np.zeros((1, 3)), ATTRS)
        assert type(w.stream_id) is int and type(w.seq) is int
        assert w.key == (3, 2)

    def test_integer_values_become_float(self):
        w = StreamWindow(0, 0, np.arange(6).reshape(2, 3), ATTRS)
        assert w.values.dtype == float
        assert w.values.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    @pytest.mark.parametrize(
        "stream_id, seq",
        [(True, 0), (0, False), (1.0, 0), (0, "1"), (-1, 0), (0, -2)],
        ids=["bool-id", "bool-seq", "float-id", "str-seq", "neg-id", "neg-seq"],
    )
    def test_rejects_bad_identity(self, stream_id, seq):
        with pytest.raises(ValidationError):
            StreamWindow(stream_id, seq, np.zeros((2, 3)), ATTRS)

    @pytest.mark.parametrize(
        "values",
        [
            np.zeros((2, 2)),
            np.zeros(3),
            np.zeros((2, 3, 1)),
            np.array([["a", "b", "c"]]),
            np.zeros((2, 3), dtype=complex),
            np.zeros((2, 3), dtype=bool),
            [[1.0, 2.0, 3.0], [4.0]],
        ],
        ids=["columns", "1d", "3d", "strings", "complex", "bools", "ragged"],
    )
    def test_rejects_bad_values(self, values):
        with pytest.raises(ValidationError):
            StreamWindow(0, 0, values, ATTRS)

    def test_rejects_truth_of_other_shape(self):
        with pytest.raises(ValidationError, match="truth shape"):
            StreamWindow(0, 0, np.zeros((3, 3)), ATTRS, truth=np.zeros((2, 3)))


class TestCutSeriesWindows:
    @pytest.mark.parametrize("width", [1, 7, 40, 41, 100])
    def test_concatenation_reproduces_series_bitwise(self, width):
        s = _series(40, truth=True)
        windows = cut_series_windows(s, 5, width)
        assert [w.seq for w in windows] == list(range(len(windows)))
        assert len(windows) == -(-40 // width)
        assert all(w.stream_id == 5 for w in windows)
        assert all(w.width == width for w in windows[:-1])
        assert 1 <= windows[-1].width <= width
        values = np.concatenate([w.values for w in windows])
        truth = np.concatenate([w.truth for w in windows])
        assert values.tobytes() == s.values.tobytes()
        assert truth.tobytes() == s.truth.tobytes()

    def test_node_and_attributes_ride_along(self):
        s = _series(10)
        for w in cut_series_windows(s, 0, 4):
            assert w.node == s.node
            assert w.attributes == ATTRS
            assert w.truth is None

    def test_windows_do_not_share_memory_with_series(self):
        s = _series(12, truth=True)
        for w in cut_series_windows(s, 0, 5):
            assert not np.shares_memory(w.values, s.values)
            assert not np.shares_memory(w.truth, s.truth)

    def test_empty_series_is_one_empty_window(self):
        s = _series(0, truth=True)
        (w,) = cut_series_windows(s, 3, 8)
        assert w.key == (3, 0)
        assert w.values.shape == (0, 3)
        assert w.truth.shape == (0, 3)

    @pytest.mark.parametrize("width", [0, -4, 2.5])
    def test_rejects_bad_width(self, width):
        with pytest.raises(ValidationError):
            cut_series_windows(_series(10), 0, width)
