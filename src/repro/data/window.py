"""Windowed history ``F_t^w`` over a data stream.

Section 3.1: "In the data stream context, it is often infeasible to store all
the data. ... In this paper we restrict ourselves to the currently available
window F_t^w, the w time-step history up to time t-1."

:class:`WindowHistory` provides exactly that view for the windowed outlier
detector, without copying the underlying series. Ingestion is shard-aware:
:meth:`WindowHistory.iter_windows` walks any contiguous chunk of the time
axis, :meth:`WindowHistory.shard_bounds` plans the chunk layout, and
:meth:`WindowHistory.map_windows` fans a per-step consumer across those
chunks on an :class:`~repro.core.executor.ExecutionBackend` — each work unit
carries only its slice of the stream plus the ``w``-step overlap it needs,
so a process worker ingests its shard without ever holding the full series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional

import numpy as np

from repro.data.stream import TimeSeries
from repro.errors import ValidationError
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> cleaning -> data)
    from repro.core.pipeline import Pipeline

__all__ = [
    "WindowHistory",
    "WindowShard",
    "ingest_window_shard",
    "StreamWindow",
    "cut_series_windows",
]


@dataclass(frozen=True)
class StreamWindow:
    """One contiguous chunk of one live stream, as it arrives at a service.

    The unit of push-driven ingestion: a per-tower feed delivers its series
    as a sequence of ``(w, v)`` value windows, identified by the stream's
    population index and a per-stream sequence number. Windows carry their
    own identity so out-of-order and duplicated delivery are detectable —
    the ``(stream_id, seq)`` pair is the dedup key, and concatenating a
    stream's windows in ``seq`` order reconstructs the original series
    bitwise (:func:`cut_series_windows` guarantees the converse cut).

    ``truth`` rides along when the source series carries pre-glitch ground
    truth (the re-measurement strategies need it); ``node`` preserves the
    series' node identifier for reassembly.
    """

    stream_id: int
    seq: int
    values: np.ndarray
    attributes: tuple[str, ...]
    node: Optional[object] = None
    truth: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        for name in ("stream_id", "seq"):
            key = getattr(self, name)
            if isinstance(key, bool) or not isinstance(key, (int, np.integer)):
                raise ValidationError(
                    f"{name} must be an integer, got {type(key).__name__}"
                )
            if key < 0:
                raise ValidationError("stream_id and seq must be non-negative")
            object.__setattr__(self, name, int(key))
        values = _real_array(self.values, "values")
        if values.ndim != 2 or values.shape[1] != len(self.attributes):
            raise ValidationError(
                f"window values must be (w, {len(self.attributes)}), "
                f"got shape {values.shape}"
            )
        object.__setattr__(self, "values", values)
        if self.truth is not None:
            truth = _real_array(self.truth, "truth")
            if truth.shape != values.shape:
                raise ValidationError(
                    f"truth shape {truth.shape} does not match values "
                    f"{values.shape}"
                )
            object.__setattr__(self, "truth", truth)

    @property
    def width(self) -> int:
        """Number of time steps in this window."""
        return int(self.values.shape[0])

    @property
    def key(self) -> tuple[int, int]:
        """The dedup identity ``(stream_id, seq)``."""
        return (self.stream_id, self.seq)


def _real_array(data: object, name: str) -> np.ndarray:
    """*data* as a float array; anything but real numbers (strings, complex,
    bools, objects) is a :class:`ValidationError`."""
    try:
        array = np.asarray(data)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise ValidationError(f"window {name} is not an array: {exc}") from None
    if array.dtype.kind not in "fiu":
        raise ValidationError(
            f"window {name} must be real numbers, got dtype {array.dtype}"
        )
    return array.astype(float, copy=False)


def cut_series_windows(
    series: TimeSeries, stream_id: int, width: int
) -> list[StreamWindow]:
    """Cut one series into its in-order :class:`StreamWindow` sequence.

    Windows are consecutive ``[a, a + width)`` slices of the time axis (the
    last one ragged), copied so a window never pins its source series. The
    cut is the exact inverse of seq-order concatenation: stacking the
    returned windows' values reproduces ``series.values`` bit for bit, which
    is what makes push-delivered streams reassemblable into the batch
    engine's inputs.
    """
    check_positive_int(width, "width")
    windows: list[StreamWindow] = []
    values = series.values
    truth = series.truth
    for seq, a in enumerate(range(0, series.length, width)):
        chunk = values[a : a + width]
        windows.append(
            StreamWindow(
                stream_id=stream_id,
                seq=seq,
                values=chunk.copy(),
                attributes=series.attributes,
                node=series.node,
                truth=None if truth is None else truth[a : a + width].copy(),
            )
        )
    if not windows:
        windows.append(
            StreamWindow(
                stream_id=stream_id,
                seq=0,
                values=values[:0].copy(),
                attributes=series.attributes,
                node=series.node,
                truth=None if truth is None else truth[:0].copy(),
            )
        )
    return windows


@dataclass(frozen=True)
class WindowShard:
    """Picklable work unit: consume the windows of one time-axis chunk.

    ``values`` holds the stream rows ``[lo, stop)`` where ``lo`` is the chunk
    start minus the window overlap — everything the chunk's histories can
    reach, and nothing more. ``fn(t, history)`` must be picklable (a
    module-level callable) for the process backend.
    """

    fn: Callable[[int, np.ndarray], object]
    values: np.ndarray
    window: int
    start: int
    stop: int
    lo: int


def ingest_window_shard(unit: WindowShard) -> list:
    """Apply the consumer to every time step of one :class:`WindowShard`."""
    return [
        unit.fn(t, unit.values[max(0, t - unit.window) - unit.lo : t - unit.lo])
        for t in range(unit.start, unit.stop)
    ]


class WindowHistory:
    """Sliding ``w``-step history view over a :class:`TimeSeries`.

    ``history(t)`` returns the rows for times ``t-w .. t-1`` (clipped at the
    start of the stream), i.e. the information set available *before*
    observing ``X^t``.
    """

    def __init__(self, series: TimeSeries, window: int):
        self.series = series
        self.window = check_positive_int(window, "window")

    def history(self, t: int) -> np.ndarray:
        """Rows of the stream in ``[max(0, t-w), t)``; empty at ``t == 0``."""
        if not 0 <= t <= self.series.length:
            raise IndexError(f"t={t} outside [0, {self.series.length}]")
        start = max(0, t - self.window)
        return self.series.values[start:t]

    def history_column(self, t: int, attribute: str) -> np.ndarray:
        """Windowed history of a single attribute."""
        j = self.series.attribute_index(attribute)
        return self.history(t)[:, j]

    def iter_windows(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(t, history_rows)`` for ``t`` in ``[start, stop)``.

        With the defaults this covers the whole stream; bounded calls walk
        one shard of the time axis (each step still sees its full ``w``-step
        history — shard boundaries never truncate the window).
        """
        stop = self.series.length if stop is None else stop
        if not 0 <= start <= stop <= self.series.length:
            raise ValidationError(
                f"bad window range [{start}, {stop}) for length {self.series.length}"
            )
        for t in range(start, stop):
            yield t, self.history(t)

    def shard_bounds(self, shard_size: Optional[int] = None) -> list[tuple[int, int]]:
        """Contiguous ``(start, stop)`` chunks covering the time axis.

        The layout comes from :func:`repro.core.pipeline.plan_shards`
        (``REPRO_SHARD_SIZE`` applies) and is a pure scheduling choice.
        """
        from repro.core.pipeline import plan_shards

        return plan_shards(self.series.length, shard_size)

    def map_windows(
        self,
        fn: Callable[[int, np.ndarray], object],
        backend=None,
        shard_size: Optional[int] = None,
    ) -> list:
        """``[fn(t, history(t)) for t]`` fanned across an execution backend.

        The streaming analogue of :meth:`iter_windows`: the time axis is cut
        into :meth:`shard_bounds` chunks and each :class:`WindowShard` ships
        only its rows plus the ``w``-step overlap. *fn* must be pure and
        picklable; results come back in time order on every backend.
        """
        from repro.core.pipeline import Pipeline

        pipeline = Pipeline.coerce(backend, shard_size=shard_size)
        values = self.series.values
        units = []
        for start, stop in self.shard_bounds(pipeline.shard_size):
            lo = max(0, start - self.window)
            units.append(
                WindowShard(
                    fn=fn,
                    values=values[lo:stop],
                    window=self.window,
                    start=start,
                    stop=stop,
                    lo=lo,
                )
            )
        results: list = []
        for chunk in pipeline.backend.map(ingest_window_shard, units):
            results.extend(chunk)
        return results
