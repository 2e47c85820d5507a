"""Stream windows — a data stream delivered in contiguous chunks.

Section 3.1: "In the data stream context, it is often infeasible to store all
the data." A live feed therefore arrives in pieces: :class:`StreamWindow` is
one contiguous chunk of one stream as it reaches a push service, and
:func:`cut_series_windows` cuts a whole series into its in-order window
sequence (the exact inverse of seq-order concatenation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.stream import TimeSeries
from repro.errors import ValidationError
from repro.utils.validation import check_positive_int

__all__ = ["StreamWindow", "cut_series_windows"]


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
