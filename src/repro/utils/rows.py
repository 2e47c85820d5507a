"""Record flags and time counts: the short-axis reductions of cell arrays.

The flag functions reduce a ``(..., v)`` cell array over its attribute axis.

A record is one time instant of one series, ``v`` cells wide (``v = 3`` in
the paper's case study). ``mask.any(axis=-1)`` over such a short last axis
runs numpy's reduction machinery once per record, which costs about ten
times what ORing the ``v`` columns as whole arrays does
(``m[..., 0] | m[..., 1] | m[..., 2]``). The flags are the same booleans
either way. The flag functions return a fresh array the caller may
modify in place.

:func:`time_counts` sums a ``(..., T, v, m)`` bit tensor over its time
axis. Summed in place, that reduction steps ``v * m`` counters per record;
summed along a time-contiguous copy, each counter is one contiguous run.
The counts are exact integers either way.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rows_any", "rows_all", "nan_rows", "complete_rows", "time_counts"]


def rows_any(mask: np.ndarray) -> np.ndarray:
    """``(...)`` flags of a boolean ``(..., v)`` mask: True where any cell
    of the record is set (bitwise ``mask.any(axis=-1)``)."""
    v = mask.shape[-1]
    if v == 3:
        # The case study's width, without the Python loop: every pushed
        # window folds through here, and on the service_push plan the loop
        # made the median window's fold 0.8 us slower than this line.
        return mask[..., 0] | mask[..., 1] | mask[..., 2]
    out = np.zeros(mask.shape[:-1], dtype=bool)
    for j in range(v):
        out |= mask[..., j]
    return out


def rows_all(mask: np.ndarray) -> np.ndarray:
    """``(...)`` flags of a boolean ``(..., v)`` mask: True where every cell
    of the record is set (bitwise ``mask.all(axis=-1)``)."""
    out = np.ones(mask.shape[:-1], dtype=bool)
    for j in range(mask.shape[-1]):
        out &= mask[..., j]
    return out


def nan_rows(values: np.ndarray) -> np.ndarray:
    """``(...)`` flags of a float ``(..., v)`` array: True where any cell of
    the record is NaN (bitwise ``np.isnan(values).any(axis=-1)``)."""
    return rows_any(np.isnan(values))


def complete_rows(values: np.ndarray) -> np.ndarray:
    """The rows of a ``(N, v)`` array without a NaN cell, in order.

    Copies only when a row is dropped: an array whose rows are all
    complete is returned as given.
    """
    partial = nan_rows(values)
    return values[~partial] if partial.any() else values


def time_counts(bits: np.ndarray) -> np.ndarray:
    """``(..., v, m)`` counts of a boolean ``(..., T, v, m)`` tensor over
    its time axis (``bits.sum(axis=-3)``, summed along a time-contiguous
    copy). A single ``(T, v, m)`` window gives ``(v, m)``."""
    *lead, length, v, m = bits.shape
    by_time = np.moveaxis(bits.reshape(*lead, length, v * m), -1, -2)
    return np.ascontiguousarray(by_time).sum(axis=-1).reshape(*lead, v, m)
