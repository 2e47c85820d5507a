"""Record flags: reduce a ``(..., v)`` cell array over its attribute axis.

A record is one time instant of one series, ``v`` cells wide (``v = 3`` in
the paper's case study). ``mask.any(axis=-1)`` over such a short last axis
runs numpy's reduction machinery once per record, which costs about ten
times what ORing the ``v`` columns as whole arrays does
(``m[..., 0] | m[..., 1] | m[..., 2]``). The flags are the same booleans
either way. The flag functions return a fresh array the caller may
modify in place.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rows_any", "rows_all", "nan_rows", "complete_rows"]


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
