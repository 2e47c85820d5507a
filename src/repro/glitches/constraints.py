"""Inconsistency constraints — the detector ``f_I`` (Section 3.3).

"An inconsistency can be defined based on a single attribute ('inconsistent if
X is less than 0'), or based on multiple attributes." The paper's case study
uses three constraints (Section 4.1):

1. Attribute 1 should be greater than or equal to zero.
2. Attribute 3 should lie in the interval [0, 1].
3. Attribute 1 should not be populated if Attribute 3 is missing.

This module provides a tiny declarative constraint language covering those
three patterns plus arbitrary user predicates. Each constraint flags the
attribute it deems responsible, so violations land in the right column of the
glitch bit matrix.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.data.stream import TimeSeries
from repro.errors import ConstraintError
from repro.utils.rows import rows_any

__all__ = [
    "Constraint",
    "LowerBoundConstraint",
    "RangeConstraint",
    "NotPopulatedIfConstraint",
    "PredicateConstraint",
    "CrossAttributeConstraint",
    "ConstraintSet",
    "paper_constraints",
]


class Constraint(ABC):
    """A rule whose violation marks an attribute as inconsistent.

    ``evaluate`` returns a ``(T, v)`` boolean mask; a True cell means the
    constraint is violated and the violation is attributed to that cell.
    Missing (NaN) values never violate value constraints — they are a
    different glitch type.

    The built-in constraints are pure elementwise array programs, so they
    implement :meth:`evaluate_values` on value arrays of **any** leading
    shape (``(T, v)`` for one series, ``(n, T, v)`` for a whole
    :class:`~repro.data.block.SampleBlock`) and define ``evaluate`` as a
    thin delegation — which is what makes the block and per-series detector
    paths bitwise-identical by construction. Subclasses that only implement
    the per-series ``evaluate`` (the original contract) still work
    everywhere: the default :meth:`evaluate_values` loops series views.

    :meth:`row_violations` is the record-level verdict the cleanliness
    rates count: a ``(..., T)`` flag per record, True when any cell of it
    violates the rule. It defaults to the record flags of
    ``evaluate_values(...)`` (:func:`~repro.utils.rows.rows_any`);
    the built-ins compute the flag straight from their columns and write
    that same flag into their attributed column for :meth:`evaluate_values`,
    so each rule has one implementation.
    """

    @abstractmethod
    def evaluate(self, series: TimeSeries) -> np.ndarray:
        """``(T, v)`` violation mask for *series*."""

    def evaluate_values(
        self, values: np.ndarray, attributes: tuple[str, ...]
    ) -> np.ndarray:
        """Violation mask for a ``(..., v)`` value array (same shape out).

        Default implementation: evaluate per series through
        :meth:`evaluate`. The built-in constraints override this with a
        single vectorised pass and route ``evaluate`` through it instead.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim == 2:
            return self.evaluate(TimeSeries(None, values, tuple(attributes)))
        mask = np.zeros(values.shape, dtype=bool)
        for i in range(values.shape[0]):
            mask[i] = self.evaluate(TimeSeries(None, values[i], tuple(attributes)))
        return mask

    def row_violations(
        self, values: np.ndarray, attributes: tuple[str, ...]
    ) -> np.ndarray:
        """``(..., T)`` record flags of a ``(..., T, v)`` value array: True
        where any cell of the record violates the rule."""
        return rows_any(self.evaluate_values(values, attributes))

    @abstractmethod
    def describe(self) -> str:
        """One-line human-readable statement of the rule."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.describe()!r})"

    @staticmethod
    def _column_of(
        values: np.ndarray, attributes: tuple[str, ...], attribute: str
    ) -> tuple[int, np.ndarray]:
        try:
            j = attributes.index(attribute)
        except ValueError:
            raise ConstraintError(
                f"unknown attribute {attribute!r}; have {attributes}"
            ) from None
        return j, values[..., j]


class _ArrayConstraint(Constraint):
    """Base of the built-in constraints: the record flag is primary.

    Subclasses implement :meth:`row_violations` and attribute every
    violation to ``self.attribute``; :meth:`evaluate_values` writes the
    flag into that column, and the per-series :meth:`evaluate` is the thin
    delegation. (:class:`PredicateConstraint`, whose predicate sees one
    whole series, keeps its own :meth:`evaluate_values` and the default
    row flag.)
    """

    attribute: str

    def evaluate(self, series: TimeSeries) -> np.ndarray:
        return self.evaluate_values(series.values, series.attributes)

    def evaluate_values(
        self, values: np.ndarray, attributes: tuple[str, ...]
    ) -> np.ndarray:
        mask = np.zeros(values.shape, dtype=bool)
        j, _ = self._column_of(values, attributes, self.attribute)
        with np.errstate(invalid="ignore"):
            mask[..., j] = self.row_violations(values, attributes)
        return mask


class LowerBoundConstraint(_ArrayConstraint):
    """``attribute >= bound`` (or ``>`` when ``strict``).

    Constraint 1 of the paper is ``LowerBoundConstraint("attr1", 0.0)``.
    """

    def __init__(self, attribute: str, bound: float, strict: bool = False):
        self.attribute = attribute
        self.bound = float(bound)
        self.strict = bool(strict)

    def row_violations(
        self, values: np.ndarray, attributes: tuple[str, ...]
    ) -> np.ndarray:
        _, col = self._column_of(values, attributes, self.attribute)
        cmp = operator.le if self.strict else operator.lt
        return np.isfinite(col) & cmp(col, self.bound)

    def describe(self) -> str:
        op = ">" if self.strict else ">="
        return f"{self.attribute} {op} {self.bound}"


class RangeConstraint(_ArrayConstraint):
    """``low <= attribute <= high``.

    Constraint 2 of the paper is ``RangeConstraint("attr3", 0.0, 1.0)``.
    """

    def __init__(self, attribute: str, low: float, high: float):
        if low > high:
            raise ConstraintError(f"low ({low}) must be <= high ({high})")
        self.attribute = attribute
        self.low = float(low)
        self.high = float(high)

    def row_violations(
        self, values: np.ndarray, attributes: tuple[str, ...]
    ) -> np.ndarray:
        _, col = self._column_of(values, attributes, self.attribute)
        return np.isfinite(col) & ((col < self.low) | (col > self.high))

    def describe(self) -> str:
        return f"{self.low} <= {self.attribute} <= {self.high}"


class NotPopulatedIfConstraint(_ArrayConstraint):
    """*attribute* must not be populated when *other* is missing.

    Constraint 3 of the paper is
    ``NotPopulatedIfConstraint("attr1", other="attr3")``: "Attribute 1 should
    not be populated if Attribute 3 is missing." The populated value is the
    offender, so the violation is attributed to *attribute*. This rule is the
    built-in source of overlap between missing and inconsistent glitches that
    Figure 3 and Table 1 comment on.
    """

    def __init__(self, attribute: str, other: str):
        if attribute == other:
            raise ConstraintError("attribute and other must differ")
        self.attribute = attribute
        self.other = other

    def row_violations(
        self, values: np.ndarray, attributes: tuple[str, ...]
    ) -> np.ndarray:
        _, col = self._column_of(values, attributes, self.attribute)
        _, other_col = self._column_of(values, attributes, self.other)
        return np.isfinite(col) & np.isnan(other_col)

    def describe(self) -> str:
        return f"{self.attribute} must not be populated if {self.other} is missing"


class CrossAttributeConstraint(_ArrayConstraint):
    """Pairwise comparison between two attributes, e.g. ``attr1 >= attr2``.

    Violations are attributed to *attribute* (the left-hand side). Records
    where either side is missing do not violate.
    """

    _OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
        ">=": operator.ge,
        ">": operator.gt,
        "<=": operator.le,
        "<": operator.lt,
        "==": operator.eq,
    }

    def __init__(self, attribute: str, op: str, other: str):
        if op not in self._OPS:
            raise ConstraintError(f"unsupported operator {op!r}; use one of {sorted(self._OPS)}")
        self.attribute = attribute
        self.op = op
        self.other = other

    def row_violations(
        self, values: np.ndarray, attributes: tuple[str, ...]
    ) -> np.ndarray:
        _, col = self._column_of(values, attributes, self.attribute)
        _, other_col = self._column_of(values, attributes, self.other)
        both = np.isfinite(col) & np.isfinite(other_col)
        return both & ~self._OPS[self.op](col, other_col)

    def describe(self) -> str:
        return f"{self.attribute} {self.op} {self.other}"


class PredicateConstraint(_ArrayConstraint):
    """Escape hatch: an arbitrary record-level predicate.

    ``predicate`` receives the full ``(T, v)`` value array and must return a
    ``(T,)`` boolean array where True means *violated*; the violation is
    attributed to *attribute*.
    """

    def __init__(
        self,
        attribute: str,
        predicate: Callable[[np.ndarray], np.ndarray],
        description: str,
    ):
        self.attribute = attribute
        self.predicate = predicate
        self.description = description

    def evaluate_values(
        self, values: np.ndarray, attributes: tuple[str, ...]
    ) -> np.ndarray:
        mask = np.zeros(values.shape, dtype=bool)
        j, _ = self._column_of(values, attributes, self.attribute)
        if values.ndim == 2:
            length = values.shape[0]
            flags = np.asarray(self.predicate(values), dtype=bool)
            if flags.shape != (length,):
                raise ConstraintError(
                    f"predicate must return shape ({length},), got {flags.shape}"
                )
            mask[:, j] = flags
            return mask
        # The predicate contract is record-level over one (T, v) series, so
        # higher-rank inputs (sample blocks) evaluate one series at a time.
        for i in range(values.shape[0]):
            mask[i] = self.evaluate_values(values[i], attributes)
        return mask

    def describe(self) -> str:
        return self.description


class ConstraintSet:
    """A conjunction of constraints evaluated as one detector ``f_I``.

    The paper folds all inconsistency variants into a single flag per
    attribute (Section 3.3); ``evaluate`` accordingly ORs the per-constraint
    masks.
    """

    def __init__(self, constraints: Iterable[Constraint]):
        self._constraints = list(constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    @property
    def constraints(self) -> list[Constraint]:
        """Member constraints (list copy)."""
        return list(self._constraints)

    def evaluate(self, series: TimeSeries) -> np.ndarray:
        """``(T, v)`` OR-combined violation mask."""
        return self.evaluate_values(series.values, series.attributes)

    def evaluate_values(
        self, values: np.ndarray, attributes: tuple[str, ...]
    ) -> np.ndarray:
        """OR-combined violation mask for a ``(..., v)`` value array.

        This is the block detector's entry point: one vectorised pass over a
        whole ``(n, T, v)`` sample tensor, bitwise-identical to evaluating
        each series separately. Constraints that only implement the
        per-series :meth:`Constraint.evaluate` participate through the base
        class's series-at-a-time :meth:`Constraint.evaluate_values` default.
        """
        values = np.asarray(values, dtype=float)
        mask = np.zeros(values.shape, dtype=bool)
        for c in self._constraints:
            mask |= c.evaluate_values(values, tuple(attributes))
        return mask

    def row_violations(
        self, values: np.ndarray, attributes: tuple[str, ...]
    ) -> np.ndarray:
        """OR-combined ``(..., T)`` record flags of a ``(..., T, v)`` value
        array — bitwise ``evaluate_values(...).any(-1)``, without building
        a cell mask per constraint.

        This is what the cleanliness rates count, one window or one padded
        chunk at a time.
        """
        values = np.asarray(values, dtype=float)
        attributes = tuple(attributes)
        rows = None
        with np.errstate(invalid="ignore"):
            for c in self._constraints:
                flags = c.row_violations(values, attributes)
                rows = flags if rows is None else rows | flags
        return np.zeros(values.shape[:-1], dtype=bool) if rows is None else rows

    def detect(self, series: TimeSeries) -> np.ndarray:
        """Alias of :meth:`evaluate` matching the detector protocol."""
        return self.evaluate(series)

    def describe(self) -> list[str]:
        """Human-readable rule list."""
        return [c.describe() for c in self._constraints]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstraintSet({self.describe()})"


def paper_constraints() -> ConstraintSet:
    """The three inconsistency constraints of the paper's case study.

    Section 4.1: "(1) Attribute 1 should be greater than or equal to zero,
    (2) Attribute 3 should lie in the interval [0, 1], and (3) Attribute 1
    should not be populated if Attribute 3 is missing."
    """
    return ConstraintSet(
        [
            LowerBoundConstraint("attr1", 0.0),
            RangeConstraint("attr3", 0.0, 1.0),
            NotPopulatedIfConstraint("attr1", other="attr3"),
        ]
    )
