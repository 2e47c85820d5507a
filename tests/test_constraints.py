"""Inconsistency constraint DSL — the detector f_I."""

import math

import numpy as np
import pytest

from repro.errors import ConstraintError
from repro.glitches.constraints import (
    Constraint,
    ConstraintSet,
    CrossAttributeConstraint,
    LowerBoundConstraint,
    NotPopulatedIfConstraint,
    PredicateConstraint,
    RangeConstraint,
    paper_constraints,
)

from helpers import make_series


@pytest.fixture()
def series():
    return make_series(
        [
            [10.0, 2.0, 0.95],   # clean
            [-3.0, 1.0, 0.90],   # attr1 < 0           -> constraint 1
            [5.0, 4.0, 1.30],    # attr3 > 1           -> constraint 2
            [7.0, 2.0, np.nan],  # attr1 populated, attr3 missing -> constraint 3
            [np.nan, 2.0, np.nan],  # both missing -> no inconsistency
            [8.0, 3.0, -0.10],   # attr3 < 0           -> constraint 2
        ]
    )


class TestLowerBound:
    def test_flags_violations_on_right_column(self, series):
        mask = LowerBoundConstraint("attr1", 0.0).evaluate(series)
        assert mask[:, 0].tolist() == [False, True, False, False, False, False]
        assert not mask[:, 1].any() and not mask[:, 2].any()

    def test_missing_never_violates(self, series):
        mask = LowerBoundConstraint("attr1", 0.0).evaluate(series)
        assert not mask[4, 0]

    def test_strict_flags_boundary(self):
        s = make_series([[0.0, 1.0, 0.5]])
        assert not LowerBoundConstraint("attr1", 0.0).evaluate(s)[0, 0]
        assert LowerBoundConstraint("attr1", 0.0, strict=True).evaluate(s)[0, 0]

    def test_unknown_attribute_raises(self, series):
        with pytest.raises(ConstraintError):
            LowerBoundConstraint("nope", 0.0).evaluate(series)

    def test_describe(self):
        assert "attr1 >= 0" in LowerBoundConstraint("attr1", 0.0).describe()


class TestRange:
    def test_flags_both_sides(self, series):
        mask = RangeConstraint("attr3", 0.0, 1.0).evaluate(series)
        assert mask[:, 2].tolist() == [False, False, True, False, False, True]

    def test_inverted_bounds_raise(self):
        with pytest.raises(ConstraintError):
            RangeConstraint("attr3", 1.0, 0.0)


class TestNotPopulatedIf:
    def test_flags_populated_with_missing_other(self, series):
        mask = NotPopulatedIfConstraint("attr1", other="attr3").evaluate(series)
        assert mask[:, 0].tolist() == [False, False, False, True, False, False]

    def test_same_attribute_raises(self):
        with pytest.raises(ConstraintError):
            NotPopulatedIfConstraint("attr1", other="attr1")


class TestCrossAttribute:
    def test_ge_violation(self):
        s = make_series([[1.0, 5.0, 0.5], [5.0, 1.0, 0.5]])
        mask = CrossAttributeConstraint("attr1", ">=", "attr2").evaluate(s)
        assert mask[:, 0].tolist() == [True, False]

    def test_missing_side_never_violates(self):
        s = make_series([[np.nan, 5.0, 0.5], [1.0, np.nan, 0.5]])
        mask = CrossAttributeConstraint("attr1", ">=", "attr2").evaluate(s)
        assert not mask.any()

    def test_bad_operator_raises(self):
        with pytest.raises(ConstraintError):
            CrossAttributeConstraint("attr1", "!!", "attr2")


class TestPredicate:
    def test_custom_predicate(self, series):
        c = PredicateConstraint(
            "attr2",
            lambda v: np.nan_to_num(v[:, 1]) > 3.0,
            "attr2 must be <= 3",
        )
        mask = c.evaluate(series)
        assert mask[:, 1].tolist() == [False, False, True, False, False, False]

    def test_wrong_shape_raises(self, series):
        c = PredicateConstraint("attr2", lambda v: np.zeros((2,), bool), "bad")
        with pytest.raises(ConstraintError):
            c.evaluate(series)


class TestConstraintSet:
    def test_paper_constraints_or_combined(self, series):
        mask = paper_constraints().evaluate(series)
        flagged_records = mask.any(axis=1)
        assert flagged_records.tolist() == [False, True, True, True, False, True]

    def test_detect_alias(self, series):
        cs = paper_constraints()
        assert np.array_equal(cs.detect(series), cs.evaluate(series))

    def test_empty_set_flags_nothing(self, series):
        assert not ConstraintSet([]).evaluate(series).any()

    def test_describe_lists_rules(self):
        assert len(paper_constraints().describe()) == 3

    def test_len_and_iter(self):
        cs = paper_constraints()
        assert len(cs) == 3
        assert len(list(cs)) == 3


class EvaluateOnly(Constraint):
    """A user constraint implementing only the per-series ``evaluate``."""

    def evaluate(self, series):
        mask = np.zeros(series.values.shape, dtype=bool)
        col = series.values[:, 1]
        mask[:, 1] = np.isfinite(col) & (col < 0)
        return mask

    def describe(self):
        return "attr2 >= 0 (evaluate only)"


ATTRS = ("attr1", "attr2", "attr3")
#: NaN, both infinities, and every bound the constraints below use, plus
#: values just inside and outside them.
EDGE_VALUES = np.array(
    [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 0.5, 1.5, 2.0, -1e-300]
)


def _row_kernel_constraints():
    return [
        LowerBoundConstraint("attr1", 0.0),
        LowerBoundConstraint("attr1", 0.0, strict=True),
        LowerBoundConstraint("attr2", 1.0),
        LowerBoundConstraint("attr2", 1.0, strict=True),
        RangeConstraint("attr3", 0.0, 1.0),
        RangeConstraint("attr1", 0.5, 0.5),
        NotPopulatedIfConstraint("attr1", other="attr3"),
        NotPopulatedIfConstraint("attr3", other="attr2"),
        *(
            CrossAttributeConstraint("attr1", op, "attr2")
            for op in (">=", ">", "<=", "<", "==")
        ),
        PredicateConstraint(
            "attr2", lambda v: np.nan_to_num(v[:, 1]) > 1.0, "attr2 <= 1"
        ),
        EvaluateOnly(),
    ]


class TestRowKernel:
    """``row_violations`` is the record verdict the cleanliness rates
    count; it must equal the cell kernel's any-attribute reduction bit for
    bit, for every built-in, a predicate and an evaluate-only subclass."""

    @pytest.fixture(
        params=[(40, 3), (4, 40, 3), (0, 3), (2, 0, 3)],
        ids=["series", "block", "empty", "empty-block"],
    )
    def values(self, request):
        rng = np.random.default_rng(sum(request.param))
        return rng.choice(EDGE_VALUES, size=request.param)

    @pytest.mark.parametrize(
        "constraint", _row_kernel_constraints(), ids=lambda c: c.describe()
    )
    def test_member_rows_equal_cell_any(self, constraint, values):
        with np.errstate(all="raise"):
            rows = constraint.row_violations(values, ATTRS)
            cells = constraint.evaluate_values(values, ATTRS)
        assert rows.dtype == bool and rows.shape == values.shape[:-1]
        assert np.array_equal(rows, cells.any(axis=-1))

    @pytest.mark.parametrize(
        "constraints",
        [
            paper_constraints(),
            ConstraintSet(_row_kernel_constraints()),
            ConstraintSet([]),
        ],
        ids=["paper", "all", "empty"],
    )
    def test_set_rows_equal_cell_any(self, constraints, values):
        with np.errstate(all="raise"):
            rows = constraints.row_violations(values, ATTRS)
            cells = constraints.evaluate_values(values, ATTRS)
        assert rows.dtype == bool and rows.shape == values.shape[:-1]
        assert np.array_equal(rows, cells.any(axis=-1))

    def test_edge_values_hit_every_verdict(self):
        """The edge grid exercises both verdicts of every constraint, so an
        equality above is not two all-False arrays."""
        values = np.random.default_rng(43).choice(EDGE_VALUES, size=(4, 40, 3))
        for c in _row_kernel_constraints():
            rows = c.row_violations(values, ATTRS)
            assert rows.any() and not rows.all(), c.describe()

    def test_paper_rows_match_record_oracle(self):
        """The built-ins share one implementation between the two kernels,
        so check the paper's rules against a per-record oracle as well."""

        def violated(a1, a3):
            return (
                (math.isfinite(a1) and a1 < 0.0)
                or (math.isfinite(a3) and not 0.0 <= a3 <= 1.0)
                or (math.isfinite(a1) and math.isnan(a3))
            )

        values = np.random.default_rng(44).choice(EDGE_VALUES, size=(400, 3))
        expected = [violated(a1, a3) for a1, _, a3 in values.tolist()]
        rows = paper_constraints().row_violations(values, ATTRS)
        assert rows.tolist() == expected

    def test_unknown_attribute_raises(self):
        with pytest.raises(ConstraintError):
            LowerBoundConstraint("nope", 0.0).row_violations(
                np.zeros((2, 3)), ATTRS
            )
