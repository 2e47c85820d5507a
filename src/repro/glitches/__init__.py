"""Glitch detection: missing values, inconsistencies and outliers.

Implements Section 3.2-3.3 of the paper: glitch detectors are functions on
the data stream producing per-attribute bit vectors, assembled into the
``T x v x m`` glitch bit matrix ``G_{t,ijk}``.
"""

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
from repro.glitches.detectors import (
    CleanlinessPartition,
    DetectorSuite,
    ScaleTransform,
    identify_ideal,
    partition_by_cleanliness,
)
from repro.glitches.missing import MissingDetector, detect_missing
from repro.glitches.outliers import (
    SigmaLimits,
    SigmaOutlierDetector,
    WindowedOutlierDetector,
)
from repro.glitches.patterns import (
    cooccurrence_matrix,
    counts_over_time,
    jaccard_overlap,
    pattern_frequencies,
    temporal_autocorrelation,
)
from repro.glitches.types import (
    N_GLITCH_TYPES,
    DatasetGlitches,
    GlitchMatrix,
    GlitchType,
)

__all__ = [
    "GlitchType",
    "GlitchMatrix",
    "DatasetGlitches",
    "N_GLITCH_TYPES",
    "MissingDetector",
    "detect_missing",
    "Constraint",
    "ConstraintSet",
    "LowerBoundConstraint",
    "RangeConstraint",
    "NotPopulatedIfConstraint",
    "PredicateConstraint",
    "CrossAttributeConstraint",
    "paper_constraints",
    "SigmaLimits",
    "SigmaOutlierDetector",
    "WindowedOutlierDetector",
    "DetectorSuite",
    "ScaleTransform",
    "CleanlinessPartition",
    "identify_ideal",
    "partition_by_cleanliness",
    "counts_over_time",
    "cooccurrence_matrix",
    "jaccard_overlap",
    "pattern_frequencies",
    "temporal_autocorrelation",
]
