"""Sampling schemes for the experimental framework.

The framework "relies on sampling [so it] will work on very large data"
(Section 2.1.6). Whole time series are the sampling unit — "we maintained the
temporal structure by sampling entire time series and not individual data
points" (Section 4.2). Replication pairs and simple with-replacement
sampling are provided.
"""

from repro.sampling.replication import (
    ParentGather,
    TestPair,
    generate_test_pairs,
    replication_index_streams,
)
from repro.sampling.simple import sample_indices, sample_series

__all__ = [
    "ParentGather",
    "TestPair",
    "generate_test_pairs",
    "replication_index_streams",
    "sample_indices",
    "sample_series",
]
