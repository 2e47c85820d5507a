"""Low-level statistics utilities used throughout the library."""

from repro.stats.descriptive import sigma_limits, winsorize_array
from repro.stats.ecdf import Ecdf

__all__ = [
    "sigma_limits",
    "winsorize_array",
    "Ecdf",
]
