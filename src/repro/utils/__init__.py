"""Small shared utilities: validation helpers and RNG plumbing."""

from repro.utils.rng import as_generator, spawn_generators, spawn_sequences
from repro.utils.validation import (
    check_fraction,
    check_positive_int,
    check_probability,
    ensure_2d,
)

__all__ = [
    "as_generator",
    "spawn_generators",
    "spawn_sequences",
    "check_fraction",
    "check_positive_int",
    "check_probability",
    "ensure_2d",
]
