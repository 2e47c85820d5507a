"""Argument-validation helpers shared across the library.

Each helper raises :class:`repro.errors.ValidationError` with a message that
names the offending parameter, so errors surface at the API boundary instead
of deep inside numpy broadcasting.
"""

from __future__ import annotations

import numbers
import os
from typing import Any

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "check_int",
    "check_positive_int",
    "check_finite",
    "check_fraction",
    "check_probability",
    "ensure_2d",
    "env_flag",
]

_ON = ("1", "on", "true", "yes")
_OFF = ("0", "off", "false", "no")


def check_int(value: Any, name: str, minimum: int = 0) -> int:
    """Validate that *value* is an integer >= *minimum* and return it as
    ``int``. Python and numpy integers pass; ``bool`` and integral floats
    do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an int, got {type(value).__name__}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_positive_int(value: Any, name: str) -> int:
    """Validate that *value* is an integer >= 1 and return it as ``int``."""
    return check_int(value, name, minimum=1)


def check_finite(value: Any, name: str) -> float:
    """Validate that *value* is a finite real number (not ``bool``) and
    return it as ``float``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return float(value)


def check_fraction(value: Any, name: str) -> float:
    """Validate that *value* lies in the closed interval [0, 1]."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a float in [0, 1], got {value!r}") from None
    if not 0.0 <= value <= 1.0 or np.isnan(value):
        raise ValidationError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_probability(value: Any, name: str) -> float:
    """Alias of :func:`check_fraction` with probability-flavoured wording."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a probability in [0, 1], got {value!r}") from None
    if not 0.0 <= value <= 1.0 or np.isnan(value):
        raise ValidationError(f"{name} must be a probability in [0, 1], got {value}")
    return value


def ensure_2d(values: Any, name: str) -> np.ndarray:
    """Coerce *values* to a 2-D float array, rejecting other ranks."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    return arr


def env_flag(var: str, default: bool) -> bool:
    """The on/off environment variable *var*: ``1/on/true/yes`` or
    ``0/off/false/no`` (any case); unset or empty gives *default*.

    Anything else is a :class:`ValidationError` naming *var* — a switch
    that silently read a typo as "off" would flip a run's engine unseen.
    """
    raw = os.environ.get(var, "").strip().lower()
    if not raw:
        return default
    if raw in _ON:
        return True
    if raw in _OFF:
        return False
    raise ValidationError(
        f"{var} must be one of {'/'.join(_ON)} or {'/'.join(_OFF)}, got {raw!r}"
    )
