"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while still
letting programming errors (``TypeError`` etc.) propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "TopologyError",
    "DataShapeError",
    "ConstraintError",
    "CleaningError",
    "DistanceError",
    "TransportError",
    "ExperimentError",
    "StoreError",
    "UnitTimeoutError",
    "FaultInjectedError",
    "ReproWarning",
    "StoreWarning",
    "ResilienceWarning",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong range, wrong shape, empty, ...)."""


class TopologyError(ReproError):
    """A network-topology operation referenced an unknown or duplicate node."""


class DataShapeError(ReproError, ValueError):
    """A data container was constructed with inconsistent dimensions."""


class ConstraintError(ReproError, ValueError):
    """An inconsistency constraint is malformed or references bad attributes."""


class CleaningError(ReproError):
    """A cleaning strategy could not be applied."""


class DistanceError(ReproError):
    """A statistical distance could not be computed."""


class TransportError(DistanceError):
    """The transportation problem underlying EMD failed to solve."""


class ExperimentError(ReproError):
    """The experimental framework was configured or driven incorrectly."""


class StoreError(ReproError):
    """A persistent-store artifact (shard file, catalog) is malformed,
    truncated, or does not match the recipe that claims it."""


class UnitTimeoutError(ReproError):
    """A work unit exceeded the policy's ``unit_timeout`` watchdog.

    Deliberately *retryable* (unlike other :class:`ReproError` subclasses —
    see :func:`~repro.core.resilience.is_retryable`): a wedged unit is an
    environmental transient, and re-running a pure unit is always safe.
    """


class FaultInjectedError(ReproError):
    """A deterministic test fault fired (see :mod:`repro.testing.faults`).

    Always transient by construction: the fault registry counts hits per
    site, so a retry of the same work unit proceeds past the site once the
    planned number of failures has been consumed.
    """


class ReproWarning(UserWarning):
    """Base category for all warnings emitted by the ``repro`` library."""


class StoreWarning(ReproWarning):
    """A persistent-store operation degraded gracefully (spill skipped,
    stale slab regenerated, catalog quarantined) instead of failing."""


class ResilienceWarning(ReproWarning):
    """The execution layer recovered from a failure (pool rebuilt, backend
    degraded, sweep cell recorded as failed) instead of aborting the run."""
