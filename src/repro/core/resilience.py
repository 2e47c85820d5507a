"""Retry policy with deterministic backoff for pure work units.

Work units in this library are pure functions of ``(item, pre-spawned RNG
stream)`` — the determinism contract that makes every backend bitwise-
identical also makes *retry-anywhere* sound: re-running a failed unit
cannot change any other unit's result, so the retried run's payload is
bitwise-identical to a clean run.

:class:`RetryPolicy` is the single knob surface:

* ``max_attempts`` — total tries per unit (``REPRO_RETRIES``; 1 disables),
* exponential backoff capped at ``max_delay`` with *seeded* jitter — the
  jitter stream is keyed on ``(jitter_seed, unit, attempt)``, so two runs
  of the same plan sleep identically (no wall-clock entropy),
* ``unit_timeout`` — per-unit watchdog seconds. The process backend uses it
  to declare a wedged pool dead; the serial and thread backends apply it
  *in-process* (``guard_timeout=True``) so a single wedged unit raises
  :class:`~repro.errors.UnitTimeoutError` — retryable like any other
  transient — instead of hanging the map (``REPRO_UNIT_TIMEOUT``;
  unset/0 disables).

:func:`resilient` wraps a work-unit callable in a picklable retrying
proxy; :func:`is_retryable` encodes which failures are worth retrying
(transient injected faults and unexpected runtime errors — not validation
or shape errors, which are deterministic and would fail identically again).

:func:`record_degradation` / :func:`drain_degradations` are the provenance
channel for ladder steps: when a backend falls back (process→thread→serial),
the event is recorded here as well as warned, and the
framework attaches the drained events to the run's
:class:`~repro.core.framework.ExperimentResult` so a silently degraded run
is visible in saved outcomes.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import (
    FaultInjectedError,
    ReproError,
    UnitTimeoutError,
    ValidationError,
)
from repro.utils.validation import check_finite

__all__ = [
    "RETRIES_ENV_VAR",
    "UNIT_TIMEOUT_ENV_VAR",
    "RetryPolicy",
    "resolve_retry_policy",
    "is_retryable",
    "Resilient",
    "resilient",
    "record_degradation",
    "drain_degradations",
]

RETRIES_ENV_VAR = "REPRO_RETRIES"
UNIT_TIMEOUT_ENV_VAR = "REPRO_UNIT_TIMEOUT"

_DEFAULT_MAX_ATTEMPTS = 3


def is_retryable(exc: BaseException) -> bool:
    """Whether retrying the same pure unit could plausibly succeed.

    Injected faults are transient by construction (the registry counts
    hits), and so is a unit-timeout watchdog trip — a wedged unit is an
    environmental accident, not a property of the unit.  Library errors
    other than those are deterministic — a
    ``ValidationError`` or ``DataShapeError`` fails the same way every
    time — as is ``MemoryError``.  Anything else (I/O hiccups, pool
    plumbing, OS-level transients) is worth another attempt.
    """
    if isinstance(exc, (FaultInjectedError, UnitTimeoutError)):
        return True
    if isinstance(exc, (ReproError, MemoryError)):
        return False
    return isinstance(exc, Exception)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter."""

    max_attempts: int = _DEFAULT_MAX_ATTEMPTS
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter_seed: int = 0
    unit_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValidationError("backoff delays must be non-negative")
        if self.unit_timeout is not None and self.unit_timeout <= 0:
            raise ValidationError(
                f"unit_timeout must be positive (or None), got {self.unit_timeout}"
            )

    def delay(self, attempt: int, unit: int = 0) -> float:
        """Sleep before retry number ``attempt`` (0-based) of ``unit``.

        Deterministic: the jitter factor in ``[0.5, 1.5)`` comes from a
        generator seeded on ``(jitter_seed, unit, attempt)``, never the
        clock, so backoff schedules are reproducible run-over-run.
        """
        base = min(self.base_delay * (2.0 ** attempt), self.max_delay)
        rng = np.random.default_rng([self.jitter_seed, unit, attempt])
        return base * (0.5 + rng.random())

    def call(
        self,
        fn: Callable[..., Any],
        *args: Any,
        retryable: Callable[[BaseException], bool] = is_retryable,
        unit: int = 0,
        **kwargs: Any,
    ) -> Any:
        """Run ``fn(*args, **kwargs)``, retrying per this policy."""
        for attempt in range(self.max_attempts):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if attempt + 1 >= self.max_attempts or not retryable(exc):
                    raise
                pause = self.delay(attempt, unit=unit)
                if pause > 0:
                    time.sleep(pause)
        raise AssertionError("unreachable")  # pragma: no cover


def resolve_retry_policy(
    policy: Optional[RetryPolicy] = None, **overrides: Any
) -> RetryPolicy:
    """An explicit policy wins; otherwise build one from the environment.

    ``REPRO_RETRIES`` sets ``max_attempts`` (min 1); ``REPRO_UNIT_TIMEOUT``
    sets ``unit_timeout`` in seconds (unset, empty, or ``<= 0`` disables;
    a non-number or non-finite value is a :class:`ValidationError`).
    """
    if policy is not None:
        return replace(policy, **overrides) if overrides else policy
    kwargs = dict(overrides)
    raw = os.environ.get(RETRIES_ENV_VAR, "").strip()
    if raw and "max_attempts" not in kwargs:
        try:
            kwargs["max_attempts"] = max(1, int(raw))
        except ValueError:
            raise ValidationError(
                f"{RETRIES_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    raw = os.environ.get(UNIT_TIMEOUT_ENV_VAR, "").strip()
    if raw and "unit_timeout" not in kwargs:
        try:
            seconds = check_finite(float(raw), UNIT_TIMEOUT_ENV_VAR)
        except ValueError:  # not a number, or nan/inf
            raise ValidationError(
                f"{UNIT_TIMEOUT_ENV_VAR} must be a finite number of seconds, "
                f"got {raw!r}"
            ) from None
        kwargs["unit_timeout"] = seconds if seconds > 0 else None
    return RetryPolicy(**kwargs)


class _TimeoutGuard:
    """Picklable per-unit watchdog: run ``fn`` in a daemon thread, give up
    after ``seconds``.

    The timed-out thread is abandoned (Python cannot kill it), which is
    safe here because work units are pure — an orphaned computation cannot
    corrupt shared state, and its eventual result is simply discarded. The
    caller sees :class:`~repro.errors.UnitTimeoutError`, which
    :func:`is_retryable` treats as transient.
    """

    def __init__(self, fn: Callable[..., Any], seconds: float):
        self.fn = fn
        self.seconds = float(seconds)

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        box: dict[str, Any] = {}

        def target() -> None:
            try:
                box["value"] = self.fn(*args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                box["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(self.seconds)
        if thread.is_alive():
            raise UnitTimeoutError(
                f"work unit exceeded unit_timeout={self.seconds}s; "
                "abandoning the wedged attempt (pure units are safe to re-run)"
            )
        if "error" in box:
            raise box["error"]
        return box["value"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_TimeoutGuard({self.fn!r}, seconds={self.seconds})"


class Resilient:
    """Picklable retrying proxy around a work-unit callable.

    A plain class (not a closure) so process backends can ship it to
    workers; equality/hash delegate to the wrapped pieces so backends that
    key on the map function keep working. With ``guard_timeout`` set and a
    policy ``unit_timeout``, every attempt runs under a per-unit
    :class:`_TimeoutGuard` watchdog.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        policy: RetryPolicy,
        guard_timeout: bool = False,
    ):
        self.fn = fn
        self.policy = policy
        self.guard_timeout = bool(guard_timeout)

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        fn = self.fn
        if self.guard_timeout and self.policy.unit_timeout:
            fn = _TimeoutGuard(fn, self.policy.unit_timeout)
        return self.policy.call(fn, *args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resilient({self.fn!r}, attempts={self.policy.max_attempts})"


def resilient(
    fn: Callable[..., Any],
    policy: Optional[RetryPolicy] = None,
    guard_timeout: bool = False,
) -> Callable[..., Any]:
    """Wrap ``fn`` per ``policy`` (env-resolved when ``None``).

    Returns ``fn`` unchanged when the wrapper would be a no-op (retries
    disabled and no in-process timeout to enforce) so the no-fault fast
    path adds zero call overhead. ``guard_timeout`` opts in to the
    per-attempt :class:`_TimeoutGuard` — used by the serial and thread
    paths; the process backend keeps its pool-level watchdog
    instead (a guard thread inside a pool worker could not terminate a
    wedged C extension either, while terminating the pool can).
    """
    resolved = resolve_retry_policy(policy)
    guard = bool(guard_timeout and resolved.unit_timeout)
    if resolved.max_attempts <= 1 and not guard:
        return fn
    return Resilient(fn, resolved, guard_timeout=guard)


# ---------------------------------------------------------------------------
# Degradation provenance
# ---------------------------------------------------------------------------

# Process-wide, thread-safe ledger of backend ladder steps. Backends append
# via record_degradation() at the moment they fall back; the framework
# drains the ledger after each map and attaches the events to the run's
# ExperimentResult, so provenance survives into saved outcomes instead of
# evaporating with the warning stream.
_degradations: list[str] = []
_degradations_lock = threading.Lock()


def record_degradation(event: str) -> None:
    """Record one backend ladder step (also warned by the caller)."""
    with _degradations_lock:
        _degradations.append(str(event))


def drain_degradations() -> list[str]:
    """Return and clear every degradation recorded since the last drain."""
    with _degradations_lock:
        events = list(_degradations)
        _degradations.clear()
    return events
