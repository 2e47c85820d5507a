"""Execution backends — parallel evaluation of independent work units.

The framework's replication pairs are embarrassingly parallel: each pair is
cleaned, annotated and scored in isolation, with its own spawned random
stream. This module owns the machinery that fans those units out:

* :class:`SerialBackend` — a plain loop; the reference semantics.
* :class:`ThreadBackend` — a thread pool; effective because the hot loops
  (numpy binning, scipy's HiGHS solve) release the GIL.
* :class:`ProcessBackend` — a chunked process pool for CPU-bound scaling
  across cores; work functions and items must pickle.

All backends preserve input order and evaluate every unit exactly once, so a
parallel run is *bitwise identical* to a serial one as long as the work
function is pure — which the framework guarantees by handing each unit its
own pre-spawned :class:`numpy.random.Generator`.

Purity also makes the backends *fault-tolerant*: every backend wraps the
work function in the :class:`~repro.core.resilience.RetryPolicy` resolved
from ``REPRO_RETRIES``/``REPRO_UNIT_TIMEOUT`` (retrying a pure unit cannot
change any other unit's result), and :class:`ProcessBackend` survives
worker death — it rebuilds the pool and re-dispatches only the unfinished
chunks, then degrades process→thread→serial if pools keep dying, always
converging on the same payload a clean run produces.

Selection is by name (``"serial"``/``"thread"``/``"process"``, optionally
``"process:4"`` to pin the worker count) through :func:`resolve_backend`;
the ``REPRO_BACKEND`` environment variable overrides any name passed in
code, so a whole benchmark suite can be switched from the shell.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from typing import Callable, Iterable, Optional, Protocol, TypeVar, Union, runtime_checkable

from repro.core.resilience import (
    RetryPolicy,
    record_degradation,
    resilient,
    resolve_retry_policy,
)
from repro.errors import ExperimentError, ResilienceWarning
from repro.testing.faults import fault_fires
from repro.utils.validation import check_positive_int

__all__ = [
    "BACKEND_NAMES",
    "MIN_UNITS_ENV_VAR",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "default_worker_count",
    "parse_backend_spec",
    "resolve_backend",
]

T = TypeVar("T")
R = TypeVar("R")

#: Names accepted by :func:`resolve_backend` and ``REPRO_BACKEND``.
BACKEND_NAMES = ("serial", "thread", "process")

_ENV_VAR = "REPRO_BACKEND"


def default_worker_count() -> int:
    """Number of CPUs actually available to this process."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


@runtime_checkable
class ExecutionBackend(Protocol):
    """Evaluates a pure function over independent work units.

    Implementations must preserve item order and evaluate each item exactly
    once; given a pure ``fn`` the result list is identical across backends.
    ``items`` may be any iterable: the serial backend consumes it lazily
    (one unit in memory at a time), parallel backends materialise it to
    dispatch.
    """

    #: Short identifier ("serial"/"thread"/"process"), used in reports.
    name: str

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """``[fn(x) for x in items]``, possibly in parallel."""
        ...


class SerialBackend:
    """In-process sequential evaluation — the reference backend."""

    name = "serial"

    def __init__(self, retry_policy: Optional[RetryPolicy] = None):
        self.retry_policy = retry_policy

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Evaluate every item in order in the calling thread.

        Consumes *items* lazily, so a streamed work-unit generator keeps
        its one-unit-at-a-time memory footprint. When the policy sets a
        ``unit_timeout``, every unit runs under the in-process watchdog —
        a wedged unit raises a retryable
        :class:`~repro.errors.UnitTimeoutError` instead of hanging the map.
        """
        call = resilient(fn, self.retry_policy, guard_timeout=True)
        return [call(item) for item in items]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialBackend()"


class ThreadBackend:
    """Thread-pool evaluation.

    Parameters
    ----------
    n_workers:
        Pool size; defaults to the available CPU count. Threads share every
        object, so work functions must not mutate shared state — the
        framework's units are pure by construction.
    retry_policy:
        Per-unit retry policy; ``None`` resolves from the environment at
        each ``map`` call (``REPRO_RETRIES``/``REPRO_UNIT_TIMEOUT``).
    """

    name = "thread"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.n_workers = (
            check_positive_int(n_workers, "n_workers")
            if n_workers is not None
            else default_worker_count()
        )
        self.retry_policy = retry_policy

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Evaluate items through a thread pool, preserving order.

        Units run under the in-process ``unit_timeout`` watchdog when the
        policy sets one (see :class:`SerialBackend`).
        """
        call = resilient(fn, self.retry_policy, guard_timeout=True)
        items = list(items)
        workers = min(self.n_workers, len(items))
        if workers <= 1:
            return [call(item) for item in items]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(call, items))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadBackend(n_workers={self.n_workers})"


#: Environment variable overriding :class:`ProcessBackend`'s serial-fallback
#: threshold (an item count; ``0``/``1`` disable the fallback entirely).
MIN_UNITS_ENV_VAR = "REPRO_PROCESS_MIN_UNITS"

#: Default fallback threshold: below this many items, pool start-up and
#: per-unit pickling dominate the work itself and a plain serial loop wins
#: (the ~10-unit small-scale regression recorded in the PR 3 bench), so the
#: backend degrades to the serial reference — which is bitwise-identical by
#: the backend contract, so the fallback can never change a number. The
#: constant is deliberately absolute, not per-worker: scaling it with the
#: worker count would make *more* cores *more* likely to silently serialise
#: a typical R=50 replication run.
_DEFAULT_MIN_UNITS = 16


def _run_chunk(call: Callable[[T], R], chunk: list[T]) -> list[R]:
    """Worker-side chunk loop, shipped to pool processes.

    The ``worker`` fault site sits here — a hard ``os._exit`` before any
    work, the closest deterministic stand-in for an OOM-killed or
    segfaulted worker — so pool-death recovery is exercised end to end.
    """
    if fault_fires("worker"):
        os._exit(1)
    return [call(item) for item in chunk]


class _PoolFailure(Exception):
    """Internal: the current pool died or wedged; rebuild and re-dispatch."""


class ProcessBackend:
    """Chunked process-pool evaluation with pool-death recovery.

    Work functions and items must pickle (the framework ships a
    ``functools.partial`` of a module-level function plus dataclass state,
    which does). Items are dispatched in contiguous chunks so per-chunk
    pickling overhead is amortised; results are reassembled in input order.

    A dead pool (:class:`BrokenProcessPool` — a worker was OOM-killed,
    segfaulted, or exited) is not fatal: completed chunks are kept, the
    pool is rebuilt, and only the unfinished chunks are re-dispatched.
    Because units are pure, the recovered payload is bitwise-identical to
    an undisturbed run. After ``max_pool_rebuilds`` consecutive pool deaths
    the backend stops fighting the environment and degrades the remaining
    work to a thread pool, and to a plain serial loop if even threads
    cannot be created — same numbers, lower throughput, never an abort.

    Parameters
    ----------
    n_workers:
        Pool size; defaults to the available CPU count.
    chunksize:
        Items per dispatched chunk; defaults to an even split of the items
        over the workers (one chunk per worker), which pickles the shared
        work-function state only once per worker.
    start_method:
        ``multiprocessing`` start method (``"fork"``/``"spawn"``/...);
        ``None`` uses the platform default.
    min_units:
        Smallest item count worth starting a pool for. Below it the map
        degrades to the serial in-process loop (identical numbers, none of
        the fork/pickle overhead). ``None`` defers to the
        ``REPRO_PROCESS_MIN_UNITS`` environment variable and then to a
        flat default of 16; pass ``1`` to always use the pool.
    retry_policy:
        Per-unit retry policy; ``None`` resolves from the environment at
        each ``map`` call. Its ``unit_timeout`` doubles as the wedged-pool
        watchdog: if no chunk completes within ``unit_timeout`` × the
        largest pending chunk × ``max_attempts`` seconds, the pool is
        presumed hung, its workers are terminated, and the map recovers as
        for any other pool death.
    max_pool_rebuilds:
        Consecutive pool deaths tolerated before degrading to threads.
    """

    name = "process"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        start_method: Optional[str] = None,
        min_units: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        max_pool_rebuilds: int = 2,
    ):
        self.n_workers = (
            check_positive_int(n_workers, "n_workers")
            if n_workers is not None
            else default_worker_count()
        )
        self.chunksize = (
            check_positive_int(chunksize, "chunksize") if chunksize is not None else None
        )
        self.start_method = start_method
        self.min_units = (
            check_positive_int(min_units, "min_units") if min_units is not None else None
        )
        self.retry_policy = retry_policy
        self.max_pool_rebuilds = check_positive_int(max_pool_rebuilds, "max_pool_rebuilds")

    def resolved_min_units(self) -> int:
        """The serial-fallback threshold this backend will apply."""
        if self.min_units is not None:
            return self.min_units
        env = os.environ.get(MIN_UNITS_ENV_VAR, "").strip()
        if env:
            try:
                value = int(env)
            except ValueError:
                raise ExperimentError(
                    f"{MIN_UNITS_ENV_VAR} must be an integer, got {env!r}"
                ) from None
            return max(1, value)
        return _DEFAULT_MIN_UNITS

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Evaluate items through a process pool, preserving order.

        Item counts below :meth:`resolved_min_units` run as a plain serial
        loop: the work function is pure, so the fallback is bitwise-identical
        and only the pool start-up / pickling overhead disappears.
        """
        policy = resolve_retry_policy(self.retry_policy)
        call = resilient(fn, policy)
        items = list(items)
        workers = min(self.n_workers, len(items))
        if workers <= 1 or len(items) < self.resolved_min_units():
            return [call(item) for item in items]

        chunksize = self.chunksize or max(1, math.ceil(len(items) / workers))
        chunks = [items[i : i + chunksize] for i in range(0, len(items), chunksize)]
        results: list[Optional[list[R]]] = [None] * len(chunks)
        pending = set(range(len(chunks)))
        deaths = 0
        while pending:
            try:
                self._drain_pool(call, chunks, results, pending, workers, policy)
            except _PoolFailure as failure:
                deaths += 1
                if deaths > self.max_pool_rebuilds:
                    event = (
                        f"process pool died {deaths} times ({failure}); degrading "
                        f"{len(pending)} of {len(chunks)} chunks to the thread "
                        "backend"
                    )
                    warnings.warn(
                        event + " (results are unchanged — units are pure)",
                        ResilienceWarning,
                        stacklevel=2,
                    )
                    record_degradation(event)
                    self._degrade(call, chunks, results, pending)
                else:
                    warnings.warn(
                        f"process pool died ({failure}); rebuilding and "
                        f"re-dispatching {len(pending)} of {len(chunks)} chunks",
                        ResilienceWarning,
                        stacklevel=2,
                    )
        return [value for chunk in results for value in chunk]  # type: ignore[union-attr]

    def _drain_pool(
        self,
        call: Callable[[T], R],
        chunks: list[list[T]],
        results: list[Optional[list[R]]],
        pending: set[int],
        workers: int,
        policy: RetryPolicy,
    ) -> None:
        """Run every pending chunk through one pool, harvesting as they land.

        Completed chunks are removed from ``pending`` immediately, so a
        pool death part-way through loses only the chunks still in flight.
        Raises :class:`_PoolFailure` on worker death or watchdog expiry.
        """
        import multiprocessing as mp

        ctx = mp.get_context(self.start_method)
        budget: Optional[float] = None
        if policy.unit_timeout:
            largest = max(len(chunks[i]) for i in pending)
            budget = policy.unit_timeout * largest * policy.max_attempts
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(pending)), mp_context=ctx
        )
        try:
            futures = {
                pool.submit(_run_chunk, call, chunks[i]): i for i in sorted(pending)
            }
            not_done = set(futures)
            while not_done:
                done, not_done = wait(
                    not_done, timeout=budget, return_when=FIRST_COMPLETED
                )
                if not done:
                    self._terminate_workers(pool)
                    raise _PoolFailure(
                        f"no chunk completed within {budget:.1f}s; pool presumed wedged"
                    )
                for future in done:
                    index = futures[future]
                    results[index] = future.result()
                    pending.discard(index)
        except BrokenProcessPool as exc:
            raise _PoolFailure(f"worker process died: {exc}") from exc
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> None:
        """Kill a wedged pool's workers so shutdown cannot hang on them."""
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass

    def _degrade(
        self,
        call: Callable[[T], R],
        chunks: list[list[T]],
        results: list[Optional[list[R]]],
        pending: set[int],
    ) -> None:
        """Last rungs of the ladder: finish pending chunks on threads,
        or serially if the thread pool itself cannot be brought up."""
        remaining = sorted(pending)
        try:
            with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
                finished = list(
                    pool.map(lambda i: [call(x) for x in chunks[i]], remaining)
                )
        except RuntimeError:  # e.g. "can't start new thread"
            warnings.warn(
                "thread backend unavailable; finishing the map serially",
                ResilienceWarning,
                stacklevel=2,
            )
            record_degradation("thread backend unavailable; finished the map serially")
            finished = [[call(x) for x in chunks[i]] for i in remaining]
        for index, value in zip(remaining, finished):
            results[index] = value
            pending.discard(index)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessBackend(n_workers={self.n_workers})"


def parse_backend_spec(spec: str) -> tuple[str, Optional[int]]:
    """Split a ``"name"`` or ``"name:workers"`` spec into its parts.

    The grammar is ``serial | thread[:N] | process[:N]`` with ``N`` written
    in ASCII digits and ``N >= 1``: ``"process:4"`` -> ``("process", 4)``.
    Names are case-insensitive and whitespace-tolerant. Unknown names, a
    worker count on ``serial``, and malformed or non-positive worker counts
    raise :class:`~repro.errors.ExperimentError`.
    """
    name, colon, workers_part = spec.strip().lower().partition(":")
    name = name.strip()
    if name not in BACKEND_NAMES:
        raise ExperimentError(
            f"backend must be one of {list(BACKEND_NAMES)}, got {spec!r}"
        )
    if not colon:
        return name, None
    if name == "serial":
        raise ExperimentError(f"the serial backend takes no worker count, got {spec!r}")
    workers_part = workers_part.strip()
    if not (workers_part.isascii() and workers_part.isdigit()):
        raise ExperimentError(f"invalid worker count in backend spec {spec!r}")
    workers = int(workers_part)
    if workers < 1:
        raise ExperimentError(f"worker count must be >= 1, got {workers}")
    return name, workers


def resolve_backend(
    spec: Union[None, str, ExecutionBackend] = None,
    n_workers: Optional[int] = None,
) -> ExecutionBackend:
    """Turn a backend spec into a backend instance.

    Resolution order:

    1. An :class:`ExecutionBackend` *instance* is returned unchanged — an
       explicitly constructed backend always wins.
    2. The ``REPRO_BACKEND`` environment variable, when set, overrides any
       *name* passed in code (so experiments can be re-run in parallel
       without touching call sites).
    3. The *spec* name itself.
    4. The default: ``"serial"``.

    ``n_workers`` applies when the chosen name is worker-aware and the spec
    did not pin a count of its own (``"process:4"`` beats ``n_workers``).
    """
    if spec is not None and not isinstance(spec, str):
        if not callable(getattr(spec, "map", None)):
            raise ExperimentError(
                f"backend must be a name or provide .map(fn, items), got {spec!r}"
            )
        return spec
    env = os.environ.get(_ENV_VAR)
    chosen = env if env is not None and env.strip() else (spec or "serial")
    name, spec_workers = parse_backend_spec(chosen)
    workers = spec_workers if spec_workers is not None else n_workers
    if name == "serial":
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(n_workers=workers)
    return ProcessBackend(n_workers=workers)
