"""Deterministic fault injection, addressable by site.

Production code is instrumented with cheap probes at the places that can
fail in the wild::

    from repro.testing.faults import inject_fault
    inject_fault("unit")                       # raise FaultInjectedError
    if fault_fires("worker"): os._exit(1)      # custom failure action

With no plan installed every probe is a dict lookup against an empty plan
and falls straight through — the production path pays nothing.  A plan is
installed either programmatically (:func:`install_plan`, for tests) or via
the ``REPRO_FAULTS`` environment variable (for CI smoke jobs and child
processes of a process pool, which inherit the variable).

Plan grammar (``REPRO_FAULTS`` or :meth:`FaultPlan.parse`)::

    "unit:2,slab.torn,catalog.locked:0.5;seed=7"

Comma-separated ``site[:count-or-rate]`` specs, optionally followed by
``;seed=N``.  An integer count fires the fault on the first *N* hits of the
site in this process; a float in ``(0, 1)`` fires with that probability,
decided by a seeded generator keyed on ``(seed, site, hit_index)`` so the
same plan makes identical decisions on every run; a bare site fires once.

Known sites (see the modules that probe them):

========================  =====================================================
``unit``                  work-unit entry (framework/streaming map functions)
``worker``                pool worker hard-kill (``os._exit``) before a chunk
``slab.torn``             truncate a spilled ``.slab`` file before publish
``slab.enospc``           ``OSError(ENOSPC)`` at the start of a shard write
``catalog.locked``        ``sqlite3.OperationalError: database is locked``
``catalog.corrupt``       ``sqlite3.DatabaseError`` while opening the catalog
``feed.stall``            ingestion feed: yield to the event loop and deliver
                          the window late (a bursty/slow producer)
``feed.dup``              ingestion feed: deliver the same window twice (an
                          at-least-once transport retry)
``feed.reorder``          ingestion feed: swap the next two windows (an
                          out-of-order arrival)
========================  =====================================================
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import FaultInjectedError, ValidationError

__all__ = [
    "FAULTS_ENV_VAR",
    "FaultSpec",
    "FaultPlan",
    "install_plan",
    "active_plan",
    "fault_fires",
    "inject_fault",
]

FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Sites the library actually probes; unknown sites in a plan are rejected
#: early so a typo does not silently disable a fault test.
KNOWN_SITES = frozenset(
    [
        "unit",
        "worker",
        "slab.torn",
        "slab.enospc",
        "catalog.locked",
        "catalog.corrupt",
        "feed.stall",
        "feed.dup",
        "feed.reorder",
    ]
)


@dataclass(frozen=True)
class FaultSpec:
    """One site's firing rule: the first ``times`` hits, or rate-based."""

    site: str
    times: int = 1
    rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValidationError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{', '.join(sorted(KNOWN_SITES))}"
            )
        if self.rate is not None and not 0.0 < self.rate < 1.0:
            raise ValidationError(f"fault rate must be in (0, 1), got {self.rate}")
        if self.rate is None and self.times < 0:
            raise ValidationError(f"fault count must be >= 0, got {self.times}")


def _site_key(seed: int, site: str, hit: int) -> np.random.Generator:
    digest = hashlib.sha256(site.encode()).digest()
    return np.random.default_rng(
        [seed, int.from_bytes(digest[:4], "little"), hit]
    )


@dataclass
class FaultPlan:
    """A set of :class:`FaultSpec` rules plus per-process hit counters.

    Counters are per-plan and per-process: a forked pool worker inherits the
    environment variable, re-parses the plan, and starts its own counters at
    zero — which is exactly what makes ``worker:1`` kill *every* fresh pool
    (each new worker sees hit 0) and thereby exercise the full
    process→thread→serial degrade ladder deterministically.
    """

    specs: Dict[str, FaultSpec] = field(default_factory=dict)
    seed: int = 0
    _hits: Dict[str, int] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see module docstring)."""
        seed = 0
        body = text.strip()
        if ";" in body:
            body, _, tail = body.partition(";")
            tail = tail.strip()
            if not tail.startswith("seed="):
                raise ValidationError(f"bad fault-plan option {tail!r}; expected seed=N")
            seed = int(tail[len("seed="):])
        specs: Dict[str, FaultSpec] = {}
        for part in filter(None, (p.strip() for p in body.split(","))):
            site, _, arg = part.partition(":")
            site = site.strip()
            if not arg:
                spec = FaultSpec(site)
            else:
                arg = arg.strip()
                if "." in arg or "e" in arg.lower():
                    spec = FaultSpec(site, rate=float(arg))
                else:
                    spec = FaultSpec(site, times=int(arg))
            specs[site] = spec
        return cls(specs=specs, seed=seed)

    def fires(self, site: str) -> bool:
        """Record a hit on ``site`` and decide whether the fault fires."""
        spec = self.specs.get(site)
        if spec is None:
            return False
        with self._lock:
            hit = self._hits.get(site, 0)
            self._hits[site] = hit + 1
        if spec.rate is not None:
            return bool(_site_key(self.seed, site, hit).random() < spec.rate)
        return hit < spec.times

    def reset(self) -> None:
        """Zero the hit counters (fresh run against the same plan)."""
        with self._lock:
            self._hits.clear()


_EMPTY = FaultPlan()

# Programmatic plan beats the environment; the env cache is keyed on the raw
# string so changing REPRO_FAULTS mid-process (monkeypatch) takes effect.
_installed: Optional[FaultPlan] = None
_env_cache: Tuple[Optional[str], FaultPlan] = (None, _EMPTY)
_state_lock = threading.Lock()


def install_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` for this process (``None`` reverts to the env var).

    Returns the previously installed plan so tests can restore it.
    """
    global _installed
    with _state_lock:
        previous = _installed
        _installed = plan
    return previous


def active_plan() -> FaultPlan:
    """The plan currently in force: installed plan, else parsed env, else empty."""
    global _env_cache
    if _installed is not None:
        return _installed
    raw = os.environ.get(FAULTS_ENV_VAR)
    if not raw:
        return _EMPTY
    with _state_lock:
        cached_raw, cached_plan = _env_cache
        if cached_raw != raw:
            cached_plan = FaultPlan.parse(raw)
            _env_cache = (raw, cached_plan)
    return cached_plan


def fault_fires(site: str) -> bool:
    """Probe ``site``: count the hit and report whether the fault fires."""
    return active_plan().fires(site)


def inject_fault(site: str, make_exc: Optional[Callable[[], BaseException]] = None) -> None:
    """Raise at ``site`` if the active plan says so; otherwise fall through.

    ``make_exc`` builds the exception to raise (so store probes can raise
    ``OSError(ENOSPC)`` or ``sqlite3.OperationalError`` and exercise the
    *real* handling path); the default is :class:`FaultInjectedError`.
    """
    if fault_fires(site):
        if make_exc is not None:
            raise make_exc()
        raise FaultInjectedError(f"injected fault at site {site!r}")
