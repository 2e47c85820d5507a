"""Simulated live window feeds — bursty, out-of-order, at-least-once.

Real per-tower telemetry reaches a collector through queues and retries, so
windows arrive in whatever order the transport produced: shuffled across
towers, occasionally duplicated, in bursts. :func:`arrival_schedule` builds
such a delivery plan *deterministically* from a seed (the invariance tests
replay the same hostile order at will), and :func:`simulated_feed` plays a
plan back as an async iterator, with the ``feed.stall`` / ``feed.dup`` /
``feed.reorder`` fault sites (:mod:`repro.testing.faults`) injecting the
same pathologies on demand in otherwise-clean runs.
"""

from __future__ import annotations

from typing import AsyncIterator, Iterable, List, Optional, Sequence

from repro.data.window import StreamWindow
from repro.errors import ValidationError
from repro.testing.faults import fault_fires
from repro.utils.rng import Seed, as_generator

__all__ = ["arrival_schedule", "simulated_feed"]


def arrival_schedule(
    windows: Sequence[StreamWindow],
    seed: Seed = 0,
    reorder: float = 0.0,
    duplicate: float = 0.0,
    burst: int = 1,
) -> List[StreamWindow]:
    """A deterministic hostile delivery order for a window set.

    ``reorder`` shuffles that fraction of positions (1.0 = a full
    permutation across all streams); ``duplicate`` re-delivers that
    fraction of windows a second time, at a random later position (the
    at-least-once transport); ``burst`` > 1 then rotates each consecutive
    burst-sized group so arrivals come in micro-bursts rather than one by
    one. The plan is a pure function of ``(windows, seed, knobs)`` — the
    invariance tests replay it bit for bit.

    Duplicates are exact re-deliveries of the same :class:`StreamWindow`
    (same ``(stream_id, seq)`` key), which the session journal refuses —
    folding a schedule therefore yields the same state as folding the
    originals in order.
    """
    if not 0.0 <= reorder <= 1.0 or not 0.0 <= duplicate <= 1.0:
        raise ValidationError("reorder and duplicate must lie in [0, 1]")
    if burst < 1:
        raise ValidationError(f"burst must be >= 1, got {burst}")
    rng = as_generator(seed)
    plan = list(windows)
    n = len(plan)
    if n == 0:
        return plan
    if reorder > 0.0:
        k = max(2, int(round(reorder * n))) if n > 1 else 1
        moved = rng.choice(n, size=min(k, n), replace=False)
        shuffled = moved.copy()
        rng.shuffle(shuffled)
        out: List[Optional[StreamWindow]] = list(plan)
        for src, dst in zip(moved, shuffled):
            out[dst] = plan[src]
        plan = [w for w in out if w is not None]
    if duplicate > 0.0:
        k = int(round(duplicate * len(plan)))
        for i in sorted(
            rng.choice(len(plan), size=min(k, len(plan)), replace=False),
            reverse=True,
        ):
            at = int(rng.integers(i, len(plan))) + 1
            plan.insert(at, plan[i])
    if burst > 1:
        rotated: List[StreamWindow] = []
        for a in range(0, len(plan), burst):
            group = plan[a : a + burst]
            rotated.extend(group[::-1])
        plan = rotated
    return plan


async def simulated_feed(
    windows: Iterable[StreamWindow],
) -> AsyncIterator[StreamWindow]:
    """Play one feed's windows back asynchronously, fault sites armed.

    Per window, in order: ``feed.reorder`` holds the window and delivers
    the *next* one first (one-step out-of-order arrival); ``feed.stall``
    yields to the event loop before delivering (a slow producer — other
    feeds' windows overtake it); ``feed.dup`` delivers the window twice
    (an at-least-once retry). All three are deterministic
    :mod:`repro.testing.faults` sites, so a CI smoke can demand exactly N
    occurrences.
    """
    import asyncio

    held: Optional[StreamWindow] = None
    for window in windows:
        if held is not None:
            pending, held = [window, held], None
        else:
            pending = [window]
        while pending:
            w = pending.pop(0)
            if held is None and fault_fires("feed.reorder"):
                held = w
                continue
            if fault_fires("feed.stall"):
                await asyncio.sleep(0)
            yield w
            if fault_fires("feed.dup"):
                yield w
    if held is not None:
        yield held
