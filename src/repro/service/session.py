"""Multi-tenant live monitoring sessions over the incremental core.

A :class:`MonitoringSession` is one tenant's experiment against one
population, fed by push: every :class:`~repro.data.window.StreamWindow`
arrival folds through an :class:`~repro.core.incremental.IncrementalScorer`
(live per-stream scores, arrival-order invariant) and leaves an audit
record in the session's :class:`~repro.service.alerts.AlertSink`.
:meth:`finalize` reassembles the journaled streams into the batch engine's
exact inputs and routes them through the streaming engine's replication
loop (:func:`~repro.core.incremental.replication_pairs`: index draws →
gather, then :func:`~repro.core.framework.run_pair_panels_stream`), so final
outcomes are **bitwise-identical** to
:class:`~repro.core.streaming.StreamingExperiment` on the same population,
for every selectable distance — however hostile the delivery order was.

Sessions of the same population share work through the PR 6 catalog: the
identification fixed point (ideal verdicts + fitted sigma limits) is
memoised as a :class:`ReferenceFrame` under a key derived from the
population recipe and the identification parameters, so the second tenant's
:meth:`identify` is a catalog read, not a refit — and, the fixed point
being deterministic, a bitwise no-op on the results.

:class:`IngestionService` is the asyncio front: N concurrent feeds push
into a bounded queue (``REPRO_SESSION_BACKPRESSURE``) drained by one
folding consumer — ingestion is concurrent, folding is serialised, and the
order the event loop happens to produce is exactly the disorder the
invariance contract absorbs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.executor import resolve_backend
from repro.core.framework import (
    ExperimentConfig,
    ExperimentResult,
    run_pair_panels_stream,
)
from repro.core.glitch_index import GlitchWeights
from repro.core.incremental import (
    IncrementalScorer,
    WindowDelta,
    replication_pairs,
    split_verdicts,
)
from repro.data.window import StreamWindow
from repro.errors import ValidationError
from repro.glitches.constraints import ConstraintSet, paper_constraints
from repro.glitches.detectors import (
    DetectorSuite,
    ScaleTransform,
    SigmaLimits,
    SigmaOutlierDetector,
)
from repro.store.catalog import Catalog, code_salt, resolve_catalog
from repro.utils.validation import check_fraction, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cleaning.base import CleaningStrategy
    from repro.distance.base import Distance
    from repro.service.alerts import AlertSink

__all__ = [
    "SESSION_BACKPRESSURE_ENV_VAR",
    "session_backpressure",
    "ReferenceFrame",
    "frame_key",
    "MonitoringSession",
    "IngestionService",
    "serve_windows",
]

#: Bound of the ingestion queue between the async feeds and the folding
#: consumer; a full queue backpressures producers (default 64).
SESSION_BACKPRESSURE_ENV_VAR = "REPRO_SESSION_BACKPRESSURE"


def session_backpressure(default: int = 64) -> int:
    """The configured ingestion-queue bound (``REPRO_SESSION_BACKPRESSURE``)."""
    raw = os.environ.get(SESSION_BACKPRESSURE_ENV_VAR, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(
            f"{SESSION_BACKPRESSURE_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    return check_positive_int(value, SESSION_BACKPRESSURE_ENV_VAR)


@dataclass(frozen=True)
class ReferenceFrame:
    """The memoised identification fixed point of one population.

    Everything a session needs to stand a detector suite back up without
    refitting: the ideal verdicts and the fitted sigma limits. The fixed
    point is a pure function of the population and the identification
    parameters (both in the catalog key), so sharing a frame across
    sessions is bitwise-invisible in their results.
    """

    verdicts: np.ndarray
    limits: SigmaLimits
    n_streams: int


def frame_key(
    population_key: str,
    constraints: ConstraintSet,
    transform: Optional[ScaleTransform],
    k: float,
    max_fraction: float,
    max_iter: int,
) -> str:
    """Catalog key of one population's :class:`ReferenceFrame`.

    ``(population, identification parameters, code salt)`` — everything the
    fixed point depends on, and nothing it does not; the salt retires
    frames across refactors of the identification arithmetic itself.
    """
    import hashlib

    h = hashlib.sha256()
    for part in (
        population_key,
        "|".join(c.describe() for c in constraints),
        "none" if transform is None else transform.name,
        repr(float(k)),
        repr(float(max_fraction)),
        repr(int(max_iter)),
        code_salt(),
    ):
        h.update(part.encode())
        h.update(b"\x00")
    return "frame:" + h.hexdigest()


class MonitoringSession:
    """One tenant's push-driven experiment against one population.

    Parameters
    ----------
    name:
        Tenant/session label (audit records carry it).
    config:
        The :class:`ExperimentConfig` of the final replication loop; its
        ``seed`` must be an int (the same identity requirement as the
        streaming engine).
    constraints, transform, k, max_fraction, max_iter:
        The ideal-identification parameters (same defaults as the batch
        engines).
    population_key:
        Catalog identity of the population being monitored (e.g.
        :func:`~repro.store.catalog.population_recipe_key` of its recipe).
        Required for cross-session frame sharing; without it the session
        still works, just never touches the catalog.
    catalog:
        A :class:`~repro.store.catalog.Catalog`, a path, or ``None`` to
        defer to ``REPRO_CATALOG`` — where reference frames are shared.
    alerts:
        An :class:`~repro.service.alerts.AlertSink` auditing every fold;
        ``None`` disables auditing.
    """

    def __init__(
        self,
        name: str = "default",
        config: Optional[ExperimentConfig] = None,
        constraints: Optional[ConstraintSet] = None,
        transform: Optional[ScaleTransform] = None,
        k: float = 3.0,
        max_fraction: float = 0.05,
        max_iter: int = 3,
        weights: Optional[GlitchWeights] = None,
        population_key: Optional[str] = None,
        catalog: Union[None, str, "Catalog"] = None,
        alerts: "Optional[AlertSink]" = None,
    ):
        if max_iter < 1:
            raise ValidationError("max_iter must be >= 1")
        self.name = name
        self.config = config or ExperimentConfig()
        if not isinstance(self.config.seed, int):
            raise ValidationError(
                "session identity requires an int ExperimentConfig.seed; "
                "SeedSequence/Generator seeds are consumed order-dependently "
                "by the in-memory replication loop"
            )
        self.constraints = (
            constraints if constraints is not None else paper_constraints()
        )
        self.transform = transform
        self.k = k
        self.max_fraction = check_fraction(max_fraction, "max_fraction")
        self.max_iter = max_iter
        self.population_key = population_key
        self._catalog, self._owns_catalog = resolve_catalog(catalog)
        self.alerts = alerts
        self.scorer = IncrementalScorer(
            self.constraints, transform=transform, weights=weights
        )
        self._identified: Optional[tuple[np.ndarray, DetectorSuite]] = None
        self.frame_hits = 0

    # -- ingestion ---------------------------------------------------------

    def ingest(self, window: StreamWindow) -> WindowDelta:
        """Fold one pushed window; audits the delta and returns it."""
        delta = self.scorer.fold(window)
        if self.alerts is not None:
            self.alerts.record(self.name, delta)
        return delta

    def ingest_all(self, windows: Iterable[StreamWindow]) -> List[WindowDelta]:
        """Fold a whole delivery schedule, in the order given."""
        return [self.ingest(w) for w in windows]

    @property
    def n_streams(self) -> int:
        """Distinct streams seen so far."""
        return self.scorer.journal.n_streams

    # -- identification (catalog-shared) -----------------------------------

    def _frame_key(self) -> Optional[str]:
        if self.population_key is None:
            return None
        return frame_key(
            self.population_key,
            self.constraints,
            self.transform,
            self.k,
            self.max_fraction,
            self.max_iter,
        )

    def _suite_from(self, limits: SigmaLimits) -> DetectorSuite:
        return DetectorSuite(
            constraints=self.constraints,
            outlier_detector=SigmaOutlierDetector(limits),
            transform=self.transform,
        )

    def identify(self) -> tuple[np.ndarray, DetectorSuite]:
        """The population's ideal-set fixed point, shared via the catalog.

        On a catalog hit the stored :class:`ReferenceFrame` stands the
        fitted suite back up without touching the journaled data (beyond
        backfilling the live glitch fold); on a miss the fixed point is
        computed from the journal — the exact
        :func:`~repro.core.incremental.identify_fixed_point` replay of the
        batch engines — and published for the next session. Memoised
        in-process either way.
        """
        if self._identified is not None:
            return self._identified
        key = self._frame_key()
        if self._catalog is not None and key is not None:
            frame = self._catalog.get_outcome(key)
            if isinstance(frame, ReferenceFrame):
                self.frame_hits += 1
                suite = self._suite_from(frame.limits)
                self.scorer.freeze_suite(suite)
                self._identified = (frame.verdicts, suite)
                return self._identified
        verdicts, suite = self.scorer.identify(
            k=self.k, max_fraction=self.max_fraction, max_iter=self.max_iter
        )
        if self._catalog is not None and key is not None:
            self._catalog.put_outcome(
                key,
                ReferenceFrame(
                    verdicts=verdicts,
                    limits=suite.outlier_detector.limits,
                    n_streams=int(verdicts.size),
                ),
                population_key=self.population_key,
                config=self.config,
                strategies=[],
                engine="service",
            )
        self._identified = (verdicts, suite)
        return self._identified

    # -- the final verdict --------------------------------------------------

    def finalize(
        self,
        strategies: "Sequence[CleaningStrategy]",
        distance: "Optional[Distance]" = None,
        weights: Optional[GlitchWeights] = None,
        constraints: Optional[ConstraintSet] = None,
        backend: Optional[object] = None,
    ) -> ExperimentResult:
        """Score the journaled population — bitwise the batch engines' run.

        Reassembles every stream (the journal must hold each one complete),
        splits on the identified verdicts, and runs the replication loop
        :class:`~repro.core.streaming.StreamingExperiment.run` runs
        (:func:`~repro.core.incremental.replication_pairs`), gathering the
        touched series from the journal instead of the store. The outcomes
        are therefore bitwise-identical to both batch engines for every
        selectable distance, regardless of how the windows arrived.
        """
        cfg = self.config
        verdicts, suite = self.identify()
        series = self.scorer.journal.assemble()
        if verdicts.size != len(series):
            raise ValidationError(
                f"identified {verdicts.size} streams but the journal holds "
                f"{len(series)}"
            )
        dirty_idx, ideal_idx = split_verdicts(verdicts)
        lengths = np.array([s.length for s in series], dtype=np.int64)
        pairs, _ = replication_pairs(
            dirty_idx,
            ideal_idx,
            lengths,
            lambda needed: {idx: series[idx] for idx in needed},
            cfg,
        )
        return run_pair_panels_stream(
            pairs,
            [strategies],
            config=cfg,
            distances=[distance],
            weights=weights,
            constraints=constraints,
            backend=resolve_backend(backend),
        )[0]

    def close(self) -> None:
        """Release the catalog if the session opened it."""
        if self._owns_catalog and self._catalog is not None:
            self._catalog.close()
            self._catalog = None

    def __enter__(self) -> "MonitoringSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class IngestionService:
    """The asyncio push front: N feeds → bounded queue → one folding
    consumer.

    Feeds are async iterators of :class:`StreamWindow` (e.g.
    :func:`~repro.service.feeds.simulated_feed`); they run concurrently and
    push into an ``asyncio.Queue`` bounded by *backpressure*
    (``REPRO_SESSION_BACKPRESSURE`` when ``None``) — a slow consumer
    therefore stalls producers instead of buffering unboundedly. One
    consumer drains the queue into :meth:`MonitoringSession.ingest`, so
    folding is serialised while ingestion interleaves freely; the arrival
    order is whatever the event loop produced, which the incremental core's
    invariance contract absorbs.
    """

    def __init__(
        self,
        session: MonitoringSession,
        backpressure: Optional[int] = None,
    ):
        self.session = session
        self.backpressure = (
            check_positive_int(backpressure, "backpressure")
            if backpressure is not None
            else session_backpressure()
        )

    async def run(self, feeds: Sequence) -> List[WindowDelta]:
        """Drain every feed to exhaustion; returns the deltas in fold
        order."""
        import asyncio

        queue: "asyncio.Queue[StreamWindow]" = asyncio.Queue(
            maxsize=self.backpressure
        )
        deltas: List[WindowDelta] = []

        async def produce(feed) -> None:
            async for window in feed:
                await queue.put(window)

        async def consume() -> None:
            while True:
                window = await queue.get()
                deltas.append(self.session.ingest(window))
                queue.task_done()

        producers = [asyncio.ensure_future(produce(f)) for f in feeds]
        consumer = asyncio.ensure_future(consume())
        try:
            await asyncio.gather(*producers)
            await queue.join()
        finally:
            consumer.cancel()
            for p in producers:
                p.cancel()
        return deltas


def serve_windows(
    session: MonitoringSession,
    feeds: Sequence,
    backpressure: Optional[int] = None,
) -> List[WindowDelta]:
    """Run an :class:`IngestionService` to completion on a fresh event
    loop — the one-call synchronous front for tests and benches."""
    import asyncio

    service = IngestionService(session, backpressure=backpressure)
    return asyncio.run(service.run(list(feeds)))
