"""The push-driven monitoring service's identity and recovery contracts.

The acceptance bar: a session fed the same windows out-of-order, with
duplicates, in bursts — on any backend, for every selectable distance, on
ragged populations — reports final scores bitwise-identical to
:class:`StreamingExperiment` on the batch path; the asyncio front survives
the ``feed.*`` fault sites without a numbers change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cleaning.registry import strategy_by_name
from repro.core.executor import ProcessBackend, SerialBackend, ThreadBackend
from repro.core.framework import ExperimentConfig
from repro.core.glitch_index import series_glitch_score
from repro.core.incremental import RowChunk, WindowJournal, count_rows
from repro.core.streaming import StreamingExperiment
from repro.data.generator import GeneratorConfig
from repro.data.slab import SlabFeed
from repro.data.stream import TimeSeries
from repro.data.window import StreamWindow
from repro.errors import ValidationError
from repro.experiments.config import SCALES
from repro.glitches.constraints import paper_constraints
from repro.service import (
    AlertSink,
    IngestionService,
    MonitoringSession,
    arrival_schedule,
    frame_key,
    serve_windows,
    session_backpressure,
    simulated_feed,
)
from repro.store.catalog import Catalog, population_recipe_key
from repro.testing.faults import FaultPlan, install_plan

STRATEGIES = [strategy_by_name("strategy1"), strategy_by_name("strategy4")]
#: A ragged population: series lengths vary between 40 and 60 steps.
RAGGED = GeneratorConfig(
    n_rnc=2,
    towers_per_rnc=5,
    sectors_per_tower=10,
    series_length=60,
    min_length=40,
)


def _key(o):
    return (
        o.strategy,
        o.replication,
        o.improvement,
        o.distortion,
        o.glitch_index_dirty,
        o.glitch_index_treated,
        o.cost_fraction,
        tuple(sorted((g.name, v) for g, v in o.dirty_fractions.items())),
        tuple(sorted((g.name, v) for g, v in o.treated_fractions.items())),
    )


def _keys(result):
    return [_key(o) for o in result.outcomes]


def _windows(generator_config=None, seed=0, width=16):
    feed = SlabFeed(
        generator_config or SCALES["tiny"].generator, None, seed=seed
    )
    try:
        return list(feed.iter_stream_windows(width=width))
    finally:
        feed.cleanup()


@pytest.fixture(scope="module")
def tiny_cfg():
    return ExperimentConfig(n_replications=3, sample_size=10, seed=11)


@pytest.fixture(scope="module")
def tiny_windows():
    return _windows()


@pytest.fixture(scope="module")
def batch_reference(tiny_cfg):
    engine = StreamingExperiment.from_scale("tiny", seed=0, config=tiny_cfg)
    return engine.run(STRATEGIES)


class TestArrivalOrderInvariance:
    @pytest.mark.parametrize(
        "backend",
        [SerialBackend(), ThreadBackend(2), ProcessBackend(2, min_units=1)],
        ids=lambda b: b.name,
    )
    def test_hostile_delivery_bitwise_matches_batch(
        self, tiny_cfg, tiny_windows, batch_reference, backend
    ):
        plan = arrival_schedule(
            tiny_windows, seed=99, reorder=1.0, duplicate=0.3, burst=3
        )
        session = MonitoringSession(config=tiny_cfg)
        session.ingest_all(plan)
        assert session.scorer.n_duplicates > 0
        result = session.finalize(STRATEGIES, backend=backend)
        assert _keys(result) == _keys(batch_reference.result)

    @pytest.mark.parametrize("selector", ["kl", "js", "ks"])
    def test_every_selectable_distance_is_identical(
        self, tiny_windows, selector
    ):
        cfg = ExperimentConfig(
            n_replications=2, sample_size=8, seed=11, distance=selector
        )
        reference = StreamingExperiment.from_scale(
            "tiny", seed=0, config=cfg
        ).run(STRATEGIES)
        plan = arrival_schedule(
            tiny_windows, seed=7, reorder=1.0, duplicate=0.25
        )
        session = MonitoringSession(config=cfg)
        session.ingest_all(plan)
        assert _keys(session.finalize(STRATEGIES)) == _keys(reference.result)

    def test_delivery_order_never_moves_final_floats(
        self, tiny_cfg, tiny_windows
    ):
        results = []
        for seed in (1, 2):
            session = MonitoringSession(config=tiny_cfg)
            session.ingest_all(
                arrival_schedule(
                    tiny_windows, seed=seed, reorder=1.0, duplicate=0.5
                )
            )
            results.append(_keys(session.finalize(STRATEGIES)))
        assert results[0] == results[1]

    def test_ragged_population_identity(self):
        cfg = ExperimentConfig(n_replications=2, sample_size=8, seed=5)
        reference = StreamingExperiment(
            generator_config=RAGGED, seed=0, config=cfg
        ).run(STRATEGIES)
        windows = _windows(generator_config=RAGGED, width=13)
        session = MonitoringSession(config=cfg)
        session.ingest_all(
            arrival_schedule(windows, seed=3, reorder=1.0, duplicate=0.2)
        )
        assert _keys(session.finalize(STRATEGIES)) == _keys(reference.result)

    def test_identification_matches_batch_engine(
        self, tiny_cfg, tiny_windows, batch_reference
    ):
        session = MonitoringSession(config=tiny_cfg)
        session.ingest_all(arrival_schedule(tiny_windows, seed=4, reorder=1.0))
        verdicts, suite = session.identify()
        dirty = [int(i) for i in np.flatnonzero(~verdicts)]
        ideal = [int(i) for i in np.flatnonzero(verdicts)]
        assert dirty == batch_reference.dirty_indices
        assert ideal == batch_reference.ideal_indices
        ref_limits = batch_reference.suite.outlier_detector.limits
        for attr, (lo, hi) in suite.outlier_detector.limits.items():
            assert (lo, hi) == ref_limits.bounds(attr)


def _hostile(windows, seed=1):
    return arrival_schedule(windows, seed=seed, reorder=1.0, duplicate=0.3, burst=3)


def _reference_deltas(plan):
    """``(stream_id, seq, accepted, n_records, miss, inc)`` per arrival,
    from a dedup-and-count fold written against the cell kernel."""
    constraints = paper_constraints()
    seen = set()
    counts: dict = {}
    out = []
    for w in plan:
        accepted = w.key not in seen
        if accepted:
            seen.add(w.key)
            records, miss, inc = counts.get(w.stream_id, (0, 0, 0))
            counts[w.stream_id] = (
                records + w.values.shape[0],
                miss + int(count_rows(np.isnan(w.values))),
                inc
                + int(
                    count_rows(constraints.evaluate_values(w.values, w.attributes))
                ),
            )
        records, miss, inc = counts.get(w.stream_id, (0, 0, 0))
        out.append(
            (
                w.stream_id,
                w.seq,
                accepted,
                records,
                miss / records if records else 0.0,
                inc / records if records else 0.0,
            )
        )
    return out


@pytest.fixture()
def object_counts(monkeypatch):
    """Counts of TimeSeries builds, journal reassemblies and row packs,
    taken while ``armed`` is set."""
    calls = {"series": 0, "assemble": 0, "pack": 0, "from_rows": 0}
    armed = []
    init = TimeSeries.__init__
    assemble = WindowJournal.assemble
    pack, from_rows = RowChunk.pack.__func__, RowChunk.from_rows.__func__

    def counted_init(self, *args, **kwargs):
        calls["series"] += bool(armed)
        init(self, *args, **kwargs)

    def counted_assemble(self):
        calls["assemble"] += bool(armed)
        return assemble(self)

    def counted_pack(cls, series):
        calls["pack"] += bool(armed)
        return pack(cls, series)

    def counted_from_rows(cls, rows, attributes):
        calls["from_rows"] += bool(armed)
        return from_rows(cls, rows, attributes)

    monkeypatch.setattr(TimeSeries, "__init__", counted_init)
    monkeypatch.setattr(WindowJournal, "assemble", counted_assemble)
    monkeypatch.setattr(RowChunk, "pack", classmethod(counted_pack))
    monkeypatch.setattr(RowChunk, "from_rows", classmethod(counted_from_rows))
    return calls, armed


class TestPushPathObjects:
    """The push path folds windows as they are and identifies straight off
    the journal's row segment: no per-window series, no reassembly, no row
    packing — and the same numbers as the cell kernel and the batch
    engine."""

    def test_fold_matches_cell_kernel_reference(self, tiny_cfg, tiny_windows):
        plan = _hostile(tiny_windows)
        session = MonitoringSession(config=tiny_cfg)
        deltas = session.ingest_all(plan)
        assert [
            (
                d.stream_id,
                d.seq,
                d.accepted,
                d.n_records,
                d.miss_fraction,
                d.inc_fraction,
            )
            for d in deltas
        ] == _reference_deltas(plan)
        assert [d.arrival for d in deltas] == list(range(1, len(plan) + 1))
        assert all(d.glitch_score is None for d in deltas)
        assert sum(not d.accepted for d in deltas) == len(plan) - len(tiny_windows)

    @pytest.mark.parametrize("ragged", [False, True], ids=["uniform", "ragged"])
    def test_ingest_and_identify_build_no_series_and_pack_no_rows(
        self, tiny_cfg, tiny_windows, batch_reference, object_counts, ragged
    ):
        calls, armed = object_counts
        if ragged:
            windows = _windows(generator_config=RAGGED, width=13)
            reference = StreamingExperiment(
                generator_config=RAGGED, seed=0, config=tiny_cfg
            ).run(STRATEGIES)
        else:
            windows, reference = tiny_windows, batch_reference
        session = MonitoringSession(config=tiny_cfg)
        armed.append(True)
        session.ingest_all(_hostile(windows))
        verdicts, suite = session.identify()
        armed.clear()
        assert calls == {"series": 0, "assemble": 0, "pack": 0, "from_rows": 0}
        assert np.flatnonzero(verdicts).tolist() == reference.ideal_indices
        assert np.flatnonzero(~verdicts).tolist() == reference.dirty_indices
        ref_limits = reference.suite.outlier_detector.limits
        for attr, bounds in suite.outlier_detector.limits.items():
            assert bounds == ref_limits.bounds(attr)
        # The suite-freeze backfill folded the segment's chunks: every
        # stream's live score is its whole series' batch score.
        journal = session.scorer.journal
        for i in journal.stream_ids():
            matrix = suite.annotate(journal.series(i))
            assert session.scorer.glitch_score(i) == series_glitch_score(matrix)
        assert _keys(session.finalize(STRATEGIES)) == _keys(reference.result)


class TestSessionMechanics:
    def test_rejected_window_leaves_no_phantom_stream(
        self, tiny_cfg, tiny_windows, batch_reference
    ):
        """A window with the wrong attribute schema from a stream id the
        journal has not seen is rejected without registering that stream,
        so the otherwise complete population still identifies and
        finalizes."""
        session = MonitoringSession(config=tiny_cfg)
        session.ingest_all(tiny_windows)
        n, ids = session.n_streams, session.scorer.journal.stream_ids()
        stranger = StreamWindow(n, 0, np.zeros((4, 3)), ("x", "y", "z"))
        with pytest.raises(ValidationError, match="attributes"):
            session.ingest(stranger)
        assert session.n_streams == n
        assert session.scorer.journal.stream_ids() == ids
        verdicts, _suite = session.identify()
        assert np.flatnonzero(verdicts).tolist() == batch_reference.ideal_indices
        assert _keys(session.finalize(STRATEGIES)) == _keys(batch_reference.result)

    def test_seed_must_be_int(self):
        with pytest.raises(ValidationError, match="int ExperimentConfig.seed"):
            MonitoringSession(
                config=ExperimentConfig(seed=np.random.SeedSequence(3))
            )

    def test_env_knobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_SESSION_BACKPRESSURE", raising=False)
        assert session_backpressure() == 64
        monkeypatch.setenv("REPRO_SESSION_BACKPRESSURE", "9")
        assert session_backpressure() == 9

    @pytest.mark.parametrize("raw", ["zero", "2.5", "0", "-3"])
    def test_malformed_backpressure_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SESSION_BACKPRESSURE", raw)
        with pytest.raises(ValidationError, match="REPRO_SESSION_BACKPRESSURE"):
            session_backpressure()

    def test_alert_sink_audits_and_alerts(self, tiny_cfg, tiny_windows):
        sink = AlertSink(fraction_threshold=0.05)
        session = MonitoringSession(config=tiny_cfg, alerts=sink)
        plan = arrival_schedule(tiny_windows, seed=8, duplicate=0.2)
        session.ingest_all(plan)
        assert len(sink.records) == len(plan)
        assert sink.n_duplicates == session.scorer.n_duplicates
        # The tiny population plants glitches well above 5% on some streams.
        assert sink.alerts
        alerted = {r.stream_id for r in sink.alerts}
        verdicts, _ = session.identify()
        dirty = set(int(i) for i in np.flatnonzero(~verdicts))
        assert alerted <= dirty | alerted  # audit trail is self-consistent
        for rec in sink.alerts:
            assert rec.alert and rec.session == session.name


class TestCatalogFrameSharing:
    def test_second_session_reuses_frame_bitwise(
        self, tiny_cfg, tiny_windows, batch_reference, tmp_path
    ):
        pop_key = population_recipe_key(SCALES["tiny"].generator, None, 0)
        catalog = Catalog(tmp_path / "catalog.sqlite")
        try:
            first = MonitoringSession(
                name="tenant-a",
                config=tiny_cfg,
                population_key=pop_key,
                catalog=catalog,
            )
            first.ingest_all(
                arrival_schedule(tiny_windows, seed=1, reorder=1.0)
            )
            a = _keys(first.finalize(STRATEGIES))
            assert first.frame_hits == 0

            second = MonitoringSession(
                name="tenant-b",
                config=tiny_cfg,
                population_key=pop_key,
                catalog=catalog,
            )
            second.ingest_all(
                arrival_schedule(tiny_windows, seed=2, duplicate=0.4)
            )
            b = _keys(second.finalize(STRATEGIES))
            assert second.frame_hits == 1  # identification was a catalog read
            assert a == b == _keys(batch_reference.result)
        finally:
            catalog.close()

    def test_frame_key_separates_parameters(self):
        from repro.glitches.constraints import paper_constraints

        base = frame_key("pop", paper_constraints(), None, 3.0, 0.05, 3)
        assert base != frame_key("pop", paper_constraints(), None, 2.5, 0.05, 3)
        assert base != frame_key("pop2", paper_constraints(), None, 3.0, 0.05, 3)


class TestAsyncIngestion:
    def _per_feed(self, windows, n_feeds):
        by_stream = {}
        for w in windows:
            by_stream.setdefault(w.stream_id % n_feeds, []).append(w)
        return [by_stream[i] for i in sorted(by_stream)]

    def test_concurrent_feeds_match_batch(
        self, tiny_cfg, tiny_windows, batch_reference
    ):
        session = MonitoringSession(config=tiny_cfg)
        feeds = [
            simulated_feed(chunk)
            for chunk in self._per_feed(tiny_windows, 4)
        ]
        deltas = serve_windows(session, feeds)
        # The CI service smoke re-runs this test with REPRO_FAULTS arming
        # feed.dup — the journal refuses the re-deliveries, so the count of
        # extra deltas is exactly the duplicate count either way.
        assert len(deltas) == len(tiny_windows) + session.scorer.n_duplicates
        assert _keys(session.finalize(STRATEGIES)) == _keys(
            batch_reference.result
        )

    def test_feed_faults_do_not_move_the_numbers(
        self, tiny_cfg, tiny_windows, batch_reference
    ):
        previous = install_plan(
            FaultPlan.parse("feed.stall:3,feed.dup:2,feed.reorder:2")
        )
        try:
            session = MonitoringSession(config=tiny_cfg)
            feeds = [
                simulated_feed(chunk)
                for chunk in self._per_feed(tiny_windows, 3)
            ]
            deltas = serve_windows(session, feeds)
        finally:
            install_plan(previous)
        # feed.dup:2 delivered two windows twice; the journal refused them.
        assert session.scorer.n_duplicates == 2
        assert len(deltas) == len(tiny_windows) + 2
        assert _keys(session.finalize(STRATEGIES)) == _keys(
            batch_reference.result
        )

    def test_backpressure_bound_is_respected(self, tiny_cfg, tiny_windows):
        session = MonitoringSession(config=tiny_cfg)
        service = IngestionService(session, backpressure=2)
        assert service.backpressure == 2
        feeds = [simulated_feed(list(tiny_windows))]
        import asyncio

        deltas = asyncio.run(service.run(feeds))
        assert len(deltas) == len(tiny_windows)
