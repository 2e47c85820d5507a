"""The incremental fold core's bitwise replay contracts.

Every fold here must reproduce the one-shot batch computation *bitwise* —
for any window widths, any arrival order, and any duplication the journal
deduplicates — because the folds hold exact integer state and derive the
reported floats by replaying the batch expressions at read time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.glitch_index import GlitchWeights, series_glitch_score
from repro.core.incremental import (
    CHUNK_SERIES,
    CleanlinessFold,
    GlitchFold,
    IncrementalScorer,
    WindowJournal,
    cut_series_windows,
    ideal_column,
    series_chunks,
)
from repro.core.streaming import StreamingExperiment
from repro.data.dataset import StreamDataset
from repro.data.slab import SlabFeed
from repro.data.stream import TimeSeries
from repro.data.topology import NodeId
from repro.data.window import StreamWindow
from repro.errors import ValidationError
from repro.glitches.constraints import paper_constraints
from repro.experiments.config import SCALES, build_population
from repro.glitches.detectors import (
    DetectorSuite,
    ScaleTransform,
    SigmaLimits,
    SigmaOutlierDetector,
    identify_ideal,
)
from repro.glitches.missing import detect_missing
from repro.glitches.types import GlitchType
from repro.service import MonitoringSession
from repro.store.catalog import Catalog, population_recipe_key

import test_streaming

ATTRS = ("attr1", "attr2", "attr3")


def _series(seed, length=60, n_nan=6, n_neg=4):
    rng = np.random.default_rng(seed)
    values = rng.gamma(2.0, 3.0, size=(length, len(ATTRS)))
    flat = values.reshape(-1)
    flat[rng.choice(flat.size, size=n_nan, replace=False)] = np.nan
    neg = rng.choice(flat.size, size=n_neg, replace=False)
    flat[neg] = -np.abs(flat[neg])
    return TimeSeries(NodeId(0, 0, seed % 7), values, ATTRS)


def _suite():
    limits = SigmaLimits({a: (0.5, 12.0) for a in ATTRS})
    return DetectorSuite(
        constraints=paper_constraints(),
        outlier_detector=SigmaOutlierDetector(limits),
        transform=None,
    )


def _shuffled_windows(series_list, width, seed):
    windows = [
        w
        for i, s in enumerate(series_list)
        for w in cut_series_windows(s, i, width)
    ]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(windows))
    return [windows[i] for i in order]


class TestJournal:
    def test_seq_order_reassembly_is_bitwise(self):
        s = _series(3, length=57)
        journal = WindowJournal()
        for w in _shuffled_windows([s], width=13, seed=1):
            assert journal.offer(w)
        back = journal.series(0)
        assert np.array_equal(back.values, s.values, equal_nan=True)
        assert back.attributes == s.attributes
        assert back.node == s.node

    def test_duplicates_refused_without_state_change(self):
        s = _series(4)
        journal = WindowJournal()
        windows = cut_series_windows(s, 0, 16)
        for w in windows:
            assert journal.offer(w)
        for w in windows:
            assert not journal.offer(w)
        assert journal.n_windows == len(windows)

    def test_gap_detection(self):
        s = _series(5)
        journal = WindowJournal()
        windows = cut_series_windows(s, 0, 16)
        journal.offer(windows[0])
        journal.offer(windows[2])
        with pytest.raises(ValidationError, match="gaps"):
            journal.series(0)

    def test_assemble_requires_dense_stream_ids(self):
        s = _series(6)
        journal = WindowJournal()
        for w in cut_series_windows(s, 2, 16):
            journal.offer(w)
        with pytest.raises(ValidationError, match="missing streams"):
            journal.assemble()

    def test_attribute_schema_mismatch_rejected(self):
        journal = WindowJournal()
        journal.offer(
            StreamWindow(0, 0, np.zeros((4, 3)), ATTRS)
        )
        with pytest.raises(ValidationError, match="attributes"):
            journal.offer(
                StreamWindow(1, 0, np.zeros((4, 2)), ("a", "b"))
            )

    def test_truth_rides_along(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(30, 3))
        truth = rng.normal(size=(30, 3))
        s = TimeSeries(NodeId(0, 0, 0), values, ATTRS, truth)
        journal = WindowJournal()
        for w in _shuffled_windows([s], width=7, seed=2):
            journal.offer(w)
        assert np.array_equal(journal.series(0).truth, truth)


    def test_gap_reports_are_bounded(self):
        """A far-out seq or stream id is reported by count and first gaps,
        never by materialising the whole missing range."""
        journal = WindowJournal()
        journal.offer(StreamWindow(0, 10**12, np.zeros((2, 3)), ATTRS))
        with pytest.raises(ValidationError, match="window gaps") as err:
            journal.series(0)
        assert str(10**12) in str(err.value)
        assert "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]" in str(err.value)
        journal.offer(StreamWindow(2**62, 0, np.zeros((2, 3)), ATTRS))
        with pytest.raises(ValidationError, match="missing streams") as err:
            journal.assemble()
        assert "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]" in str(err.value)

    def test_segment_is_the_assembled_population_as_rows(self):
        series_list = [_series(i, length=20 + 3 * i) for i in range(5)]
        journal = WindowJournal()
        for w in _shuffled_windows(series_list, width=6, seed=3):
            journal.offer(w)
        values, lengths = journal.segment()
        assembled = journal.assemble()
        assert lengths.tolist() == [s.length for s in assembled]
        assert np.array_equal(
            values, np.concatenate([s.values for s in assembled]), equal_nan=True
        )
        empty_values, empty_lengths = WindowJournal().segment()
        assert empty_values.shape[0] == 0 and empty_lengths.size == 0

    def test_segment_raises_what_assemble_raises(self):
        s = _series(8)
        windows = cut_series_windows(s, 0, 16)
        gapped = WindowJournal()
        gapped.offer(windows[0])
        gapped.offer(windows[2])
        sparse = WindowJournal()
        for w in cut_series_windows(s, 2, 16):
            sparse.offer(w)
        for journal, message in ((gapped, "gaps"), (sparse, "missing streams")):
            with pytest.raises(ValidationError, match=message) as by_assemble:
                journal.assemble()
            with pytest.raises(ValidationError, match=message) as by_segment:
                journal.segment()
            assert str(by_segment.value) == str(by_assemble.value)

    def test_rejected_schema_registers_no_stream(self):
        journal = WindowJournal()
        journal.offer(StreamWindow(0, 0, np.zeros((4, 3)), ATTRS))
        with pytest.raises(ValidationError, match="attributes"):
            journal.offer(StreamWindow(1, 0, np.zeros((4, 3)), ("a", "b", "c")))
        assert journal.n_streams == 1 and journal.stream_ids() == [0]
        assert len(journal.assemble()) == 1

    def test_rows_concatenate_in_seq_order_across_gaps(self):
        s = _series(7, length=40)
        journal = WindowJournal()
        windows = cut_series_windows(s, 0, 8)
        for w in windows[::-2]:
            journal.offer(w)
        expected = np.concatenate([w.values for w in windows[::2]])
        assert np.array_equal(journal.rows(0), expected, equal_nan=True)


class TestStreamWindowValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seq": 1.5},
            {"seq": float("nan")},
            {"seq": True},
            {"stream_id": False},
            {"stream_id": "0"},
            {"stream_id": -1},
            {"seq": np.int64(-3)},
            {"values": np.full((2, 3), "x")},
            {"values": np.ones((2, 3), dtype=complex)},
            {"values": np.ones((2, 3), dtype=bool)},
            {"values": [[1.0, 2.0, 3.0], [4.0]]},
            {"values": np.ones((2, 2))},
            {"truth": [[1.0, 2.0, 3.0]]},
            {"truth": np.full((2, 3), "x")},
        ],
    )
    def test_malformed_windows_are_validation_errors(self, kwargs):
        fields = dict(stream_id=0, seq=0, values=np.ones((2, 3)), attributes=ATTRS)
        fields.update(kwargs)
        with pytest.raises(ValidationError):
            StreamWindow(**fields)

    def test_numeric_inputs_are_normalised(self):
        w = StreamWindow(
            np.uint8(4),
            np.int64(2),
            [[1, 2, 3], [4, 5, 6]],
            ATTRS,
            truth=[[1, 2, 3], [4, 5, 6]],
        )
        assert type(w.stream_id) is int and type(w.seq) is int
        assert w.key == (4, 2)
        assert w.values.dtype == np.float64 and w.truth.dtype == np.float64
        assert w.width == 2


_DTYPES = [
    np.float64,
    np.float32,
    np.int64,
    np.uint8,
    np.bool_,
    np.complex128,
    np.dtype("<U3"),
]


@st.composite
def _arbitrary_windows(draw):
    """A StreamWindow's constructor arguments, well formed or not."""
    stream_id = draw(
        st.one_of(
            st.integers(-1, 4),
            st.integers(0, 3).map(np.int32),
            st.booleans(),
            st.floats(allow_nan=True),
        )
    )
    seq = draw(
        st.one_of(
            st.integers(-1, 6),
            st.integers(2**32, 2**62),
            st.booleans(),
            st.sampled_from([1.5, float("nan"), 2.0]),
        )
    )
    shape = draw(
        st.one_of(
            st.tuples(st.integers(0, 5), st.just(len(ATTRS))),
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
        )
    )
    dtype = draw(st.sampled_from(_DTYPES))
    values = draw(hnp.arrays(dtype, shape))
    if draw(st.booleans()):
        values = values.tolist()
    truth_shape = draw(
        st.one_of(
            st.none(),
            st.just(np.shape(values)),
            hnp.array_shapes(max_dims=3, min_side=0, max_side=3),
        )
    )
    truth = None
    if truth_shape is not None:
        truth = draw(hnp.arrays(draw(st.sampled_from(_DTYPES)), truth_shape))
    if truth is not None and draw(st.booleans()):
        truth = truth.tolist()
    return dict(
        stream_id=stream_id, seq=seq, values=values, attributes=ATTRS, truth=truth
    )


class TestJournalFuzz:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_arbitrary_windows(), max_size=8))
    def test_edge_is_validation_errors_only(self, specs):
        """Every malformed window is refused with ValidationError at
        construction; every accepted sequence folds, reassembles (or is
        refused with ValidationError) and backfills a frozen suite."""
        windows = []
        for spec in specs:
            try:
                windows.append(StreamWindow(**spec))
            except ValidationError:
                pass
        scorer = IncrementalScorer(paper_constraints())
        for w in windows:
            scorer.fold(w)
        for sid in scorer.journal.stream_ids():
            try:
                scorer.journal.series(sid)
            except ValidationError:
                pass
        try:
            scorer.journal.assemble()
        except ValidationError:
            pass
        scorer.freeze_suite(_suite())
        for sid in scorer.journal.stream_ids():
            rows = scorer.journal.rows(sid)
            assert rows.shape == (scorer.cleanliness.n_records(sid), len(ATTRS))
            assert 0.0 <= scorer.out_fraction(sid) <= 1.0


class TestCleanlinessFold:
    @pytest.mark.parametrize("width", [1, 7, 16, 200])
    def test_fractions_bitwise_match_batch_mean(self, width):
        constraints = paper_constraints()
        fold = CleanlinessFold(constraints)
        series_list = [_series(i) for i in range(4)]
        for w in _shuffled_windows(series_list, width, seed=9):
            fold.fold(
                w.stream_id, TimeSeries(w.node, w.values, w.attributes)
            )
        for i, s in enumerate(series_list):
            assert fold.miss_fraction(i) == float(
                detect_missing(s).any(axis=1).mean()
            )
            assert fold.inc_fraction(i) == float(
                constraints.evaluate(s).any(axis=1).mean()
            )


class TestGlitchFold:
    @pytest.mark.parametrize("width", [1, 11, 60])
    def test_score_bitwise_matches_series_glitch_score(self, width):
        suite = _suite()
        weights = GlitchWeights()
        fold = GlitchFold(suite, weights)
        series_list = [_series(i + 10) for i in range(3)]
        for w in _shuffled_windows(series_list, width, seed=3):
            fold.fold(
                w.stream_id, TimeSeries(w.node, w.values, w.attributes)
            )
        for i, s in enumerate(series_list):
            assert fold.score(i) == series_glitch_score(
                suite.annotate(s), weights
            )

    @pytest.mark.parametrize("width", [1, 7, 16, 200])
    def test_out_fraction_bitwise_matches_record_fraction(self, width):
        suite = _suite()
        fold = GlitchFold(suite)
        series_list = [_series(i) for i in range(4)]
        for w in _shuffled_windows(series_list, width, seed=9):
            fold.fold(
                w.stream_id, TimeSeries(w.node, w.values, w.attributes)
            )
        for i, s in enumerate(series_list):
            assert fold.out_fraction(i) == suite.annotate(s).record_fraction(
                GlitchType.OUTLIER
            )


class TestAnalysisColumn:
    def test_transformed_column_replays_pooling(self):
        transform = ScaleTransform.log_attr1()
        s = _series(21)
        col = ideal_column(series_chunks([s]), 0, transform)
        raw = s.values[:, 0]
        with np.errstate(invalid="ignore", divide="ignore"):
            expected = np.log(raw)
        expected = expected[np.isfinite(expected)]
        assert np.array_equal(col, expected)
        # Untransformed attributes: NaN drop only.
        col2 = ideal_column(series_chunks([s]), 1, transform)
        raw2 = s.values[:, 1]
        assert np.array_equal(col2, raw2[~np.isnan(raw2)])


class TestIncrementalScorer:
    def test_live_scores_are_arrival_order_invariant(self):
        series_list = [_series(i + 30) for i in range(3)]
        suite = _suite()

        def final_state(seed):
            scorer = IncrementalScorer(paper_constraints())
            scorer.freeze_suite(suite)
            for w in _shuffled_windows(series_list, 9, seed=seed):
                scorer.fold(w)
            return [
                (
                    scorer.cleanliness.miss_fraction(i),
                    scorer.cleanliness.inc_fraction(i),
                    scorer.glitch_score(i),
                )
                for i in range(len(series_list))
            ]

        assert final_state(1) == final_state(2) == final_state(3)

    def test_late_freeze_equals_early_freeze(self):
        series_list = [_series(i + 40) for i in range(2)]
        suite = _suite()
        windows = _shuffled_windows(series_list, 8, seed=5)

        early = IncrementalScorer(paper_constraints())
        early.freeze_suite(suite)
        for w in windows:
            early.fold(w)

        late = IncrementalScorer(paper_constraints())
        for w in windows:
            late.fold(w)
        late.freeze_suite(suite)  # backfills the journal

        for i in range(len(series_list)):
            assert early.glitch_score(i) == late.glitch_score(i)

    @pytest.mark.parametrize("freeze", ["gapped", "prefix", "end"])
    def test_chunked_backfill_equals_early_freeze(self, freeze):
        """The backfill packs the journal into CHUNK_SERIES-stream chunks;
        crossing a chunk boundary, ragged and zero-length streams, and a
        freeze while streams still have seq gaps all leave every stream's
        score and outlier rate where a freeze before the first arrival
        puts them."""
        n = CHUNK_SERIES + 5
        series_list = [
            _series(i, length=(i * 7) % 29, n_nan=0, n_neg=0)
            if i % 3 == 0
            else _series(i, length=5 + (i * 7) % 29)
            for i in range(n)
        ]
        assert series_list[0].length == 0
        suite = _suite()
        windows = _shuffled_windows(series_list, 4, seed=6)
        if freeze == "gapped":  # every stream journaled, most missing seq 1
            before = [w for w in windows if w.seq != 1]
            after = [w for w in windows if w.seq == 1]
        elif freeze == "prefix":
            before, after = windows[: len(windows) // 2], windows[len(windows) // 2 :]
        else:
            before, after = windows, []

        early = IncrementalScorer(paper_constraints())
        early.freeze_suite(suite)
        late = IncrementalScorer(paper_constraints())
        for w in before:
            early.fold(w)
            late.fold(w)
        late.freeze_suite(suite)  # backfills the journal, gaps and all

        def state(scorer):
            return [
                (scorer.glitch_score(i), scorer.out_fraction(i))
                for i in range(n)
            ]

        if after:
            gapped = 0
            for i in late.journal.stream_ids():
                try:
                    late.journal.series(i)
                except ValidationError:
                    gapped += 1
            assert gapped > 0
        if freeze == "gapped":
            assert late.journal.n_streams == n
        assert state(late) == state(early)
        for w in after:
            assert late.fold(w) == early.fold(w)
        assert state(late) == state(early)
        for i, s in enumerate(series_list):
            if s.length:
                matrix = suite.annotate(s)
                assert late.glitch_score(i) == series_glitch_score(matrix)
                assert late.out_fraction(i) == matrix.record_fraction(
                    GlitchType.OUTLIER
                )

    def test_identify_makes_no_per_window_annotate_calls(
        self, monkeypatch, tmp_path
    ):
        """Identification and the suite freeze are padded-block passes:
        neither the fixed point nor the journal backfill annotates a window
        or a series one at a time, on a catalog miss or a catalog hit."""
        feed = SlabFeed(SCALES["tiny"].generator, None, seed=0)
        try:
            windows = list(feed.iter_stream_windows(width=16))
        finally:
            feed.cleanup()
        calls = []
        annotate = DetectorSuite.annotate

        def counted(self, series):
            calls.append(series)
            return annotate(self, series)

        monkeypatch.setattr(DetectorSuite, "annotate", counted)
        scorer = IncrementalScorer(paper_constraints())
        for w in windows:
            scorer.fold(w)
        scorer.identify()
        assert calls == []

        pop_key = population_recipe_key(SCALES["tiny"].generator, None, 0)
        catalog = Catalog(tmp_path / "catalog.sqlite")
        try:
            sessions = []
            for name in ("miss", "hit"):
                session = MonitoringSession(
                    name=name, population_key=pop_key, catalog=catalog
                )
                session.ingest_all(windows)
                session.identify()
                sessions.append(session)
        finally:
            catalog.close()
        assert [s.frame_hits for s in sessions] == [0, 1]
        assert sessions[1].scorer.glitch_score(0) == scorer.glitch_score(0)
        assert calls == []

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_iter": 0}, "max_iter"),
            ({"max_iter": -2}, "max_iter"),
            ({"max_fraction": -0.05}, "max_fraction"),
            ({"max_fraction": 1.5}, "max_fraction"),
        ],
    )
    def test_identify_rejects_bad_parameters(self, kwargs, message):
        """max_iter=0 used to return a suite with no outlier detector, and a
        negative max_fraction failed with "loosen max_fraction"; the shared
        fixed point now rejects both for every driver."""
        series_list = [_series(i + 60) for i in range(4)]
        scorer = IncrementalScorer(paper_constraints())
        for w in _shuffled_windows(series_list, 11, seed=0):
            scorer.fold(w)
        with pytest.raises(ValidationError, match=message):
            scorer.identify(**kwargs)
        assert scorer.suite is None
        with pytest.raises(ValidationError, match=message):
            identify_ideal(StreamDataset(series_list), **kwargs)

    def test_duplicates_do_not_move_state(self):
        series_list = [_series(50)]
        scorer = IncrementalScorer(paper_constraints())
        windows = cut_series_windows(series_list[0], 0, 10)
        for w in windows:
            assert scorer.fold(w).accepted
        before = scorer.cleanliness.miss_fraction(0)
        delta = scorer.fold(windows[0])
        assert not delta.accepted
        assert scorer.n_duplicates == 1
        assert scorer.cleanliness.miss_fraction(0) == before


def _bounds(suite):
    limits = suite.outlier_detector.limits
    return {a: limits.bounds(a) for a in limits.attributes}


class TestOneFixedPoint:
    """Every identification driver reaches the same ideal-set fixed point,
    and that fixed point is what the full detector suite says it is."""

    @pytest.fixture(
        scope="class",
        params=[
            SCALES["tiny"].generator,
            test_streaming.TestRaggedStreaming.RAGGED,
        ],
        ids=["tiny", "ragged"],
    )
    def population(self, request):
        bundle = build_population(
            scale="tiny", seed=0, generator_config=request.param
        )
        return request.param, bundle.population

    @pytest.mark.parametrize("max_iter", [1, 5])
    @pytest.mark.parametrize(
        "transform", [None, ScaleTransform.log_attr1()], ids=["raw", "log_attr1"]
    )
    def test_drivers_agree_with_annotate_oracle(
        self, population, transform, max_iter
    ):
        generator_config, dataset = population
        partition, suite = identify_ideal(
            dataset, transform=transform, max_iter=max_iter
        )

        engine = StreamingExperiment(
            generator_config=generator_config,
            seed=0,
            transform=transform,
            max_iter=max_iter,
            spill=False,
        )
        streamed, streamed_suite = engine.identify()

        scorer = IncrementalScorer(paper_constraints(), transform=transform)
        for w in _shuffled_windows(dataset.series, 7, seed=max_iter):
            scorer.fold(w)
        pushed, pushed_suite = scorer.identify(max_iter=max_iter)

        for verdicts in (streamed, pushed):
            assert np.flatnonzero(verdicts).tolist() == partition.ideal_indices
            assert np.flatnonzero(~verdicts).tolist() == partition.dirty_indices
        assert _bounds(streamed_suite) == _bounds(suite)
        assert _bounds(pushed_suite) == _bounds(suite)

        # Oracle outside the fixed-point code: a series is ideal exactly
        # when the returned suite's full annotation rates it clean.
        ideal = set(partition.ideal_indices)
        for i, series in enumerate(dataset):
            matrix = suite.annotate(series)
            clean = all(matrix.record_fraction(g) < 0.05 for g in GlitchType)
            assert clean == (i in ideal)
