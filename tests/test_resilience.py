"""Fault-matrix identity suite: every injected failure mode must complete
**bitwise-identically** to a clean run.

The determinism contract (pre-spawned per-unit RNG streams, pure work
units) is what makes retry-anywhere sound; these tests drive every fault
site the library probes — transient unit exceptions, hard worker kills,
torn and ENOSPC slab writes, locked and corrupt catalogs — and assert the
payloads match a fault-free reference float for float, across the serial,
thread and process backends.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
import threading
import time

import numpy as np
import pytest

from repro.cleaning.registry import strategy_by_name
from repro.core.executor import ProcessBackend, SerialBackend, ThreadBackend
from repro.core.framework import ExperimentConfig, ExperimentRunner
from repro.core.resilience import (
    Resilient,
    RetryPolicy,
    is_retryable,
    resilient,
    resolve_retry_policy,
)
from repro.core.streaming import StreamingExperiment
from repro.data.generator import GeneratorConfig
from repro.data.slab import SlabFeed, load_slab
from repro.errors import (
    ExperimentError,
    FaultInjectedError,
    ResilienceWarning,
    StoreError,
    StoreWarning,
    UnitTimeoutError,
    ValidationError,
)
from repro.experiments.sweep import SweepCell, run_sweep
from repro.store.catalog import Catalog, resolve_catalog
from repro.store.shards import read_shard, write_shard
from repro.testing.faults import (
    FaultPlan,
    FaultSpec,
    active_plan,
    fault_fires,
    install_plan,
)

STRATEGIES = [strategy_by_name("strategy1"), strategy_by_name("strategy4")]

TINY_GEN = GeneratorConfig(
    n_rnc=1, towers_per_rnc=2, sectors_per_tower=5, series_length=30, min_length=30
)


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    """No ambient plan or resilience knobs leak into (or out of) any test."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_RETRIES", raising=False)
    monkeypatch.delenv("REPRO_UNIT_TIMEOUT", raising=False)
    install_plan(None)
    yield
    install_plan(None)


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


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_grammar(self):
        plan = FaultPlan.parse("unit:2, slab.torn, catalog.locked:0.25; seed=7")
        assert plan.seed == 7
        assert plan.specs["unit"] == FaultSpec("unit", times=2)
        assert plan.specs["slab.torn"] == FaultSpec("slab.torn", times=1)
        assert plan.specs["catalog.locked"].rate == 0.25

    def test_unknown_site_rejected(self):
        with pytest.raises(ValidationError, match="unknown fault site"):
            FaultPlan.parse("unti:2")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValidationError, match="rate"):
            FaultSpec("unit", rate=1.5)

    def test_count_semantics(self):
        plan = FaultPlan.parse("unit:2")
        assert [plan.fires("unit") for _ in range(4)] == [True, True, False, False]
        assert not plan.fires("worker")  # unplanned site never fires
        plan.reset()
        assert plan.fires("unit")

    def test_rate_is_seed_deterministic(self):
        a = FaultPlan.parse("unit:0.5;seed=3")
        b = FaultPlan.parse("unit:0.5;seed=3")
        decisions = [a.fires("unit") for _ in range(32)]
        assert decisions == [b.fires("unit") for _ in range(32)]
        assert True in decisions and False in decisions

    def test_installed_plan_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "unit:100")
        install_plan(FaultPlan())  # empty plan masks the env
        assert not fault_fires("unit")
        install_plan(None)
        assert fault_fires("unit")

    def test_env_cache_tracks_value_changes(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "unit:1")
        assert "unit" in active_plan().specs
        monkeypatch.setenv("REPRO_FAULTS", "worker:1")
        assert "unit" not in active_plan().specs
        monkeypatch.delenv("REPRO_FAULTS")
        assert not active_plan().specs


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class _Flaky:
    def __init__(self, failures, exc=FaultInjectedError("boom")):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def __call__(self, x=0):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return x + 1


class TestRetryPolicy:
    def test_delay_is_deterministic_and_bounded(self):
        p = RetryPolicy(base_delay=0.05, max_delay=2.0, jitter_seed=9)
        for attempt in range(8):
            d1, d2 = p.delay(attempt, unit=4), p.delay(attempt, unit=4)
            assert d1 == d2
            cap = min(0.05 * 2**attempt, 2.0)
            assert 0.5 * cap <= d1 < 1.5 * cap
        assert p.delay(1, unit=0) != p.delay(1, unit=1)

    def test_transient_failure_is_retried(self):
        fn = _Flaky(2)
        assert RetryPolicy(max_attempts=3, base_delay=0).call(fn, 10) == 11
        assert fn.calls == 3

    def test_deterministic_error_is_not_retried(self):
        fn = _Flaky(5, exc=ValidationError("bad input"))
        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=5, base_delay=0).call(fn)
        assert fn.calls == 1

    def test_exhausted_attempts_raise(self):
        fn = _Flaky(10)
        with pytest.raises(FaultInjectedError):
            RetryPolicy(max_attempts=2, base_delay=0).call(fn)
        assert fn.calls == 2

    def test_retryability_taxonomy(self):
        assert is_retryable(FaultInjectedError("x"))
        assert is_retryable(OSError("disk hiccup"))
        assert not is_retryable(ValidationError("x"))
        assert not is_retryable(MemoryError())
        assert not is_retryable(KeyboardInterrupt())

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "5")
        monkeypatch.setenv("REPRO_UNIT_TIMEOUT", "2.5")
        p = resolve_retry_policy()
        assert p.max_attempts == 5 and p.unit_timeout == 2.5
        monkeypatch.setenv("REPRO_UNIT_TIMEOUT", "0")
        assert resolve_retry_policy().unit_timeout is None
        monkeypatch.setenv("REPRO_RETRIES", "nope")
        with pytest.raises(ValidationError):
            resolve_retry_policy()

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "soon"])
    def test_malformed_unit_timeout_rejected(self, monkeypatch, raw):
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        monkeypatch.setenv("REPRO_UNIT_TIMEOUT", raw)
        with pytest.raises(ValidationError, match="REPRO_UNIT_TIMEOUT"):
            resolve_retry_policy()

    def test_resilient_is_identity_when_disabled(self):
        def fn(x):
            return x

        assert resilient(fn, RetryPolicy(max_attempts=1)) is fn
        wrapped = resilient(fn, RetryPolicy(max_attempts=3))
        assert isinstance(wrapped, Resilient)

    def test_resilient_wrapper_pickles(self):
        import math

        wrapped = Resilient(math.sqrt, RetryPolicy(max_attempts=2))
        clone = pickle.loads(pickle.dumps(wrapped))
        assert clone(9.0) == 3.0


# ---------------------------------------------------------------------------
# Fault matrix: work-unit faults across all backends
# ---------------------------------------------------------------------------


BACKENDS = [
    SerialBackend(),
    ThreadBackend(n_workers=2),
    ProcessBackend(n_workers=2, min_units=1),
]


@pytest.fixture(scope="module")
def matrix_cfg():
    return ExperimentConfig(n_replications=4, sample_size=10, seed=11)


@pytest.fixture(scope="module")
def clean_reference(tiny_bundle, matrix_cfg):
    runner = ExperimentRunner(tiny_bundle.dirty, tiny_bundle.ideal, config=matrix_cfg)
    return _keys(runner.run(STRATEGIES))


class TestUnitFaultIdentity:
    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
    def test_transient_unit_fault_is_invisible(
        self, tiny_bundle, matrix_cfg, clean_reference, backend
    ):
        install_plan(FaultPlan.parse("unit:2"))
        runner = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=matrix_cfg, backend=backend
        )
        assert _keys(runner.run(STRATEGIES)) == clean_reference

    def test_exhausted_retries_do_surface(self, tiny_bundle, matrix_cfg, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "2")
        install_plan(FaultPlan.parse("unit:100"))
        runner = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=matrix_cfg
        )
        with pytest.raises(FaultInjectedError):
            runner.run(STRATEGIES)


class TestWorkerDeathRecovery:
    def test_worker_kill_degrades_and_matches(
        self, tiny_bundle, matrix_cfg, clean_reference, monkeypatch
    ):
        # Forked workers re-count the plan from zero, so every fresh pool
        # dies — the full process→thread degrade ladder runs, and the
        # payload must still match the clean serial reference.
        monkeypatch.setenv("REPRO_FAULTS", "worker:1")
        backend = ProcessBackend(n_workers=2, min_units=1, max_pool_rebuilds=1)
        runner = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=matrix_cfg, backend=backend
        )
        with pytest.warns(ResilienceWarning, match="pool died"):
            result = runner.run(STRATEGIES)
        assert _keys(result) == clean_reference

    def test_single_pool_death_rebuilds_without_degrading(
        self, tiny_bundle, matrix_cfg, clean_reference, monkeypatch
    ):
        # One chunk's worth of kills, then the rebuilt pool finishes: only
        # the re-dispatch warning fires, never the degrade warning.
        monkeypatch.setenv("REPRO_FAULTS", "worker:0.2;seed=1")
        backend = ProcessBackend(n_workers=2, min_units=1, max_pool_rebuilds=10)
        runner = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=matrix_cfg, backend=backend
        )
        assert _keys(runner.run(STRATEGIES)) == clean_reference


class TestDegradationProvenance:
    """Backend ladder steps land on the result as ``degradations`` /
    ``n_degraded`` — a run that silently fell back is visible in saved
    outcomes, not just in the warning stream."""

    def test_ladder_steps_land_on_experiment_result(
        self, tiny_bundle, matrix_cfg, clean_reference, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "worker:1")
        backend = ProcessBackend(n_workers=2, min_units=1, max_pool_rebuilds=1)
        runner = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=matrix_cfg, backend=backend
        )
        with pytest.warns(ResilienceWarning, match="degrading"):
            result = runner.run(STRATEGIES)
        assert _keys(result) == clean_reference
        assert result.n_degraded >= 1
        assert any("degrading" in event for event in result.degradations)

    def test_clean_run_records_no_degradations(self, tiny_bundle, matrix_cfg):
        runner = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=matrix_cfg
        )
        result = runner.run(STRATEGIES)
        assert result.n_degraded == 0
        assert result.degradations == []

    def test_old_payloads_backfill_empty_degradations(self, tiny_bundle, matrix_cfg):
        # Results unpickled from a pre-provenance catalog lack the
        # attribute; the accessor backfills an empty history.
        runner = ExperimentRunner(
            tiny_bundle.dirty, tiny_bundle.ideal, config=matrix_cfg
        )
        result = runner.run(STRATEGIES)
        result.__dict__.pop("degradations")
        assert result.degradations == []
        assert result.n_degraded == 0

    def test_sweep_aggregates_per_cell_degradations(self, tiny_bundle, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker:1")
        cfg = ExperimentConfig(n_replications=2, sample_size=8, seed=5)
        cells = [
            SweepCell(
                name=f"cell{i}",
                config=cfg.variant(seed=5 + i),
                strategies=(STRATEGIES[0],),
                bundle=tiny_bundle,
            )
            for i in range(2)
        ]
        backend = ProcessBackend(n_workers=2, min_units=1, max_pool_rebuilds=1)
        with pytest.warns(ResilienceWarning, match="degrading"):
            sweep = run_sweep(cells, backend=backend)
        assert sweep.n_failed == 0
        assert sweep.n_degraded >= 1
        per_cell = sweep.degradations()
        assert per_cell
        assert all(name in sweep.keys() for name in per_cell)
        assert all(events for events in per_cell.values())


def _sleep_in_worker(x):
    import multiprocessing as mp

    if mp.parent_process() is not None:
        time.sleep(60)
    return x * 3


class TestWedgedPoolWatchdog:
    def test_unit_timeout_terminates_wedged_pool(self):
        backend = ProcessBackend(
            n_workers=2,
            min_units=1,
            retry_policy=RetryPolicy(max_attempts=1, unit_timeout=0.1),
            max_pool_rebuilds=1,
        )
        with pytest.warns(ResilienceWarning, match="wedged"):
            out = backend.map(_sleep_in_worker, range(4))
        assert out == [0, 3, 6, 9]


# Items whose first attempt has wedged in this process; the wedging attempt
# records itself *before* sleeping, so the retried attempt returns promptly.
_WEDGED_ONCE: set = set()


def _wedge_first_attempt(x):
    if x not in _WEDGED_ONCE:
        _WEDGED_ONCE.add(x)
        time.sleep(60)
    return x * 3


IN_PROCESS_BACKENDS = [
    lambda **kw: SerialBackend(**kw),
    lambda **kw: ThreadBackend(n_workers=2, **kw),
]


class TestInProcessUnitTimeout:
    """`unit_timeout` coverage for the serial and thread backends: a wedged
    unit raises a retryable :class:`UnitTimeoutError` instead of hanging
    the map (the process pool has its own watchdog, tested above)."""

    @pytest.fixture(autouse=True)
    def _fresh_wedge_log(self):
        _WEDGED_ONCE.clear()
        yield
        _WEDGED_ONCE.clear()

    @pytest.mark.parametrize(
        "make_backend", IN_PROCESS_BACKENDS, ids=["serial", "thread"]
    )
    def test_wedged_unit_raises_without_retries(self, make_backend):
        backend = make_backend(
            retry_policy=RetryPolicy(max_attempts=1, unit_timeout=0.1)
        )
        with pytest.raises(UnitTimeoutError) as excinfo:
            backend.map(_wedge_first_attempt, range(2))
        assert is_retryable(excinfo.value)

    @pytest.mark.parametrize(
        "make_backend", IN_PROCESS_BACKENDS, ids=["serial", "thread"]
    )
    def test_timed_out_unit_is_retried_like_any_transient(self, make_backend):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, unit_timeout=0.3)
        backend = make_backend(retry_policy=policy)
        assert backend.map(_wedge_first_attempt, range(3)) == [0, 3, 6]

    def test_env_knob_reaches_the_serial_map(self, monkeypatch):
        monkeypatch.setenv("REPRO_UNIT_TIMEOUT", "0.3")
        monkeypatch.setenv("REPRO_RETRIES", "2")
        assert SerialBackend().map(_wedge_first_attempt, range(2)) == [0, 3]


def _triple(x):
    return x * 3


class TestFaultPlansCrossProcessBoundaries:
    """``REPRO_FAULTS`` is carried by the environment, so it must reach
    workers that are *spawned* (fresh interpreter, nothing inherited but
    env + pickles), not just forked ones."""

    def test_spawned_workers_inherit_env_plan(self, monkeypatch):
        # Positive proof: the pool can only die if the spawned worker read
        # REPRO_FAULTS from its (inherited) environment and fired the
        # `worker` site — a fresh interpreter shares no memory with us.
        monkeypatch.setenv("REPRO_FAULTS", "worker:1")
        backend = ProcessBackend(
            n_workers=2, min_units=1, start_method="spawn", max_pool_rebuilds=1
        )
        with pytest.warns(ResilienceWarning, match="pool died"):
            out = backend.map(_triple, range(6))
        assert out == [x * 3 for x in range(6)]

    def test_slab_torn_and_worker_death_in_one_streaming_run(
        self, tmp_path, monkeypatch
    ):
        # Matrix cell crossing layers *and* processes at once: a torn slab
        # spill in the coordinator plus worker death in the pool, one
        # streaming run, payload bitwise-identical to the clean reference.
        cfg = ExperimentConfig(n_replications=3, sample_size=10, seed=11)
        clean = StreamingExperiment.from_scale(
            "tiny", seed=0, config=cfg, spill_dir=os.fspath(tmp_path / "clean")
        ).run(STRATEGIES)
        monkeypatch.setenv("REPRO_FAULTS", "slab.torn:1,worker:1")
        backend = ProcessBackend(n_workers=2, min_units=1, max_pool_rebuilds=1)
        with pytest.warns(ResilienceWarning):
            faulted = StreamingExperiment.from_scale(
                "tiny",
                seed=0,
                config=cfg,
                spill_dir=os.fspath(tmp_path / "faulted"),
                backend=backend,
            ).run(STRATEGIES)
        assert _keys(faulted.result) == _keys(clean.result)


# ---------------------------------------------------------------------------
# Fault matrix: store layer (slab spill + shard files)
# ---------------------------------------------------------------------------


def _shard_payload(n=6, v=2, seed=0):
    rng = np.random.default_rng(seed)
    lengths = np.full(n, 5, dtype=np.int64)
    values = rng.normal(size=(int(lengths.sum()), v))
    return lengths, values


class TestShardFaults:
    def test_enospc_leaves_no_tmp_and_recovers(self, tmp_path):
        path = os.fspath(tmp_path / "shard.slab")
        lengths, values = _shard_payload()
        install_plan(FaultPlan.parse("slab.enospc:1"))
        with pytest.raises(OSError, match="No space left"):
            write_shard(path, lengths, values, fingerprint="fp")
        assert os.listdir(tmp_path) == []  # no torn tmp file left behind
        write_shard(path, lengths, values, fingerprint="fp")
        handle = read_shard(path)
        assert handle.fingerprint == "fp"

    def test_torn_write_is_rejected_by_reader(self, tmp_path):
        path = os.fspath(tmp_path / "shard.slab")
        lengths, values = _shard_payload()
        install_plan(FaultPlan.parse("slab.torn:1"))
        write_shard(path, lengths, values, fingerprint="fp")
        with pytest.raises(StoreError):
            read_shard(path)
        write_shard(path, lengths, values, fingerprint="fp")  # fault consumed
        assert np.array_equal(read_shard(path).values, values)


class TestSlabDegradation:
    def _feed(self, tmp_path, seed=0):
        return SlabFeed(
            generator_config=TINY_GEN, seed=seed, spill_dir=os.fspath(tmp_path)
        )

    def test_load_slab_warns_on_unreadable_file(self, tmp_path):
        source = self._feed(tmp_path).sources[0]
        first = load_slab(source, spill=True)
        assert os.path.exists(source.store_path)
        with open(source.store_path, "r+b") as fh:  # tear the published file
            fh.truncate(16)
        with pytest.warns(StoreWarning, match="unreadable"):
            again = load_slab(source)
        assert all(
            np.array_equal(a.values, b.values, equal_nan=True)
            for a, b in zip(first, again)
        )

    def test_load_slab_warns_on_fingerprint_mismatch(self, tmp_path):
        old = self._feed(tmp_path, seed=0).sources[0]
        load_slab(old, spill=True)
        foreign = self._feed(tmp_path, seed=1).sources[0]  # same store_path
        assert foreign.store_path == old.store_path
        with pytest.warns(StoreWarning, match="fingerprint mismatch"):
            load_slab(foreign)

    def test_spill_failure_degrades_to_memory(self, tmp_path):
        source = self._feed(tmp_path).sources[0]
        install_plan(FaultPlan.parse("slab.enospc:1"))
        with pytest.warns(StoreWarning, match="could not spill"):
            series = load_slab(source, spill=True)
        assert not os.path.exists(source.store_path)
        again = load_slab(source, spill=True)  # fault consumed: spills now
        assert os.path.exists(source.store_path)
        assert all(
            np.array_equal(a.values, b.values, equal_nan=True)
            for a, b in zip(series, again)
        )

    @pytest.mark.parametrize("plan", ["slab.torn:1", "slab.enospc:1"])
    def test_streaming_identity_under_slab_faults(self, tmp_path, plan):
        cfg = ExperimentConfig(n_replications=3, sample_size=10, seed=11)
        clean = StreamingExperiment.from_scale(
            "tiny", seed=0, config=cfg, spill_dir=os.fspath(tmp_path / "clean")
        ).run(STRATEGIES)
        install_plan(FaultPlan.parse(plan))
        faulted = StreamingExperiment.from_scale(
            "tiny", seed=0, config=cfg, spill_dir=os.fspath(tmp_path / "faulted")
        ).run(STRATEGIES)
        assert _keys(faulted.result) == _keys(clean.result)


# ---------------------------------------------------------------------------
# Fault matrix: catalog (locked + corrupt)
# ---------------------------------------------------------------------------


class TestCatalogLocked:
    def test_injected_lock_contention_is_retried(self, tmp_path):
        with Catalog(os.fspath(tmp_path / "cat.sqlite")) as cat:
            install_plan(FaultPlan.parse("catalog.locked:2"))
            cat.record_population("pop", "recipe")
            install_plan(FaultPlan.parse("catalog.locked:2"))
            assert cat.get_outcome("missing") is None

    def test_real_write_lock_from_second_connection(self, tmp_path):
        """Regression: a concurrent writer holding the lock must delay the
        catalog write, not kill it — ``busy_timeout`` alone is not enough
        (kept deliberately tiny here so the bounded retry does the work)."""
        path = os.fspath(tmp_path / "cat.sqlite")
        cfg = ExperimentConfig(n_replications=1, sample_size=5, seed=0)
        with Catalog(path, busy_timeout_ms=20) as cat:
            blocker = sqlite3.connect(path, check_same_thread=False)
            blocker.execute("BEGIN IMMEDIATE")  # hold the write lock
            timer = threading.Timer(0.15, blocker.commit)
            timer.start()
            try:
                cat.put_outcome(
                    "k", {"payload": 1}, population_key="p",
                    config=cfg, strategies=STRATEGIES,
                )
            finally:
                timer.join()
                blocker.close()
            assert cat.get_outcome("k") == {"payload": 1}


class TestCatalogCorruption:
    def test_corrupt_file_is_quarantined(self, tmp_path):
        path = os.fspath(tmp_path / "cat.sqlite")
        with open(path, "wb") as fh:
            fh.write(b"this is not a sqlite database, not even close....")
        with pytest.warns(StoreWarning, match="quarantined"):
            cat = Catalog(path)
        with cat:
            cat.record_population("pop", "recipe")  # fresh catalog works
            assert cat.stats()["populations"] == 1
        quarantined = os.fspath(tmp_path / "cat.sqlite.corrupt")
        assert os.path.exists(quarantined)
        with open(quarantined, "rb") as fh:
            assert fh.read().startswith(b"this is not")

    def test_injected_corruption_quarantines_once(self, tmp_path):
        path = os.fspath(tmp_path / "cat.sqlite")
        install_plan(FaultPlan.parse("catalog.corrupt:1"))
        with pytest.warns(StoreWarning, match="quarantined"):
            with Catalog(path) as cat:
                cat.record_population("pop", "recipe")

    def test_unopenable_path_degrades_to_no_catalog(self, tmp_path):
        target = tmp_path / "not-a-file"
        target.mkdir()
        with pytest.warns(StoreWarning, match="continuing without a catalog"):
            cat, owned = resolve_catalog(os.fspath(target))
        assert cat is None and owned is False

    def test_corrupt_payload_is_a_miss(self, tmp_path):
        path = os.fspath(tmp_path / "cat.sqlite")
        cfg = ExperimentConfig(n_replications=1, sample_size=5, seed=0)
        with Catalog(path) as cat:
            cat.put_outcome(
                "k", {"payload": 1}, population_key="p",
                config=cfg, strategies=STRATEGIES,
            )
            cat._conn.execute(
                "UPDATE outcomes SET payload = ? WHERE key = ?", (b"junk", "k")
            )
            cat._conn.commit()
            misses = cat.misses
            with pytest.warns(StoreWarning, match="unreadable payload"):
                assert cat.get_outcome("k") is None
            assert cat.misses == misses + 1


# ---------------------------------------------------------------------------
# Sweep-level degradation and identity
# ---------------------------------------------------------------------------


class _PoisonBundle:
    """Keyable-looking bundle whose data access dies at evaluation time."""

    scale = "tiny"

    def content_key(self):
        raise ValidationError("no replayable identity")

    @property
    def dirty(self):
        raise RuntimeError("disk died mid-run")

    @property
    def ideal(self):  # pragma: no cover - dirty raises first
        raise RuntimeError("disk died mid-run")


def _sweep_cells(bundle, n=2):
    cfg = ExperimentConfig(n_replications=2, sample_size=8, seed=5)
    return [
        SweepCell(
            name=f"cell{i}",
            config=cfg.variant(seed=5 + i),
            strategies=(STRATEGIES[0],),
            bundle=bundle,
        )
        for i in range(n)
    ]


class TestSweepFailureRecording:
    def test_partial_failure_keeps_completed_frontier(self, tiny_bundle):
        cells = _sweep_cells(tiny_bundle, n=2)
        cells.append(
            SweepCell(
                name="poisoned",
                config=ExperimentConfig(n_replications=2, sample_size=8, seed=9),
                strategies=(STRATEGIES[0],),
                bundle=_PoisonBundle(),
            )
        )
        with pytest.warns(ResilienceWarning, match="'poisoned' failed"):
            result = run_sweep(cells)
        assert result.n_failed == 1
        assert result.n_recomputed == 2
        assert result.failed() == {"poisoned": "RuntimeError: disk died mid-run"}
        assert result.cell("poisoned").source == "failed"
        assert result["cell0"].outcomes  # completed cells still served
        with pytest.raises(ExperimentError, match="disk died"):
            result["poisoned"]

    def test_total_failure_still_returns(self, tiny_bundle, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "2")
        monkeypatch.setenv("REPRO_FAULTS", "unit:1000")
        cells = _sweep_cells(tiny_bundle, n=2)
        with pytest.warns(ResilienceWarning):
            result = run_sweep(cells)
        assert result.n_failed == 2
        assert all("FaultInjectedError" in err for err in result.failed().values())

    def test_failed_cells_are_retried_next_run(self, tiny_bundle, tmp_path):
        cat_path = os.fspath(tmp_path / "cat.sqlite")
        cells = _sweep_cells(tiny_bundle, n=1)
        install_plan(FaultPlan.parse("unit:1000"))
        with pytest.warns(ResilienceWarning):
            first = run_sweep(cells, catalog=cat_path)
        assert first.n_failed == 1
        install_plan(None)
        second = run_sweep(cells, catalog=cat_path)
        assert second.n_failed == 0 and second.n_recomputed == 1

    def test_retry_failed_reruns_exactly_the_failed_cells(
        self, tiny_bundle, tmp_path
    ):
        cat_path = os.fspath(tmp_path / "cat.sqlite")
        cells = _sweep_cells(tiny_bundle, n=3)
        run_sweep([cells[0]], catalog=cat_path)  # warm exactly one cell
        install_plan(FaultPlan.parse("unit:1000"))
        with pytest.warns(ResilienceWarning):
            first = run_sweep(cells, catalog=cat_path)
        install_plan(None)
        # The warmed cell was served (no compute, so no fault); the rest died.
        assert first.n_hits == 1 and first.n_failed == 2
        retried = first.retry_failed(catalog=cat_path)
        assert retried.n_failed == 0
        assert retried.n_recomputed == 2  # exactly the failed frontier re-ran
        assert retried.n_hits == 1  # the completed cell carried over untouched
        assert retried.keys() == first.keys()
        assert _keys(retried["cell0"]) == _keys(first["cell0"])
        assert retried["cell1"].outcomes and retried["cell2"].outcomes
        assert retried.failed() == {}

    def test_retry_failed_is_noop_when_nothing_failed(self, tiny_bundle):
        result = run_sweep(_sweep_cells(tiny_bundle, n=1))
        assert result.retry_failed() is result

    def test_retry_failed_requires_retained_source_cells(self, tiny_bundle):
        install_plan(FaultPlan.parse("unit:1000"))
        with pytest.warns(ResilienceWarning):
            result = run_sweep(_sweep_cells(tiny_bundle, n=1))
        install_plan(None)
        result.source_cells.clear()  # simulate a pre-retry-support result
        with pytest.raises(ExperimentError, match="cannot retry"):
            result.retry_failed()


class TestSweepIdentityUnderCatalogFaults:
    def test_locked_catalog_sweep_is_bitwise_identical(self, tiny_bundle, tmp_path):
        cells = _sweep_cells(tiny_bundle)
        clean = run_sweep(cells)
        install_plan(FaultPlan.parse("catalog.locked:3"))
        faulted = run_sweep(cells, catalog=os.fspath(tmp_path / "cat.sqlite"))
        for name in clean.keys():
            assert _keys(faulted[name]) == _keys(clean[name])

    def test_corrupt_catalog_sweep_is_bitwise_identical(self, tiny_bundle, tmp_path):
        path = os.fspath(tmp_path / "cat.sqlite")
        with open(path, "wb") as fh:
            fh.write(b"garbage garbage garbage garbage garbage garbage")
        cells = _sweep_cells(tiny_bundle)
        clean = run_sweep(cells)
        with pytest.warns(StoreWarning, match="quarantined"):
            faulted = run_sweep(cells, catalog=path)
        for name in clean.keys():
            assert _keys(faulted[name]) == _keys(clean[name])
        assert faulted.n_recomputed == len(cells)
