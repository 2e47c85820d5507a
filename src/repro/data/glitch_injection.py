"""Glitch injection: layering missing values, inconsistencies and anomalies
onto clean streams.

The paper observes (Section 4.1 / Figure 3 / Table 1) a glitch mix with:

* roughly 15-16% of records carrying missing values,
* roughly 15-16% carrying inconsistencies, **heavily overlapping** with the
  missing values — partly *by construction*, since inconsistency constraint 3
  ("Attribute 1 should not be populated if Attribute 3 is missing") fires on
  records where the outage hit Attribute 3 but not Attribute 1,
* outliers whose detected rate depends on the measurement scale: ~5% of
  records on the raw scale vs ~17% after the log transform of Attribute 1
  (Table 1), because low-side anomalies ("dips") are invisible inside the
  huge raw-scale sigma but stick out on the log scale,
* temporal clustering (bursts) and network-wide events driven by shared
  physical causes (Section 6.1).

:class:`GlitchInjector` reproduces all four properties with explicit,
documented knobs. Injection is *truth-preserving*: each dirty series keeps the
pre-glitch values in ``TimeSeries.truth`` and the injector returns per-series
masks of exactly what it did, enabling detector-accuracy tests and oracle
("re-measure") cleaning strategies.

Every series is glitched from its own pre-spawned random stream, but the
kernel (:func:`inject_shard`) works column-wise: a shard is cut into chunks
of at most :data:`~repro.data.block.CHUNK_SERIES` series whose streams are
drawn in lockstep, one draw site at a time in the stream's fixed order
(burst masks stay one :func:`_burst_mask` call per series), while the
intensity arithmetic, every mask and count, and every value edit run once
on the chunk's padded ``(n, T, v)`` block. A dirty series' ``values`` and
each ledger mask are ``[i, :T_i]`` row views of the chunk's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.data.block import CHUNK_SERIES
from repro.data.dataset import StreamDataset
from repro.data.stream import TimeSeries
from repro.data.topology import NodeId
from repro.errors import ValidationError
from repro.utils.rng import (
    Seed,
    as_generator,
    draw_rows,
    draw_sized,
    spawn_sequences,
)
from repro.utils.validation import (
    check_finite,
    check_int,
    check_positive_int,
    check_probability,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> cleaning -> data)
    from repro.core.pipeline import Pipeline, ShardSpec, ShardedStage

__all__ = [
    "GlitchInjectionConfig",
    "SeriesInjection",
    "InjectionResult",
    "InjectionShard",
    "inject_shard",
    "GlitchInjector",
]


@dataclass(frozen=True)
class GlitchInjectionConfig:
    """Knobs of the glitch model. Probabilities are per-record unless noted.

    The defaults are calibrated (see ``tests/test_calibration.py``) so the
    *dirty partition* of a generated population matches the paper's Table 1
    glitch mix to within a few percentage points.
    """

    #: Fraction of series that are "glitchy"; the remainder stay near-clean
    #: and form the pool from which the ideal data set DI is drawn.
    glitchy_fraction: float = 0.65
    #: Log-normal sigma of the per-series glitch-intensity multiplier.
    intensity_sigma: float = 0.70
    #: Glitch-rate multiplier applied to healthy (non-glitchy) series.
    healthy_scale: float = 0.04

    # -- missing-value outages (two-state Markov bursts on attribute 3) -------
    #: Probability of entering an outage at each step outside one.
    outage_enter: float = 0.023
    #: Probability of leaving an outage at each step inside one.
    outage_exit: float = 0.175
    #: Probability that attribute 1 (resp. 2) is also lost during an outage
    #: record. Records where attr3 is lost but attr1 survives violate
    #: constraint 3 and are the built-in missing/inconsistent overlap.
    attr1_loss_in_outage: float = 0.45
    attr2_loss_in_outage: float = 0.70
    #: Isolated (non-burst) per-cell missingness.
    isolated_missing: float = 0.004

    # -- inconsistencies (constraint-violating values) -------------------------
    #: Per-record probability of a negative attribute-1 value (constraint 1).
    negative_attr1: float = 0.045
    #: Per-record probability of an out-of-range attribute-3 value
    #: (constraint 2); split between > 1 and < 0 violations.
    attr3_out_of_range: float = 0.045
    attr3_above_one_share: float = 0.7

    # -- anomalies (value-level outliers, injected in short bursts) -----------
    #: Burst dynamics for anomalies on attribute 1 (and, coupled, attribute 2).
    anomaly_enter: float = 0.095
    anomaly_exit: float = 0.50
    #: Share of anomaly bursts that are dips (low-side). Dips are invisible
    #: to raw-scale 3-sigma limits but glaring on the log scale — the
    #: mechanism behind Table 1's 5% vs 17% outlier rates. Spikes are an
    #: order of magnitude above the bulk (the paper's Figure 4a shows
    #: winsorized values ~10x the data bulk), so they grossly inflate the
    #: variance of any Gaussian fitted to the raw scale.
    dip_share: float = 0.93
    spike_factor_range: tuple[float, float] = (8.0, 25.0)
    dip_factor_range: tuple[float, float] = (0.02, 0.09)
    #: Probability that an attr1 anomaly also hits attr2.
    attr2_coupling: float = 0.5
    #: Glitches co-occur (Section 3.2): during an outage record whose attr1
    #: (resp. attr2) survives, the surviving value is stressed — multiplied
    #: by a draw from ``stress_factor_range`` — with this probability.
    #: Stressed records are *incomplete* (attr3 is missing), so they never
    #: enter the pooled complete-row distribution, yet they are fully
    #: visible to a multivariate-normal fit on the incomplete data: they are
    #: what blows up the PROC-MI analogue's variance estimates (Figure 4a's
    #: negative imputations; Figure 5's out-of-range Attribute 3).
    outage_stress: float = 0.45
    stress_factor_range: tuple[float, float] = (8.0, 20.0)
    #: Share of outage records that are "counter faults" instead: attr1 and
    #: attr2 are lost while attr3 survives — crashed to ``ratio_crash_range``.
    #: Like stressed records these are incomplete, so the crashed ratios are
    #: invisible to the complete-row distribution but poison the Gaussian
    #: fit of Attribute 3 (whose bulk hugs 1), which is what spreads the
    #: paper's Figure 5 imputations over the whole range including > 1.
    outage_ratio_crash: float = 0.22
    ratio_crash_range: tuple[float, float] = (0.60, 0.95)
    #: Per-record probability of an attribute-3 crash (ratio drops far below
    #: its bulk), detectable on either scale.
    attr3_crash: float = 0.006
    attr3_crash_range: tuple[float, float] = (0.0, 0.45)

    # -- network-wide events (Figure 3's synchronized glitch surges) ----------
    #: Number of network-wide event windows per generated population.
    n_events: int = 3
    event_length_range: tuple[int, int] = (6, 18)
    #: Additive per-record outage/anomaly probability during an event.
    event_outage_boost: float = 0.25
    event_anomaly_boost: float = 0.10

    def __post_init__(self) -> None:
        for name in (
            "glitchy_fraction",
            "healthy_scale",
            "outage_enter",
            "outage_exit",
            "attr1_loss_in_outage",
            "attr2_loss_in_outage",
            "isolated_missing",
            "negative_attr1",
            "attr3_out_of_range",
            "attr3_above_one_share",
            "anomaly_enter",
            "anomaly_exit",
            "dip_share",
            "attr2_coupling",
            "outage_stress",
            "outage_ratio_crash",
            "attr3_crash",
            "event_outage_boost",
            "event_anomaly_boost",
        ):
            check_probability(getattr(self, name), name)
        if check_finite(self.intensity_sigma, "intensity_sigma") < 0:
            raise ValidationError("intensity_sigma must be >= 0")
        check_int(self.n_events, "n_events")
        lo, hi = self.event_length_range
        for end in (lo, hi):
            check_positive_int(end, "event_length_range")
        if lo > hi:
            raise ValidationError("event_length_range must satisfy 1 <= lo <= hi")
        for rng_name in (
            "spike_factor_range",
            "dip_factor_range",
            "stress_factor_range",
            "ratio_crash_range",
            "attr3_crash_range",
        ):
            lo_f, hi_f = getattr(self, rng_name)
            for end in (lo_f, hi_f):
                check_finite(end, rng_name)
            if not (0 <= lo_f <= hi_f):
                raise ValidationError(f"{rng_name} must satisfy 0 <= lo <= hi")


@dataclass
class SeriesInjection:
    """Record of what the injector did to one series.

    All masks are ``(T, v)`` boolean arrays on the dirty series' shape.
    """

    node: NodeId
    glitchy: bool
    missing_mask: np.ndarray
    corruption_mask: np.ndarray
    anomaly_mask: np.ndarray

    @property
    def any_glitch_mask(self) -> np.ndarray:
        """Cells touched by any injected glitch."""
        return self.missing_mask | self.corruption_mask | self.anomaly_mask


@dataclass
class InjectionResult:
    """Dirty data set plus the per-series injection ledger."""

    dataset: StreamDataset
    records: list[SeriesInjection] = field(default_factory=list)

    @property
    def glitchy_indices(self) -> list[int]:
        """Indices of series the injector treated as glitchy."""
        return [i for i, r in enumerate(self.records) if r.glitchy]

    @property
    def healthy_indices(self) -> list[int]:
        """Indices of series the injector treated as healthy."""
        return [i for i, r in enumerate(self.records) if not r.glitchy]

    def injected_missing_fraction(self) -> float:
        """Fraction of cells turned missing across the population."""
        total = sum(r.missing_mask.size for r in self.records)
        hits = sum(int(r.missing_mask.sum()) for r in self.records)
        return hits / total if total else 0.0


def _burst_mask(
    rng: np.random.Generator, length: int, p_enter: float, p_exit: float
) -> np.ndarray:
    """Boolean mask of a two-state Markov (burst) process of given length.

    Sampled via geometric gap/burst lengths, which is equivalent to stepping
    the chain but O(#bursts) instead of O(T).
    """
    mask = np.zeros(length, dtype=bool)
    if p_enter <= 0 or length == 0:
        return mask
    p_exit = max(p_exit, 1e-9)
    pos = int(rng.geometric(p_enter)) - 1
    while pos < length:
        burst = int(rng.geometric(p_exit))
        mask[pos : pos + burst] = True
        pos += burst + int(rng.geometric(p_enter))
    return mask


@dataclass(frozen=True)
class InjectionShard:
    """Picklable work unit: glitch one contiguous range of clean series.

    ``events`` is the network-wide event mask — global state drawn once,
    centrally, from its own stream before the fan-out; ``shard.seeds[i]`` is
    the pre-spawned stream of series ``series[i]``, so shards glitch their
    disjoint row ranges independently and identically on every backend.
    """

    config: GlitchInjectionConfig
    series: tuple[TimeSeries, ...]
    events: np.ndarray
    shard: ShardSpec


def inject_shard(unit: InjectionShard) -> list[tuple[TimeSeries, SeriesInjection]]:
    """Glitch the series of one :class:`InjectionShard`.

    The shard runs as consecutive chunks of at most
    :data:`~repro.data.block.CHUNK_SERIES` series (:func:`_inject_chunk`);
    each dirty series and each ledger mask is a row view of its chunk's
    arrays, and each dirty series keeps its clean series' ``truth``.
    """
    out: list[tuple[TimeSeries, SeriesInjection]] = []
    for lo in range(0, len(unit.series), CHUNK_SERIES):
        hi = lo + CHUNK_SERIES
        out.extend(
            _inject_chunk(
                unit.config, unit.series[lo:hi], unit.shard.seeds[lo:hi], unit.events
            )
        )
    return out


class GlitchInjector:
    """Applies the glitch model to a clean :class:`StreamDataset`.

    Injection is shard-parallel: the network-wide event windows are drawn
    once from a dedicated stream, then every series is glitched from its own
    stream pre-spawned from the injector seed by series index — so for a
    given seed the dirty population is identical whether :meth:`inject` runs
    serially or fans :class:`InjectionShard` units across a backend.
    """

    def __init__(self, config: GlitchInjectionConfig | None = None, seed: Seed = None):
        self.config = config or GlitchInjectionConfig()
        self._rng = as_generator(seed)

    def inject_shards(
        self, dataset: StreamDataset, pipeline: "Optional[Pipeline]" = None
    ) -> "tuple[list[ShardSpec], ShardedStage]":
        """Shard specs plus the injection stage over disjoint series ranges."""
        from repro.core.pipeline import Pipeline, ShardedStage

        pipeline = pipeline or Pipeline()
        cfg = self.config
        event_seq, series_root = spawn_sequences(self._rng, 2)
        events = _event_windows(
            cfg, np.random.default_rng(event_seq), dataset.max_length
        )
        series = dataset.series
        shards = pipeline.shards(len(series), seed=series_root)
        stage = ShardedStage(
            "inject",
            inject_shard,
            lambda s: InjectionShard(
                config=cfg,
                series=tuple(series[s.start : s.stop]),
                events=events,
                shard=s,
            ),
        )
        return shards, stage

    def inject(
        self,
        dataset: StreamDataset,
        backend=None,
        shard_size: Optional[int] = None,
    ) -> InjectionResult:
        """Return a dirty copy of *dataset* plus the injection ledger.

        ``backend`` selects the execution backend fanning the shards out (a
        name, an :class:`~repro.core.executor.ExecutionBackend`, or a
        :class:`~repro.core.pipeline.Pipeline`); the default is serial and
        every choice yields a bitwise-identical dirty population and ledger.
        """
        from repro.core.pipeline import Pipeline

        pipeline = Pipeline.coerce(backend, shard_size=shard_size)
        shards, stage = self.inject_shards(dataset, pipeline)
        chunks = pipeline.run_chunks(stage, shards)
        dirty = StreamDataset.from_shards(
            [dirty_s for dirty_s, _ in chunk] for chunk in chunks
        )
        records = [record for chunk in chunks for _, record in chunk]
        return InjectionResult(dirty, records)


# -- internals -------------------------------------------------------------------


def _event_windows(
    cfg: GlitchInjectionConfig, rng: np.random.Generator, max_len: int
) -> np.ndarray:
    """Network-wide event mask over the global time axis."""
    mask = np.zeros(max_len, dtype=bool)
    lo, hi = cfg.event_length_range
    for _ in range(cfg.n_events):
        length = int(rng.integers(lo, hi + 1))
        if length >= max_len:
            mask[:] = True
            continue
        start = int(rng.integers(0, max_len - length))
        mask[start : start + length] = True
    return mask


def _inject_chunk(
    cfg: GlitchInjectionConfig,
    series: Sequence[TimeSeries],
    seeds: Sequence[np.random.SeedSequence],
    events: np.ndarray,
) -> list[tuple[TimeSeries, SeriesInjection]]:
    """Glitch one chunk of series, each from its own stream.

    Every series draws in lockstep (:func:`~repro.utils.rng.draw_rows`,
    :func:`~repro.utils.rng.draw_sized`, :func:`_burst_mask` per row) in its
    stream's fixed order, and every mask, count and value edit runs once on
    the chunk's padded ``(n, T, v)`` block in the order a one-series kernel
    applies it, so each series is glitched bitwise as it would be alone.
    Draw buffers start at ``1.0``, which no ``u < p`` test passes, so the
    padding past each series' length never enters a mask.
    """
    rngs = [np.random.default_rng(seq) for seq in seeds]
    n = len(rngs)
    lengths = [s.length for s in series]
    width = max(lengths, default=0)
    v = series[0].n_attributes
    count = lambda mask: np.count_nonzero(mask, axis=1)  # noqa: E731
    rows = lambda: draw_rows(rngs, lengths, np.ones((n, width)))  # noqa: E731

    def uniform(mask: np.ndarray, lo: float, hi: float) -> np.ndarray:
        """``uniform(lo, hi)`` per flagged cell, in row-major mask order."""
        return draw_sized(rngs, count(mask), lambda rng, k: rng.uniform(lo, hi, k))

    def bursts(p_enter: np.ndarray, p_exit: float) -> np.ndarray:
        mask = np.zeros((n, width), dtype=bool)
        for rng, row, length, p in zip(rngs, mask, lengths, p_enter[:, 0].tolist()):
            row[:length] = _burst_mask(rng, length, p, p_exit)
        return mask

    # Mean-one log-normal multiplier: heterogeneity across series without
    # shifting the population glitch rates.
    glitchy = np.array([rng.random() for rng in rngs]) < cfg.glitchy_fraction
    draws = np.zeros(n)
    for i in np.flatnonzero(glitchy).tolist():
        draws[i] = rngs[i].normal(0.0, cfg.intensity_sigma)
    scale = np.where(
        glitchy, np.exp(draws - 0.5 * cfg.intensity_sigma**2), cfg.healthy_scale
    )
    sp = lambda p: np.minimum(1.0, p * scale)[:, None]  # noqa: E731 - scaled probability
    event_here = events[:width]

    values = np.zeros((n, width, v))
    for row, s in zip(values, series):
        row[: s.length] = s.values
    anomaly_mask = np.zeros((n, width, v), dtype=bool)
    corruption_mask = np.zeros((n, width, v), dtype=bool)
    missing_mask = np.zeros((n, width, v), dtype=bool)
    # attr1, attr2, attr3 column views: every write lands in the blocks.
    x1, x2, x3 = values[..., 0], values[..., 1], values[..., 2]
    anomaly1, anomaly2, anomaly3 = (anomaly_mask[..., j] for j in range(3))

    # 1. anomalies (spikes/dips) -- corrupt values, detection comes later.
    burst = bursts(sp(cfg.anomaly_enter), cfg.anomaly_exit)
    burst |= event_here & (rows() < sp(cfg.event_anomaly_boost))
    at = np.nonzero(burst)
    # Each maximal burst run gets its own dip/spike decision so consecutive
    # records share a regime, as real equipment faults do. Draw order: one
    # regime draw per run, then per burst record a (factor, attr2-coupling)
    # pair; each factor is lo + (hi - lo) * u, exactly Generator.uniform.
    run_start = burst.copy()
    run_start[:, 1:] &= ~burst[:, :-1]
    run = np.cumsum(run_start)[np.flatnonzero(burst)] - 1
    regime = draw_sized(rngs, count(run_start), lambda rng, k: rng.random(k))
    dip = (regime < cfg.dip_share)[run]
    u = draw_sized(rngs, 2 * count(burst), lambda rng, k: rng.random(k))
    dip_lo, dip_hi = cfg.dip_factor_range
    spike_lo, spike_hi = cfg.spike_factor_range
    lo = np.where(dip, float(dip_lo), float(spike_lo))
    hi = np.where(dip, float(dip_hi), float(spike_hi))
    factor = lo + (hi - lo) * u[0::2]
    x1[at] *= factor
    anomaly1[at] = True
    coupled = u[1::2] < cfg.attr2_coupling
    at = (at[0][coupled], at[1][coupled])
    x2[at] *= factor[coupled]
    anomaly2[at] = True

    crash = rows() < sp(cfg.attr3_crash)
    x3[crash] = uniform(crash, *cfg.attr3_crash_range)
    anomaly3 |= crash

    # 2. inconsistencies -- constraint-violating values.
    neg = rows() < sp(cfg.negative_attr1)
    x1[neg] = -np.abs(x1[neg]) * uniform(neg, 0.05, 0.5)
    corruption_mask[..., 0] = neg

    oor = rows() < sp(cfg.attr3_out_of_range)
    above = rows() < cfg.attr3_above_one_share
    hi_mask = oor & above
    lo_mask = oor & ~above
    x3[hi_mask] = 1.0 + uniform(hi_mask, 0.01, 0.08)
    x3[lo_mask] = -uniform(lo_mask, 0.01, 0.2)
    corruption_mask[..., 2] = oor

    # 3. missing values -- outage bursts on attr3, partial loss of attr1/2.
    outage = bursts(sp(cfg.outage_enter), cfg.outage_exit)
    outage |= event_here & (rows() < sp(cfg.event_outage_boost))
    # Counter faults: a slice of outage records loses attr1/attr2 instead
    # of attr3, whose surviving value is a crashed ratio.
    counter_fault = outage & (rows() < cfg.outage_ratio_crash)
    ratio_outage = outage & ~counter_fault
    lost1 = ratio_outage & (rows() < cfg.attr1_loss_in_outage)
    lost2 = ratio_outage & (rows() < cfg.attr2_loss_in_outage)
    lost1 |= counter_fault
    lost2 |= counter_fault
    missing_mask[..., 0] = lost1
    missing_mask[..., 1] = lost2
    missing_mask[..., 2] = ratio_outage
    x3[counter_fault] = uniform(counter_fault, *cfg.ratio_crash_range)
    anomaly3 |= counter_fault
    # Co-occurring stress: surviving attr1/attr2 values inside an outage
    # record are often extreme (the fault that caused the outage). These
    # records are incomplete, so the stress never reaches the pooled
    # complete-row distribution — but it does reach the MVN imputer.
    # One draw per record: the same fault stresses every surviving cell.
    stress_record = ratio_outage & (rows() < cfg.outage_stress)
    stressed1 = stress_record & ~lost1
    stressed2 = stress_record & ~lost2
    x1[stressed1] *= uniform(stressed1, *cfg.stress_factor_range)
    x2[stressed2] *= uniform(stressed2, *cfg.stress_factor_range)
    anomaly1 |= stressed1
    anomaly2 |= stressed2
    isolated = draw_rows(rngs, lengths, np.ones((n, width, v)))
    missing_mask |= isolated < sp(cfg.isolated_missing)[:, None]
    values[missing_mask] = np.nan
    corruption_mask &= ~missing_mask
    anomaly_mask &= ~missing_mask

    return [
        (
            TimeSeries(s.node, values[i, :length], s.attributes, truth=s.truth),
            SeriesInjection(
                node=s.node,
                glitchy=bool(glitchy[i]),
                missing_mask=missing_mask[i, :length],
                corruption_mask=corruption_mask[i, :length],
                anomaly_mask=anomaly_mask[i, :length],
            ),
        )
        for i, (s, length) in enumerate(zip(series, lengths))
    ]
