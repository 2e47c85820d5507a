"""Synthetic network-monitoring data generator.

The paper's evaluation uses a proprietary AT&T mobility-network feed: 20,000
time series (one per sector), each of length at most 170, with three
attributes (Section 4.1). This module generates a synthetic stand-in with the
statistical structure every downstream experiment relies on:

* **Attribute 1** — a traffic-volume measure. Heavily right-skewed on the raw
  scale, and built so the natural-log transform *over-corrects* into a
  left-skewed distribution (the mechanism behind Figure 4 and the Winsorized
  tail flip of Section 5.3): the log-scale values carry a left-skewed
  (negative-gamma) innovation.
* **Attribute 2** — a session-count measure, correlated with Attribute 1 so
  that multivariate-normal imputation has signal to exploit.
* **Attribute 3** — a success-ratio confined to ``[0, 1]`` with its bulk close
  to 1 (the target of inconsistency constraint 2 and the Figure 5 analysis).
* A **diurnal cycle** (period 24; a 170-step series is one week of hourly
  measurements) plus per-node random effects, giving the streams realistic
  temporal and cross-sectional structure.

The generator produces *clean* truth; glitches are layered on by
:class:`repro.data.glitch_injection.GlitchInjector`.

Every series is a function of the config and its own pre-spawned random
stream. The kernel (:func:`generate_shard`) nonetheless works column-wise:
a shard is cut into chunks of at most
:data:`~repro.data.block.CHUNK_SERIES` series whose streams are drawn in
lockstep, one draw site at a time in the stream's fixed order, and every
transform (``sin``, ``exp``, the surge scaling, the ``clip``, the stack)
runs once on the chunk's padded ``(n, T)`` block. A series' ``values`` and
``truth`` are ``[i, :T_i]`` row views of the chunk's value array and of its
separate copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.data.block import CHUNK_SERIES
from repro.data.dataset import StreamDataset
from repro.data.stream import DEFAULT_ATTRIBUTES, TimeSeries
from repro.data.topology import NetworkTopology, NodeId
from repro.errors import ValidationError
from repro.utils.rng import Seed, as_generator, draw_rows, draw_sized
from repro.utils.validation import check_finite, check_positive_int, check_probability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> cleaning -> data)
    from repro.core.pipeline import Pipeline, ShardSpec, ShardedStage

__all__ = [
    "GeneratorConfig",
    "GenerationShard",
    "generate_shard",
    "NetworkDataGenerator",
]


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the synthetic network data model.

    The defaults produce a scaled-down population (600 sectors) with the same
    per-series structure as the paper's 20,000-sector feed; the paper-scale
    configuration lives in :mod:`repro.experiments.config`.
    """

    #: Hierarchy shape (sectors = n_rnc * towers_per_rnc * sectors_per_tower).
    n_rnc: int = 4
    towers_per_rnc: int = 10
    sectors_per_tower: int = 15
    #: Series length; the paper's streams have length at most 170.
    series_length: int = 170
    #: If < series_length, node uptime varies: lengths ~ U[min_length, length].
    min_length: int = 170
    #: Diurnal period in time steps (24 = hourly data).
    diurnal_period: int = 24

    # Attribute 1 (log-scale model: attr1 = exp(Z)).
    attr1_log_mean: float = 3.0
    attr1_node_sd: float = 0.35
    attr1_diurnal_amp_range: tuple[float, float] = (0.3, 0.7)
    #: Shape of the left-skewed (negative gamma) log-scale innovation; the
    #: innovation has mean 0 and skewness -2/sqrt(shape).
    attr1_innovation_shape: float = 2.0
    attr1_innovation_scale: float = 0.35

    # Attribute 2 (correlated session count): attr2 = exp(a + b*(Z - mu) + noise).
    # The combined log-scale sd (~0.9) makes raw attr2 strongly right-skewed:
    # attr2 is never log-transformed, so the Gaussian imputer always faces
    # this skew (part of the paper's "assumptions not suitable for the data").
    attr2_log_mean: float = 1.6
    attr2_coupling: float = 0.7
    attr2_noise_sd: float = 0.85

    # Legitimate usage surges: with small probability a record carries a
    # genuine extreme (flash crowd, special event) on attributes 1 and 2.
    # These are *real* values present in clean and ideal data alike: they
    # widen the ideal-sample 3-sigma limits (so a model-based imputer's
    # draws mostly stay inside them, as in the paper's Table 1 where
    # Strategy 2 adds under one point of new outliers) and they are exactly
    # the legitimate-but-extreme values a blind Winsorization mangles —
    # the commission errors of the paper's Figure 1.
    surge_prob: float = 0.008
    attr1_surge_range: tuple[float, float] = (8.0, 25.0)
    attr2_surge_range: tuple[float, float] = (10.0, 30.0)

    # Attribute 3 (success ratio near 1): attr3 = 1 - deficit. The deficit is
    # a low-shape gamma: the bulk hugs 1 tightly (median deficit ~0.007)
    # while a heavy tail of service degradations stretches far below. A
    # Gaussian fitted to this attribute badly overestimates the bulk spread —
    # the mechanism behind the paper's Figure 5 (imputations over the whole
    # range, including impossible values above 1).
    attr3_deficit_shape: float = 0.25
    attr3_deficit_scale: float = 0.05
    #: Load sensitivity: higher attr1 innovations slightly depress the ratio.
    attr3_load_coupling: float = 0.01

    def __post_init__(self) -> None:
        for name in (
            "n_rnc",
            "towers_per_rnc",
            "sectors_per_tower",
            "series_length",
            "min_length",
            "diurnal_period",
        ):
            check_positive_int(getattr(self, name), name)
        if self.min_length > self.series_length:
            raise ValidationError(
                "min_length must satisfy 1 <= min_length <= series_length"
            )
        for name in (
            "attr1_log_mean",
            "attr1_node_sd",
            "attr1_innovation_shape",
            "attr1_innovation_scale",
            "attr2_log_mean",
            "attr2_coupling",
            "attr2_noise_sd",
            "attr3_deficit_shape",
            "attr3_deficit_scale",
            "attr3_load_coupling",
        ):
            check_finite(getattr(self, name), name)
        for rng_name in (
            "attr1_diurnal_amp_range",
            "attr1_surge_range",
            "attr2_surge_range",
        ):
            for end in getattr(self, rng_name):
                check_finite(end, rng_name)
        lo, hi = self.attr1_diurnal_amp_range
        if lo < 0 or hi < lo:
            raise ValidationError("attr1_diurnal_amp_range must be 0 <= lo <= hi")
        for name in (
            "attr1_node_sd",
            "attr1_innovation_shape",
            "attr1_innovation_scale",
            "attr2_noise_sd",
            "attr3_deficit_shape",
            "attr3_deficit_scale",
        ):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        check_probability(self.surge_prob, "surge_prob")
        for rng_name in ("attr1_surge_range", "attr2_surge_range"):
            lo_s, hi_s = getattr(self, rng_name)
            if not (1.0 <= lo_s <= hi_s):
                raise ValidationError(f"{rng_name} must satisfy 1 <= lo <= hi")

    @property
    def n_sectors(self) -> int:
        """Total number of generated series."""
        return self.n_rnc * self.towers_per_rnc * self.sectors_per_tower


@dataclass(frozen=True)
class GenerationShard:
    """Picklable work unit: generate the series of one contiguous node range.

    ``shard.seeds[i]`` is the pre-spawned stream of node ``nodes[i]``; every
    series is a function of the config and its own stream alone, so shards
    can be generated in any order, on any backend, with identical output.
    """

    config: GeneratorConfig
    nodes: tuple[NodeId, ...]
    shard: ShardSpec


def generate_shard(unit: GenerationShard) -> list[TimeSeries]:
    """Generate the clean series of one :class:`GenerationShard`.

    The shard runs as consecutive chunks of at most
    :data:`~repro.data.block.CHUNK_SERIES` series (:func:`_generate_chunk`);
    each series is a row view of its chunk's arrays.
    """
    out: list[TimeSeries] = []
    for lo in range(0, len(unit.nodes), CHUNK_SERIES):
        hi = lo + CHUNK_SERIES
        out.extend(
            _generate_chunk(unit.config, unit.nodes[lo:hi], unit.shard.seeds[lo:hi])
        )
    return out


class NetworkDataGenerator:
    """Generates clean multivariate streams on a three-level hierarchy.

    Generation is shard-parallel: every node draws from its own random
    stream pre-spawned from the generator seed by node index, so the output
    for a given seed is identical whether :meth:`generate` runs serially or
    fans :class:`GenerationShard` units across an execution backend.

    Examples
    --------
    >>> gen = NetworkDataGenerator(GeneratorConfig(), seed=7)
    >>> clean = gen.generate()
    >>> len(clean), clean.n_attributes
    (600, 3)
    """

    def __init__(self, config: GeneratorConfig | None = None, seed: Seed = None):
        self.config = config or GeneratorConfig()
        self._rng = as_generator(seed)
        self.topology = NetworkTopology(
            self.config.n_rnc,
            self.config.towers_per_rnc,
            self.config.sectors_per_tower,
        )

    def generate_shards(
        self, pipeline: "Optional[Pipeline]" = None
    ) -> "tuple[list[ShardSpec], ShardedStage]":
        """Shard specs plus the generation stage over disjoint node ranges.

        Per-node seed streams are spawned up front from the generator seed,
        so the resulting work units produce the same series under any shard
        layout or backend.
        """
        from repro.core.pipeline import Pipeline, ShardedStage

        pipeline = pipeline or Pipeline()
        cfg = self.config
        nodes = self.topology.nodes
        shards = pipeline.shards(len(nodes), seed=self._rng)
        stage = ShardedStage(
            "generate",
            generate_shard,
            lambda s: GenerationShard(
                config=cfg, nodes=tuple(nodes[s.start : s.stop]), shard=s
            ),
        )
        return shards, stage

    def generate(self, backend=None, shard_size: Optional[int] = None) -> StreamDataset:
        """Generate the clean population data set.

        Each returned series carries its own values as ``truth`` so that
        downstream glitch injection can preserve the pre-glitch ground truth.
        ``backend`` selects the execution backend fanning the shards out (a
        name, an :class:`~repro.core.executor.ExecutionBackend`, or a
        :class:`~repro.core.pipeline.Pipeline`); the default is serial and
        every choice yields bitwise-identical data.
        """
        from repro.core.pipeline import Pipeline

        pipeline = Pipeline.coerce(backend, shard_size=shard_size)
        shards, stage = self.generate_shards(pipeline)
        return StreamDataset.from_shards(pipeline.run_chunks(stage, shards))


# -- internals -------------------------------------------------------------------


def _generate_chunk(
    cfg: GeneratorConfig,
    nodes: Sequence[NodeId],
    seeds: Sequence[np.random.SeedSequence],
) -> list[TimeSeries]:
    """The clean series of one chunk, each from its own stream.

    Every series draws in lockstep (:func:`~repro.utils.rng.draw_rows`,
    :func:`~repro.utils.rng.draw_sized`) in its stream's fixed order, and
    every transform runs once on the chunk's padded ``(n, T)`` block, so
    each series is bitwise what it would be generated alone.
    ``Generator.gamma`` and ``Generator.normal`` scale one standard draw by
    one multiplication, which the block replays.
    """
    rngs = [np.random.default_rng(seq) for seq in seeds]
    n, width = len(rngs), cfg.series_length
    if cfg.min_length == cfg.series_length:
        lengths = [width] * n
    else:
        lengths = [
            int(rng.integers(cfg.min_length, cfg.series_length + 1)) for rng in rngs
        ]
    t = np.arange(width)

    def rows(draw=None, fill: float = 0.0) -> np.ndarray:
        return draw_rows(rngs, lengths, np.full((n, width), fill), draw)

    # Log-scale signal Z for attribute 1: node effect + diurnal cycle +
    # left-skewed innovation. exp(Z) is then heavily right-skewed while
    # log(attr1) = Z is left-skewed, which is what flips the Winsorized
    # tail under the log transform (Section 5.3).
    node_mu = cfg.attr1_log_mean + np.array(
        [[rng.normal(0.0, cfg.attr1_node_sd)] for rng in rngs]
    )
    amp = np.array([[rng.uniform(*cfg.attr1_diurnal_amp_range)] for rng in rngs])
    phase = np.array([[rng.uniform(0.0, 2.0 * np.pi)] for rng in rngs])
    diurnal = amp * np.sin(2.0 * np.pi * t / cfg.diurnal_period + phase)
    shape, scale = cfg.attr1_innovation_shape, cfg.attr1_innovation_scale
    innovation = shape * scale - scale * rows(
        lambda rng, row: rng.standard_gamma(shape, out=row)
    )
    z = node_mu + diurnal + innovation
    attr1 = np.exp(z)

    # Attribute 2: log-linearly coupled to Z plus independent noise.
    attr2 = np.exp(
        cfg.attr2_log_mean
        + cfg.attr2_coupling * (z - cfg.attr1_log_mean)
        + cfg.attr2_noise_sd * rows(lambda rng, row: rng.standard_normal(out=row))
    )

    # Legitimate usage surges hit attributes 1 and 2 together.
    surge = rows(fill=1.0) < cfg.surge_prob
    n_surge = np.count_nonzero(surge, axis=1)
    for attr, (lo, hi) in (
        (attr1, cfg.attr1_surge_range),
        (attr2, cfg.attr2_surge_range),
    ):
        attr[surge] *= draw_sized(
            rngs, n_surge, lambda rng, k: rng.uniform(lo, hi, k)
        )

    # Attribute 3: a ratio hugging 1 with a left tail; load pushes it down.
    deficit = cfg.attr3_deficit_scale * rows(
        lambda rng, row: rng.standard_gamma(cfg.attr3_deficit_shape, out=row)
    )
    load_term = cfg.attr3_load_coupling * np.maximum(z - node_mu, 0.0)
    attr3 = np.clip(1.0 - deficit - load_term, 0.0, 1.0)

    values = np.stack([attr1, attr2, attr3], axis=-1)
    truth = values.copy()
    return [
        TimeSeries(node, values[i, :length], DEFAULT_ATTRIBUTES, truth=truth[i, :length])
        for i, (node, length) in enumerate(zip(nodes, lengths))
    ]
