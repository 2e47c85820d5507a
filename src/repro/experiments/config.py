"""Experiment scale presets and population construction.

The paper's population is 20,000 sector streams of length <= 170 with three
attributes; its experiments run R = 50 replications of B in {100, 500} series
(Section 4). Full scale is minutes of compute, so three presets are provided
and selected by the ``REPRO_SCALE`` environment variable:

======  ==================  =======================  =====================
scale   population           replications R           sample size B
======  ==================  =======================  =====================
tiny    100 series x 60     3                        12
small   600 series x 170    10                       40
paper   20,000 series x 170 50                       100 (500 for panel c)
======  ==================  =======================  =====================

"tiny" keeps unit tests fast; "small" is the benchmark default and already
shows every qualitative result; "paper" is the faithful reproduction.

Independently of the scale, the ``REPRO_BACKEND`` environment variable (or
the ``backend`` argument of :func:`experiment_config`) selects the execution
backend that fans the replication pairs out — ``serial``, ``thread`` or
``process``, optionally with a worker count as in ``process:4``. Backends
change only the wall clock, never the numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.core.executor import parse_backend_spec
from repro.core.framework import ExperimentConfig
from repro.core.pipeline import Pipeline
from repro.data.dataset import StreamDataset
from repro.data.generator import GeneratorConfig, NetworkDataGenerator
from repro.data.glitch_injection import (
    GlitchInjectionConfig,
    GlitchInjector,
    InjectionResult,
)
from repro.errors import ExperimentError
from repro.glitches.detectors import (
    CleanlinessPartition,
    DetectorSuite,
    identify_ideal,
)
from repro.utils.rng import Seed, as_generator, spawn_sequences

__all__ = [
    "SCALES",
    "scale_from_env",
    "backend_from_env",
    "PopulationBundle",
    "build_population",
    "experiment_config",
]


@dataclass(frozen=True)
class _ScalePreset:
    generator: GeneratorConfig
    n_replications: int
    sample_size: int


SCALES: dict[str, _ScalePreset] = {
    "tiny": _ScalePreset(
        generator=GeneratorConfig(
            n_rnc=2, towers_per_rnc=5, sectors_per_tower=10,
            series_length=60, min_length=60,
        ),
        n_replications=3,
        sample_size=12,
    ),
    "small": _ScalePreset(
        generator=GeneratorConfig(),  # 600 series x 170
        n_replications=10,
        sample_size=40,
    ),
    "paper": _ScalePreset(
        generator=GeneratorConfig(
            n_rnc=20, towers_per_rnc=50, sectors_per_tower=20,
            series_length=170, min_length=170,
        ),
        n_replications=50,
        sample_size=100,
    ),
}


def scale_from_env(default: str = "small") -> str:
    """Resolve the experiment scale from ``REPRO_SCALE`` (tiny/small/paper)."""
    scale = os.environ.get("REPRO_SCALE", default).strip().lower()
    if scale not in SCALES:
        raise ExperimentError(
            f"REPRO_SCALE must be one of {sorted(SCALES)}, got {scale!r}"
        )
    return scale


def backend_from_env(default: Optional[str] = None) -> Optional[str]:
    """Resolve the execution-backend spec from ``REPRO_BACKEND``.

    Returns a validated, normalised (lowercased, stripped) ``"name"`` /
    ``"name:workers"`` spec, or *default* — validated and normalised the
    same way; ``None`` is allowed and makes the runner fall back to serial —
    when the variable is unset or blank. Unknown names raise
    :class:`~repro.errors.ExperimentError` here rather than deep inside a
    run.
    """
    spec = os.environ.get("REPRO_BACKEND", "").strip()
    if not spec:
        if default is None:
            return None
        spec = default
    parse_backend_spec(spec)
    return spec.strip().lower()


@dataclass
class PopulationBundle:
    """Everything the experiment drivers need about one generated population.

    A built bundle is immutable: nothing reassigns its fields or edits the
    series they hold, which is what lets :meth:`content_key` hash it once.
    """

    #: The pre-glitch population (truth).
    clean: StreamDataset
    #: The population after glitch injection.
    population: StreamDataset
    #: Injection ledger (what was actually planted).
    injection: InjectionResult
    #: Dirty/ideal split by the < 5% rule.
    partition: CleanlinessPartition
    #: Detector suite fitted on the final ideal set (raw scale).
    suite: DetectorSuite
    #: The scale preset name this bundle was built with.
    scale: str
    #: :meth:`content_key`, once computed.
    _content_key: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def dirty(self) -> StreamDataset:
        """The dirty population ``D``."""
        return self.partition.dirty

    @property
    def ideal(self) -> StreamDataset:
        """The ideal population ``DI``."""
        return self.partition.ideal

    def fingerprint(self) -> dict:
        """The bundle reduced to comparable primitives.

        Covers everything the sharded build's determinism contract pins —
        population and clean values, the full injection ledger, the
        dirty/ideal split, and the fitted detector limits. Two bundles are
        bitwise-identical builds iff their fingerprints compare equal; the
        cross-backend tests and benchmarks share this definition so the
        contract is stated once.
        """
        limits = self.suite.outlier_detector.limits
        return {
            "values": [s.values.tobytes() for s in self.population],
            "clean": [s.values.tobytes() for s in self.clean],
            "glitchy": [r.glitchy for r in self.injection.records],
            "missing": [r.missing_mask.tobytes() for r in self.injection.records],
            "corruption": [
                r.corruption_mask.tobytes() for r in self.injection.records
            ],
            "anomaly": [r.anomaly_mask.tobytes() for r in self.injection.records],
            "ideal_indices": self.partition.ideal_indices,
            "dirty_indices": self.partition.dirty_indices,
            "limits": {a: limits.bounds(a) for a in limits.attributes},
        }

    def content_key(self) -> str:
        """Content-addressed identity of the bundle, for the experiment
        catalog (:mod:`repro.store.catalog`).

        A SHA-256 over :meth:`fingerprint` — the bitwise-comparable
        reduction of everything the determinism contract pins — so two
        bundles share a key iff they are bitwise-identical builds, however
        they were produced (any backend, shard layout or engine). Hashed
        once per bundle: the hash reads every series, and the bundle is
        immutable.
        """
        if self._content_key is None:
            import hashlib

            fp = self.fingerprint()
            h = hashlib.sha256()
            for name in sorted(fp):
                h.update(name.encode())
                h.update(b"\x00")
                h.update(repr(fp[name]).encode())
                h.update(b"\x00")
            self._content_key = "content:" + h.hexdigest()
        return self._content_key


def build_population(
    scale: str = "small",
    seed: Seed = 0,
    generator_config: Optional[GeneratorConfig] = None,
    injection_config: Optional[GlitchInjectionConfig] = None,
    backend: Optional[object] = None,
    n_workers: Optional[int] = None,
    shard_size: Optional[int] = None,
) -> PopulationBundle:
    """Generate, glitch, and partition one population — a staged pipeline.

    Generation and injection run shard-parallel over one
    :class:`~repro.core.pipeline.Pipeline`; identification (the ideal-set
    fixed point) runs serially after them. ``backend`` accepts a
    name (``"serial"``/``"thread"``/``"process:4"``), an
    :class:`~repro.core.executor.ExecutionBackend` instance, or ``None`` to
    defer to the ``REPRO_BACKEND`` environment variable — the same knob the
    experiment runner honours. Every per-series random stream is pre-spawned
    from *seed* by index, so the bundle (values, injection ledger, dirty/ideal
    indices, fitted limits) is bitwise identical on every backend and shard
    layout; backends change only the wall clock.

    The dirty/ideal split uses raw-scale outlier limits (the split is a
    property of the data, not of the per-experiment analysis transform);
    per-replication limits are re-derived from each ideal sample by the
    framework.
    """
    if scale not in SCALES:
        raise ExperimentError(f"scale must be one of {sorted(SCALES)}, got {scale!r}")
    pipeline = Pipeline.coerce(backend, n_workers=n_workers, shard_size=shard_size)
    # One stream per stage, spawned from the root seed; each stage re-spawns
    # per-series child streams by index, keeping the build layout-invariant.
    gen_seq, inject_seq = spawn_sequences(as_generator(seed), 2)
    gen_cfg = generator_config or SCALES[scale].generator
    clean = NetworkDataGenerator(gen_cfg, seed=gen_seq).generate(backend=pipeline)
    injector = GlitchInjector(
        injection_config or GlitchInjectionConfig(), seed=inject_seq
    )
    injection = injector.inject(clean, backend=pipeline)
    partition, suite = identify_ideal(injection.dataset)
    return PopulationBundle(
        clean=clean,
        population=injection.dataset,
        injection=injection,
        partition=partition,
        suite=suite,
        scale=scale,
    )


def experiment_config(
    scale: str = "small",
    log_transform: bool = True,
    sample_size: Optional[int] = None,
    seed: Seed = 0,
    backend: Optional[str] = None,
    n_workers: Optional[int] = None,
    distance: Optional[str] = None,
) -> ExperimentConfig:
    """The :class:`ExperimentConfig` matching a scale preset.

    ``sample_size`` overrides the preset (the paper's Figure 6c uses B = 500
    at otherwise-paper scale). ``backend`` names the execution backend; when
    ``None`` the ``REPRO_BACKEND`` environment variable still applies at run
    time. ``distance`` names the distortion distance by registered
    identifier (``"emd"``/``"kl"``/``"js"``/``"ks"``/...); ``None`` keeps
    the paper's EMD.
    """
    if scale not in SCALES:
        raise ExperimentError(f"scale must be one of {sorted(SCALES)}, got {scale!r}")
    preset = SCALES[scale]
    return ExperimentConfig(
        n_replications=preset.n_replications,
        sample_size=sample_size or preset.sample_size,
        log_transform=log_transform,
        seed=seed,
        backend=backend,
        n_workers=n_workers,
        distance=distance,
    )
