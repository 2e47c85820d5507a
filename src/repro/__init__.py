"""repro — reproduction of *Statistical Distortion: Consequences of Data
Cleaning* (Dasu & Loh, VLDB 2012).

The library provides, end to end:

* a synthetic hierarchical network-monitoring data substrate
  (:mod:`repro.data`) standing in for the paper's proprietary feed;
* glitch detection for missing values, inconsistencies and outliers
  (:mod:`repro.glitches`);
* the paper's five cleaning strategies plus extensions
  (:mod:`repro.cleaning`);
* statistical distances — exact EMD with three transportation backends, KL,
  Mahalanobis, and approximations (:mod:`repro.distance`);
* the three-dimensional evaluation framework — glitch index, statistical
  distortion, cost sweeps, trade-off analysis (:mod:`repro.core`);
* whole-series sampling — the replication pairs, plus uniform
  sampling (:mod:`repro.sampling`);
* drivers for every figure and table of the paper
  (:mod:`repro.experiments`).

Quickstart::

    from repro import (
        build_population, experiment_config, run_figure6,
        render_strategy_summaries,
    )

    bundle = build_population(scale="small", seed=0)
    result = run_figure6(bundle, experiment_config("small"))
    print(render_strategy_summaries(result.summaries()))
"""

from repro.cleaning import (
    CleaningContext,
    CleaningStrategy,
    CompositeStrategy,
    IdentityStrategy,
    InterpolationImputation,
    MeanImputation,
    MvnImputation,
    PartialCleaner,
    RegressionImputation,
    RemeasureStrategy,
    WinsorizeOutliers,
    paper_strategies,
    strategy_by_name,
)
from repro.core import (
    ExecutionBackend,
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
    GlitchWeights,
    Pipeline,
    ProcessBackend,
    SerialBackend,
    ShardSpec,
    ShardedStage,
    StrategyOutcome,
    StrategySummary,
    StreamingExperiment,
    StreamingResult,
    ThreadBackend,
    cost_sweep,
    glitch_improvement,
    glitch_index,
    knee_point,
    pareto_front,
    resolve_backend,
    statistical_distortion,
    statistical_distortion_batch,
    streaming_enabled,
    summarize_outcomes,
    tradeoff_points,
    viable_strategies,
)
from repro.data import (
    GeneratorConfig,
    GlitchInjectionConfig,
    GlitchInjector,
    NetworkDataGenerator,
    NetworkTopology,
    NodeId,
    SampleBlock,
    SlabFeed,
    StreamDataset,
    TimeSeries,
)
from repro.distance import (
    DISTANCES,
    EarthMoverDistance,
    JensenShannonDistance,
    KLDivergence,
    KolmogorovSmirnovDistance,
    MahalanobisDistance,
    MarginalEmd,
    SlicedEmd,
    distance_by_name,
    emd_1d,
    pairwise_emd,
)
from repro.errors import ReproError
from repro.experiments import (
    SweepCell,
    SweepResult,
    backend_from_env,
    build_population,
    experiment_config,
    figure3_counts,
    figure4_stats,
    figure5_stats,
    render_cost_summary,
    render_counts_series,
    render_strategy_summaries,
    render_table1,
    run_experiment,
    run_figure6,
    run_figure7,
    run_sweep,
    run_table1,
    scale_from_env,
)
from repro.glitches import (
    ConstraintSet,
    DetectorSuite,
    GlitchType,
    ScaleTransform,
    SigmaLimits,
    identify_ideal,
    paper_constraints,
    partition_by_cleanliness,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # data
    "NodeId",
    "NetworkTopology",
    "TimeSeries",
    "StreamDataset",
    "SampleBlock",
    "GeneratorConfig",
    "NetworkDataGenerator",
    "GlitchInjectionConfig",
    "GlitchInjector",
    # glitches
    "GlitchType",
    "ConstraintSet",
    "paper_constraints",
    "SigmaLimits",
    "DetectorSuite",
    "ScaleTransform",
    "partition_by_cleanliness",
    "identify_ideal",
    # cleaning
    "CleaningContext",
    "CleaningStrategy",
    "CompositeStrategy",
    "IdentityStrategy",
    "WinsorizeOutliers",
    "MeanImputation",
    "MvnImputation",
    "InterpolationImputation",
    "RegressionImputation",
    "RemeasureStrategy",
    "PartialCleaner",
    "paper_strategies",
    "strategy_by_name",
    # distance
    "EarthMoverDistance",
    "emd_1d",
    "pairwise_emd",
    "SlicedEmd",
    "MarginalEmd",
    "KLDivergence",
    "JensenShannonDistance",
    "KolmogorovSmirnovDistance",
    "MahalanobisDistance",
    "DISTANCES",
    "distance_by_name",
    # core
    "GlitchWeights",
    "glitch_index",
    "glitch_improvement",
    "statistical_distortion",
    "statistical_distortion_batch",
    "ExperimentConfig",
    "ExperimentRunner",
    "ExperimentResult",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "resolve_backend",
    "Pipeline",
    "ShardSpec",
    "ShardedStage",
    "StrategyOutcome",
    "StrategySummary",
    "summarize_outcomes",
    "cost_sweep",
    "tradeoff_points",
    "pareto_front",
    "knee_point",
    "viable_strategies",
    # experiments
    "build_population",
    "experiment_config",
    "scale_from_env",
    "backend_from_env",
    "figure3_counts",
    "figure4_stats",
    "figure5_stats",
    "run_figure6",
    "run_figure7",
    "run_table1",
    "run_sweep",
    "SweepCell",
    "SweepResult",
    "render_table1",
    "render_strategy_summaries",
    "render_cost_summary",
    "render_counts_series",
]
