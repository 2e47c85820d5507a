"""The paper's primary contribution: the three-dimensional data-quality
metric (glitch improvement, statistical distortion, cost) and the
sampling-based experimental framework that evaluates cleaning strategies
along those axes.
"""

from repro.core.cost import CostSweepResult, cost_sweep
from repro.core.distortion import (
    statistical_distortion,
    statistical_distortion_batch,
)
from repro.core.evaluation import (
    StrategyOutcome,
    StrategySummary,
    glitch_fraction_table,
    summarize_outcomes,
)
from repro.core.executor import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.core.framework import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
)
from repro.core.glitch_index import (
    GlitchWeights,
    glitch_improvement,
    glitch_index,
    series_glitch_scores,
)
from repro.core.pipeline import (
    Pipeline,
    ShardSpec,
    ShardedStage,
    build_shards,
    plan_shards,
)
from repro.core.streaming import (
    StreamingExperiment,
    StreamingResult,
    streaming_enabled,
)
from repro.core.tradeoff import (
    TradeoffPoint,
    knee_point,
    pareto_front,
    tradeoff_points,
    viable_strategies,
)

__all__ = [
    "GlitchWeights",
    "glitch_index",
    "glitch_improvement",
    "series_glitch_scores",
    "statistical_distortion",
    "statistical_distortion_batch",
    "ExperimentConfig",
    "ExperimentRunner",
    "ExperimentResult",
    "StreamingExperiment",
    "StreamingResult",
    "streaming_enabled",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "resolve_backend",
    "Pipeline",
    "ShardSpec",
    "ShardedStage",
    "plan_shards",
    "build_shards",
    "StrategyOutcome",
    "StrategySummary",
    "summarize_outcomes",
    "glitch_fraction_table",
    "cost_sweep",
    "CostSweepResult",
    "TradeoffPoint",
    "tradeoff_points",
    "pareto_front",
    "knee_point",
    "viable_strategies",
]
