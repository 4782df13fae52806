"""Deterministic simulator for large multimodal training runs.

Models a 3D-parallel (data / tensor / pipeline) training step over a chip
cluster: 1F1B pipeline scheduling, ring collectives under an alpha-beta
cost model, sequence parallelism, selective recomputation, bucketed
gradient sync with compute overlap, and chunked allgather+GEMM fusion.
Everything is analytic and seeded, so runs are bit-reproducible and large
clusters simulate in seconds.
"""

from .arch import (
    AdapterSpec,
    LanguageModelSpec,
    ModelSpec,
    VisionEncoderSpec,
    builtin_model_catalog,
    component_param_counts,
    stage_flops,
    step_flops,
    tile_grid,
    total_param_count,
    visual_token_count,
)
from .cluster import (
    ChipSpec,
    ConfigError,
    MemoryBreakdown,
    ParallelismPlan,
    PlanViolation,
    Topology,
    memory_per_chip,
    partition_layers,
    validate_plan,
)
from .comm import (
    CollectiveCostModel,
    GradSyncPolicy,
    collective_time,
    stage_grad_bytes,
)
from .config import (
    SimConfig,
    config_digest,
    load_config,
    resolved_config_dict,
)
from .engine import (
    CostBook,
    CostModelConfig,
    Trace,
    fused_allgather_gemm_time,
    run,
    step_training_flops,
)
from .metrics import (
    RunReport,
    build_report,
    emit_gantt,
    emit_report,
    mfu,
    overlap_efficiency,
    scaling_efficiency,
    weak_scaling_point,
)
from .schedule import (
    PipelineSchedule,
    build_1f1b,
    measured_bubble,
)
from .workload import (
    SequenceLengthModel,
    StepWorkload,
    TrainingStage,
    plan_step_microbatches,
    sample_lengths,
    stage_by_name,
    stage_catalog,
    trainable_param_count,
)

__version__ = "0.1.0"

__all__ = [
    "AdapterSpec",
    "ChipSpec",
    "CollectiveCostModel",
    "ConfigError",
    "CostBook",
    "CostModelConfig",
    "GradSyncPolicy",
    "LanguageModelSpec",
    "MemoryBreakdown",
    "ModelSpec",
    "ParallelismPlan",
    "PipelineSchedule",
    "PlanViolation",
    "RunReport",
    "SequenceLengthModel",
    "SimConfig",
    "StepWorkload",
    "Topology",
    "Trace",
    "TrainingStage",
    "VisionEncoderSpec",
    "build_1f1b",
    "build_report",
    "builtin_model_catalog",
    "collective_time",
    "component_param_counts",
    "config_digest",
    "emit_gantt",
    "emit_report",
    "fused_allgather_gemm_time",
    "load_config",
    "measured_bubble",
    "memory_per_chip",
    "mfu",
    "overlap_efficiency",
    "partition_layers",
    "plan_step_microbatches",
    "resolved_config_dict",
    "run",
    "sample_lengths",
    "scaling_efficiency",
    "stage_by_name",
    "stage_catalog",
    "stage_flops",
    "stage_grad_bytes",
    "step_flops",
    "step_training_flops",
    "tile_grid",
    "total_param_count",
    "trainable_param_count",
    "validate_plan",
    "visual_token_count",
    "weak_scaling_point",
]
