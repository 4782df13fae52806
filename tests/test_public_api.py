"""The package's public surface: exactly these names, each importable."""

import vlmsim

PUBLIC_NAMES = [
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


def test_all_lists_exactly_the_public_names():
    assert sorted(vlmsim.__all__) == PUBLIC_NAMES
    assert len(vlmsim.__all__) == len(set(vlmsim.__all__)) == 53


def test_each_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(vlmsim, name) is not None, name


def test_star_import_runs():
    namespace = {}
    exec("from vlmsim import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
