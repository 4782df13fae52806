"""Chip/node topology and stage-group placement, 3D parallelism plans,
plan violations and the one error type of a refused config, and the
per-chip memory model.

Memory accounting follows a documented internal cost model (constants are
simulator parameters, not measured values):

  weights    2 bytes per stage-local param, sharded 1/tp
  grads      2 bytes per stage-local trainable param, sharded 1/tp
  optimizer  12 bytes per stage-local trainable param (fp32 master + two
             moments), sharded 1/tp, and 1/dp with a distributed optimizer
  activations per decoder layer, per token:
               24*h/tp   TP-sharded class (linear inputs, attention proj)
               10*h      replicated class (norms, residuals, dropout masks);
                         divided by tp iff sequence parallelism is on
             plus 2*query_heads*seq^2*microbatch/tp bytes of attention
             scores per layer, which selective recomputation removes;
             full recomputation keeps only a 2*h boundary checkpoint per
             layer per token. Stage i holds schedule.in_flight(pp, m, i)
             = min(pp - i, m) microbatches in flight; the first stage also
             owns the embeddings, vision encoder, and adapter, and the last
             the output head unless embeddings are tied.

A chip's estimate is the largest over the stages of a given layer split:
the first holds the most microbatches, but a balanced split may give a
later stage more layers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .arch import (
    RECOMPUTE_POLICIES,
    ModelSpec,
    adapter_param_count,
    lm_layer_param_count,
    vision_param_count,
)
from .schedule import in_flight
from .workload import TrainingStage

LAYER_BALANCE_MODES = ("uniform", "cost-balanced")


@dataclass(frozen=True)
class ChipSpec:
    peak_flops: float
    memory: float
    has_independent_comm_unit: bool = True

    def __post_init__(self) -> None:
        if self.peak_flops <= 0 or self.memory <= 0:
            raise ValueError("chip peak_flops and memory must be positive")


@dataclass(frozen=True)
class Topology:
    nodes: int
    chips_per_node: int
    intra_node_bw: float
    inter_node_bw: float
    intra_latency: float
    inter_latency: float
    chip: ChipSpec

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.chips_per_node < 1:
            raise ValueError("node counts must be >= 1")
        if self.intra_node_bw <= 0 or self.inter_node_bw <= 0:
            raise ValueError("bandwidths must be positive")
        if self.intra_latency < 0 or self.inter_latency < 0:
            raise ValueError("latencies must be >= 0")

    @property
    def total_chips(self) -> int:
        return self.nodes * self.chips_per_node


@dataclass(frozen=True)
class ParallelismPlan:
    dp: int
    tp: int
    pp: int
    microbatches_per_step: int
    sequence_parallel: bool = False
    recompute: str = "none"
    overlap_grad_sync: bool = True
    fusion_chunks: int = 1
    distributed_optimizer: bool = False
    layer_balance: str = "uniform"

    def __post_init__(self) -> None:
        if min(self.dp, self.tp, self.pp) < 1:
            raise ValueError("dp, tp, pp must all be >= 1")
        if self.microbatches_per_step < 1:
            raise ValueError("microbatches_per_step must be >= 1")
        if self.fusion_chunks < 1:
            raise ValueError("fusion_chunks must be >= 1")
        if self.recompute not in RECOMPUTE_POLICIES:
            raise ValueError(f"unknown recompute policy {self.recompute!r}")
        if self.layer_balance not in LAYER_BALANCE_MODES:
            raise ValueError(f"unknown layer balance mode {self.layer_balance!r}")


@dataclass(frozen=True)
class MemoryBreakdown:
    weights: float
    grads: float
    optimizer: float
    activations: float

    # report keys: the terms in field order, then their sum
    KEYS = ("weights", "grads", "optimizer", "activations", "total")

    @property
    def total(self) -> float:
        return self.weights + self.grads + self.optimizer + self.activations

    def as_dict(self) -> dict[str, float]:
        return {key: getattr(self, key) for key in self.KEYS}

    def dominant_term(self) -> str:
        """The largest term; a tie goes to the first in field order."""
        return max(self.KEYS[:-1], key=lambda key: getattr(self, key))


@dataclass(frozen=True)
class PlanViolation:
    constraint: str
    message: str

    def as_dict(self) -> dict[str, str]:
        return {"constraint": self.constraint, "message": self.message}


class ConfigError(ValueError):
    """A refused config or plan, with the plan violations behind it if any."""

    def __init__(self, message: str, violations: list[PlanViolation] | None = None):
        super().__init__(message)
        self.violations = violations or []


def partition_layers(model: ModelSpec, pp: int, balance: str = "uniform") -> list[int]:
    """Split decoder layers over pp stages by water-filling: every stage
    starts with one layer, and each further layer goes to the stage it
    leaves cheapest, the earliest on a tie. A stage costs its layers times
    a layer's params, plus hidden*vocab (an embedding, a head) on the first
    and the last stage in cost-balanced mode only; uniform counts thus
    differ by at most one, extras to the earliest stages. The split
    min-maxes the stage cost and, among such splits, has the smallest
    descending stage costs. The cost book prices no embedding MACs, and
    the proxy holds no vision or attention FLOPs.
    """
    layers = model.lm.layers
    if pp < 1:
        raise ValueError("pp must be >= 1")
    if pp > layers:
        raise ValueError(f"pp {pp} exceeds layer count {layers}")
    if balance not in LAYER_BALANCE_MODES:
        raise ValueError(f"unknown layer balance mode {balance!r}")

    per_layer = lm_layer_param_count(model.lm)
    boundary = model.lm.hidden_size * model.lm.vocab_size * (balance == "cost-balanced")
    extras = [0] * pp
    extras[0] += boundary
    extras[-1] += boundary
    counts = [1] * pp
    # (cost of the stage with one more layer, stage)
    heap = [(2 * per_layer + extra, i) for i, extra in enumerate(extras)]
    heapq.heapify(heap)
    for _ in range(layers - pp):
        cost, i = heap[0]
        counts[i] += 1
        heapq.heapreplace(heap, (cost + per_layer, i))
    return counts


def stage_local_params(
    model: ModelSpec, partition: list[int], stage_index: int
) -> dict[str, int]:
    """Per-component params owned by one pipeline stage (before TP sharding).

    The first stage owns input embeddings, vision encoder, and adapter; the
    last owns the output head unless embeddings are tied (then it is counted
    once, on the first stage).
    """
    lm = model.lm
    counts = {"vision": 0, "adapter": 0, "lm": 0}
    counts["lm"] = partition[stage_index] * lm_layer_param_count(lm)
    if stage_index == 0:
        counts["vision"] = vision_param_count(model.vision)
        counts["adapter"] = adapter_param_count(model.adapter)
        counts["lm"] += lm.hidden_size * lm.vocab_size
    if stage_index == len(partition) - 1 and not lm.embedding_tying:
        counts["lm"] += lm.hidden_size * lm.vocab_size
    return counts


def stage_memory(
    model: ModelSpec,
    plan: ParallelismPlan,
    stage: TrainingStage,
    partition: list[int],
    stage_index: int,
    seq_len: int,
    microbatch: int,
) -> MemoryBreakdown:
    """Memory high-water estimate for one chip of pipeline stage
    `stage_index`: its own layers and params, and its 1F1B in-flight
    count of microbatches."""
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")
    if microbatch < 0:
        raise ValueError("microbatch must be >= 0")

    local = stage_local_params(model, partition, stage_index)
    total_params = sum(local.values())
    trainable_params = sum(local[c] for c in local if c in stage.trainable)

    tp = plan.tp
    weights = total_params * 2.0 / tp
    grads = trainable_params * 2.0 / tp
    optimizer = trainable_params * 12.0 / tp
    if plan.distributed_optimizer:
        optimizer /= plan.dp

    h = model.lm.hidden_size
    sp_div = tp if plan.sequence_parallel else 1
    if plan.recompute == "full":
        per_token = 2.0 * h / sp_div
        scores = 0.0
    else:
        per_token = 24.0 * h / tp + 10.0 * h / sp_div
        if plan.recompute == "selective":
            scores = 0.0
        else:
            scores = 2.0 * model.lm.query_heads * float(seq_len) ** 2 * microbatch / tp
    tokens = float(microbatch * seq_len)
    held = in_flight(plan.pp, plan.microbatches_per_step, stage_index)
    activations = partition[stage_index] * (tokens * per_token + scores) * held

    return MemoryBreakdown(
        weights=weights, grads=grads, optimizer=optimizer, activations=activations
    )


def memory_per_chip(
    model: ModelSpec,
    plan: ParallelismPlan,
    stage: TrainingStage,
    partition: list[int],
    seq_len: int,
    microbatch: int,
) -> MemoryBreakdown:
    """Memory high-water estimate for the stage of `partition` that needs
    the most (stage_memory of each stage; on a tie, the first stage)."""
    return max(
        (
            stage_memory(model, plan, stage, partition, i, seq_len, microbatch)
            for i in range(plan.pp)
        ),
        key=lambda memory: memory.total,
    )


def group_nodes(topology: Topology, plan: ParallelismPlan) -> np.ndarray:
    """The node of every stage group, a (dp, pp) array indexed [replica,
    stage]. Chip ids are (replica * pp + stage) * tp + rank, and a group
    sits on one node as tp divides chips_per_node (tp-within-node).
    np.diff along a row marks the stage boundaries it crosses nodes at."""
    groups = np.arange(plan.dp * plan.pp).reshape(plan.dp, plan.pp)
    return groups * plan.tp // topology.chips_per_node


def validate_plan(
    topology: Topology, plan: ParallelismPlan, model: ModelSpec
) -> list[PlanViolation]:
    """Check a plan's shape and replica placement against a topology and
    a model; returns the violations as data. The memory fit needs the
    step's shape, so engine.step_shape checks it."""
    violations = []
    chips = topology.total_chips
    product = plan.dp * plan.tp * plan.pp
    if product != chips:
        violations.append(
            PlanViolation(
                constraint="parallelism-product",
                message=f"dp*tp*pp = {product} does not equal total chips {chips}",
            )
        )
    if plan.tp > topology.chips_per_node:
        violations.append(
            PlanViolation(
                constraint="tp-within-node",
                message=(
                    f"tp {plan.tp} exceeds chips per node "
                    f"{topology.chips_per_node}"
                ),
            )
        )
    elif topology.chips_per_node % plan.tp != 0:
        violations.append(
            PlanViolation(
                constraint="tp-within-node",
                message=(
                    f"tp {plan.tp} must divide chips per node "
                    f"{topology.chips_per_node}"
                ),
            )
        )
    if not violations:
        # the engine prices every replica as replica 0, so each must cross
        # nodes at the stage boundaries replica 0 crosses at. Replica 0
        # starts a node, so a replica that differs crosses first.
        crosses = np.diff(group_nodes(topology, plan)) != 0
        differ = np.argwhere(crosses != crosses[0])
        if len(differ):
            replica, boundary = differ[0].tolist()
            violations.append(PlanViolation(
                constraint="replica-placement",
                message=(
                    f"replica {replica} crosses nodes at stage boundary "
                    f"{boundary}-{boundary + 1}, unlike replica 0"
                ),
            ))
    if plan.pp > model.lm.layers:
        violations.append(
            PlanViolation(
                constraint="pipeline-depth",
                message=f"pp {plan.pp} exceeds layer count {model.lm.layers}",
            )
        )
    return violations

