"""Training-stage workloads: token budgets, trainable masks, batching.

The four-stage curriculum is encoded as data (token budgets and component
masks). Sequence lengths come from a pluggable distribution, default
lognormal with a hard cap, since long-tail lengths are what makes dynamic
batching earn its keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arch import COMPONENTS, ModelSpec, component_param_counts


@dataclass(frozen=True)
class SequenceLengthModel:
    kind: str  # "fixed" | "lognormal-truncated"
    value: int | None = None
    mean: float | None = None
    sigma: float | None = None
    cap: int = 32768

    def __post_init__(self) -> None:
        if not 1 <= self.cap <= 32768:
            raise ValueError("cap must be in [1, 32768]")
        if self.kind == "fixed":
            if self.value is None or not 1 <= self.value <= self.cap:
                raise ValueError("fixed length must be in [1, cap]")
        elif self.kind == "lognormal-truncated":
            if self.mean is None or self.sigma is None or self.sigma < 0:
                raise ValueError("lognormal model needs mean and sigma >= 0")
        else:
            raise ValueError(f"unknown sequence length model {self.kind!r}")

    @classmethod
    def fixed(cls, value: int, cap: int = 32768) -> "SequenceLengthModel":
        return cls(kind="fixed", value=value, cap=cap)

    @classmethod
    def lognormal(
        cls, mean: float, sigma: float, cap: int = 32768
    ) -> "SequenceLengthModel":
        return cls(kind="lognormal-truncated", mean=mean, sigma=sigma, cap=cap)


@dataclass(frozen=True)
class TrainingStage:
    name: str
    token_budget: int
    trainable: frozenset[str]
    seq_len_model: SequenceLengthModel

    def __post_init__(self) -> None:
        if self.token_budget <= 0:
            raise ValueError("token_budget must be positive")
        unknown = self.trainable - set(COMPONENTS)
        if unknown:
            raise ValueError(f"unknown trainable components {sorted(unknown)}")


_DEFAULT_LENGTHS = SequenceLengthModel.lognormal(mean=8.0, sigma=0.7, cap=32768)


def stage_catalog() -> list[TrainingStage]:
    """The four training stages, in curriculum order.

    Budgets and masks are catalog data. Sequence length distributions are
    declared defaults, not measured values.
    """
    return [
        TrainingStage(
            name="cross-modal-alignment",
            token_budget=100_000_000_000,
            trainable=frozenset({"adapter"}),
            seq_len_model=_DEFAULT_LENGTHS,
        ),
        TrainingStage(
            name="general-knowledge-injection",
            token_budget=2_660_000_000_000,
            trainable=frozenset(COMPONENTS),
            seq_len_model=_DEFAULT_LENGTHS,
        ),
        TrainingStage(
            name="domain-enhancement",
            token_budget=320_000_000_000,
            trainable=frozenset(COMPONENTS),
            seq_len_model=_DEFAULT_LENGTHS,
        ),
        TrainingStage(
            name="instruction-tuning",
            token_budget=1_000_000_000,
            trainable=frozenset(COMPONENTS),
            seq_len_model=_DEFAULT_LENGTHS,
        ),
    ]


def stage_by_name(name: str) -> TrainingStage:
    for stage in stage_catalog():
        if stage.name == name:
            return stage
    known = [s.name for s in stage_catalog()]
    raise KeyError(f"unknown stage {name!r}; known stages: {known}")


def trainable_param_count(model: ModelSpec, stage: TrainingStage) -> int:
    counts = component_param_counts(model)
    return sum(counts[c] for c in COMPONENTS if c in stage.trainable)


def sample_lengths(model: SequenceLengthModel, seed: int, n: int) -> list[int]:
    """Draw n sequence lengths, deterministic in (model, seed)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return []
    if model.kind == "fixed":
        return [model.value] * n  # type: ignore[list-item]
    rng = np.random.default_rng(seed)
    raw = rng.lognormal(mean=model.mean, sigma=model.sigma, size=n)
    clipped = np.clip(np.rint(raw), 1, model.cap).astype(np.int64)
    return clipped.tolist()


@dataclass(frozen=True)
class MicrobatchPlan:
    batches: list[list[int]]
    token_budget_per_batch: int
    padded: bool = True

    def __post_init__(self) -> None:
        if not all(self.batches):
            raise ValueError("empty batch in plan")
        for batch, (size, seq) in zip(self.batches, self.shapes):
            cost = size * seq if self.padded else sum(batch)
            if cost > self.token_budget_per_batch:
                raise ValueError("batch exceeds token budget")

    @cached_property
    def shapes(self) -> list[tuple[int, int]]:
        """Each batch's shape, (sample count, longest length): what the
        memory fit checks, the cost book prices and the trace records."""
        return [(len(batch), max(batch)) for batch in self.batches]


@dataclass(frozen=True)
class StepWorkload:
    """What one optimizer step processes, as fed to the engine.

    seq_len_model=None falls back to the training stage's own model.
    visual_tokens_per_sample adds vision encoder + adapter work on the first
    pipeline stage; the tokens themselves already occupy sequence positions.
    """

    microbatch_token_budget: int
    seq_len_model: SequenceLengthModel | None = None
    visual_tokens_per_sample: int = 0
    padded: bool = True

    def __post_init__(self) -> None:
        if self.microbatch_token_budget < 1:
            raise ValueError("microbatch_token_budget must be >= 1")
        if self.visual_tokens_per_sample < 0:
            raise ValueError("visual_tokens_per_sample must be >= 0")


def plan_step_microbatches(
    stage_model: SequenceLengthModel,
    workload: StepWorkload,
    microbatches: int,
    seed: int,
) -> MicrobatchPlan:
    """Build exactly `microbatches` greedy arrival-order microbatches.

    Samples stream from the length model and a batch closes when the next
    sample would blow the padded budget; the closing sample opens the next
    batch, and draws longer than the budget are truncated to it. Every batch
    is nonempty. Deterministic in (models, seed).
    """
    model = workload.seq_len_model or stage_model
    if microbatches < 1:
        raise ValueError("microbatches must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

    batches: list[list[int]] = []
    current: list[int] = []
    current_max = 0
    drawn: list[int] = []
    cursor = 0
    chunk = max(64, microbatches)
    draws = 0
    while len(batches) < microbatches:
        if cursor >= len(drawn):
            drawn = sample_lengths(model, seed + draws, chunk)
            draws += 1
            cursor = 0
        length = min(drawn[cursor], workload.microbatch_token_budget)
        cursor += 1
        if workload.padded:
            cost = (len(current) + 1) * max(current_max, length)
        else:
            cost = sum(current) + length
        if current and cost > workload.microbatch_token_budget:
            batches.append(current)
            current = [length]
            current_max = length
        else:
            current.append(length)
            current_max = max(current_max, length)
    return MicrobatchPlan(
        batches=batches[:microbatches],
        token_budget_per_batch=workload.microbatch_token_budget,
        padded=workload.padded,
    )
