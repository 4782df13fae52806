"""1F1B pipeline schedule construction and bubble statistics.

A schedule is a per-stage ordered list of (kind, microbatch) slots. The
builder guarantees the 1F1B shape: stage i warms up with min(p-i, m)
forwards, alternates one-forward-one-backward, then drains. A GPipe-style
reference builder exists purely as a memory-property contrast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FORWARD = "forward"
BACKWARD = "backward"

Slot = tuple[str, int]


@dataclass(frozen=True)
class PipelineSchedule:
    stages: int
    microbatches: int
    slots: tuple[tuple[Slot, ...], ...]

    def as_json_dict(self) -> dict:
        return {
            "stages": self.stages,
            "microbatches": self.microbatches,
            "slots": [[[kind, mb] for kind, mb in stage] for stage in self.slots],
        }


@dataclass(frozen=True)
class BubbleStats:
    bubble_fraction: float
    per_stage_idle: list[float]
    makespan: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.bubble_fraction < 1.0:
            raise ValueError(f"bubble fraction {self.bubble_fraction} out of range")


def build_1f1b(p: int, m: int) -> PipelineSchedule:
    if p < 1 or m < 1:
        raise ValueError("p and m must be >= 1")
    stages = []
    for i in range(p):
        warmup = min(p - i, m)
        slots: list[Slot] = [(FORWARD, k) for k in range(1, warmup + 1)]
        for j in range(1, m - warmup + 1):
            slots.append((BACKWARD, j))
            slots.append((FORWARD, warmup + j))
        for j in range(m - warmup + 1, m + 1):
            slots.append((BACKWARD, j))
        stages.append(tuple(slots))
    return PipelineSchedule(stages=p, microbatches=m, slots=tuple(stages))


def build_gpipe(p: int, m: int) -> PipelineSchedule:
    """All forwards, then all backwards: the high-memory reference shape."""
    if p < 1 or m < 1:
        raise ValueError("p and m must be >= 1")
    slots = tuple(
        tuple(
            [(FORWARD, k) for k in range(1, m + 1)]
            + [(BACKWARD, k) for k in range(1, m + 1)]
        )
        for _ in range(p)
    )
    return PipelineSchedule(stages=p, microbatches=m, slots=slots)


def check_schedule(schedule: PipelineSchedule) -> None:
    """Independent legality validator; raises ValueError on any violation.

    Checks exactly-once coverage, forward-before-backward per stage, and
    cross-stage executability (unit-time simulation must not deadlock).
    """
    p, m = schedule.stages, schedule.microbatches
    if len(schedule.slots) != p:
        raise ValueError("slot list count != stages")
    for i, slots in enumerate(schedule.slots):
        seen: dict[Slot, int] = {}
        for pos, slot in enumerate(slots):
            if slot in seen:
                raise ValueError(f"stage {i} repeats slot {slot}")
            seen[slot] = pos
        for k in range(1, m + 1):
            if (FORWARD, k) not in seen or (BACKWARD, k) not in seen:
                raise ValueError(f"stage {i} missing microbatch {k}")
            if seen[(BACKWARD, k)] < seen[(FORWARD, k)]:
                raise ValueError(f"stage {i} runs backward {k} before forward")
    simulate_slot_completion(schedule)  # raises on deadlock


def simulate_slot_completion(schedule: PipelineSchedule) -> list[list[float]]:
    """Unit-cost completion times per stage slot; raises if not executable.

    Forward k on stage i needs forward k on stage i-1; backward k on stage
    i needs backward k on stage i+1 (and its own forward, implied by slot
    order). Returns per-stage completion times aligned with the slots.
    """
    p = schedule.stages
    fwd_done: list[dict[int, float]] = [{} for _ in range(p)]
    bwd_done: list[dict[int, float]] = [{} for _ in range(p)]
    position = [0] * p
    clock = [0.0] * p
    times: list[list[float]] = [[] for _ in range(p)]
    remaining = sum(len(s) for s in schedule.slots)
    while remaining:
        progressed = False
        for i in range(p):
            slots = schedule.slots[i]
            while position[i] < len(slots):
                kind, k = slots[position[i]]
                if kind == FORWARD:
                    dep = 0.0 if i == 0 else fwd_done[i - 1].get(k)
                else:
                    dep = 0.0 if i == p - 1 else bwd_done[i + 1].get(k)
                    if dep is not None and k in fwd_done[i]:
                        dep = max(dep, fwd_done[i][k])
                    elif k not in fwd_done[i]:
                        dep = None
                if dep is None:
                    break
                end = max(clock[i], dep) + 1.0
                clock[i] = end
                (fwd_done if kind == FORWARD else bwd_done)[i][k] = end
                times[i].append(end)
                position[i] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise ValueError("schedule deadlocks: circular or missing dependency")
    return times


def max_in_flight(schedule: PipelineSchedule, stage_index: int) -> int:
    """Peak count of forwards awaiting their backward on one stage."""
    live = 0
    peak = 0
    for kind, _ in schedule.slots[stage_index]:
        live += 1 if kind == FORWARD else -1
        peak = max(peak, live)
    return peak


def analytic_bubble(p: int, m: int) -> float:
    if p < 1 or m < 1:
        raise ValueError("p and m must be >= 1")
    return (p - 1) / (m + p - 1)


def min_microbatches_for_bubble(p: int, target: float) -> int:
    """Smallest m with analytic_bubble(p, m) <= target."""
    if not 0.0 < target < 1.0:
        raise ValueError("target must be in (0, 1)")
    if p == 1:
        return 1
    m = max(1, math.ceil((p - 1) * (1.0 - target) / target - 1e-9))
    while analytic_bubble(p, m) > target:
        m += 1
    while m > 1 and analytic_bubble(p, m - 1) <= target:
        m -= 1
    return m


def measured_bubble(trace, p: int) -> BubbleStats:
    """Bubble statistics from a simulated trace.

    bubble = 1 - (compute-busy chip seconds) / (chips * makespan). The
    per-stage idle list uses one representative chip per stage (all chips
    in a stage group are in lockstep).
    """
    if trace.makespan <= 0.0 or trace.pp == 0:
        raise ValueError("empty trace")
    if p != trace.pp:
        raise ValueError(f"trace has {trace.pp} stages, expected {p}")
    per_stage_busy = trace.stage_compute_busy()
    busy_chip_seconds = sum(per_stage_busy) * trace.tp * trace.dp
    chips = trace.pp * trace.tp * trace.dp
    bubble = 1.0 - busy_chip_seconds / (chips * trace.makespan)
    idle = [trace.makespan - busy for busy in per_stage_busy]
    return BubbleStats(
        bubble_fraction=bubble, per_stage_idle=idle, makespan=trace.makespan
    )
