"""The 1F1B pipeline schedule, the one schedule executor, and the bubble
fraction.

A schedule is a per-stage ordered list of (kind, microbatch) slots. The
builder guarantees the 1F1B shape: stage i warms up with
in_flight(p, m, i) = min(p-i, m) forwards, alternates
one-forward-one-backward, then drains. `execute` holds the dependency
rule: the engine prices a run through it, and any schedule of this form
can be run through it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

FORWARD = "forward"
BACKWARD = "backward"

Slot = tuple[str, int]


@dataclass(frozen=True)
class PipelineSchedule:
    stages: int
    microbatches: int
    slots: tuple[tuple[Slot, ...], ...]


def in_flight(p: int, m: int, i: int) -> int:
    """The most forwards stage i of a p-stage 1F1B step over m
    microbatches holds awaiting their backward: its warmup, min(p - i, m)
    (the 1F1B in-flight bound of Narayanan et al., SC'21)."""
    return min(p - i, m)


def build_1f1b(p: int, m: int) -> PipelineSchedule:
    if p < 1 or m < 1:
        raise ValueError("p and m must be >= 1")
    # the 2m distinct slots, built once; every stage's tuple refers to them
    forward = [(FORWARD, k) for k in range(1, m + 1)]
    backward = [(BACKWARD, k) for k in range(1, m + 1)]
    stages = []
    for i in range(p):
        warmup = in_flight(p, m, i)
        slots: list[Slot] = forward[:warmup]
        for j in range(m - warmup):
            slots.append(backward[j])
            slots.append(forward[warmup + j])
        slots += backward[m - warmup:]
        stages.append(tuple(slots))
    return PipelineSchedule(stages=p, microbatches=m, slots=tuple(stages))


def execute(
    schedule: PipelineSchedule,
    run_slot: Callable[[int, str, int, float], float],
) -> None:
    """Run each stage's slots in order, each once its dependency is met.

    run_slot(i, kind, k, dep) runs slot (kind, k) of stage i no earlier
    than `dep` and returns the time its output is handed off. Forward k on
    stage i waits for forward k's hand-off on stage i-1. Backward k waits
    for backward k's on stage i+1, or on the last stage for its own forward
    k's, and is never ready before its stage has run forward k (a gate
    only; `dep` stays the hand-off). Raises ValueError on deadlock, or
    for a slot whose microbatch is outside 1..m.
    """
    p, m = schedule.stages, schedule.microbatches
    # each stage's hand-off times indexed by microbatch, None until that
    # slot has run (index 0 is never used)
    fwd_handoff = [[None] * (m + 1) for _ in range(p)]
    bwd_handoff = [[None] * (m + 1) for _ in range(p)]
    position = [0] * p
    remaining = sum(len(s) for s in schedule.slots)
    while remaining:
        before = remaining
        for i in range(p):
            slots, pos = schedule.slots[i], position[i]
            n = len(slots)
            fwd_done, bwd_done = fwd_handoff[i], bwd_handoff[i]
            fwd_above = fwd_handoff[i - 1]  # unread on stage 0
            bwd_below = fwd_done if i == p - 1 else bwd_handoff[i + 1]
            while pos < n:
                kind, k = slots[pos]
                if not 0 < k <= m:  # a list index would wrap or overrun
                    raise ValueError(f"stage {i} slot {slots[pos]} outside 1..{m}")
                if kind == FORWARD:
                    dep = 0.0 if i == 0 else fwd_above[k]
                    done = fwd_done
                else:
                    dep = bwd_below[k] if fwd_done[k] is not None else None
                    done = bwd_done
                if dep is None:
                    break
                done[k] = run_slot(i, kind, k, dep)
                pos += 1
            remaining -= pos - position[i]
            position[i] = pos
        if remaining == before:
            raise ValueError("schedule deadlocks: circular or missing dependency")


def measured_bubble(trace) -> float:
    """Bubble fraction of a simulated trace, in [0, 1).

    bubble = 1 - (compute-busy chip seconds) / (chips * makespan), with one
    representative chip per stage (all chips in a stage group are in
    lockstep). A stage's idle time is the makespan minus its entry in
    trace.stage_compute_busy().
    """
    if trace.makespan <= 0.0 or trace.pp == 0:
        raise ValueError("empty trace")
    busy_chip_seconds = sum(trace.stage_compute_busy()) * trace.tp * trace.dp
    chips = trace.pp * trace.tp * trace.dp
    bubble = 1.0 - busy_chip_seconds / (chips * trace.makespan)
    if not 0.0 <= bubble < 1.0:
        raise ValueError(f"bubble fraction {bubble} out of range")
    return bubble
