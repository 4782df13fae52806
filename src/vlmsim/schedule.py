"""The 1F1B pipeline schedule, its run order, and the bubble fraction.

A schedule is each stage's slots in order, coded k for forward k and -k
for backward k. The builder guarantees the 1F1B shape: stage i warms up
with in_flight(p, m, i) = min(p-i, m) forwards, alternates
one-forward-one-backward, then drains. It also gives the order the engine
runs the slots in, and each slot's one explicit dependency, all as flat
int64 arrays over the p * 2m slots.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class PipelineSchedule(NamedTuple):
    """A step's slots as flat int64 arrays over its p * 2m slots.
    codes[i * 2m + q] is stage i's slot q, k for forward k and -k for
    backward k; order[r] is the slot (i * 2m + q) run r-th; depends[r] is
    r' + 1 when the slot run r-th waits for the hand-off of the slot run
    r'-th, 0 for a forward of stage 0."""

    stages: int
    microbatches: int
    codes: np.ndarray
    order: np.ndarray
    depends: np.ndarray


def in_flight(p: int, m: int, i: int) -> int:
    """The most forwards stage i of a p-stage 1F1B step over m
    microbatches holds awaiting their backward: its warmup, min(p - i, m)
    (the 1F1B in-flight bound of Narayanan et al., SC'21)."""
    return min(p - i, m)


def build_1f1b(p: int, m: int) -> PipelineSchedule:
    """The 1F1B step of p stages over m microbatches, with its run order.

    Stage i (from 0), warmup w = in_flight(p, m, i), runs forwards 1..w,
    then backward j and forward w + j for j = 1..m - w, then the other
    backwards: forward k at place k - 1 if k <= w, else 2k - w - 1, and
    backward k at w + 2k - 2 if k <= m - w, else m + k - 1. Forward k waits
    for forward k's hand-off from stage i - 1; backward k for backward k's
    from stage i + 1, or on the last stage for its own forward k's end.

    At unit costs a slot ends at its level: forward k at i + k while
    k <= p - i, else i + 2k - 1; backward k at 2p - i + 2k - 2. Along a
    stage the levels rise: by one through the warmup (to i + w <= p), then
    to 2p - i > p, by one while the kinds alternate (w = p - i there) and
    by two in the drain. A slot's source ends lower: forward k of stage
    i - 1 at i - 1 + k, or i + 2k - 2 if k > p - i + 1; backward k of stage
    i + 1 at 2p - i + 2k - 3; the last stage's forward k at p + 2k - 2, or
    p if k = 1. So level * p + stage, distinct as a stage ends one slot a
    level, orders the slots legally: its table of (2m + 2p - 1) * p cells,
    read in order, is the run order, and a running count of its filled
    cells gives each slot's run position. Any legal order gives the same
    max-plus fold bit for bit (Baccelli et al., Synchronization and
    Linearity, 1992): a slot reads and writes only its own stage's
    timelines and its source's hand-off.
    """
    if p < 1 or m < 1:
        raise ValueError("p and m must be >= 1")
    per_stage = 2 * m
    stage = np.arange(p)[:, None]
    k = np.arange(1, m + 1)
    warmup = np.minimum(p - stage, m)
    late = k > warmup  # (p, m): forward k past stage i's warmup
    forward = np.where(late, 2 * k - 1 - warmup, k - 1) + stage * per_stage
    backward = (np.where(k <= m - warmup, warmup + 2 * k - 2, m + k - 1)
                + stage * per_stage)
    forward_key = (np.where(late, 2 * k - 1, k) + stage) * p + stage
    backward_key = (2 * (p + k - 1) - stage) * p + stage
    codes = np.empty(p * per_stage, np.int64)
    codes[forward] = k
    codes[backward] = -k
    table = np.empty((2 * (m + p) - 1) * p, np.int64)
    table[:] = -1
    table[forward_key] = forward
    table[backward_key] = backward
    filled = table >= 0
    order = table[filled]
    position = np.cumsum(filled)  # a key's run position + 1
    forward_at = position[forward_key]
    backward_at = position[backward_key]
    depends = np.zeros(p * per_stage, np.int64)
    depends[forward_at[1:] - 1] = forward_at[:-1]
    depends[backward_at[:-1] - 1] = backward_at[1:]
    depends[backward_at[-1] - 1] = forward_at[-1]
    return PipelineSchedule(p, m, codes, order, depends)


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
