"""Headline metrics derived from traces, plus report and chart emission."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .arch import ModelSpec
from .cluster import MemoryBreakdown, ParallelismPlan, Topology, memory_per_chip
from .engine import COMM, COMPUTE, Trace, sequential_sum, step_training_flops
from .schedule import measured_bubble
from .workload import TrainingStage


@dataclass(frozen=True)
class RunReport:
    config_digest: str
    chips: int
    step_time: float
    tokens_per_second: float
    mfu: float
    bubble: float
    overlap_efficiency: float
    memory: MemoryBreakdown
    efficiency: float | None = None
    schema: int = 1

    def __post_init__(self) -> None:
        for name in ("step_time", "tokens_per_second"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} = {value} is not finite")
        for name in ("mfu", "bubble", "overlap_efficiency"):
            value = getattr(self, name)
            if not -1e-9 <= value <= 1.0 + 1e-9:
                raise ValueError(f"{name} = {value} outside [0, 1]")

    def as_json_dict(self) -> dict:
        return {
            "schema": self.schema,
            "config_digest": self.config_digest,
            "chips": self.chips,
            "step_time": self.step_time,
            "tokens_per_second": self.tokens_per_second,
            "mfu": self.mfu,
            "bubble": self.bubble,
            "overlap_efficiency": self.overlap_efficiency,
            "efficiency": self.efficiency,
            "memory": self.memory.as_dict(),
        }


CSV_COLUMNS = [
    "schema",
    "config_digest",
    "chips",
    "step_time",
    "tokens_per_second",
    "mfu",
    "bubble",
    "overlap_efficiency",
    "efficiency",
    "memory_weights",
    "memory_grads",
    "memory_optimizer",
    "memory_activations",
    "memory_total",
]


def report_csv_row(report: RunReport) -> list[str]:
    """CSV cells of a report; floats as repr."""
    doc = report.as_json_dict()
    memory = doc.pop("memory")
    for key, value in memory.items():
        doc[f"memory_{key}"] = value
    return [
        "" if doc[col] is None else repr(doc[col]) if isinstance(doc[col], float)
        else str(doc[col])
        for col in CSV_COLUMNS
    ]


def emit_report(report: RunReport, format: str = "json") -> str:
    """Render a report document with stable field order."""
    if format == "json":
        return json.dumps(report.as_json_dict(), indent=2) + "\n"
    if format == "csv":
        header = ",".join(CSV_COLUMNS)
        return header + "\n" + ",".join(report_csv_row(report)) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def overlap_efficiency(trace: Trace) -> float:
    """Comm seconds under the same stage's compute, over all comm seconds.

    Per stage, the compute intervals are merged into the pieces of their
    union: in start order, an interval joins the current piece when it
    starts at or before the piece's end, so touching intervals join.
    covered sums, for each comm row in stored order and each piece in
    start order, the row's positive overlap with the piece; total sums
    the comm rows' durations; both run over the stages in order and add
    left to right. The result is covered / total, and 1.0 when total is
    0. A fully serialized run scores 0 (its comm only touches compute at
    interval endpoints) and comm entirely hidden under compute scores 1.
    Rows of other resources are ignored. Compute intervals are taken to
    have start <= end, as check_invariants ensures.
    """
    durations = [np.empty(0)]
    overlaps = [np.empty(0)]
    for cols in trace.stage_columns:
        comm_start = cols.start[cols.comm]
        comm_end = cols.end[cols.comm]
        durations.append(comm_end - comm_start)
        start = cols.start[cols.compute]
        end = cols.end[cols.compute]
        if not (start.size and comm_start.size):
            continue
        # equal starts join one piece in any order
        order = np.argsort(start)
        start = start[order]
        end = end[order]
        # an interval opens a new union piece unless it starts by the
        # furthest end so far
        opens = np.flatnonzero(np.concatenate(
            ([True], start[1:] > np.maximum.accumulate(end)[:-1])
        ))
        piece_start = start[opens]
        piece_end = np.maximum.reduceat(end, opens)
        # pieces [first, stop) of each comm row are those that can overlap it
        first = np.searchsorted(piece_end, comm_start, side="right")
        stop = np.searchsorted(piece_start, comm_end, side="left")
        counts = np.maximum(stop - first, 0)
        # one (comm row, piece) pair per candidate: rows in stored order,
        # each row's pieces from first upward
        piece = np.arange(counts.sum()) - np.repeat(
            np.cumsum(counts) - counts - first, counts
        )
        hi = np.minimum(np.repeat(comm_end, counts), piece_end[piece])
        lo = np.maximum(np.repeat(comm_start, counts), piece_start[piece])
        overlaps.append((hi - lo)[hi > lo])
    total = sequential_sum(np.concatenate(durations))
    if total == 0.0:
        return 1.0
    return sequential_sum(np.concatenate(overlaps)) / total


def mfu(
    trace: Trace,
    model: ModelSpec,
    stage: TrainingStage,
    plan: ParallelismPlan,
    topology: Topology,
) -> float:
    """Achieved training FLOPs over peak cluster FLOPs for the step.

    The numerator re-derives FLOPs from the model arithmetic (the same
    functions that priced the trace's compute intervals), so under zero
    communication this equals the busy fraction, i.e. 1 - bubble. The
    stage argument is part of the metric's identity but does not change
    the arithmetic: cost accounting treats all components as trainable.
    """
    del stage
    achieved = step_training_flops(trace, model, plan)
    peak = trace.makespan * topology.total_chips * topology.chip.peak_flops
    return achieved / peak


@dataclass(frozen=True)
class ScalingPoint:
    chips: int
    throughput: float
    efficiency: float


@dataclass(frozen=True)
class ScalingCurve:
    points: list[ScalingPoint]

    def efficiency_at(self, chips: int) -> float:
        for point in self.points:
            if point.chips == chips:
                return point.efficiency
        raise KeyError(f"no scaling point at {chips} chips")


def scaling_efficiency(
    runs: list[tuple[int, float]], reference: int
) -> ScalingCurve:
    """Weak-scaling efficiency: per-chip throughput relative to the reference."""
    ref_throughput = None
    for chips, throughput in runs:
        if chips == reference:
            ref_throughput = throughput
    if ref_throughput is None:
        raise ValueError(f"reference point {reference} chips missing from runs")
    per_chip_ref = ref_throughput / reference
    points = [
        ScalingPoint(
            chips=chips,
            throughput=throughput,
            efficiency=(throughput / chips) / per_chip_ref,
        )
        for chips, throughput in sorted(runs)
    ]
    return ScalingCurve(points=points)


def weak_scaling_point(
    base_topology: Topology,
    base_plan: ParallelismPlan,
    chips: int,
) -> tuple[Topology, ParallelismPlan]:
    """Shrink or grow a (topology, plan) pair along the weak-scaling rule.

    tp stays fixed (it lives within a node); pp shrinks below the base
    depth only when there are not enough chips for it; dp absorbs the
    rest; microbatch count scales with pp so per-chip tokens per step are
    unchanged. Raises when the requested chip count cannot keep the rule
    exact (divisibility).
    """
    tp = base_plan.tp
    if chips % tp != 0:
        raise ValueError(f"chips {chips} not divisible by tp {tp}")
    pp = min(base_plan.pp, chips // tp)
    if (chips // tp) % pp != 0:
        raise ValueError(f"chips {chips} cannot host pp {pp} evenly")
    dp = chips // (tp * pp)
    scaled_m = base_plan.microbatches_per_step * pp
    if scaled_m % base_plan.pp != 0:
        raise ValueError("microbatches do not scale to an integer")
    m = scaled_m // base_plan.pp

    cpn = base_topology.chips_per_node
    if chips % cpn != 0:
        raise ValueError(f"chips {chips} not divisible by chips per node {cpn}")
    topology = dataclasses.replace(base_topology, nodes=chips // cpn)
    plan = dataclasses.replace(base_plan, dp=dp, pp=pp, microbatches_per_step=m)
    return topology, plan


def build_report(
    trace: Trace,
    model: ModelSpec,
    stage: TrainingStage,
    plan: ParallelismPlan,
    topology: Topology,
    config_digest: str,
    efficiency: float | None = None,
) -> RunReport:
    stats = measured_bubble(trace, plan.pp)
    memory = memory_per_chip(
        model,
        plan,
        stage,
        seq_len=max(trace.microbatch_seq_lens),
        microbatch=max(trace.microbatch_sizes),
    )
    return RunReport(
        config_digest=config_digest,
        chips=topology.total_chips,
        step_time=trace.makespan,
        tokens_per_second=trace.tokens_per_step / trace.makespan,
        mfu=mfu(trace, model, stage, plan, topology),
        bubble=stats.bubble_fraction,
        overlap_efficiency=overlap_efficiency(trace),
        memory=memory,
        efficiency=efficiency,
    )


_GANTT_COLORS = {
    "fwd": "#4c78a8",
    "bwd": "#f58518",
    "collective": "#54a24b",
    "p2p": "#b279a2",
    "sync_bucket": "#e45756",
}


def _lane_pieces(
    rows, res: str, left: float, scale: float, lane_h: int, max_intervals: int
) -> tuple[list[str], bool]:
    """The rects of one (stage, resource) lane, split where the lane's y goes.

    Every chip of a stage draws the same rects and only y differs between
    its lanes, so a lane is y.join(pieces). Also says whether the lane has
    more than max_intervals intervals, i.e. is clipped.
    """
    lane_rows = [row for row in rows if row[0] == res]
    pieces = []
    tail = ""
    for _, start, end, label, _ in lane_rows[:max_intervals]:
        x = left + start * scale
        w = max((end - start) * scale, 0.05)
        color = _GANTT_COLORS.get(label, "#999999")
        pieces.append(f'{tail}<rect x="{x:.3f}" y="')
        tail = (
            f'" width="{w:.3f}" height="{lane_h}" fill="{color}">'
            f"<title>{label}</title></rect>\n"
        )
    pieces.append(tail)
    return pieces, len(lane_rows) > max_intervals


def emit_gantt(
    trace: Trace,
    path=None,
    max_chips: int = 64,
    max_intervals: int = 300,
) -> str:
    """Deterministic SVG gantt chart: one lane per (chip, resource).

    Charts bigger than the caps are clipped, not sampled: the first
    max_chips chips are drawn (chip ids run tp-fastest, so 64 chips cover
    all stages of one replica for the shipped presets) and each lane draws
    at most max_intervals intervals with a "clipped" marker after the cut.
    The trace file is the complete record. All lanes of one stage and
    resource show the same intervals, so each is rendered once per stage.
    """
    if max_chips < 1:
        raise ValueError(f"max_chips must be >= 1, got {max_chips}")
    if max_intervals < 0:
        raise ValueError(f"max_intervals must be >= 0, got {max_intervals}")
    if trace.makespan <= 0.0 or not any(trace.stage_rows):
        raise ValueError("empty trace")
    chips = min(trace.total_chips, max_chips)
    lane_h = 14
    gap = 2
    left = 150
    width = 1200.0
    height = chips * 2 * (lane_h + gap) + gap + 20
    scale = (width - left - 10) / trace.makespan

    rendered: dict[tuple[int, str], tuple[list[str], bool]] = {}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" font-family="monospace" font-size="10">\n'
    ]
    lane = 0
    for chip in range(chips):
        stage = (chip % (trace.pp * trace.tp)) // trace.tp
        for res in (COMPUTE, COMM):
            y = gap + lane * (lane_h + gap)
            text_y = y + lane_h - 3
            if (stage, res) not in rendered:
                rendered[stage, res] = _lane_pieces(
                    trace.sorted_stage_rows[stage], res, left, scale, lane_h,
                    max_intervals,
                )
            pieces, clipped = rendered[stage, res]
            parts.append(
                f'<g class="lane" data-lane="chip{chip}-{res}">\n'
                f'<text x="4" y="{text_y}">chip {chip} {res}</text>\n'
            )
            parts.append(str(y).join(pieces))
            if clipped:
                parts.append(
                    f'<text x="{width - 10:.0f}" y="{text_y}" '
                    f'text-anchor="end">clipped</text>\n'
                )
            parts.append("</g>\n")
            lane += 1
    parts.append("</svg>\n")
    document = "".join(parts)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(document)
    return document
