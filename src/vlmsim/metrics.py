"""Headline metrics of traces as plain values, plus report and chart emission."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .arch import ModelSpec
from .cluster import MemoryBreakdown, ParallelismPlan, Topology
from .engine import (
    COMM,
    COMPUTE,
    KINDS,
    Trace,
    sequential_sum,
    step_training_flops,
)
from .schedule import measured_bubble
from .workload import TrainingStage


@dataclass(frozen=True, kw_only=True)
class RunReport:
    """One run's headline numbers. The field order is the key order of
    report.json and, with memory flattened, the columns of report.csv."""

    schema: int = 2
    config_digest: str
    chips: int
    step_time: float
    tokens_per_second: float
    mfu: float
    bubble: float
    overlap_efficiency: float
    efficiency: float | None = None
    memory: MemoryBreakdown

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
        doc = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        doc["memory"] = self.memory.as_dict()
        return doc


CSV_COLUMNS = [
    column for f in dataclasses.fields(RunReport) for column in (
        [f"memory_{key}" for key in MemoryBreakdown.KEYS]
        if f.name == "memory" else [f.name]
    )
]


def report_csv_row(report: RunReport) -> list[str]:
    """CSV cells of a report; floats as float.__repr__, so numpy floats
    from an injected CostBook print as plain numbers."""
    doc = report.as_json_dict()
    doc |= {f"memory_{key}": value for key, value in doc["memory"].items()}
    return [
        "" if doc[col] is None
        else float.__repr__(doc[col]) if isinstance(doc[col], float)
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


def _ranks(keys: np.ndarray, queries: np.ndarray, side: str) -> np.ndarray:
    """np.searchsorted(keys, queries, side) for ascending keys and queries,
    by one merge: each key is placed among the queries, below (side
    "left") or at most (side "right") every query from its place on, so a
    query's rank counts the places at or before it. A comm sub-block's
    starts and ends both ascend (check_invariants)."""
    at = np.searchsorted(queries, keys, "right" if side == "left" else "left")
    return np.cumsum(np.bincount(at, minlength=len(queries) + 1)[:-1])


def overlap_efficiency(trace: Trace) -> float:
    """Comm seconds under the same stage's compute, over all comm seconds.

    Per stage, the compute intervals are merged into the pieces of their
    union: a piece is a run of compute rows each starting at the end of
    the one before, so touching intervals join. covered sums, for each
    comm row in stored order and each piece in start order, the row's
    positive overlap with the piece; total sums the comm rows' durations;
    both run over the stages in order and add left to right. The result is
    covered / total, and 1.0 when total is 0. A fully serialized run
    scores 0 (its comm only touches compute at interval endpoints) and
    comm entirely hidden under compute scores 1. Each stage's compute and
    comm rows are read as the slices of its sub-blocks, each in start
    order with no row starting before the previous one ends
    (check_invariants), and a row's pieces are counted by merging the
    pieces into the rows (_ranks).
    """
    durations = [np.empty(0)]
    overlaps = [np.empty(0)]
    offsets = trace.offsets.tolist()
    for a, b, c in zip(offsets[::2], offsets[1::2], offsets[2::2]):
        comm_start = trace.columns.start[b:c]
        comm_end = trace.columns.end[b:c]
        durations.append(comm_end - comm_start)
        start = trace.columns.start[a:b]
        end = trace.columns.end[a:b]
        if not (start.size and comm_start.size):
            continue
        # a row opens a new union piece unless it starts where the one
        # before ends
        opens = np.flatnonzero(np.concatenate(([True], start[1:] > end[:-1])))
        piece_start = start[opens]
        piece_end = end[np.append(opens[1:], len(end)) - 1]
        # pieces [first, stop) of each comm row are those that can overlap it
        first = _ranks(piece_end, comm_start, "right")
        meets = _ranks(piece_start, comm_end, "left") - first
        # one (comm row, piece) pair per candidate: rows in stored order,
        # each row's pieces from first upward
        row = np.flatnonzero(meets > 0)
        counts = meets[row]
        piece = np.repeat(first[row] + counts - np.cumsum(counts), counts)
        piece += np.arange(len(piece))
        row = np.repeat(row, counts)
        hi = np.minimum(comm_end[row], piece_end[piece])
        lo = np.maximum(comm_start[row], piece_start[piece])
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


def scaling_efficiency(
    runs: list[tuple[int, float]], reference: int
) -> dict[int, float]:
    """Weak-scaling efficiency by chip count, in chip order: each run's
    per-chip throughput over the reference run's. A chip count listed
    twice keeps its last throughput."""
    throughputs = dict(runs)
    if reference not in throughputs:
        raise ValueError(f"reference point {reference} chips missing from runs")
    per_chip_ref = throughputs[reference] / reference
    return {
        chips: (throughputs[chips] / chips) / per_chip_ref
        for chips in sorted(throughputs)
    }


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
    """The headline numbers of a run's trace. Its memory is trace.memory,
    the figure the run's memory-fit check used."""
    return RunReport(
        config_digest=config_digest,
        chips=topology.total_chips,
        step_time=trace.makespan,
        tokens_per_second=trace.tokens_per_step / trace.makespan,
        mfu=mfu(trace, model, stage, plan, topology),
        bubble=measured_bubble(trace),
        overlap_efficiency=overlap_efficiency(trace),
        memory=trace.memory,
        efficiency=efficiency,
    )


# fill colour of each kind of row, by KINDS index
_GANTT_COLORS = ("#4c78a8", "#f58518", "#54a24b", "#b279a2", "#e45756")


# the fragments a chart's .3f numbers are joined from: integer parts (the
# chart is 1200 wide) and ".000" to ".999" by thousandths
_INTEGERS = np.array([str(i) for i in range(2048)], object)
_THOUSANDTHS = np.array([f".{i:03d}" for i in range(1000)], object)


def _thousandths(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each float64 v times 1000, rounded half to even from its exact
    value, as uint64; and whether that is exact: v positive and normal,
    with v * 1000 < 2**53.

    Such a v is m * 2**-s for its 53-bit significand m and a shift s >= 9,
    so m * 1000 < 2**63 is exact, and the result is m * 1000 shifted right
    by s, rounded half to even on the bits shifted out. format(v, ".3f")
    rounds the exact value the same way, so these are its digits. A shift
    of 64 or more leaves less than half, so 0.
    """
    exact = (values >= np.finfo(np.float64).tiny) & (values < 2.0**53 / 1000)
    bits = values.view(np.uint64)
    scaled = (bits & np.uint64(2**52 - 1) | np.uint64(2**52)) * np.uint64(1000)
    shift = 1075 - (bits >> np.uint64(52)).astype(np.int64)
    clamped = np.clip(shift, 1, 63).astype(np.uint64)
    rounded = scaled >> clamped
    rest = scaled - (rounded << clamped)
    half = np.uint64(1) << (clamped - np.uint64(1))
    rounded += (rest > half) | (rest == half) & (rounded & np.uint64(1) == 1)
    rounded[shift >= 64] = 0
    return rounded, exact


def _format_3f(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """format(v, ".3f") of each float64 value, as two object arrays whose
    elementwise concatenation is the text: from _thousandths, the integer
    part from _INTEGERS and the ".ddd" fraction from _THOUSANDTHS. A value
    _thousandths does not make exact, or whose integer part is past the
    table, falls back to format(), whole in the first array."""
    thousandths, exact = _thousandths(values)
    fallback = np.flatnonzero(~exact | (thousandths >= 1000 * len(_INTEGERS)))
    thousandths[fallback] = 0
    heads = _INTEGERS[thousandths // 1000]
    tails = _THOUSANDTHS[thousandths % 1000]
    for at in fallback.tolist():
        heads[at] = format(float(values[at]), ".3f")
        tails[at] = ""
    return heads, tails


def emit_gantt(
    trace: Trace,
    path=None,
    max_chips: int = 64,
    max_intervals: int = 300,
) -> str:
    """Deterministic SVG gantt chart: one lane per (chip, resource).

    Charts bigger than the caps are clipped, not sampled: the first
    max_chips chips are drawn (chip ids run tp-fastest, so 64 chips cover
    all stages of one replica for the shipped presets), a line in the
    bottom margin says so when the trace has more chips, and each lane
    draws at most max_intervals intervals with a "clipped" marker after
    the cut. The trace file is the complete record. All lanes of one stage
    and resource show the same intervals, so each (stage, resource) lane
    is drawn once, at y = 0 inside <defs>, and every chip's lane places it
    at its own height with <use>. A rect's title is its row's label, one of
    the engine's five, so no text needs escaping.

    A lane's rows are its sub-block's first max_intervals rows: a
    sub-block is in start order (check_invariants). The drawn rows of
    every lane are gathered first, and every rect's x and width computed
    in one pass with the IEEE operations of left + start * scale and
    max((end - start) * scale, 0.05). Their .3f texts come from integers
    (_format_3f), each distinct width formatted once. A rect is then four
    fragments: '<rect x="', x's integer part, its fraction, and one tail
    per distinct (width, kind).
    """
    if max_chips < 1:
        raise ValueError(f"max_chips must be >= 1, got {max_chips}")
    if max_intervals < 0:
        raise ValueError(f"max_intervals must be >= 0, got {max_intervals}")
    if trace.makespan <= 0.0 or not len(trace.columns.start):
        raise ValueError("empty trace")
    chips = min(trace.total_chips, max_chips)
    lane_h = 14
    gap = 2
    left = 150
    width = 1200.0
    height = chips * 2 * (lane_h + gap) + gap + 20
    scale = (width - left - 10) / trace.makespan
    marker_x = f"{width - 10:.0f}"

    # the lanes drawn: chips 0..chips-1 reach stages 0..k-1, each defined
    # once per resource, compute before comm, in the order chips reach
    # them, so the lanes are the first 2k sub-blocks
    stages = min(trace.pp, (chips - 1) // trace.tp + 1)
    lanes = [(stage, res) for stage in range(stages) for res in (COMPUTE, COMM)]
    offsets = trace.offsets[:2 * stages + 1]
    rows = np.diff(offsets)
    picked = np.minimum(rows, max_intervals)
    # every drawn rect of the chart at once, lane after lane
    drawn = np.concatenate([
        np.arange(first, first + n)
        for first, n in zip(offsets.tolist(), picked.tolist())
    ])
    start, end, kind = (column[drawn] for column in trace.columns[:3])
    widths, width_at = np.unique(
        np.maximum((end - start) * scale, 0.05), return_inverse=True
    )
    n = len(start)
    heads, tails = _format_3f(np.concatenate((left + start * scale, widths)))
    # the text after x is one per distinct (width, kind) pair: a pair's code
    # is width index * kinds + kind, and the codes present are numbered up
    pair = width_at * len(KINDS) + kind
    present = np.zeros(len(widths) * len(KINDS), bool)
    present[pair] = True
    pair_at = (np.cumsum(present) - 1)[pair]
    rect_tails = np.array([
        f'" y="0" width="{heads[n + w]}{tails[n + w]}" height="{lane_h}" '
        f'fill="{_GANTT_COLORS[k]}"><title>{KINDS[k][1]}</title></rect>\n'
        for w, k in map(
            divmod, np.flatnonzero(present).tolist(), repeat(len(KINDS))
        )
    ], object)
    rects = ['<rect x="'] * (4 * n)
    rects[1::4] = heads[:n].tolist()
    rects[2::4] = tails[:n].tolist()
    rects[3::4] = rect_tails[pair_at].tolist()
    defs = []
    first = 0
    for (stage, res), count, cut in zip(
        lanes, picked.tolist(), (rows > max_intervals).tolist()
    ):
        defs.append(f'<g id="s{stage}-{res}">\n')
        defs += rects[4 * first:4 * (first + count)]
        first += count
        if cut:
            defs.append(
                f'<text x="{marker_x}" y="{lane_h - 3}" '
                f'text-anchor="end">clipped</text>\n'
            )
        defs.append("</g>\n")
    body = []
    lane = 0
    for chip in range(chips):
        stage = (chip % (trace.pp * trace.tp)) // trace.tp
        for res in (COMPUTE, COMM):
            y = gap + lane * (lane_h + gap)
            body.append(
                f'<g class="lane" data-lane="chip{chip}-{res}">\n'
                f'<text x="4" y="{y + lane_h - 3}">chip {chip} {res}</text>\n'
                f'<use xlink:href="#s{stage}-{res}" y="{y}"/>\n'
                "</g>\n"
            )
            lane += 1
    if trace.total_chips > max_chips:
        body.append(
            f'<text x="4" y="{height - 6}">chips 0-{chips - 1} of '
            f"{trace.total_chips} drawn</text>\n"
        )
    document = "".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'xmlns:xlink="http://www.w3.org/1999/xlink" width="{width:.0f}" '
        f'height="{height:.0f}" font-family="monospace" font-size="10">\n'
        "<defs>\n",
        *defs,
        "</defs>\n",
        *body,
        "</svg>\n",
    ])
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(document)
    return document
