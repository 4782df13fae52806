"""Deterministic discrete-event simulation of one training step.

Each chip has two resources, a compute unit and a communication unit,
reflecting hardware where the two are physically separate and bypass
streams let transfers run beside matrix work. With
`chip.has_independent_comm_unit` off, every transfer serializes onto the
compute timeline instead, which models a conventional single-stream chip
and is the baseline for the overlap comparisons.

Cost construction and timing rules, in one place:

  * step_shape samples the microbatches and validates the plan at the
    largest shape before any timing; the CLI's `validate` runs it too;
  * compute durations are arch.stage_flops of the stage (forward, and
    backward with its recompute extra) divided by tp * peak_flops;
  * TP collectives inside a stage are aggregated into one per-slot comm
    lump (2 allgather + 2 reducescatter per layer and direction under
    sequence parallelism, 2 allreduce otherwise), and the lump overlaps
    its slot's compute through the chunked allgather+GEMM fusion pipeline;
  * slots run in 1F1B order through schedule.execute, which holds the
    dependency rule: a slot starts no earlier than the hand-off it waits
    for, a p2p arrival or (last stage's backward) its own forward's end;
  * stage boundary activations travel as p2p events that occupy the
    sender's comm unit only (DMA-style; the receiver just observes the
    arrival time);
  * each stage syncs comm.stage_grad_bytes in buckets, which become ready
    progressively across its last backward (per-step sync) or every
    backward (per-microbatch sync) and queue FIFO on the comm unit when
    overlapped, else run serially after the producing backward;
  * the optimizer update itself is charged zero time.

Durations depend on a microbatch only through its shape, so the cost book
prices them once per (stage, microbatch size, padded length) and once per
sync bucket size, and the event loop computes each fused allgather+GEMM
span once per distinct (lump, compute) pair of the run. These memos live
in the locals of one call; nothing is cached across runs.

All DP replicas execute identical work on an identical sampled length
schedule (a documented symmetry), so one replica is simulated at
stage-group granularity and the trace expands lazily to every
(replica, tp-rank) chip. Event times are double-precision seconds and the
whole construction is an arithmetic fold over the schedule, so a given
(inputs, seed) pair is bit-reproducible.

The trace's row lists are its one record. Scans over every row (the
invariant check, compute busy time, comm overlap) read numpy columns of
each stage instead: start, end and a compute and a comm mask, built from
the rows once per trace. Their sums add left to right, in row order, so
they give the floats the row-by-row loops give.

The writers read one more view, built on a writer's first use only: each
stage's rows coded by resource, label and microbatch and put in row_order
by one np.lexsort. trace.jsonl is assembled from it by gathers, a block of
rows at a time, formatting each distinct time of a block once, and
gantt.svg draws each lane's first rows from it.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, pairwise
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .arch import ModelSpec, stage_flops, step_flops
from .cluster import (
    ParallelismPlan,
    Topology,
    PlanViolation,
    partition_layers,
    validate_plan,
)
from .comm import (
    CollectiveCostModel,
    GradSyncPolicy,
    collective_time,
    split_buckets,
    stage_grad_bytes,
)
from .schedule import FORWARD, build_1f1b, execute
from .workload import (
    MicrobatchPlan,
    StepWorkload,
    TrainingStage,
    plan_step_microbatches,
)

COMPUTE = "compute"
COMM = "comm"

LABEL_FWD = "fwd"
LABEL_BWD = "bwd"
LABEL_COLLECTIVE = "collective"
LABEL_P2P = "p2p"
LABEL_SYNC = "sync_bucket"

# Rows trace.jsonl formats and joins at a time, in row_order: it bounds the
# writer's memory, and a time recurs within a few rows of that order, so a
# block dedupes its times about as well as its whole stage does.
JSONL_BLOCK_ROWS = 2048

# Largest run accepted, in estimated trace rows of one replica (see
# check_work_bound). The deepest planning point in use, pp=80 with 4096
# microbatches, estimates 6.6M rows (it records 2.0M).
MAX_TRACE_ROWS = 20_000_000


class PlanValidationError(ValueError):
    def __init__(self, violations: list[PlanViolation]):
        self.violations = violations
        super().__init__("; ".join(v.message for v in violations))


@dataclass(frozen=True)
class CostModelConfig:
    """The comm side of a run: the gradient sync policy."""

    grad_sync: GradSyncPolicy = field(default_factory=GradSyncPolicy)


def fused_allgather_gemm_time(t_comm: float, t_gemm: float, chunks: int) -> float:
    """Completion time of an allgather+GEMM pair pipelined in equal chunks.

    Each of the k chunks transfers in t_comm/k and multiplies in t_gemm/k;
    chunk j's GEMM needs chunk j's transfer and the previous GEMM, giving
    tc + (k-1)*max(tc, tg) + tg. k=1 is the plain sequential pair.
    """
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    if t_comm < 0 or t_gemm < 0:
        raise ValueError("times must be >= 0")
    if t_comm == 0.0:
        return t_gemm
    if t_gemm == 0.0:
        return t_comm
    tc = t_comm / chunks
    tg = t_gemm / chunks
    return tc + (chunks - 1) * max(tc, tg) + tg


@dataclass(frozen=True)
class CostBook:
    """Per-stage, per-microbatch work and transfer durations (seconds).

    Normally built from the model and topology; tests may inject one to
    run the scheduler over calibrated or synthetic (e.g. uniform) costs.
    Lists are indexed [stage][microbatch]; sync_buckets is [stage][bucket].
    """

    fwd: list[list[float]]
    bwd: list[list[float]]
    tp_fwd: list[list[float]]
    tp_bwd: list[list[float]]
    p2p_fwd: list[list[float]]
    p2p_bwd: list[list[float]]
    sync_buckets: list[list[float]]

    @classmethod
    def uniform(
        cls,
        p: int,
        m: int,
        fwd: float,
        bwd: float,
        tp_comm: float = 0.0,
        p2p: float = 0.0,
    ) -> "CostBook":
        return cls(
            fwd=[[fwd] * m for _ in range(p)],
            bwd=[[bwd] * m for _ in range(p)],
            tp_fwd=[[tp_comm] * m for _ in range(p)],
            tp_bwd=[[tp_comm] * m for _ in range(p)],
            p2p_fwd=[[p2p] * m for _ in range(p)],
            p2p_bwd=[[p2p] * m for _ in range(p)],
            sync_buckets=[[] for _ in range(p)],
        )


Row = tuple[str, float, float, str, int | None]  # resource, start, end, label, mb


def row_order(row: Row) -> tuple:
    """Sort key of trace rows: start, compute before comm, end, label.

    The order the writers emit each stage's rows in. They reproduce it
    with numpy (build_writer_order); tests sort by this key as reference.
    """
    return (row[1], 0 if row[0] == COMPUTE else 1, row[2], row[3])


class StageColumns(NamedTuple):
    """One stage's rows as columns, in stored row order."""

    start: np.ndarray  # float64
    end: np.ndarray  # float64
    compute: np.ndarray  # bool, resource == COMPUTE
    comm: np.ndarray  # bool, resource == COMM


def build_stage_columns(stage_rows: list[list[Row]]) -> list[StageColumns]:
    """The columns of every stage; rows of other resources are in neither mask."""
    start_of, end_of, resource_of = itemgetter(1), itemgetter(2), itemgetter(0)
    columns = []
    for rows in stage_rows:
        n = len(rows)
        resources = np.fromiter(map(resource_of, rows), object, n)
        columns.append(StageColumns(
            start=np.fromiter(map(start_of, rows), np.float64, n),
            end=np.fromiter(map(end_of, rows), np.float64, n),
            compute=resources == COMPUTE,
            comm=resources == COMM,
        ))
    return columns


class StageOrder(NamedTuple):
    """One stage's rows in row_order: their stored indices and codes."""

    order: np.ndarray  # stored row indices
    resource: np.ndarray  # index into WriterOrder.resources
    label: np.ndarray  # index into WriterOrder.labels
    microbatch: np.ndarray  # index into WriterOrder.microbatches


class WriterOrder(NamedTuple):
    """Every stage's rows in row_order, for the trace and gantt writers.

    Resources, labels and microbatches are coded over the whole trace, in
    order of first appearance.
    """

    resources: list[str]
    labels: list[str]
    microbatches: list[int | None]
    stages: list[StageOrder]


def build_writer_order(
    stage_rows: list[list[Row]], columns: list[StageColumns]
) -> WriterOrder:
    """Code each row's resource, label and microbatch, then sort each stage
    with np.lexsort.

    lexsort is stable, so rows that tie on every key keep stored order, as
    in sorted(rows, key=row_order). Labels rank in Python string order and
    every resource other than COMPUTE ranks as comm, as in row_order.
    """
    # a value's code is its rank in first appearance: a missing key takes
    # the counter's next value
    coders = [defaultdict(count().__next__) for _ in range(3)]
    stages = []
    for rows, cols in zip(stage_rows, columns):
        codes = [
            np.fromiter(
                map(coder.__getitem__, map(itemgetter(column), rows)),
                np.int32, len(rows),
            )
            for column, coder in zip((0, 3, 4), coders)
        ]
        resource_rank = np.array(
            [res != COMPUTE for res in coders[0]], np.intp
        )
        rank_of = {
            label: rank for rank, label in enumerate(sorted(coders[1]))
        }
        label_rank = np.array([rank_of[label] for label in coders[1]], np.intp)
        order = np.lexsort((
            label_rank[codes[1]], cols.end, resource_rank[codes[0]],
            cols.start,
        ))
        # the order outlives the writers with its trace, so each array is
        # kept in the narrowest unsigned type that holds its values
        stages.append(StageOrder(
            order.astype(np.min_scalar_type(len(order))),
            *(column[order].astype(np.min_scalar_type(len(values)))
              for column, values in zip(codes, coders)),
        ))
    resources, labels, microbatches = map(list, coders)
    return WriterOrder(resources, labels, microbatches, stages)


def sequential_sum(values: np.ndarray) -> float:
    """0.0 + values[0] + values[1] + ..., added left to right.

    Bit for bit the float a `total += value` loop from 0.0 gives, which
    np.sum does not promise: it adds in pairwise blocks.
    """
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


@dataclass
class Trace:
    """Interval record of one simulated step, stored at stage-group level.

    A stage group is the set of dp * tp chips executing identical work in
    lockstep; rows expand to per-chip intervals on demand. Chip ids follow
    (replica * pp + stage) * tp + rank.

    A Trace is read-only once `run` returns: the per-stage columns and the
    writers' row order are derived from stage_rows on first use and cached,
    so a later edit of stage_rows would leave every metric stale.
    """

    dp: int
    tp: int
    pp: int
    makespan: float
    seed: int
    stage_rows: list[list[Row]]
    microbatch_sizes: list[int]
    microbatch_seq_lens: list[int]
    visual_tokens_per_sample: int

    @property
    def total_chips(self) -> int:
        return self.dp * self.tp * self.pp

    @property
    def microbatch_tokens(self) -> list[int]:
        return [
            size * seq
            for size, seq in zip(self.microbatch_sizes, self.microbatch_seq_lens)
        ]

    @property
    def tokens_per_step(self) -> int:
        return self.dp * sum(self.microbatch_tokens)

    @cached_property
    def stage_columns(self) -> list[StageColumns]:
        """Each stage's rows as numpy columns, built on first use."""
        return build_stage_columns(self.stage_rows)

    @cached_property
    def writer_order(self) -> WriterOrder:
        """Each stage's row_order, built on a writer's first use.

        The engine appends rows in event order; only the writers need
        row_order, so a run whose trace is never written never sorts.
        """
        return build_writer_order(self.stage_rows, self.stage_columns)

    def stage_compute_busy(self) -> list[float]:
        """Each stage's compute seconds, summed in row order."""
        return [
            sequential_sum(cols.end[cols.compute] - cols.start[cols.compute])
            for cols in self.stage_columns
        ]

    def check_invariants(self) -> None:
        """Raise AssertionError at the first bad row of the first bad pass.

        The passes run stage by stage, compute before comm; within a pass,
        in row order, every interval must be positive and start no earlier
        than 1e-15 before the previous interval's end.
        """
        if not math.isfinite(self.makespan):
            raise AssertionError(f"makespan {self.makespan} is not finite")
        for stage, cols in enumerate(self.stage_columns):
            for resource, mask in ((COMPUTE, cols.compute), (COMM, cols.comm)):
                start = cols.start[mask]
                end = cols.end[mask]
                prev_end = np.concatenate(([-1.0], end[:-1]))
                not_positive = ~(start < end)  # also true when either is NaN
                bad = np.flatnonzero(not_positive | (start < prev_end - 1e-15))
                if not bad.size:
                    continue
                first = bad[0]
                if not_positive[first]:
                    label = self.stage_rows[stage][np.flatnonzero(mask)[first]][3]
                    raise AssertionError(
                        f"stage {stage} {label} interval not positive"
                    )
                raise AssertionError(
                    f"stage {stage} overlapping {resource} intervals"
                )

    def iter_jsonl_lines(self):
        """One meta line, then one line per stage-group interval.

        The engine simulates at stage-group granularity (every chip of a
        stage holds an identical timeline; DP replicas are bit-identical),
        so the trace records each interval once per stage. Chip ids follow
        (replica * pp + stage) * tp + rank; lines are in row_order per stage.

        Lines are the bytes json.dumps(row dict, separators=(",", ":"))
        gives. json.dumps escapes every line break a label or resource may
        hold, so splitting at newline characters alone finds the lines.
        """
        for text in self._jsonl_texts():
            yield from text.split("\n")[:-1]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            handle.writelines(self._jsonl_texts())

    def _jsonl_texts(self):
        """The meta line, then blocks of interval lines, each line ending in
        a newline.

        A line is six fragments: the (stage, resource) head, start,
        ',"end":', end, the label and the microbatch. Times are told apart
        by bit pattern, so -0.0 and 0.0 stay apart. Each distinct time of a
        block is formatted once, and a time two adjacent stages share once
        for both (_time_texts). Times are finite (check_invariants).
        """
        yield json.dumps(
            {
                "dp": self.dp,
                "tp": self.tp,
                "pp": self.pp,
                "seed": self.seed,
                "makespan": self.makespan,
                "microbatch_sizes": self.microbatch_sizes,
                "microbatch_seq_lens": self.microbatch_seq_lens,
                "visual_tokens_per_sample": self.visual_tokens_per_sample,
            },
            separators=(",", ":"),
        ) + "\n"
        writer = self.writer_order
        label_texts = np.array([
            f',"label":{json.dumps(label)},"microbatch":'
            for label in writer.labels
        ], object)
        microbatch_texts = np.array([
            f'{"null" if mb is None else mb}}}\n' for mb in writer.microbatches
        ], object)
        # the times a stage shares with the stage before or after it (the
        # hand-offs) are formatted once for both, and kept for its blocks
        handed_in = (np.empty(0, np.int64), np.empty(0, object))
        neighbours = pairwise(chain(
            map(_time_bits, self.stage_columns), [np.empty(0, np.int64)]
        ))
        for stage, (cols, rows, (bits, next_bits)) in enumerate(
            zip(self.stage_columns, writer.stages, neighbours)
        ):
            shared = np.zeros(len(bits), bool)
            for other in (handed_in[0], next_bits):
                _, at, _ = np.intersect1d(
                    bits, other, assume_unique=True, return_indices=True
                )
                shared[at] = True
            known = (bits[shared], _time_texts(bits[shared], *handed_in))
            heads = np.array([
                f'{{"stage":{stage},"resource":{json.dumps(res)},"start":'
                for res in writer.resources
            ], object)
            for first in range(0, len(rows.order), JSONL_BLOCK_ROWS):
                block = slice(first, first + JSONL_BLOCK_ROWS)
                order = rows.order[block]
                n = len(order)
                block_bits, inverse = np.unique(
                    np.concatenate((cols.start[order], cols.end[order]))
                    .view(np.int64),
                    return_inverse=True,
                )
                times = _time_texts(block_bits, *known)[inverse]
                fragments = [',"end":'] * (6 * n)
                fragments[0::6] = heads[rows.resource[block]].tolist()
                fragments[1::6] = times[:n].tolist()
                fragments[3::6] = times[n:].tolist()
                fragments[4::6] = label_texts[rows.label[block]].tolist()
                fragments[5::6] = microbatch_texts[rows.microbatch[block]].tolist()
                yield "".join(fragments)
            handed_in = known


def _time_bits(cols: StageColumns) -> np.ndarray:
    """A stage's distinct times as int64 bit patterns, ascending; -0.0 and
    0.0 differ. (np.unique without an inverse would import numpy.ma.)"""
    bits = np.sort(np.concatenate((cols.start, cols.end)).view(np.int64))
    first = np.ones(len(bits), bool)
    first[1:] = bits[1:] != bits[:-1]
    return bits[first]


def _time_texts(
    bits: np.ndarray, known_bits: np.ndarray, known_texts: np.ndarray
) -> np.ndarray:
    """float.__repr__ of each time in `bits` (int64 bit patterns), as an
    object array. A time in known_bits (ascending) takes its text from
    known_texts; only the others are formatted. float.__repr__ is json's
    formatter, so float subclasses such as numpy.float64 print as plain
    floats."""
    at = np.searchsorted(known_bits, bits)
    hit = at < len(known_bits)
    hit[hit] = known_bits[at[hit]] == bits[hit]
    texts = np.empty(len(bits), object)
    texts[hit] = known_texts[at[hit]]
    texts[~hit] = list(
        map(float.__repr__, bits[~hit].view(np.float64).tolist())
    )
    return texts


def _link_model(topology: Topology, inter_node: bool) -> CollectiveCostModel:
    if inter_node:
        return CollectiveCostModel(topology.inter_latency, topology.inter_node_bw)
    return CollectiveCostModel(topology.intra_latency, topology.intra_node_bw)


def _node_of(chip: int, topology: Topology) -> int:
    return chip // topology.chips_per_node

def _dp_group_spans_nodes(topology: Topology, plan: ParallelismPlan) -> bool:
    if plan.dp == 1:
        return False
    nodes = {
        _node_of((d * plan.pp) * plan.tp, topology) for d in range(plan.dp)
    }
    return len(nodes) > 1


def _boundary_crosses_nodes(
    stage: int, topology: Topology, plan: ParallelismPlan
) -> bool:
    a = _node_of(stage * plan.tp, topology)
    b = _node_of((stage + 1) * plan.tp, topology)
    return a != b


def build_cost_book(
    model: ModelSpec,
    stage: TrainingStage,
    plan: ParallelismPlan,
    topology: Topology,
    costmodel: CostModelConfig,
    partition: list[int],
    microbatches: MicrobatchPlan,
    workload: StepWorkload,
) -> CostBook:
    """Translate model arithmetic and link algebra into slot durations.

    A microbatch's durations depend only on its shape (sample count, padded
    length), so each stage prices each distinct shape once and repeats the
    values across its microbatches; likewise each distinct sync bucket size
    is priced once per stage.
    """
    p = plan.pp
    tp = plan.tp
    chip_rate = plan.tp * topology.chip.peak_flops
    intra = _link_model(topology, inter_node=False)

    shapes = [(len(batch), max(batch)) for batch in microbatches.batches]
    # stage-independent terms of each distinct shape: TP collective time
    # per layer and boundary bytes
    shape_terms = {}
    for size, seq in dict.fromkeys(shapes):
        activation_bytes = float(size * seq) * model.lm.hidden_size * 2.0
        if tp == 1:
            per_layer = 0.0
        elif plan.sequence_parallel:
            per_layer = 2.0 * collective_time(
                "allgather", activation_bytes, tp, intra
            ) + 2.0 * collective_time(
                "reducescatter", activation_bytes, tp, intra
            )
        else:
            per_layer = 2.0 * collective_time("allreduce", activation_bytes, tp, intra)
        boundary_bytes = activation_bytes
        if plan.sequence_parallel:
            boundary_bytes /= tp
        shape_terms[size, seq] = (per_layer, boundary_bytes)

    columns: list[list[list[float]]] = [[] for _ in range(6)]
    for i in range(p):
        layers = partition[i]
        send = recv = None
        if i < p - 1:
            send = _link_model(topology, _boundary_crosses_nodes(i, topology, plan))
        if i > 0:
            recv = _link_model(topology, _boundary_crosses_nodes(i - 1, topology, plan))
        priced = {}
        for (size, seq), (per_layer, boundary_bytes) in shape_terms.items():
            f_flops, b_flops = stage_flops(
                model, layers, i == 0, i == p - 1, size, seq,
                workload.visual_tokens_per_sample, plan.recompute,
            )
            tp_comm = layers * per_layer
            priced[size, seq] = (
                f_flops / chip_rate,
                b_flops / chip_rate,
                tp_comm,
                tp_comm,
                0.0 if send is None
                else collective_time("p2p", boundary_bytes, 2, send),
                0.0 if recv is None
                else collective_time("p2p", boundary_bytes, 2, recv),
            )
        # one row per CostBook list, in the field order of `priced` values
        for column, row in zip(columns, zip(*(priced[s] for s in shapes))):
            column.append(list(row))
    fwd, bwd, tp_fwd, tp_bwd, p2p_fwd, p2p_bwd = columns

    sync_buckets: list[list[float]] = []
    policy = costmodel.grad_sync
    dp_link = _link_model(topology, _dp_group_spans_nodes(topology, plan))
    for i in range(p):
        if plan.dp == 1:
            sync_buckets.append([])
            continue
        volume = stage_grad_bytes(
            model, stage, partition, i, tp, policy.precision_bytes
        )
        buckets = split_buckets(volume, policy.bucket_bytes)
        priced_buckets = {
            b: collective_time("allreduce", b, plan.dp, dp_link)
            for b in dict.fromkeys(buckets)
        }
        sync_buckets.append([priced_buckets[b] for b in buckets])
    return CostBook(
        fwd=fwd,
        bwd=bwd,
        tp_fwd=tp_fwd,
        tp_bwd=tp_bwd,
        p2p_fwd=p2p_fwd,
        p2p_bwd=p2p_bwd,
        sync_buckets=sync_buckets,
    )


def check_work_bound(
    model: ModelSpec,
    stage: TrainingStage,
    plan: ParallelismPlan,
    costmodel: CostModelConfig,
    partition: list[int] | None,
) -> None:
    """Refuse, from the config alone, a run above MAX_TRACE_ROWS.

    The estimate bounds one replica's trace from above: each of a stage's
    2m slots records its compute (up to fusion_chunks gated pieces when
    tp > 1), a TP collective and a p2p send; with dp > 1 each sync records
    each stage's buckets, at most stage bytes / bucket_bytes + 1. It
    runs before any microbatch is sampled or bucket list built. The key
    named is the one behind the larger of the slot and sync terms.
    `partition` is None when the pipeline is deeper than the model.
    """
    p = plan.pp
    m = plan.microbatches_per_step
    slot_rows = 2 * m * p * (plan.fusion_chunks + 2 if plan.tp > 1 else 2)
    sync_rows = 0.0
    if plan.dp > 1 and partition is not None:
        policy = costmodel.grad_sync
        volume = sum(
            stage_grad_bytes(
                model, stage, partition, i, plan.tp, policy.precision_bytes
            )
            for i in range(p)
        )
        syncs = m if policy.frequency == "per_microbatch" else 1
        sync_rows = (volume / policy.bucket_bytes + p) * syncs
    rows = slot_rows + sync_rows
    if rows > MAX_TRACE_ROWS:
        key = (
            "costmodel.grad_sync.bucket_bytes" if sync_rows > slot_rows
            else "plan.microbatches_per_step"
        )
        raise ValueError(
            f"at $.{key}: the run would record about {rows:.3g} trace rows, "
            f"more than the limit of {MAX_TRACE_ROWS:,}"
        )


def step_shape(
    model: ModelSpec,
    stage: TrainingStage,
    plan: ParallelismPlan,
    topology: Topology,
    costmodel: CostModelConfig,
    seed: int,
    workload: StepWorkload | None = None,
) -> tuple[StepWorkload, MicrobatchPlan, list[int]]:
    """The step's workload, microbatches and layer partition, checked.

    The one step-shape rule of `run` and of the CLI's `validate`: fill in
    the default workload, split the layers over the stages once, refuse
    unbounded work (check_work_bound), sample the microbatches, check the
    longest packed sequence against the context limit, and validate the
    plan, memory fit included, at the largest microbatch size and the
    longest sequence of the step. Raises ValueError, or
    PlanValidationError carrying the violations.
    """
    if workload is None:
        lengths = stage.seq_len_model
        budget = lengths.value if lengths.kind == "fixed" else lengths.cap
        workload = StepWorkload(microbatch_token_budget=budget)

    partition = None  # a pipeline deeper than the model: validate_plan refuses
    if plan.pp <= model.lm.layers:
        partition = partition_layers(model, plan.pp, plan.layer_balance)
    check_work_bound(model, stage, plan, costmodel, partition)
    microbatches = plan_step_microbatches(
        stage.seq_len_model, workload, plan.microbatches_per_step, seed
    )
    peak_size = max(len(b) for b in microbatches.batches)
    peak_seq = max(max(b) for b in microbatches.batches)
    if peak_seq > model.lm.context_limit:
        raise ValueError(
            f"packed sequence length {peak_seq} exceeds context limit "
            f"{model.lm.context_limit}"
        )

    violations = validate_plan(
        topology, plan, model, stage=stage, seq_len=peak_seq, microbatch=peak_size
    )
    if violations:
        raise PlanValidationError(violations)
    return workload, microbatches, partition


def run(
    model: ModelSpec,
    stage: TrainingStage,
    plan: ParallelismPlan,
    topology: Topology,
    costmodel: CostModelConfig,
    seed: int,
    workload: StepWorkload | None = None,
    cost_book: CostBook | None = None,
) -> Trace:
    """Simulate one optimizer step; returns the interval trace.

    The step shape is sampled and the plan validated (step_shape) before
    any timing work happens. `cost_book` overrides the computed work
    durations, which is how calibrated or synthetic costs are injected;
    everything else (schedule shape, overlap policy, sync placement) is
    unaffected by the override.
    """
    workload, microbatches, partition = step_shape(
        model, stage, plan, topology, costmodel, seed, workload
    )
    p = plan.pp
    m = plan.microbatches_per_step
    if cost_book is None:
        cost_book = build_cost_book(
            model, stage, plan, topology, costmodel,
            partition, microbatches, workload,
        )
    elif len(cost_book.fwd) != p or any(len(row) != m for row in cost_book.fwd):
        raise ValueError("injected cost_book shape does not match (pp, microbatches)")

    dual_stream = topology.chip.has_independent_comm_unit
    overlap_sync = (
        dual_stream and plan.overlap_grad_sync and costmodel.grad_sync.overlap
    )
    per_microbatch_sync = costmodel.grad_sync.frequency == "per_microbatch"
    chunks = plan.fusion_chunks

    stage_rows: list[list[Row]] = [[] for _ in range(p)]
    comp_free = [0.0] * p
    comm_free = [0.0] * p

    # rows are appended through bound methods behind the same end > start
    # test everywhere, so a zero-length or NaN interval is never recorded
    appends = [rows.append for rows in stage_rows]
    # (lump, comp) -> fused span and per-chunk transfer/GEMM times; a slot
    # shape repeats across microbatches, so each pair is priced once per run
    fused: dict[tuple[float, float], tuple[float, float, float]] = {}

    def execute_slot(i: int, kind: str, k: int, dep: float) -> float:
        """Run one slot from `dep` on; return its output's hand-off time."""
        mb = k - 1
        append = appends[i]
        if kind == FORWARD:
            comp = cost_book.fwd[i][mb]
            lump = cost_book.tp_fwd[i][mb]
            label = LABEL_FWD
        else:
            comp = cost_book.bwd[i][mb]
            lump = cost_book.tp_bwd[i][mb]
            label = LABEL_BWD

        if dual_stream:
            if lump > 0.0:
                start = max(comp_free[i], comm_free[i], dep)
                timing = fused.get((lump, comp))
                if timing is None:
                    timing = fused[lump, comp] = (
                        fused_allgather_gemm_time(lump, comp, chunks),
                        lump / chunks,
                        comp / chunks,
                    )
                span, tc, tg = timing
                comm_end = start + lump
                if comm_end > start:
                    append((COMM, start, comm_end, LABEL_COLLECTIVE, mb))
                comm_free[i] = comm_end
                end = start + span
                if tc <= tg or comp == 0.0:
                    gemm_start = start + tc
                    if end > gemm_start:
                        append((COMPUTE, gemm_start, end, label, mb))
                else:
                    # GEMM chunks gated by transfer chunks, with gaps; a
                    # piece ends no later than the next one starts, and the
                    # last where compute is freed, not an ulp past either
                    for j in range(1, chunks + 1):
                        cs = start + j * tc
                        ce = (min(cs + tg, start + (j + 1) * tc)
                              if j < chunks else end)
                        if ce > cs:
                            append((COMPUTE, cs, ce, label, mb))
            else:
                start = max(comp_free[i], dep)
                end = start + comp
                if end > start:
                    append((COMPUTE, start, end, label, mb))
            comp_free[i] = end
        else:
            t = max(comp_free[i], dep)
            if lump > 0.0:
                if t + lump > t:
                    append((COMM, t, t + lump, LABEL_COLLECTIVE, mb))
                t += lump
            end = t + comp
            if end > t:
                append((COMPUTE, t, end, label, mb))
            comp_free[i] = end
            comm_free[i] = end

        if kind == FORWARD:
            return _send(i, cost_book.p2p_fwd[i][mb], mb) if i < p - 1 else end
        handoff = _send(i, cost_book.p2p_bwd[i][mb], mb) if i > 0 else end
        if cost_book.sync_buckets[i] and (per_microbatch_sync or k == m):
            _sync(i, comp)
        return handoff

    def _send(i: int, duration: float, mb: int) -> float:
        """Send stage i's slot output; return its arrival time."""
        if duration <= 0.0:
            return comp_free[i]
        t0 = max(comp_free[i], comm_free[i]) if dual_stream else comp_free[i]
        t1 = t0 + duration
        if t1 > t0:
            appends[i]((COMM, t0, t1, LABEL_P2P, mb))
        if not dual_stream:
            comp_free[i] = t1
        comm_free[i] = t1
        return t1

    def _sync(i: int, producing_compute: float) -> None:
        buckets = cost_book.sync_buckets[i]
        append = appends[i]
        if overlap_sync:
            # buckets become ready progressively across the producing backward
            n = len(buckets)
            produce_start = comp_free[i] - producing_compute
            free = comm_free[i]
            for j, dur in enumerate(buckets, 1):
                ready = produce_start + producing_compute * j / n
                t = free if free > ready else ready  # max(ready, free)
                free = t + dur
                if free > t:
                    append((COMM, t, free, LABEL_SYNC, None))
            comm_free[i] = free
        else:
            # comm unit may still be draining the stage's own p2p send
            t = max(comp_free[i], comm_free[i])
            for dur in buckets:
                end = t + dur
                if end > t:
                    append((COMM, t, end, LABEL_SYNC, None))
                t = end
            comp_free[i] = t
            comm_free[i] = t

    execute(build_1f1b(p, m), execute_slot)

    trace = Trace(
        dp=plan.dp,
        tp=plan.tp,
        pp=p,
        makespan=max(max(comp_free), max(comm_free)),
        seed=seed,
        stage_rows=stage_rows,
        microbatch_sizes=[len(b) for b in microbatches.batches],
        microbatch_seq_lens=[max(b) for b in microbatches.batches],
        visual_tokens_per_sample=workload.visual_tokens_per_sample,
    )
    trace.check_invariants()
    return trace


def step_training_flops(trace: Trace, model: ModelSpec, plan: ParallelismPlan) -> float:
    """Whole-cluster training FLOPs for the traced step.

    Each distinct (size, seq) shape is priced once; the sum still runs in
    microbatch order, so the result is bit-identical to summing per batch.
    """
    priced: dict[tuple[int, int], float] = {}
    total = 0.0
    for shape in zip(trace.microbatch_sizes, trace.microbatch_seq_lens):
        flops = priced.get(shape)
        if flops is None:
            flops = priced[shape] = step_flops(
                model,
                *shape,
                visual_tokens=trace.visual_tokens_per_sample,
                recompute=plan.recompute,
            )
        total += flops
    return total * trace.dp
