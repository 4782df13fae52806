"""Deterministic discrete-event simulation of one training step.

Each chip has two resources, a compute unit and a communication unit,
reflecting hardware where the two are physically separate and bypass
streams let transfers run beside matrix work. With
`chip.has_independent_comm_unit` off, the chip is one unit: its comm
timeline is its compute timeline, so every transfer serializes with the
matrix work. That conventional single-stream chip is the baseline for the
overlap comparisons; both kinds of chip run the same timing rules below.

Cost construction and timing rules, in one place:

  * step_shape checks the plan's shape, bounds the work, splits the
    layers, samples the microbatches and checks the memory fit before any
    timing, raising ConfigError; `validate` runs it too, and `run` reads
    its split, shapes and memory figure instead of deriving them again
    (the CLI hands each run the shape it checked);
  * compute durations are arch.stage_flops of the stage (forward, and
    backward with its recompute extra) divided by tp * peak_flops, priced
    for all of the step's distinct microbatch shapes at once;
  * TP collectives inside a stage are aggregated into one per-slot comm
    lump (2 allgather + 2 reducescatter per layer and direction under
    sequence parallelism, 2 allreduce otherwise), and the lump overlaps
    its slot's compute through the chunked allgather+GEMM fusion pipeline,
    whose span (fused_allgather_gemm_time) is priced before the loop;
  * slots run in one flat loop in build_1f1b's run order. A slot starts
    no earlier than the hand-off it waits for, a p2p arrival or (last
    stage's backward) its own forward's end, read by its dependency index;
  * stage boundary activations travel as p2p events that occupy the
    sender's comm unit only (DMA-style; the receiver just observes the
    arrival time);
  * each stage syncs comm.stage_grad_bytes in buckets, which become ready
    progressively across its last backward (per-step sync) or every
    backward (per-microbatch sync) and queue FIFO on the comm unit when
    overlapped, else run serially after the producing backward. The queue
    is a max-plus chain, free = max(ready_j, free) + dur_j. Readiness
    never decreases in j, nor does free (durations are >= 0), so once
    free reaches the last bucket's readiness every later bucket starts at
    free, or the first's if each bucket but the last outlasts the readiness
    step by a rounding margin: the loop steps the chain as scalars only
    until then (so at most one bucket of such a comm-bound chain) and folds
    the queued tail's durations into free left to right, each run of equal
    durations in one add where that gives the same float (_fold_equal);
  * the optimizer update itself is charged zero time.

Durations depend on a microbatch only through its shape, so the cost book
indexes the step's distinct (microbatch size, padded length) shapes once
and prices them all in one array expression per quantity: arch.stage_flops
and comm.collective_time work elementwise on numpy arrays, each element
the float of the scalar call. The FLOPs take one call over every stage
(its layer count and first/last flags down a column, the shapes along a
row), the TP lump one or two and the p2p one per kind of link; one gather
by the index gives every field's (stage, microbatch) array. The run's
distinct sync bucket sizes are priced in one call as well. Nothing is
cached across runs.

All DP replicas execute identical work on an identical sampled length
schedule, and validate_plan checks that every replica crosses nodes at
the stage boundaries replica 0 crosses at, so replica 0's links price
every replica. One replica is simulated at stage-group granularity and
the trace expands lazily to every (replica, tp-rank) chip. Event times
are double-precision seconds and the whole construction is an arithmetic
fold over the schedule, so a given (inputs, seed) pair is
bit-reproducible.

The trace's record is one numpy array per column for the run: each row's
start, end, kind (an index into Trace.kinds, its resource and label) and
microbatch.
The event loop keeps each slot's start and send start (its end when it
sends nothing); and of each sync the slot it follows, the starts it
stepped before its queue was proven and where its queued tail begins.
Each row's times
follow from its slot's start by fixed additions, so after the step one
array pass (_trace_columns) builds every row of the run in a fixed number
of numpy calls per sync bucket count: each time is the loop's own IEEE
operation on the slot's costs, gathered from the book, and the loop's
end > start tests become masks. One (syncs x buckets) matrix per bucket
count, no sync padded to a longer list, gives every queued bucket's start
by one row-wise np.cumsum, a sequential add, so the fold's own additions.
The rows are laid out stage after stage, and within a stage in sub-blocks
by resource: the compute rows, then the comm rows, each in event order (a
slot's collective, p2p send, then the buckets of the sync that follows it).
One cumulative sum of the rows per (stage, resource, slot) gives each
row's place, and the rows are scattered straight into one start, end, kind
and microbatch array for the run; Trace.offsets keeps the sub-blocks'
bounds. The scans over every row read slices: the invariant check is one
comparison over the run, compute busy time sums each stage's compute
slice, and the comm overlap reads each stage's compute and comm slices.
Their sums add left to right, in row order, so they give the floats that
row-by-row loops give.

The writers read one more view, built on a writer's first use only: each
stage's rows in writing order (start, compute first, end, label), one
np.lexsort permutation per stage, kept in one array stage after stage.
trace.jsonl is assembled from it by gathers, a chunk of rows at a time in
that order across stage boundaries, formatting each distinct time of a
chunk once. gantt.svg picks each drawn (stage, resource) lane's rows from
it by comparing their places with the sub-block's bounds, gathers the
first of them, formats every x and width of the chart in one pass, and
draws each lane once, as a def that every chip's lane of that stage places
with <use>.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property, reduce
from itertools import chain, groupby, repeat
from operator import add
from typing import NamedTuple

import numpy as np

from .arch import ModelSpec, stage_flops, step_flops
from .cluster import (
    ConfigError,
    MemoryBreakdown,
    ParallelismPlan,
    PlanViolation,
    Topology,
    group_nodes,
    memory_per_chip,
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
from .schedule import build_1f1b
from .workload import (
    MicrobatchPlan,
    StepWorkload,
    TrainingStage,
    plan_step_microbatches,
    trainable_param_count,
)

COMPUTE = "compute"
COMM = "comm"

LABEL_FWD = "fwd"
LABEL_BWD = "bwd"
LABEL_COLLECTIVE = "collective"
LABEL_P2P = "p2p"
LABEL_SYNC = "sync_bucket"

# (resource, label) of each kind of row the engine records; a row's kind
# column holds its index here
KINDS = (
    (COMPUTE, LABEL_FWD),
    (COMPUTE, LABEL_BWD),
    (COMM, LABEL_COLLECTIVE),
    (COMM, LABEL_P2P),
    (COMM, LABEL_SYNC),
)
KIND_FWD, KIND_BWD, KIND_COLLECTIVE, KIND_P2P, KIND_SYNC = range(len(KINDS))

# Rows trace.jsonl formats and joins at a time, taken in writing order
# across stage boundaries. It bounds the writer's memory: about 1.5 MiB at
# once with the chunk before's texts kept for their hand-offs. A time
# recurs within a few rows of that order, so a chunk of this size, handed
# the chunk before's texts, formats about as few times as whole stages do.
JSONL_CHUNK_ROWS = 4096

# Slots the loop reads from its numpy columns as lists at a time: flagship's
# engine.run peaks at 3.0 MiB traced so, 4.4 MiB with whole-run lists.
LOOP_CHUNK_SLOTS = 256

# Largest run accepted, in estimated trace rows of one replica (see
# check_work_bound). The deepest planning point in use, pp=80 with 4096
# microbatches, estimates 6.6M rows (it records 2.0M).
MAX_TRACE_ROWS = 20_000_000


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

    Normally built from the model and topology, each duration field a
    (stage, microbatch) float64 array; a caller may inject one to run the
    scheduler over calibrated or synthetic (e.g. uniform) costs, each
    finite and none negative, its fields p rows of m numbers as arrays or
    nested lists alike. sync_buckets is [stage][bucket], a ragged list of
    each stage's bucket durations.
    """

    fwd: np.ndarray
    bwd: np.ndarray
    tp_fwd: np.ndarray
    tp_bwd: np.ndarray
    p2p_fwd: np.ndarray
    p2p_bwd: np.ndarray
    sync_buckets: list[list[float]]


class TraceColumns(NamedTuple):
    """A run's rows as columns, in recorded order (see Trace)."""

    start: np.ndarray  # float64
    end: np.ndarray  # float64
    kind: np.ndarray  # small unsigned int, an index into Trace.kinds
    microbatch: np.ndarray  # int64, -1 for a row of no microbatch


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
    (replica * pp + stage) * tp + rank, the numbering cluster.group_nodes
    places on nodes. `memory` is the per-chip estimate step_shape checked
    against chip memory; trace.jsonl does not write it.

    The record is `columns`, one array per column for the run, stage
    after stage; a row's kind indexes `kinds`, its (resource, label) pair.
    A stage's rows are grouped into sub-blocks by resource: compute, then
    comm, then any other resource (only test traces hold one), each in
    event order. offsets[3i], offsets[3i + 1] and offsets[3i + 2] are the
    first rows of stage i's compute, comm and other sub-blocks, and
    offsets[3i + 3] is where the stage ends; the last offset is the row
    count. A Trace is read-only once `run` returns: the writers' row order
    is derived from the columns on first use and cached, so a later edit of
    the columns would leave it stale.
    """

    dp: int
    tp: int
    pp: int
    makespan: float
    seed: int
    columns: TraceColumns
    offsets: np.ndarray
    microbatch_sizes: list[int]
    microbatch_seq_lens: list[int]
    visual_tokens_per_sample: int
    memory: MemoryBreakdown
    kinds: tuple[tuple[str, str], ...] = KINDS

    @property
    def total_chips(self) -> int:
        return self.dp * self.tp * self.pp

    @property
    def tokens_per_step(self) -> int:
        return self.dp * sum(
            size * seq
            for size, seq in zip(self.microbatch_sizes, self.microbatch_seq_lens)
        )

    @property
    def stage_rows(self) -> list[list[tuple]]:
        """Each stage's rows as (resource, start, end, label, microbatch)
        tuples, microbatch None for -1, built from the columns on every
        read: a view for readers outside vlmsim, which never reads it."""
        kinds = map(self.kinds.__getitem__, self.columns.kind.tolist())
        rows = [
            (resource, start, end, label, None if mb < 0 else mb)
            for (resource, label), start, end, mb in zip(
                kinds, self.columns.start.tolist(), self.columns.end.tolist(),
                self.columns.microbatch.tolist(),
            )
        ]
        bounds = self.offsets[::3].tolist()
        return [rows[a:b] for a, b in zip(bounds, bounds[1:])]

    @cached_property
    def writer_order(self) -> np.ndarray:
        """Each stage's rows in writing order, as places in the stage (a
        permutation of 0 .. rows - 1), stage after stage. Built on a
        writer's first use.

        Writing order is start, compute before every other resource, end,
        then label in Python string order. np.lexsort is stable, so rows
        that tie on all four keep recorded order. The engine records each
        stage's rows by resource, each resource's in event order; only the
        writers need this one, so a run whose trace is never written never
        sorts.
        """
        resource_rank = np.array([res != COMPUTE for res, _ in self.kinds])
        labels = sorted({label for _, label in self.kinds})
        # small integer keys: np.lexsort sorts them faster than int64 ones
        label_rank = np.array([labels.index(label) for _, label in self.kinds],
                              np.min_scalar_type(len(labels)))
        start, end, kind, _ = self.columns
        bounds = self.offsets[::3].tolist()
        # the order outlives the writers with its trace, so it is kept in
        # the narrowest unsigned type that holds its values
        order = np.empty(len(start), np.min_scalar_type(
            max(np.diff(bounds), default=0)))
        for a, b in zip(bounds, bounds[1:]):
            order[a:b] = np.lexsort((
                np.take(label_rank, kind[a:b]), end[a:b],
                np.take(resource_rank, kind[a:b]), start[a:b],
            ))
        return order

    def stage_compute_busy(self) -> list[float]:
        """Each stage's compute seconds, its compute sub-block summed in
        row order."""
        start, end = self.columns.start, self.columns.end
        offsets = self.offsets.tolist()
        return [
            sequential_sum(end[a:b] - start[a:b])
            for a, b in zip(offsets[::3], offsets[1::3])
        ]

    def check_invariants(self) -> None:
        """Raise AssertionError at the first bad row of the first bad pass.

        A pass is a compute or comm sub-block, so the passes run stage by
        stage, compute before comm; within a pass, in row order, every
        interval must be positive and start no earlier than 1e-15 before
        the previous interval's end. Rows of other resources are not
        checked. One comparison over the run finds every bad row, each
        sub-block's first row compared against an end of -1.0.
        """
        if not math.isfinite(self.makespan):
            raise AssertionError(f"makespan {self.makespan} is not finite")
        start, end, kind, _ = self.columns
        # each row's previous end in its sub-block, less the tolerance
        floor = np.concatenate(([-1.0], end))
        floor[self.offsets] = -1.0
        floor -= 1e-15
        not_positive = ~(start < end)  # also true when either is NaN
        bad = np.flatnonzero(not_positive | (start < floor[:-1]))
        # each bad row's sub-block, 3 * stage + (0 compute, 1 comm, 2 other)
        block = np.searchsorted(self.offsets, bad, "right") - 1
        checked = np.flatnonzero(block % 3 != 2)
        if not checked.size:
            return
        row = bad[checked[0]]
        stage, resource = divmod(int(block[checked[0]]), 3)
        if not_positive[row]:
            _, label = self.kinds[kind[row]]
            raise AssertionError(f"stage {stage} {label} interval not positive")
        raise AssertionError(
            f"stage {stage} overlapping {(COMPUTE, COMM)[resource]} intervals"
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            handle.writelines(self._jsonl_texts())

    def _jsonl_texts(self):
        """The meta line, then chunks of interval lines, each line ending in
        a newline.

        A line is six fragments: the head (stage and resource), start,
        ',"end":', end, the label and the microbatch. Heads are formatted
        once per (stage, kind), labels once per kind and microbatches once
        per trace, into a table indexed by microbatch + 1 (-1 and below
        print null). The rows are taken JSONL_CHUNK_ROWS at a time in
        writing order, stage after stage, so a chunk may span the end of
        one stage and the start of the next. Each distinct time of a chunk
        is formatted once: times are told apart by bit pattern, so -0.0 and
        0.0 stay apart, and a time the chunk before also held takes that
        chunk's text (_time_texts), which carries the hand-off times two
        adjacent stages share across the boundary. Times are finite
        (check_invariants).
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
        bounds = self.offsets[::3]
        resources = [json.dumps(res) for res, _ in self.kinds]
        heads = np.array([
            f'{{"stage":{stage},"resource":{res},"start":'
            for stage in range(len(bounds) - 1) for res in resources
        ], object)
        label_texts = np.array([
            f',"label":{json.dumps(label)},"microbatch":'
            for _, label in self.kinds
        ], object)
        # the text of each microbatch the trace holds, at microbatch + 1
        microbatch = self.columns.microbatch
        present = np.zeros(int(microbatch.max(initial=-1)) + 2, bool)
        for a, b in zip(bounds.tolist(), bounds[1:].tolist()):
            present[np.maximum(microbatch[a:b], -1) + 1] = True
        microbatch_texts = np.empty(len(present), object)
        microbatch_texts[present] = [
            f'{"null" if code == 0 else code - 1}}}\n'
            for code in np.flatnonzero(present).tolist()
        ]
        known = (np.empty(0, np.int64), np.empty(0, object))
        stage_heads = np.arange(len(bounds) - 1) * len(self.kinds)
        for first in range(0, len(self.writer_order), JSONL_CHUNK_ROWS):
            at = self.writer_order[first:first + JSONL_CHUNK_ROWS]
            n = len(at)
            # the order runs stage after stage, as the rows do, so a stage's
            # bounds hold its rows' places in the order too
            rows = np.diff(np.clip(bounds, first, first + n))
            at = at + np.repeat(bounds[:-1], rows)
            start, end, kind, microbatch = (column[at] for column in self.columns)
            head = kind + np.repeat(stage_heads, rows)
            bits, inverse = np.unique(
                np.concatenate((start, end)).view(np.int64),
                return_inverse=True,
            )
            known = (bits, _time_texts(bits, *known))
            times = known[1][inverse]
            fragments = [',"end":'] * (6 * n)
            fragments[0::6] = heads[head].tolist()
            fragments[1::6] = times[:n].tolist()
            fragments[3::6] = times[n:].tolist()
            fragments[4::6] = label_texts[kind].tolist()
            fragments[5::6] = microbatch_texts[
                np.maximum(microbatch, -1) + 1
            ].tolist()
            yield "".join(fragments)


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


def _distinct_shapes(
    shapes: list[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (size, seq) shapes in order of first appearance, as
    int64 size and length arrays, and each given shape's index into them."""
    distinct = {shape: k for k, shape in enumerate(dict.fromkeys(shapes))}
    index = np.fromiter(map(distinct.__getitem__, shapes), np.intp,
                        len(shapes))
    sizes, seqs = np.array(list(distinct), np.int64).reshape(-1, 2).T
    return sizes, seqs, index


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
    length), so the distinct shapes are indexed once and priced in array
    calls whose number does not grow with them: one stage_flops call for
    every stage and shape, and the collectives of the module docstring; one
    gather by the index repeats the values across the microbatches, giving
    the six (p, m) duration arrays. The run's distinct sync bucket sizes
    are priced in one call too.
    """
    p = plan.pp
    tp = plan.tp
    chip_rate = plan.tp * topology.chip.peak_flops
    intra = _link_model(topology, inter_node=False)
    # every replica is priced as replica 0 (validate_plan refuses a layout
    # where that is false): its row gives the p2p links, and stage 0's
    # column the DP link
    nodes = group_nodes(topology, plan)
    crosses = (np.diff(nodes[0]) != 0).tolist()

    sizes, seqs, index = _distinct_shapes(microbatches.shapes)
    # stage-independent terms of each shape: TP collective time per layer
    # and boundary bytes
    activation_bytes = 1.0 * (sizes * seqs) * model.lm.hidden_size * 2.0
    if tp == 1:
        per_layer = 0.0
    elif plan.sequence_parallel:
        per_layer = 2.0 * collective_time(
            "allgather", activation_bytes, tp, intra
        ) + 2.0 * collective_time("reducescatter", activation_bytes, tp, intra)
    else:
        per_layer = 2.0 * collective_time("allreduce", activation_bytes, tp, intra)
    boundary_bytes = activation_bytes
    if plan.sequence_parallel:
        boundary_bytes = boundary_bytes / tp

    # priced[field, stage, shape], fields in CostBook order; every stage
    # in one call, its layer count and end flags down a column
    priced = np.zeros((6, p, len(sizes)))
    layers = np.array(partition)[:, None]
    stage_index = np.arange(p)[:, None]
    priced[:2] = stage_flops(
        model, layers, stage_index == 0, stage_index == p - 1, sizes, seqs,
        workload.visual_tokens_per_sample, plan.recompute,
    )
    priced[:2] /= chip_rate
    priced[2:4] = layers * per_layer
    # a stage sends forward over the boundary after it and backward over
    # the one before it: the first sends nothing backward, the last nothing
    # forward
    over_link = {
        crossing: collective_time(
            "p2p", boundary_bytes, 2, _link_model(topology, crossing)
        )
        for crossing in dict.fromkeys(crosses)
    }
    for b, crossing in enumerate(crosses):
        priced[4, b] = priced[5, b + 1] = over_link[crossing]
    fwd, bwd, tp_fwd, tp_bwd, p2p_fwd, p2p_bwd = priced[:, :, index]

    # the run's distinct bucket sizes (full buckets and each stage's
    # remainder) priced in one call; each bucket reads its size's time
    policy = costmodel.grad_sync
    bucket_lists = [
        split_buckets(
            stage_grad_bytes(model, stage, partition, i, tp,
                             policy.precision_bytes),
            policy.bucket_bytes,
        ) if plan.dp > 1 else []
        for i in range(p)
    ]
    dp_link = _link_model(topology, bool((nodes[:, 0] != nodes[0, 0]).any()))
    bucket_sizes = list(dict.fromkeys(chain.from_iterable(bucket_lists)))
    bucket_time = dict(zip(bucket_sizes, collective_time(
        "allreduce", np.array(bucket_sizes, np.float64), plan.dp, dp_link,
    ).tolist()))
    sync_buckets = [list(map(bucket_time.__getitem__, b)) for b in bucket_lists]
    return CostBook(fwd, bwd, tp_fwd, tp_bwd, p2p_fwd, p2p_bwd, sync_buckets)


def check_work_bound(
    model: ModelSpec,
    stage: TrainingStage,
    plan: ParallelismPlan,
    costmodel: CostModelConfig,
) -> None:
    """Refuse, from the config alone, a run above MAX_TRACE_ROWS.

    The estimate bounds one replica's trace from above: each of a stage's
    2m slots records its compute (up to fusion_chunks gated pieces when
    tp > 1), a TP collective and a p2p send; with dp > 1 each sync records
    each stage's buckets, at most stage bytes / bucket_bytes + 1. The
    stages' bytes add up to the step's trainable params, sharded 1/tp, at
    the sync precision. It runs before the layers are split, any
    microbatch sampled or bucket list built. The key named is the one
    behind the larger of the slot and sync terms.
    """
    p = plan.pp
    m = plan.microbatches_per_step
    slot_rows = 2 * m * p * (plan.fusion_chunks + 2 if plan.tp > 1 else 2)
    sync_rows = 0.0
    if plan.dp > 1:
        policy = costmodel.grad_sync
        volume = (
            trainable_param_count(model, stage) / plan.tp * policy.precision_bytes
        )
        syncs = m if policy.frequency == "per_microbatch" else 1
        sync_rows = (volume / policy.bucket_bytes + p) * syncs
    rows = slot_rows + sync_rows
    if rows > MAX_TRACE_ROWS:
        key = (
            "costmodel.grad_sync.bucket_bytes" if sync_rows > slot_rows
            else "plan.microbatches_per_step"
        )
        raise ConfigError(
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
) -> tuple[StepWorkload, MicrobatchPlan, list[int], MemoryBreakdown]:
    """The step's workload, microbatches, layer partition and per-chip
    memory estimate, checked: the one place a run derives them.

    The one step-shape rule of `run` and of the CLI's `validate`. It checks
    in the order things can fail: the plan's shape (validate_plan); then
    the work bound (check_work_bound); then, with the layers split once and
    the microbatches sampled, the context limit and the memory fit at
    the step's largest microbatch size and longest sequence. Every refusal
    is a ConfigError, with the plan violations if any.
    """
    violations = validate_plan(topology, plan, model)
    if violations:
        raise ConfigError("; ".join(v.message for v in violations), violations)
    if workload is None:
        lengths = stage.seq_len_model
        budget = lengths.value if lengths.kind == "fixed" else lengths.cap
        workload = StepWorkload(microbatch_token_budget=budget)

    check_work_bound(model, stage, plan, costmodel)
    partition = partition_layers(model, plan.pp, plan.layer_balance)
    microbatches = plan_step_microbatches(
        stage.seq_len_model, workload, plan.microbatches_per_step, seed
    )
    peak_size, peak_seq = map(max, zip(*microbatches.shapes))
    if peak_seq > model.lm.context_limit:
        raise ConfigError(
            f"packed sequence length {peak_seq} exceeds context limit "
            f"{model.lm.context_limit}"
        )

    memory = memory_per_chip(model, plan, stage, partition, peak_seq, peak_size)
    if memory.total > topology.chip.memory:
        fit = PlanViolation(
            constraint="memory-fit",
            message=(
                f"estimated {memory.total:.3e} B exceeds chip memory "
                f"{topology.chip.memory:.3e} B; dominant term is "
                f"{memory.dominant_term()}"
            ),
        )
        raise ConfigError(fit.message, [fit])
    return workload, microbatches, partition, memory


def run(
    model: ModelSpec,
    stage: TrainingStage,
    plan: ParallelismPlan,
    topology: Topology,
    costmodel: CostModelConfig,
    seed: int,
    workload: StepWorkload | None = None,
    cost_book: CostBook | None = None,
    *,
    shape: tuple | None = None,
) -> Trace:
    """Simulate one optimizer step; returns the interval trace.

    The step shape is sampled and the plan validated (step_shape) before
    any timing work happens. `shape` is step_shape's result for these same
    arguments, from a caller that has checked it already, and is then not
    derived again. `cost_book` overrides the computed work durations,
    which is how calibrated or synthetic costs are injected; everything
    else (schedule shape, overlap policy, sync placement) is unaffected by
    the override.
    """
    workload, microbatches, partition, memory = shape or step_shape(
        model, stage, plan, topology, costmodel, seed, workload
    )
    p = plan.pp
    m = plan.microbatches_per_step
    if cost_book is None:
        cost_book = build_cost_book(
            model, stage, plan, topology, costmodel,
            partition, microbatches, workload,
        )
    else:
        _check_injected(cost_book, p, m)

    dual_stream = topology.chip.has_independent_comm_unit
    overlap_sync = (
        dual_stream and plan.overlap_grad_sync and costmodel.grad_sync.overlap
    )
    chunks = plan.fusion_chunks

    _, _, codes, order, depends = build_1f1b(p, m)
    costs = _slot_costs(cost_book, codes, dual_stream, chunks)
    # plain floats, as the slot costs: numpy books give plain times
    sync_buckets = [list(map(float, b)) for b in cost_book.sync_buckets]
    # each stage's shortest bucket that another bucket queues behind, and
    # its buckets as runs (duration, count) of equal durations; == joins
    # 0.0 and -0.0, which add alike to a time (never -0.0)
    gaps = [min(b[:-1], default=math.inf) for b in sync_buckets]
    sync_runs = [[(d, len(list(g))) for d, g in groupby(b)]
                 for b in sync_buckets]
    # the loop's columns, in run order: each slot's stage, its dependency's
    # index in `handoffs`, whether its lump is fused, 0 or (a backward a
    # sync follows) its index in `producing`, the GEMM its buckets are
    # ready across (0.0 unless the sync overlaps); its span, lump, send
    stage_of = order // (2 * m)
    run_codes = codes[order]
    syncing = ((run_codes < 0)
               & np.array(list(map(bool, sync_buckets)))[stage_of])
    if costmodel.grad_sync.frequency != "per_microbatch":
        syncing &= run_codes == -m
    ints = np.stack((stage_of, depends,
                     (costs[2][order] > 0.0) & dual_stream,
                     np.cumsum(syncing) * syncing))
    producing = [0.0] + (costs[0][order[syncing]] * overlap_sync).tolist()
    floats = np.stack(costs[1:])[:, order]
    del stage_of, run_codes, syncing, depends

    # each slot's start and send start t0, in run order; per sync, the run
    # position of the slot it follows, its queued tail's first bucket and
    # entry free time, and the starts before the tail (_trace_columns)
    starts: list[float] = []
    sends: list[float] = []
    handoffs = [0.0]  # the slot run r-th hands off at r + 1
    syncs: list[list] = [[] for _ in range(p)]
    sync_starts: list[list[float]] = [[] for _ in range(p)]
    comp_free = [0.0] * p
    # a single-stream chip's comm unit is its compute unit
    comm_free = [0.0] * p if dual_stream else comp_free
    start_append, send_append = starts.append, sends.append
    handoff_append = handoffs.append
    for first in range(0, len(order), LOOP_CHUNK_SLOTS):
        chunk = slice(first, first + LOOP_CHUNK_SLOTS)
        for i, dep, fused, sync, span, lump, send in zip(
            *ints[:, chunk].tolist(), *floats[:, chunk].tolist()
        ):
            dep = handoffs[dep]
            start = comp_free[i]
            if dep > start:
                start = dep
            if fused:
                free = comm_free[i]
                if free > start:
                    start = free
                comm_free[i] = start + lump
                end = start + span
            else:
                # a single-stream chip runs its lump first
                end = (start + lump if lump > 0.0 else start) + span
            comp_free[i] = end
            start_append(start)

            # the send holds the comm unit (a single-stream chip's compute
            # unit too); its arrival is the hand-off
            if send > 0.0:
                free = comm_free[i]
                t0 = free if free > end else end  # max(end, free)
                handoff = t0 + send
                comm_free[i] = handoff
            else:
                t0 = handoff = end
            send_append(t0)
            handoff_append(handoff)
            if not sync:
                continue

            buckets = sync_buckets[i]
            n = len(buckets)
            compute = producing[sync]
            if overlap_sync:
                # buckets become ready progressively across the backward
                produce_start = comp_free[i] - compute
                free = comm_free[i]
            else:
                # every bucket is ready once the producing backward and the
                # stage's own p2p send are done; compute waits for the last
                free = produce_start = max(comp_free[i], comm_free[i])
            # the max-plus chain free = max(ready_j, free) + dur_j, stepped
            # while free < stop. ready_j and free never decrease, so once free
            # reaches the last readiness r_n every later bucket starts at
            # free; a comm-bound chain (the test) stops at r_1. Proof, with
            # u = 2^-53, c = compute, ps = produce_start, the loop's
            # r_k = fl(ps + q_k), q_k = fl(fl(c k) / n): a passing test's
            # margin is finite, so are c n, ps + c n and every r_k. c k is
            # within u, the division within u plus 2^-1075 (subnormals), the
            # add within u of |ps + q_k|, and ps >= -c (fl(comp_free - c);
            # off overlap ps >= 0, c = 0), so r_{k+1} - r_k <= c/n + u (2 ps
            # + 9 c) + 3 * 2^-1075 for k < n, which the test, itself rounded,
            # exceeds by u c / 2 + 1e-300 / 2 (n >= 2). Then d_k >= gap
            # (k < n) gives r_k + d_k >= r_{k+1}: a bucket starting at
            # s >= r_k ends at fl(s + d_k) >= r_{k+1} (monotone rounding,
            # r_{k+1} a float), so the next starts at free (a tie takes
            # ready, the same bits: no time is -0.0), and by induction every
            # later one once free >= r_1, after one step at most. n = 1
            # (gap inf) and c = 0 give r_1 = r_n; gap = 0 always fails (the
            # 1e-300 is needed at c = 5e-324, n = 2: r_2 > r_1 = ps = 0)
            step = compute / n
            margin = 1e-15 * (produce_start + compute * n) + 1e-300
            stop = produce_start + (
                step if gaps[i] >= step + margin else compute * n / n)
            j = 0
            while free < stop:
                j += 1
                ready = produce_start + compute * j / n
                bucket_start = free if free > ready else ready
                sync_starts[i].append(bucket_start)
                free = bucket_start + buckets[j - 1]
            syncs[i].extend((len(starts) - 1, j, free))
            # free = free + dur for bucket j on, in turn (builtin sum
            # compensates from Python 3.12, fsum and np.sum add in other
            # orders); each run of equal durations past the j stepped
            # buckets in one add where that gives the same float
            for dur, k in sync_runs[i]:
                if j < k:
                    free = _fold_equal(free, dur, k - j)
                    j = 0
                else:
                    j -= k
            comm_free[i] = free
            if not overlap_sync:
                comp_free[i] = free
    del ints, floats, producing, handoffs, handoff_append

    columns, offsets = _trace_columns(
        order, codes, costs, starts, sends, syncs, sync_starts, sync_buckets,
        dual_stream, chunks)
    trace = Trace(
        dp=plan.dp, tp=plan.tp, pp=p,
        makespan=max(max(comp_free), max(comm_free)), seed=seed,
        columns=columns, offsets=offsets,
        microbatch_sizes=[size for size, _ in microbatches.shapes],
        microbatch_seq_lens=[seq for _, seq in microbatches.shapes],
        visual_tokens_per_sample=workload.visual_tokens_per_sample,
        memory=memory,
    )
    trace.check_invariants()
    return trace


def _fold_equal(x: float, d: float, k: int) -> float:
    """reduce(add, [d] * k, x) bit for bit, for d >= 0 or -0.0 (run
    refuses negative injected durations): in O(1) when x is normal, q =
    d / u (u = ulp(x)) is under 2^52 and no tie, and t = x + k r u (r =
    round(q)) is under 2^53 u; otherwise in turn.

    Proof. x lies in [2^e, 2^(e+1)), whose floats, and 2^(e+1), are the
    multiples of u = 2^(e-52). q is exact, u being a power of two (or it
    underflows, below 1/2 as d / u is, and r = 0). By monotone rounding
    the float t is below 2^(e+1) = 2^53 u (inf in the top binade, as any
    sum reaching it) exactly when the exact x + k r u is, and then t is
    that sum, a multiple of u (k r >= 2^53 fails the test). By induction
    x_i = x + i r u: x_i + d = x_i + r u + (q - r) u, with |q - r| < 1/2
    as q is no tie, lies in [x_i, t + u/2) within the binade (t <= 2^(e+1)
    - u), so it rounds to x_i + r u. -0.0 gives r = 0 and t = x + 0.0 = x.
    """
    if x >= 2.0 ** -1022:
        u = math.ulp(x)
        q = d / u
        if q < 2.0 ** 52 and q % 1.0 != 0.5:
            t = x + k * round(q) * u
            if t < u * 2.0 ** 53:
                return t
    return reduce(add, repeat(d, k), x)


def _check_injected(book: CostBook, p: int, m: int) -> None:
    """Refuse, with a ValueError naming the field, an injected book whose
    field is not pp rows of numbers (m of them except in sync_buckets) or
    holds a duration that is NaN, infinite or negative. A NaN or an inf can
    leave an accepted run with a finite makespan (max keeps a NaN only in
    first place) or a dropped row; a sync's queued tail needs durations >=
    0, and a negative interval would be dropped unseen."""
    for name in (f.name for f in fields(book)):
        rows = getattr(book, name)
        try:
            values = [np.asarray(row) for row in rows]
        except (TypeError, ValueError):  # not rows, or ragged ones
            values = []
        if len(values) != p or any(
            row.ndim != 1 or row.dtype.kind not in "iuf"
            or (name != "sync_buckets" and len(row) != m)
            for row in values
        ):
            raise ValueError(f"injected cost_book shape of {name} does not "
                             f"match (pp, microbatches) = ({p}, {m})")
        for i, row in enumerate(values):
            bad = np.flatnonzero(~np.isfinite(row) | (row < 0.0))
            if not bad.size:
                continue
            k = int(bad[0])
            problem = "negative" if math.isfinite(row[k]) else "not finite"
            raise ValueError(f"injected cost_book.{name}[{i}][{k}] is "
                             f"{problem} ({rows[i][k]!r})")


def _slot_costs(
    book: CostBook, codes: np.ndarray, dual_stream: bool, chunks: int
) -> list[np.ndarray]:
    """Each slot's GEMM, span, TP lump and send, four arrays over `codes`
    (PipelineSchedule.codes) gathered from the book's six duration fields,
    arrays or nested lists alike, as one (6, p, m) array. The last stage's
    forwards and the first stage's backwards
    send 0.0. A fused lump's span (dual_stream, lump > 0) is
    fused_allgather_gemm_time(lump, comp, chunks) in its IEEE operations,
    or the lump with no GEMM; any other span is the GEMM's time."""
    costs = np.array((book.fwd, book.bwd, book.tp_fwd, book.tp_bwd,
                      book.p2p_fwd, book.p2p_bwd), np.float64)
    _, p, m = costs.shape
    costs[4, p - 1] = costs[5, 0] = 0.0
    at = (np.arange(len(codes)) // (2 * m) + (codes < 0) * p) * m
    at += np.abs(codes) - 1
    comp, lump, send = (row[at] for row in costs.reshape(3, -1))
    tc, tg = lump / chunks, comp / chunks
    span = np.where(comp != 0.0,
                    tc + (chunks - 1) * np.maximum(tc, tg) + tg, lump)
    return [comp, np.where((lump > 0.0) & dual_stream, span, comp), lump, send]


def _trace_columns(
    order: np.ndarray, codes: np.ndarray, costs: list[np.ndarray],
    starts: list[float], sends: list[float], syncs: list[list],
    sync_starts: list[list[float]], sync_buckets: list[list[float]],
    dual_stream: bool, chunks: int,
) -> tuple[TraceColumns, np.ndarray]:
    """Every row of the run from its slot and sync records, in a fixed
    number of numpy calls per distinct sync bucket count: the run's
    columns and their sub-block offsets (Trace.offsets).

    `starts` and `sends` hold each slot's start s and send start t0 in run
    order (PipelineSchedule.order), `costs` its _slot_costs. A slot's
    rows, in event order: its TP collective (s, s + lump); its compute,
    from s, from the lump's end on a single-stream chip, or under a fused
    lump from s + tc to s + span, in pieces from each s + j*tc when the
    transfer gates the GEMM (tc > tg), a piece ending by the next start and
    the last at the span's end; its p2p send (t0, t0 + send); then the
    bucket rows of the sync that follows it. A row is kept when it ends
    after it starts.

    `syncs[i]` holds three values per sync of stage i, in event order: the
    run position of the slot it follows, j and free; its buckets from j on
    queue, the first at free. `sync_starts[i]` holds the starts the loop
    stepped before each tail, until the queue was proven (none or one on a
    comm-bound chain). The syncs of the stages with n buckets form one
    matrix of n + 1 columns, row r their sync r (stage order, then
    event order): -0.0 before column j, free at j, the durations from j
    on, then a zero. A row-wise np.cumsum adds in order, so it gives the
    floats of the loop's fold bucket by bucket (-0.0 + x is x; a run the
    loop folds in one add ends where its adds in turn do), and the stepped
    starts fill the columns before j, row by row. A row's place is its
    slot's place in one cumulative sum of the rows per (stage, resource,
    slot), plus its place among the slot's rows of that resource.
    Temporaries go after their last use; the start and cost lists are
    emptied once read.
    """
    p = len(syncs)
    per_stage = len(codes) // p
    s = np.empty(len(starts))
    s[order] = starts
    t0 = np.empty(len(sends))
    t0[order] = sends
    starts.clear()
    sends.clear()
    back = codes < 0
    microbatch = np.abs(codes) - 1
    comp, span, lump, duration = costs
    costs.clear()
    handoff = t0 + duration
    keep_p2p = handoff > t0
    del duration

    lump_end = s + lump
    keep_collective = lump_end > s
    has_lump = lump > 0.0
    fused = has_lump & dual_stream
    tc = lump / chunks
    tg = comp / chunks
    gemm = comp != 0.0
    del lump
    cstart = np.where(fused, s + tc, np.where(has_lump, lump_end, s))
    end = np.where(fused, s, cstart) + span
    del comp, span, has_lump
    gated = fused & gemm & (tc > tg)
    single = (end > cstart) & (gemm | ~fused) & ~gated
    del fused, gemm
    g = np.flatnonzero(gated)
    del gated
    # each slot's rows of either resource: its compute row or gated pieces;
    # its collective and p2p send, and later the buckets of its sync
    compute_rows = single.astype(np.intp)
    comm_rows = keep_collective.astype(np.intp)
    comm_rows += keep_p2p
    if g.size:
        piece_start = s[g, None] + np.arange(1, chunks + 1) * tc[g, None]
        piece_end = np.empty_like(piece_start)
        np.minimum(piece_start[:, :-1] + tg[g, None], piece_start[:, 1:],
                   out=piece_end[:, :-1])
        piece_end[:, -1] = end[g]
        piece = piece_end > piece_start
        compute_rows[g] = np.count_nonzero(piece, axis=1)
    del tc, tg

    counts = [len(ss) // 3 for ss in syncs]
    widths = list(map(len, sync_buckets))
    # the syncing stages by bucket count: the syncs of one count and their
    # stepped starts are slices of arrays read once a run
    syncing = sorted(filter(counts.__getitem__, range(p)),
                     key=widths.__getitem__)
    if syncing:
        meta = np.fromiter(
            chain.from_iterable(map(syncs.__getitem__, syncing)), np.float64
        ).reshape(-1, 3)
        first, free = meta[:, 1].astype(np.intp), meta[:, 2]
        sync_slot = order[meta[:, 0].astype(np.intp)]
        stepped_start = np.fromiter(chain.from_iterable(
            map(sync_starts.__getitem__, syncing)), np.float64)
        kept_rows = []
        sync_at = stepped_at = 0
        for width, stages in groupby(syncing, widths.__getitem__):
            stages = list(stages)
            stepped_n = sum(len(sync_starts[i]) for i in stages)
            durations = np.repeat(np.fromiter(chain.from_iterable(
                (*sync_buckets[i], 0.0) for i in stages), np.float64
            ).reshape(-1, width + 1), [counts[i] for i in stages], axis=0)
            head = first[sync_at:sync_at + len(durations)]
            stepped = np.arange(width + 1) < head[:, None]
            addends = np.empty_like(durations)
            addends[:, 1:] = durations[:, :-1]
            addends[stepped] = -0.0
            addends[np.arange(len(head)), head] = free[sync_at:sync_at + len(head)]
            sync_start = np.cumsum(addends, axis=1)
            del addends
            sync_start[stepped] = stepped_start[stepped_at:stepped_at + stepped_n]
            sync_end = sync_start + durations
            kept = sync_end > sync_start
            kept_rows.append((np.count_nonzero(kept, axis=1),
                              sync_start[kept], sync_end[kept]))
            sync_at += len(head)
            stepped_at += stepped_n
            del durations, stepped, sync_start, sync_end, kept
        count, kept_start, kept_end = map(np.concatenate, zip(*kept_rows))
        del kept_rows
        comm_rows[sync_slot] += count

    # a stage's rows are its slots' compute rows, then their comm rows, so
    # one cumulative sum of the rows per (stage, resource, slot) gives each
    # slot's first row of either resource
    rows = np.stack((compute_rows.reshape(p, per_stage),
                     comm_rows.reshape(p, per_stage)), axis=1)
    row_at = np.cumsum(rows).reshape(rows.shape) - rows
    total = int(row_at[-1, -1, -1] + rows[-1, -1, -1])
    offsets = np.zeros(3 * p + 1, np.intp)
    offsets[1::3] = row_at[:, 1, 0]
    offsets[2::3] = offsets[3::3] = np.append(row_at[1:, 0, 0], total)
    compute_at = row_at[:, 0].ravel()
    comm_at = row_at[:, 1].ravel()
    del row_at
    start_col = np.empty(total)
    end_col = np.empty(total)
    # a slot's compute kind and microbatch on its compute rows, a sync
    # bucket's on its comm rows; the collectives and sends are set in place
    kinds = np.empty_like(rows, np.uint8)
    kinds[:, 0] = np.where(back, np.uint8(KIND_BWD),
                           np.uint8(KIND_FWD)).reshape(p, per_stage)
    kinds[:, 1] = KIND_SYNC
    kind_col = np.repeat(kinds, rows.ravel())
    codes = np.empty_like(rows, np.int64)
    codes[:, 0] = microbatch.reshape(p, per_stage)
    codes[:, 1] = -1
    microbatch_col = np.repeat(codes, rows.ravel())
    del rows, kinds, codes, back

    at = comm_at[keep_collective]
    start_col[at] = s[keep_collective]
    end_col[at] = lump_end[keep_collective]
    kind_col[at] = KIND_COLLECTIVE
    microbatch_col[at] = microbatch[keep_collective]
    at = compute_at[single]
    start_col[at] = cstart[single]
    end_col[at] = end[single]
    if g.size:
        at = (compute_at[g, None] + np.cumsum(piece, axis=1) - 1)[piece]
        start_col[at] = piece_start[piece]
        end_col[at] = piece_end[piece]
    at = (comm_at + keep_collective)[keep_p2p]
    start_col[at] = t0[keep_p2p]
    end_col[at] = handoff[keep_p2p]
    kind_col[at] = KIND_P2P
    microbatch_col[at] = microbatch[keep_p2p]
    if syncing:
        # a sync's kept buckets are its slot's last comm rows, in turn
        at = comm_at[sync_slot] + comm_rows[sync_slot] - np.cumsum(count)
        at = np.repeat(at, count)
        at += np.arange(len(at))
        start_col[at] = kept_start
        end_col[at] = kept_end
    return TraceColumns(start_col, end_col, kind_col, microbatch_col), offsets


def step_training_flops(trace: Trace, model: ModelSpec, plan: ParallelismPlan) -> float:
    """Whole-cluster training FLOPs for the traced step.

    The distinct (size, seq) shapes are priced in one step_flops call; the
    per-microbatch values are added left to right in microbatch order
    (sequential_sum), so the result is bit-identical to summing per batch.
    """
    sizes, seqs, index = _distinct_shapes(
        list(zip(trace.microbatch_sizes, trace.microbatch_seq_lens))
    )
    flops = step_flops(
        model, sizes, seqs,
        visual_tokens=trace.visual_tokens_per_sample,
        recompute=plan.recompute,
    )
    return sequential_sum(flops[index]) * trace.dp
