"""Deterministic discrete-event simulation of one training step.

Each chip has two resources, a compute unit and a communication unit,
reflecting hardware where the two are physically separate and bypass
streams let transfers run beside matrix work. With
`chip.has_independent_comm_unit` off, every transfer serializes onto the
compute timeline instead, which models a conventional single-stream chip
and is the baseline for the overlap comparisons.

Cost construction and timing rules, in one place:

  * compute durations are exact FLOP counts (shared with the arch module)
    divided by tp * peak_flops;
  * TP collectives inside a stage are aggregated into one per-slot comm
    lump (2 allgather + 2 reducescatter per layer and direction under
    sequence parallelism, 2 allreduce otherwise), and the lump overlaps
    its slot's compute through the chunked allgather+GEMM fusion pipeline;
  * stage boundary activations travel as p2p events that occupy the
    sender's comm unit only (DMA-style; the receiver just observes the
    arrival time);
  * gradient buckets become ready progressively across the stage's last
    backward (per-step sync) or every backward (per-microbatch sync) and
    queue FIFO on the comm unit when overlapped, else run serially after
    the producing backward;
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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

from .arch import (
    ModelSpec,
    adapter_fwd_flops_per_tile,
    lm_head_fwd_flops_per_token,
    lm_layer_fwd_flops_per_token,
    step_flops,
    vision_fwd_flops_per_tile,
)
from .cluster import (
    ParallelismPlan,
    Topology,
    PlanViolation,
    partition_layers,
    stage_local_params,
    validate_plan,
)
from .comm import (
    CollectiveCostModel,
    GradSyncPolicy,
    collective_time,
    split_buckets,
)
from .schedule import FORWARD, build_1f1b
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
    """The comm side of a run: collective algorithm plus sync policy."""

    grad_sync: GradSyncPolicy = field(default_factory=GradSyncPolicy)
    algorithm: str = "ring"

    def __post_init__(self) -> None:
        if self.algorithm != "ring":
            raise ValueError(f"unsupported algorithm {self.algorithm!r}")


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
    """Sort key of trace rows: start, compute before comm, end, label."""
    return (row[1], 0 if row[0] == COMPUTE else 1, row[2], row[3])


@dataclass
class Trace:
    """Interval record of one simulated step, stored at stage-group level.

    A stage group is the set of dp * tp chips executing identical work in
    lockstep; rows expand to per-chip intervals on demand. Chip ids follow
    (replica * pp + stage) * tp + rank.
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

    def stage_compute_busy(self) -> list[float]:
        return [
            sum(end - start for res, start, end, _, _ in rows if res == COMPUTE)
            for rows in self.stage_rows
        ]

    @cached_property
    def sorted_stage_rows(self) -> list[list[Row]]:
        """Each stage's rows in row_order, sorted on first use.

        The engine appends rows in event order, not row_order, and leaves
        sorting to the writers that need it, so a run whose trace is never
        written pays nothing; the trace is not modified after it is built.
        """
        return [sorted(rows, key=row_order) for rows in self.stage_rows]

    def check_invariants(self) -> None:
        if not math.isfinite(self.makespan):
            raise AssertionError(f"makespan {self.makespan} is not finite")
        for stage, rows in enumerate(self.stage_rows):
            for resource in (COMPUTE, COMM):
                prev_end = -1.0
                for res, start, end, label, _ in rows:
                    if res != resource:
                        continue
                    if not start < end:  # also false when either is NaN
                        raise AssertionError(
                            f"stage {stage} {label} interval not positive"
                        )
                    if start < prev_end - 1e-15:
                        raise AssertionError(
                            f"stage {stage} overlapping {resource} intervals"
                        )
                    prev_end = end

    def iter_jsonl_lines(self):
        """One meta line, then one line per stage-group interval.

        The engine simulates at stage-group granularity (every chip of a
        stage holds an identical timeline; DP replicas are bit-identical),
        so the trace records each interval once per stage. Chip ids follow
        (replica * pp + stage) * tp + rank; lines are in row_order per stage.

        Interval lines are the bytes json.dumps(row dict, separators=(",",
        ":")) gives, filled into one template per (stage, resource, label).
        Times are written with float.__repr__, the formatter json uses, so
        float subclasses such as numpy.float64 from an injected CostBook
        print as plain floats; times are finite (check_invariants).
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
        )
        fmt = float.__repr__
        for stage, rows in enumerate(self.sorted_stage_rows):
            templates: dict[tuple[str, str], tuple[str, str]] = {}
            for res, start, end, label, mb in rows:
                parts = templates.get((res, label))
                if parts is None:
                    parts = templates[res, label] = (
                        f'{{"stage":{stage},"resource":{json.dumps(res)},"start":',
                        f',"label":{json.dumps(label)},"microbatch":',
                    )
                yield (
                    f'{parts[0]}{fmt(start)},"end":{fmt(end)}{parts[1]}'
                    f'{"null" if mb is None else mb}}}'
                )

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            handle.writelines(f"{line}\n" for line in self.iter_jsonl_lines())


def _link_model(
    topology: Topology, inter_node: bool, algorithm: str
) -> CollectiveCostModel:
    if inter_node:
        return CollectiveCostModel(
            latency_per_hop=topology.inter_latency,
            bandwidth=topology.inter_node_bw,
            algorithm=algorithm,
        )
    return CollectiveCostModel(
        latency_per_hop=topology.intra_latency,
        bandwidth=topology.intra_node_bw,
        algorithm=algorithm,
    )


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
    lm = model.lm
    p = plan.pp
    tp = plan.tp
    chip_rate = plan.tp * topology.chip.peak_flops
    algorithm = costmodel.algorithm
    intra = _link_model(topology, inter_node=False, algorithm=algorithm)

    vision_tile_flops = vision_fwd_flops_per_tile(model.vision) + (
        adapter_fwd_flops_per_tile(model.vision, model.adapter)
    )
    tiles_per_sample = workload.visual_tokens_per_sample / model.vision.tokens_per_tile
    head_flops = lm_head_fwd_flops_per_token(lm)

    shapes = [(len(batch), max(batch)) for batch in microbatches.batches]
    # stage-independent terms of each distinct shape: tokens, LM layer
    # forward FLOPs per token, TP collective time per layer, boundary bytes
    shape_terms = {}
    for size, seq in dict.fromkeys(shapes):
        tokens = float(size * seq)
        activation_bytes = tokens * lm.hidden_size * 2.0
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
        shape_terms[size, seq] = (
            tokens, lm_layer_fwd_flops_per_token(lm, seq), per_layer, boundary_bytes
        )

    columns: list[list[list[float]]] = [[] for _ in range(6)]
    for i in range(p):
        layers = partition[i]
        send = recv = None
        if i < p - 1:
            send = _link_model(
                topology, _boundary_crosses_nodes(i, topology, plan), algorithm
            )
        if i > 0:
            recv = _link_model(
                topology, _boundary_crosses_nodes(i - 1, topology, plan), algorithm
            )
        priced = {}
        for (size, seq), (tokens, layer_flops, per_layer, boundary_bytes) in (
            shape_terms.items()
        ):
            f_flops = tokens * layers * layer_flops
            if i == p - 1:
                f_flops += tokens * head_flops
            if i == 0 and tiles_per_sample > 0:
                f_flops += size * tiles_per_sample * vision_tile_flops

            if plan.recompute == "selective":
                extra = tokens * layers * 4.0 * seq * lm.hidden_size
            elif plan.recompute == "full":
                extra = tokens * layers * layer_flops
            else:
                extra = 0.0
            b_flops = 2.0 * f_flops + extra

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
    dp_link = _link_model(
        topology, _dp_group_spans_nodes(topology, plan), algorithm
    )
    for i in range(p):
        if plan.dp == 1:
            sync_buckets.append([])
            continue
        local = stage_local_params(model, partition, i)
        trainable = sum(local[c] for c in local if c in stage.trainable)
        volume = trainable / tp * policy.precision_bytes
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
) -> None:
    """Refuse, from the config alone, a run above MAX_TRACE_ROWS.

    The estimate bounds one replica's trace from above: each of a stage's
    2m slots records its compute (up to fusion_chunks gated pieces when
    tp > 1), a TP collective and a p2p send; with dp > 1 each sync records
    the stage's buckets, at most volume / bucket_bytes + 1 of them. It
    runs before any microbatch is sampled or bucket list built. The key
    named is the one behind the larger of the slot and sync terms.
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
        raise ValueError(
            f"at $.{key}: the run would record about {rows:.3g} trace rows, "
            f"more than the limit of {MAX_TRACE_ROWS:,}"
        )


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

    The plan is validated (including memory fit at the packed microbatch
    shape) before any timing work happens. `cost_book` overrides the
    computed work durations, which is how calibrated or synthetic costs
    are injected; everything else (schedule shape, overlap policy, sync
    placement) is unaffected by the override.
    """
    if workload is None:
        default_budget = (
            stage.seq_len_model.value
            if stage.seq_len_model.kind == "fixed"
            else stage.seq_len_model.cap
        )
        workload = StepWorkload(microbatch_token_budget=default_budget)

    check_work_bound(model, stage, plan, costmodel)
    p = plan.pp
    m = plan.microbatches_per_step
    microbatches = plan_step_microbatches(stage.seq_len_model, workload, m, seed)
    peak_size = max(len(b) for b in microbatches.batches)
    peak_seq = max(max(b) for b in microbatches.batches)
    if peak_seq > model.lm.context_limit:
        raise ValueError(
            f"packed sequence length {peak_seq} exceeds context limit "
            f"{model.lm.context_limit}"
        )

    violations = validate_plan(
        topology,
        plan,
        model,
        stage=stage,
        seq_len=peak_seq,
        microbatch=peak_size,
    )
    if violations:
        raise PlanValidationError(violations)

    partition = partition_layers(model, p, plan.layer_balance)
    if cost_book is None:
        cost_book = build_cost_book(
            model, stage, plan, topology, costmodel,
            partition, microbatches, workload,
        )
    elif len(cost_book.fwd) != p or any(len(row) != m for row in cost_book.fwd):
        raise ValueError("injected cost_book shape does not match (pp, microbatches)")

    sched = build_1f1b(p, m)
    dual_stream = topology.chip.has_independent_comm_unit
    overlap_sync = (
        dual_stream and plan.overlap_grad_sync and costmodel.grad_sync.overlap
    )
    per_microbatch_sync = costmodel.grad_sync.frequency == "per_microbatch"
    chunks = plan.fusion_chunks

    stage_rows: list[list[Row]] = [[] for _ in range(p)]
    comp_free = [0.0] * p
    comm_free = [0.0] * p
    fwd_arrival: list[dict[int, float]] = [{} for _ in range(p)]
    bwd_arrival: list[dict[int, float]] = [{} for _ in range(p)]
    fwd_end: list[dict[int, float]] = [{} for _ in range(p)]
    position = [0] * p

    # rows are appended through bound methods behind the same end > start
    # test everywhere, so a zero-length or NaN interval is never recorded
    appends = [rows.append for rows in stage_rows]
    # (lump, comp) -> fused span and per-chunk transfer/GEMM times; a slot
    # shape repeats across microbatches, so each pair is priced once per run
    fused: dict[tuple[float, float], tuple[float, float, float]] = {}

    def execute_slot(i: int, kind: str, k: int, dep: float) -> None:
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
                    # GEMM chunks gated by transfer chunks, with gaps
                    for j in range(1, chunks + 1):
                        cs = start + j * tc
                        if cs + tg > cs:
                            append((COMPUTE, cs, cs + tg, label, mb))
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
            fwd_end[i][k] = end
            if i < p - 1:
                _send(i, cost_book.p2p_fwd[i][mb], mb, fwd_arrival[i + 1], k)
        else:
            if i > 0:
                _send(i, cost_book.p2p_bwd[i][mb], mb, bwd_arrival[i - 1], k)
            if cost_book.sync_buckets[i] and (
                per_microbatch_sync or k == m
            ):
                _sync(i, comp)

    def _send(i: int, duration: float, mb: int,
              arrival: dict[int, float], k: int) -> None:
        if duration <= 0.0:
            arrival[k] = comp_free[i]
            return
        t0 = max(comp_free[i], comm_free[i]) if dual_stream else comp_free[i]
        t1 = t0 + duration
        if t1 > t0:
            appends[i]((COMM, t0, t1, LABEL_P2P, mb))
        if not dual_stream:
            comp_free[i] = t1
        comm_free[i] = t1
        arrival[k] = t1

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

    remaining = sum(len(s) for s in sched.slots)
    while remaining:
        progressed = False
        for i in range(p):
            slots = sched.slots[i]
            while position[i] < len(slots):
                kind, k = slots[position[i]]
                if kind == FORWARD:
                    dep = 0.0 if i == 0 else fwd_arrival[i].get(k)
                else:
                    if i == p - 1:
                        dep = fwd_end[i].get(k)
                    else:
                        dep = bwd_arrival[i].get(k)
                if dep is None:
                    break
                execute_slot(i, kind, k, dep)
                position[i] += 1
                remaining -= 1
                progressed = True
        if not progressed:  # unreachable for 1F1B; guards future schedules
            raise RuntimeError("simulation deadlocked")

    makespan = max(max(comp_free), max(comm_free))
    trace = Trace(
        dp=plan.dp,
        tp=plan.tp,
        pp=p,
        makespan=makespan,
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
