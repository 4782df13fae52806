"""The engine against the per-microbatch pricing and per-row loop it replaced.

`reference_cost_book` prices every (stage, microbatch) pair and every sync
bucket separately, and `reference_run` records each row through a `record`
call with builtin `max`. The engine prices each distinct microbatch shape
and bucket size once per run. Its event loop keeps two numbers per slot
in run order (its start and its send start), steps a sync's bucket chain
only until its queue is proven (at most one bucket on a comm-bound chain)
and folds the queued tail, a run of equal buckets in one add where exact;
after the loop one array pass builds every row from those numbers and the
cost book.
Both must give the same floats, bit for bit, on every path. Traces are
compared through their `stage_rows` view or their columns.
"""

import collections
import dataclasses
import json
import math
import time
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vlmsim import cli, engine
from vlmsim.arch import (
    adapter_fwd_flops_per_tile,
    lm_head_fwd_flops_per_token,
    lm_layer_fwd_flops_per_token,
    step_flops,
    vision_fwd_flops_per_tile,
)
from vlmsim.cluster import (
    ConfigError,
    ParallelismPlan,
    Topology,
    group_nodes,
    partition_layers,
    stage_local_params,
)
from vlmsim.comm import (
    GradSyncPolicy,
    collective_time,
    split_buckets,
    stage_grad_bytes,
)
from vlmsim.config import load_config
from vlmsim.engine import (
    COMM,
    COMPUTE,
    LABEL_BWD,
    LABEL_COLLECTIVE,
    LABEL_FWD,
    LABEL_P2P,
    LABEL_SYNC,
    KINDS,
    MAX_TRACE_ROWS,
    CostBook,
    CostModelConfig,
    _link_model,
    build_cost_book,
    check_work_bound,
    fused_allgather_gemm_time,
    run,
    step_training_flops,
)
from vlmsim.schedule import build_1f1b
from vlmsim.workload import (
    SequenceLengthModel,
    StepWorkload,
    plan_step_microbatches,
    stage_by_name,
    trainable_param_count,
)
from tests.conftest import (
    FORWARD,
    ODD_LM,
    PRESET_DIR,
    PRESETS,
    assert_identical,
    make_plan,
    make_topology,
    slot_schedule,
    trace_from_rows,
    uniform_book,
)

BOOK_FIELDS = ("fwd", "bwd", "tp_fwd", "tp_bwd", "p2p_fwd", "p2p_bwd",
               "sync_buckets")


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


def reference_cost_book(model, stage, plan, topology, costmodel, partition,
                        microbatches, workload):
    """build_cost_book as it was before shapes were priced once: every
    (stage, microbatch) pair and every bucket is priced on its own."""
    lm = model.lm
    p = plan.pp
    tp = plan.tp
    chip_rate = plan.tp * topology.chip.peak_flops
    intra = _link_model(topology, inter_node=False)

    vision_tile_flops = vision_fwd_flops_per_tile(model.vision) + (
        adapter_fwd_flops_per_tile(model.vision, model.adapter)
    )
    tiles_per_sample = workload.visual_tokens_per_sample / model.vision.tokens_per_tile

    fwd, bwd, tp_fwd, tp_bwd, p2p_fwd, p2p_bwd = [], [], [], [], [], []
    for i in range(p):
        layers = partition[i]
        f_row, b_row, tf_row, tb_row, pf_row, pb_row = [], [], [], [], [], []
        for batch in microbatches.batches:
            size = len(batch)
            seq = max(batch)
            tokens = float(size * seq)

            f_flops = tokens * layers * lm_layer_fwd_flops_per_token(lm, seq)
            if i == p - 1:
                f_flops += tokens * lm_head_fwd_flops_per_token(lm)
            if i == 0 and tiles_per_sample > 0:
                f_flops += size * tiles_per_sample * vision_tile_flops

            if plan.recompute == "selective":
                extra = tokens * layers * 4.0 * seq * lm.hidden_size
            elif plan.recompute == "full":
                extra = tokens * layers * lm_layer_fwd_flops_per_token(lm, seq)
            else:
                extra = 0.0
            b_flops = 2.0 * f_flops + extra

            f_row.append(f_flops / chip_rate)
            b_row.append(b_flops / chip_rate)

            if tp > 1:
                activation_bytes = tokens * lm.hidden_size * 2.0
                if plan.sequence_parallel:
                    per_layer = 2.0 * collective_time(
                        "allgather", activation_bytes, tp, intra
                    ) + 2.0 * collective_time(
                        "reducescatter", activation_bytes, tp, intra
                    )
                else:
                    per_layer = 2.0 * collective_time(
                        "allreduce", activation_bytes, tp, intra
                    )
                tf_row.append(layers * per_layer)
                tb_row.append(layers * per_layer)
            else:
                tf_row.append(0.0)
                tb_row.append(0.0)

            boundary_bytes = tokens * lm.hidden_size * 2.0
            if plan.sequence_parallel:
                boundary_bytes /= tp
            if i < p - 1:
                link = _link_model(
                    topology,
                    _boundary_crosses_nodes(i, topology, plan),
                )
                pf_row.append(collective_time("p2p", boundary_bytes, 2, link))
            else:
                pf_row.append(0.0)
            if i > 0:
                link = _link_model(
                    topology,
                    _boundary_crosses_nodes(i - 1, topology, plan),
                )
                pb_row.append(collective_time("p2p", boundary_bytes, 2, link))
            else:
                pb_row.append(0.0)
        fwd.append(f_row)
        bwd.append(b_row)
        tp_fwd.append(tf_row)
        tp_bwd.append(tb_row)
        p2p_fwd.append(pf_row)
        p2p_bwd.append(pb_row)

    sync_buckets = []
    policy = costmodel.grad_sync
    dp_link = _link_model(topology, _dp_group_spans_nodes(topology, plan))
    for i in range(p):
        if plan.dp == 1:
            sync_buckets.append([])
            continue
        local = stage_local_params(model, partition, i)
        trainable = sum(local[c] for c in local if c in stage.trainable)
        volume = trainable / tp * policy.precision_bytes
        sync_buckets.append(
            [
                collective_time("allreduce", b, plan.dp, dp_link)
                for b in split_buckets(volume, policy.bucket_bytes)
            ]
        )
    return CostBook(
        fwd=fwd, bwd=bwd, tp_fwd=tp_fwd, tp_bwd=tp_bwd, p2p_fwd=p2p_fwd,
        p2p_bwd=p2p_bwd, sync_buckets=sync_buckets,
    )


def reference_run(model, stage, plan, topology, costmodel, seed, workload,
                  cost_book=None):
    """engine.run as it was before per-run memos and direct appends: one
    record() call per row, fused time per slot, builtin max throughout."""
    p = plan.pp
    m = plan.microbatches_per_step
    workload, microbatches, partition, _ = engine.step_shape(
        model, stage, plan, topology, costmodel, seed, workload
    )
    if cost_book is None:
        cost_book = reference_cost_book(model, stage, plan, topology, costmodel,
                                        partition, microbatches, workload)

    sched = slot_schedule(build_1f1b(p, m))
    dual_stream = topology.chip.has_independent_comm_unit
    overlap_sync = dual_stream and costmodel.grad_sync.overlap
    per_microbatch_sync = costmodel.grad_sync.frequency == "per_microbatch"
    chunks = plan.fusion_chunks

    stage_rows = [[] for _ in range(p)]
    comp_free = [0.0] * p
    comm_free = [0.0] * p
    fwd_arrival = [{} for _ in range(p)]
    bwd_arrival = [{} for _ in range(p)]
    fwd_end = [{} for _ in range(p)]
    position = [0] * p

    def record(i, resource, start, end, label, mb):
        if end > start:
            stage_rows[i].append((resource, start, end, label, mb))

    def execute_slot(i, kind, k, dep):
        mb = k - 1
        comp = cost_book.fwd[i][mb] if kind == FORWARD else cost_book.bwd[i][mb]
        lump = cost_book.tp_fwd[i][mb] if kind == FORWARD else cost_book.tp_bwd[i][mb]
        label = LABEL_FWD if kind == FORWARD else LABEL_BWD

        if dual_stream:
            if lump > 0.0:
                start = max(comp_free[i], comm_free[i], dep)
                span = fused_allgather_gemm_time(lump, comp, chunks)
                record(i, COMM, start, start + lump, LABEL_COLLECTIVE, mb)
                comm_free[i] = start + lump
                tc = lump / chunks
                tg = comp / chunks
                if comp == 0.0:
                    pass
                elif tc <= tg:
                    record(i, COMPUTE, start + tc, start + span, label, mb)
                else:
                    for j in range(chunks):
                        cs = start + (j + 1) * tc
                        ce = (min(cs + tg, start + (j + 2) * tc)
                              if j < chunks - 1 else start + span)
                        record(i, COMPUTE, cs, ce, label, mb)
                end = start + span
            else:
                start = max(comp_free[i], dep)
                record(i, COMPUTE, start, start + comp, label, mb)
                end = start + comp
            comp_free[i] = end
        else:
            start = max(comp_free[i], dep)
            t = start
            if lump > 0.0:
                record(i, COMM, t, t + lump, LABEL_COLLECTIVE, mb)
                t += lump
            record(i, COMPUTE, t, t + comp, label, mb)
            end = t + comp
            comp_free[i] = end
            comm_free[i] = end

        if kind == FORWARD:
            fwd_end[i][k] = end
            if i < p - 1:
                send(i, cost_book.p2p_fwd[i][mb], mb, fwd_arrival[i + 1], k)
        else:
            if i > 0:
                send(i, cost_book.p2p_bwd[i][mb], mb, bwd_arrival[i - 1], k)
            if cost_book.sync_buckets[i] and (per_microbatch_sync or k == m):
                sync(i, comp)

    def send(i, duration, mb, arrival, k):
        if duration <= 0.0:
            arrival[k] = comp_free[i]
            return
        if dual_stream:
            t0 = max(comp_free[i], comm_free[i])
            record(i, COMM, t0, t0 + duration, LABEL_P2P, mb)
            comm_free[i] = t0 + duration
        else:
            t0 = comp_free[i]
            record(i, COMM, t0, t0 + duration, LABEL_P2P, mb)
            comp_free[i] = t0 + duration
            comm_free[i] = t0 + duration
        arrival[k] = t0 + duration

    def sync(i, producing_compute):
        buckets = cost_book.sync_buckets[i]
        n = len(buckets)
        if overlap_sync:
            produce_end = comp_free[i]
            produce_start = produce_end - producing_compute
            for j, dur in enumerate(buckets):
                ready = produce_start + producing_compute * (j + 1) / n
                t = max(ready, comm_free[i])
                record(i, COMM, t, t + dur, LABEL_SYNC, None)
                comm_free[i] = t + dur
        else:
            t = max(comp_free[i], comm_free[i])
            for dur in buckets:
                record(i, COMM, t, t + dur, LABEL_SYNC, None)
                t += dur
            comp_free[i] = t
            comm_free[i] = t

    remaining = sum(len(s) for s in sched.slots)
    while remaining:
        for i in range(p):
            slots = sched.slots[i]
            while position[i] < len(slots):
                kind, k = slots[position[i]]
                if kind == FORWARD:
                    dep = 0.0 if i == 0 else fwd_arrival[i].get(k)
                elif i == p - 1:
                    dep = fwd_end[i].get(k)
                else:
                    dep = bwd_arrival[i].get(k)
                if dep is None:
                    break
                execute_slot(i, kind, k, dep)
                position[i] += 1
                remaining -= 1

    return trace_from_rows(
        stage_rows, dp=plan.dp, tp=plan.tp,
        makespan=max(max(comp_free), max(comm_free)), seed=seed,
        microbatch_sizes=[len(b) for b in microbatches.batches],
        microbatch_seq_lens=[max(b) for b in microbatches.batches],
        visual_tokens_per_sample=workload.visual_tokens_per_sample,
    )


@st.composite
def small_configs(draw):
    """A random valid small run: model, stage, plan, topology, cost model,
    seed and workload, spanning every branch of the cost book and loop."""
    model = draw(st.sampled_from(["3B", "8B"]))
    tp = draw(st.sampled_from([1, 2, 4]))
    pp = draw(st.integers(1, 4))
    dp = draw(st.integers(1, 3))
    # chips per node as a multiple of tp: 1 puts every stage boundary across
    # nodes, 2 every other one, 4 none within a replica
    per_node = draw(st.sampled_from([1, 2, 4]))
    if (dp * pp) % per_node:
        per_node = 1
    cpn = tp * per_node
    topology = make_topology(
        nodes=dp * tp * pp // cpn,
        chips_per_node=cpn,
        # a slow intra-node link makes the TP lump outlast the GEMM, which
        # takes the gated-chunk path
        intra_bw=draw(st.sampled_from([2e8, 3e9, 3e11])),
        inter_bw=draw(st.sampled_from([2.5e8, 2.5e10])),
        memory=1e18,
        dual=draw(st.booleans()),
    )
    plan = make_plan(
        dp=dp, tp=tp, pp=pp, m=draw(st.integers(1, 9)),
        sequence_parallel=draw(st.booleans()),
        recompute=draw(st.sampled_from(["none", "selective", "full"])),
        fusion_chunks=draw(st.integers(1, 8)),
        layer_balance=draw(st.sampled_from(["uniform", "cost-balanced"])),
    )
    crosses = np.diff(group_nodes(topology, plan)) != 0
    if (crosses != crosses[0]).any():
        # replicas that cross nodes at different stage boundaries are
        # refused (replica-placement): one group per node instead
        topology = dataclasses.replace(topology, nodes=dp * pp,
                                       chips_per_node=tp)
    costmodel = CostModelConfig(grad_sync=GradSyncPolicy(
        precision_bytes=draw(st.sampled_from([2, 4])),
        frequency=draw(st.sampled_from(["per_step", "per_microbatch"])),
        bucket_bytes=draw(st.sampled_from([64 * 2**20, 1e8 + 1, 7e8])),
        overlap=draw(st.booleans()),
    ))
    if draw(st.booleans()):
        seq = draw(st.sampled_from([64, 300, 1024]))
        lengths = SequenceLengthModel.fixed(seq)
        budget = seq * draw(st.integers(1, 3))
    else:
        lengths = SequenceLengthModel.lognormal(
            mean=draw(st.floats(3.0, 7.0)),
            sigma=draw(st.floats(0.0, 1.2)),
            cap=draw(st.sampled_from([512, 2048])),
        )
        budget = draw(st.sampled_from([256, 1000, 4096]))
    workload = StepWorkload(
        microbatch_token_budget=budget,
        seq_len_model=lengths,
        visual_tokens_per_sample=draw(st.sampled_from([0, 256, 1792])),
    )
    stage = stage_by_name(draw(st.sampled_from(
        ["general-knowledge-injection", "cross-modal-alignment"]
    )))
    return model, stage, plan, topology, costmodel, draw(st.integers(0, 99)), workload


class TestCostBookMatchesReference:
    @given(config=small_configs())
    @settings(max_examples=300, deadline=None)
    def test_all_seven_lists_identical(self, catalog, config):
        model, stage, plan, topology, costmodel, seed, workload = config
        model = catalog[model]
        microbatches = plan_step_microbatches(
            stage.seq_len_model, workload, plan.microbatches_per_step, seed
        )
        partition = partition_layers(model, plan.pp, plan.layer_balance)
        args = (model, stage, plan, topology, costmodel, partition,
                microbatches, workload)
        book = build_cost_book(*args)
        expect = reference_cost_book(*args)
        for name in BOOK_FIELDS[:-1]:
            durations = getattr(book, name)
            assert durations.dtype == np.float64
            assert durations.shape == (plan.pp, plan.microbatches_per_step)
            assert_identical(durations.tolist(), getattr(expect, name))
        assert_identical(book.sync_buckets, expect.sync_buckets)


class TestRunMatchesReference:
    @given(config=small_configs())
    @settings(max_examples=300, deadline=None)
    def test_rows_identical(self, catalog, config):
        model, stage, plan, topology, costmodel, seed, workload = config
        args = (catalog[model], stage, plan, topology, costmodel, seed, workload)
        trace = run(*args)
        expect = reference_run(*args)
        assert_identical(trace.stage_rows, expect.stage_rows)
        assert_identical(trace.makespan, expect.makespan)

    @pytest.mark.parametrize("chunks", range(1, 9))
    def test_gated_chunks(self, catalog, full_stage, chunks):
        # 200 MB/s TP links: every slot's lump outlasts its GEMM (tc > tg)
        topology = make_topology(nodes=1, chips_per_node=8, intra_bw=2e8,
                                 memory=1e18)
        plan = make_plan(dp=1, tp=4, pp=2, m=6, sequence_parallel=True,
                         fusion_chunks=chunks)
        workload = StepWorkload(
            microbatch_token_budget=2048,
            seq_len_model=SequenceLengthModel.lognormal(6.5, 0.8, cap=2048),
        )
        args = (catalog["3B"], full_stage, plan, topology, CostModelConfig(),
                5, workload)
        trace = run(*args)
        assert_identical(trace.stage_rows, reference_run(*args).stage_rows)
        pieces = sum(1 for rows in trace.stage_rows for r in rows
                     if r[0] == COMPUTE)
        assert pieces == 2 * 2 * 6 * chunks

    @given(
        p=st.integers(1, 4), m=st.integers(1, 6), chunks=st.integers(1, 8),
        dual=st.booleans(), overlap=st.booleans(),
        per_microbatch=st.booleans(), scale=st.sampled_from([1e-3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_injected_numpy_book(self, catalog, full_stage, p, m, chunks, dual,
                                 overlap, per_microbatch, scale, seed):
        args, book = numpy_book_run(catalog, full_stage, p, m, chunks, dual,
                                    overlap, per_microbatch, scale, seed)
        expect = reference_run(*args, cost_book=book)
        expect.check_invariants()
        trace = run(*args, cost_book=book)
        assert_identical(trace.stage_rows, expect.stage_rows)
        # the run's times are plain floats of the reference's values
        assert type(trace.makespan) is float
        assert_identical(trace.makespan, float(expect.makespan))

    @pytest.mark.parametrize("dual", [True, False])
    def test_lump_and_send_under_one_ulp_dropped(self, catalog, full_stage,
                                                 dual):
        # TP lumps and p2p sends of 1e-20 s: past time 0, where an ulp is
        # far larger, each ends where it starts and is not recorded; only
        # the first slot's lump, from 0.0, is
        book = uniform_book(2, 3, fwd=1.0, bwd=2.0, tp_comm=1e-20, p2p=1e-20)
        topology = make_topology(nodes=1, chips_per_node=2, memory=1e18,
                                 dual=dual)
        workload = StepWorkload(microbatch_token_budget=64,
                                seq_len_model=SequenceLengthModel.fixed(64))
        args = (catalog["3B"], full_stage, make_plan(pp=2, m=3), topology,
                CostModelConfig(), 0, workload)
        trace = run(*args, cost_book=book)
        assert_columns_identical(trace, reference_run(*args, cost_book=book))
        comm = [row[1:4] for rows in trace.stage_rows for row in rows
                if row[0] == COMM]
        assert comm == [(0.0, 1e-20, LABEL_COLLECTIVE)]

    def test_gated_last_piece_ends_where_compute_is_freed(self, catalog,
                                                          full_stage):
        # one chunk, lump > GEMM: the piece once ended at (start + tc) + tg,
        # an ulp past start + (tc + tg) where the next slot's compute starts,
        # and check_invariants raised "stage 0 overlapping compute intervals"
        args, book = numpy_book_run(catalog, full_stage, p=1, m=6, chunks=1,
                                    dual=True, overlap=False,
                                    per_microbatch=False, scale=1.0,
                                    seed=3_000_000_000)
        trace = run(*args, cost_book=book)
        compute = [(start, end) for resource, start, end, _, _
                   in trace.stage_rows[0] if resource == COMPUTE]
        assert all(end <= start for (_, end), (start, _)
                   in zip(compute, compute[1:]))
        assert_identical(trace.stage_rows,
                         reference_run(*args, cost_book=book).stage_rows)

    def test_gated_middle_pieces_end_by_the_next_start(self, catalog,
                                                       full_stage):
        # GEMMs of 50-200 s under TP lumps 1-3 ulps longer: tc exceeds tg by
        # less than an ulp of the slot start, so a middle piece ending at
        # cs + tg passed the next piece's start, and check_invariants raised
        # "stage 0 overlapping compute intervals" on most draws
        rng = np.random.default_rng(0)
        m = 6
        topology = make_topology(nodes=1, chips_per_node=2, memory=1e18)
        workload = StepWorkload(microbatch_token_budget=64,
                                seq_len_model=SequenceLengthModel.fixed(64))
        for _ in range(200):
            plan = make_plan(tp=2, m=m,
                             fusion_chunks=int(rng.integers(2, 9)))
            gemm = rng.uniform(50.0, 200.0, size=(2, m))
            lump = gemm + rng.integers(1, 4, size=gemm.shape) * np.spacing(gemm)
            book = CostBook(
                fwd=[list(gemm[0])], bwd=[list(gemm[1])],
                tp_fwd=[list(lump[0])], tp_bwd=[list(lump[1])],
                p2p_fwd=[[0.0] * m], p2p_bwd=[[0.0] * m], sync_buckets=[[]],
            )
            args = (catalog["3B"], full_stage, plan, topology,
                    CostModelConfig(), 0, workload)
            trace = run(*args, cost_book=book)
            assert_identical(trace.stage_rows,
                             reference_run(*args, cost_book=book).stage_rows)


class TestBookForms:
    def test_one_engine_path_for_every_book_form(self, catalog, full_stage):
        # gated chunks (200 MB/s TP links: every lump outlasts its GEMM) and
        # a per-microbatch sync overlapped with each backward: the engine's
        # own book, and the same values injected as it is, as nested lists
        # and as numpy arrays, give the same columns bit for bit
        model = catalog["3B"]
        topology = make_topology(nodes=2, chips_per_node=8, intra_bw=2e8,
                                 memory=1e18)
        plan = make_plan(dp=2, tp=4, pp=2, m=6, sequence_parallel=True,
                         fusion_chunks=3)
        costmodel = CostModelConfig(
            grad_sync=GradSyncPolicy(frequency="per_microbatch"))
        workload = StepWorkload(
            microbatch_token_budget=2048,
            seq_len_model=SequenceLengthModel.lognormal(6.5, 0.8, cap=2048),
        )
        args = (model, full_stage, plan, topology, costmodel, 5, workload)
        workload, microbatches, partition, _ = engine.step_shape(*args)
        own = build_cost_book(model, full_stage, plan, topology, costmodel,
                              partition, microbatches, workload)
        durations = [getattr(own, name) for name in BOOK_FIELDS[:-1]]
        books = {
            "own": own,
            "lists": CostBook(*(d.tolist() for d in durations),
                              [list(b) for b in own.sync_buckets]),
            "arrays": CostBook(*(np.array(d) for d in durations),
                               [np.array(b) for b in own.sync_buckets]),
        }
        expect = run(*args)
        kinds = collections.Counter(expect.columns.kind.tolist())
        assert kinds[KINDS.index((COMPUTE, LABEL_FWD))] == 2 * 6 * 3
        assert kinds[KINDS.index((COMM, LABEL_SYNC))] >= 2 * 6
        for form, book in books.items():
            trace = run(*args, cost_book=book)
            for got, want in zip(trace.columns, expect.columns):
                assert got.dtype == want.dtype, form
                assert got.tobytes() == want.tobytes(), form
            assert trace.offsets.tolist() == expect.offsets.tolist()
            assert_identical(trace.makespan, expect.makespan)


def numpy_book_run(catalog, full_stage, p, m, chunks, dual, overlap,
                   per_microbatch, scale, seed):
    """run() arguments and a CostBook of numpy.float64 uniform draws from
    default_rng(seed), costs up to 2 s times `scale`, some of them zero
    (GEMMs too, so a slot may run a lump with no GEMM)."""
    rng = np.random.default_rng(seed)

    def grid(high, zeros=0.0):
        values = rng.uniform(0.0, high * scale, size=(p, m))
        values[rng.uniform(size=(p, m)) < zeros] = 0.0
        return [list(row) for row in values]

    book = CostBook(
        fwd=grid(1.0, zeros=0.2), bwd=grid(2.0, zeros=0.2),
        tp_fwd=grid(1.5, zeros=0.3),
        tp_bwd=grid(1.5, zeros=0.3), p2p_fwd=grid(0.2, zeros=0.3),
        p2p_bwd=grid(0.2, zeros=0.3),
        sync_buckets=[
            list(rng.uniform(0.0, 0.3 * scale, size=rng.integers(0, 5)))
            for _ in range(p)
        ],
    )
    assert type(book.fwd[0][0]) is np.float64
    topology = make_topology(nodes=1, chips_per_node=p, memory=1e18,
                             dual=dual)
    plan = make_plan(pp=p, m=m, fusion_chunks=chunks)
    costmodel = CostModelConfig(grad_sync=GradSyncPolicy(
        frequency="per_microbatch" if per_microbatch else "per_step",
        overlap=overlap,
    ))
    workload = StepWorkload(microbatch_token_budget=64,
                            seq_len_model=SequenceLengthModel.fixed(64))
    args = (catalog["3B"], full_stage, plan, topology, costmodel, 0, workload)
    return args, book



def assert_columns_identical(trace, expect):
    """Each (stage, resource) sub-block of the trace equals the expected
    trace's rows of that stage and resource, in order and bit for bit
    (times compared as bit patterns, kinds as their (resource, label)
    pairs); no stage holds another resource; and the makespans are equal."""
    offsets = trace.offsets.tolist()
    assert len(offsets) == 2 * len(expect.stage_rows) + 1
    assert offsets[-1] == len(trace.columns.start)
    for stage, rows in enumerate(expect.stage_rows):
        for rank, resource in enumerate((COMPUTE, COMM)):
            a, b = offsets[2 * stage + rank:2 * stage + rank + 2]
            ref = [row for row in rows if row[0] == resource]
            start, end, kind, microbatch = (column[a:b]
                                            for column in trace.columns)
            for got, at in ((start, 1), (end, 2)):
                assert got.view(np.int64).tolist() == np.array(
                    [row[at] for row in ref], np.float64
                ).view(np.int64).tolist()
            assert microbatch.tolist() == [
                -1 if row[4] is None else row[4] for row in ref
            ]
            assert ([KINDS[k] for k in kind.tolist()]
                    == [(row[0], row[3]) for row in ref])
    assert_identical(trace.makespan, expect.makespan)


def sync_book_run(catalog, full_stage, stage_buckets, frequency, *, m=3,
                  dual=True, overlap=True, fwd=1.0, bwd=2.0, p2p=0.1):
    """run() arguments and a CostBook of one stage per list in
    `stage_buckets`, each syncing its list: forwards of `fwd` seconds,
    backwards of `bwd`, p2p sends of `p2p` seconds, no TP lump."""
    p = len(stage_buckets)
    book = uniform_book(p, m, fwd=fwd, bwd=bwd, p2p=p2p)
    book = dataclasses.replace(
        book, sync_buckets=[list(buckets) for buckets in stage_buckets]
    )
    topology = make_topology(nodes=1, chips_per_node=p, memory=1e18,
                             dual=dual)
    plan = make_plan(pp=p, m=m)
    costmodel = CostModelConfig(grad_sync=GradSyncPolicy(frequency=frequency,
                                                         overlap=overlap))
    workload = StepWorkload(microbatch_token_budget=64,
                            seq_len_model=SequenceLengthModel.fixed(64))
    args = (catalog["3B"], full_stage, plan, topology, costmodel, 0, workload)
    return args, book


def sync_rows(trace, stage):
    a, b = trace.offsets[2 * stage + 1:2 * stage + 3]
    start, end, kind, _ = (column[a:b] for column in trace.columns)
    at = [KINDS[k] == (COMM, LABEL_SYNC) for k in kind.tolist()]
    return list(zip(start[at].tolist(), end[at].tolist()))


# buckets of a 5700.1 s backward, each ready about 950 s after the one
# before: the short ones run out before the next is ready, the 1800 s one
# holds the next in the queue, so readiness overtakes the queue before
# and after it. 5700.1 * j / 6 and 5700.1 * (j / 6) differ at every j, by
# more than the start of the backward (1 s) can round away, so readiness
# computed in another order is told apart
OVERTAKING = [500.0, 1800.0, 100.0, 100.0, 500.0, 100.0]


class TestSyncChainMatchesReference:
    """The sync chain's rows against the frozen per-row loop: the loop
    steps a sync until its queue reaches the last bucket's readiness, or
    the first on a comm-bound chain (every bucket but the last outlasting
    the readiness step by the stop test's rounding margin), and the queued
    tail's starts and every end are added after it. The loop folds each
    run of equal queued durations in one add where that is exact
    (TestFoldEqual)."""

    FREQUENCIES = pytest.mark.parametrize(
        "frequency", ["per_step", "per_microbatch"]
    )

    def check(self, catalog, full_stage, stage_buckets, frequency,
              **kwargs):
        args, book = sync_book_run(catalog, full_stage, stage_buckets,
                                   frequency, **kwargs)
        trace = run(*args, cost_book=book)
        assert_columns_identical(trace, reference_run(*args, cost_book=book))
        return trace

    @FREQUENCIES
    def test_zero_length_bucket_mid_chain(self, catalog, full_stage,
                                          frequency):
        trace = self.check(catalog, full_stage, [[0.3, 0.0, 0.2]] * 2,
                           frequency)
        syncs = 3 if frequency == "per_microbatch" else 1
        assert len(sync_rows(trace, 0)) == 2 * syncs

    @FREQUENCIES
    def test_bucket_under_one_ulp_dropped(self, catalog, full_stage,
                                          frequency):
        # the chain is past 1 s, where an ulp is 2.2e-16: end == start
        trace = self.check(catalog, full_stage, [[0.25, 1e-17, 0.25]] * 2,
                           frequency)
        syncs = 3 if frequency == "per_microbatch" else 1
        assert len(sync_rows(trace, 1)) == 2 * syncs

    @FREQUENCIES
    def test_readiness_overtakes_the_queue_repeatedly(self, catalog,
                                                      full_stage, frequency):
        trace = self.check(catalog, full_stage, [OVERTAKING] * 2, frequency,
                           bwd=5700.1)
        rows = sync_rows(trace, 0)[-len(OVERTAKING):]
        gaps = sum(start > prev_end
                   for (_, prev_end), (start, _) in zip(rows, rows[1:]))
        queued = sum(start == prev_end
                     for (_, prev_end), (start, _) in zip(rows, rows[1:]))
        assert gaps >= 2 and queued >= 1

    @FREQUENCIES
    def test_overlap_off(self, catalog, full_stage, frequency):
        self.check(catalog, full_stage, [OVERTAKING] * 2, frequency,
                   bwd=6000.0, overlap=False)

    @FREQUENCIES
    def test_single_stream_chip(self, catalog, full_stage, frequency):
        self.check(catalog, full_stage, [OVERTAKING] * 2, frequency,
                   bwd=6000.0, dual=False)

    @FREQUENCIES
    def test_producing_compute_zero(self, catalog, full_stage, frequency):
        self.check(catalog, full_stage, [OVERTAKING] * 2, frequency, bwd=0.0)

    @pytest.mark.parametrize("second, rows", [
        (3.0, [(2.0, 3.0), (3.0, 6.0), (6.0, 7.0), (7.0, 10.0)]),
        (5.0, [(2.0, 3.0), (3.0, 8.0), (8.0, 9.0), (9.0, 14.0)]),
    ])
    def test_sync_entering_at_or_past_its_last_readiness(
            self, catalog, full_stage, second, rows):
        # one stage, backwards of 2 s: the first sync's buckets are ready at
        # 2 and 3 s and it ends at 6 or 8 s; the second backward runs 4-6 s,
        # so the second sync enters at or past its last readiness, 6 s, and
        # queues from its first bucket on
        trace = self.check(catalog, full_stage, [[1.0, second]],
                           "per_microbatch", m=2)
        assert sync_rows(trace, 0) == rows

    def test_sync_crossing_into_its_queue_mid_chain(self, catalog,
                                                    full_stage):
        # ready at 1 + 2 j / 5 s: the short buckets wait for readiness, the
        # third runs past the last readiness (3 s), and the last two queue
        trace = self.check(catalog, full_stage, [[0.25, 0.25, 3.0, 1.0, 1.0]],
                           "per_step", m=1)
        rows = sync_rows(trace, 0)
        assert [start for start, _ in rows[:3]] == [
            1.0 + 2.0 * j / 5 for j in (1, 2, 3)
        ]
        assert [start for start, _ in rows[3:]] == [end for _, end in rows[2:4]]

    def test_queue_test_reads_the_last_readiness(self, catalog, full_stage):
        # the last readiness as the chain computes it, 1 + bwd * 3 / 3,
        # rounds an ulp above 1 + bwd, where the second bucket ends: so
        # the third still waits for its readiness
        bwd = 0.6715145436308927
        ready = [1.0 + bwd * j / 3 for j in (1, 2, 3)]
        assert ready[2] > 1.0 + bwd
        trace = self.check(catalog, full_stage,
                           [[0.01, (1.0 + bwd) - ready[1], 0.5]], "per_step",
                           m=1, bwd=bwd)
        assert [start for start, _ in sync_rows(trace, 0)] == ready

    @FREQUENCIES
    def test_one_bucket(self, catalog, full_stage, frequency):
        self.check(catalog, full_stage, [[0.5], [3.0], [1e-17]], frequency,
                   m=4)

    @FREQUENCIES
    def test_stages_of_different_bucket_counts(self, catalog, full_stage,
                                               frequency):
        # each bucket count has its own matrix; a stage with no buckets
        # syncs nothing
        trace = self.check(catalog, full_stage,
                           [[0.4] * 7, [], [0.2, 0.9], [1.5]], frequency, m=4)
        syncs = 4 if frequency == "per_microbatch" else 1
        assert [len(sync_rows(trace, i)) for i in range(4)] == [
            n * syncs for n in (7, 0, 2, 1)
        ]

    @FREQUENCIES
    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("dual", [True, False])
    @pytest.mark.parametrize("p2p", [0.1, 0.0])
    def test_one_matrix_per_bucket_count(self, catalog, full_stage,
                                         frequency, overlap, dual, p2p):
        # counts 3, 7, 0, 2 and 3: the two 3-bucket stages, apart in stage
        # order, share a matrix; the zero-length buckets are not recorded.
        # A stage that sends backward enters its sync queued behind the
        # send; without sends, every overlapped sync steps some buckets
        stage_buckets = [[0.3, 0.0, 0.2], [0.4] * 7, [], [0.2, 0.9],
                         [1.5, 0.6, 0.0]]
        trace = self.check(catalog, full_stage, stage_buckets, frequency,
                           m=3, overlap=overlap, dual=dual, bwd=3.0, p2p=p2p)
        syncs = 3 if frequency == "per_microbatch" else 1
        assert [len(sync_rows(trace, i)) for i in range(5)] == [
            n * syncs for n in (2, 7, 0, 2, 2)
        ]

    @FREQUENCIES
    def test_overlap_off_queues_every_bucket(self, catalog, full_stage,
                                             frequency):
        # every bucket is ready when the sync starts: each sync is one queue
        stage_buckets = [[0.4] * 7, [0.2, 0.9]]
        trace = self.check(catalog, full_stage, stage_buckets, frequency,
                           m=3, overlap=False)
        for i, buckets in enumerate(stage_buckets):
            rows = sync_rows(trace, i)
            for at in range(0, len(rows), len(buckets)):
                queue = rows[at:at + len(buckets)]
                assert all(start == prev_end for (_, prev_end), (start, _)
                           in zip(queue, queue[1:]))

    def test_queued_tail_adds_left_to_right(self, catalog, full_stage):
        # the 3 s bucket, ready at 1 + 2 / 18 s, ends past the last
        # readiness (3 s), so the sixteen 1e-16 s buckets and the last one
        # queue. Each 1e-16 is under half an ulp of the queue's time (about
        # 4.1 s, where an ulp is 8.9e-16), so added left to right they add
        # nothing, while a compensated sum (math.fsum, builtin sum from
        # Python 3.12) or their own sum added at once adds 1.6e-15
        tiny = [1e-16] * 16
        trace = self.check(catalog, full_stage, [[3.0, *tiny, 0.25]],
                           "per_step", m=1)
        (_, queued), (start, end) = sync_rows(trace, 0)
        assert start == queued
        assert trace.makespan == end == queued + 0.25
        assert math.fsum([queued, *tiny]) > queued

    @given(
        stage_buckets=st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
            min_size=1, max_size=3,
        ),
        # a chain of about `scale` times its backward: the queue forms late
        # in the chain at small scales and from the first bucket at large
        scale=st.floats(1e-3, 4.0),
        frequency=st.sampled_from(["per_step", "per_microbatch"]),
        m=st.integers(1, 4),
        bwd=st.floats(1e-3, 8.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_queue_boundaries(self, catalog, full_stage,
                                     stage_buckets, scale, frequency, m, bwd):
        self.check(catalog, full_stage, [
            [d * scale * bwd / len(buckets) for d in buckets]
            for buckets in stage_buckets
        ], frequency, m=m, bwd=bwd)

    @given(
        # one list per stage, so a duration taken from another stage's
        # list, or from another sync's place, is told apart
        stage_buckets=st.lists(
            st.lists(
                st.one_of(st.just(0.0), st.floats(1e-18, 1e-15),
                          st.floats(0.0, 3.0)),
                max_size=12,
            ),
            min_size=1, max_size=3,
        ),
        frequency=st.sampled_from(["per_step", "per_microbatch"]),
        m=st.integers(1, 4), dual=st.booleans(), overlap=st.booleans(),
        bwd=st.one_of(st.just(0.0), st.floats(1e-3, 8.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_bucket_lists(self, catalog, full_stage, stage_buckets,
                                 frequency, m, dual, overlap, bwd):
        self.check(catalog, full_stage, stage_buckets, frequency, m=m,
                   dual=dual, overlap=overlap, bwd=bwd)

    @given(
        n=st.integers(1, 12),
        # full buckets of c/n (1 + k 2^-e): at e = 53 every draw fails the
        # stop test by its rounding margin; toward e = 30 more pass it
        k=st.integers(-8, 8), e=st.integers(30, 53),
        last=st.floats(0.0, 1.0),
        bwd=st.floats(1e-3, 8.0),
        # the backwards start after the forwards: produce_start to 1e4 s
        fwd=st.one_of(st.just(0.0), st.floats(0.0, 3e3)),
        m=st.integers(1, 3),
        # stage 1 sends before it syncs, so its syncs enter past r_1
        p=st.integers(1, 2),
    )
    # the second sync enters at exactly its first readiness, 1 + 1 / 3 s
    @example(n=3, k=4, e=44, last=0.999999999999318, bwd=1.0, fwd=0.0, m=2,
             p=1)
    @settings(max_examples=300, deadline=None)
    def test_random_stop_boundaries(self, catalog, full_stage, n, k, e, last,
                                    bwd, fwd, m, p):
        d = bwd / n * (1 + k * 2.0 ** -e)
        self.check(catalog, full_stage, [[d] * (n - 1) + [d * last]] * p,
                   "per_microbatch", m=m, fwd=fwd, bwd=bwd)

    def test_subnormal_readiness_step(self, catalog, full_stage):
        # a 5e-324 s backward from time 0 readies its buckets at 0 and
        # 5e-324 s, so the second, behind a zero-length first, waits for its
        # readiness; the stop test's relative margin rounds to 0 here, and
        # its 1e-300 keeps the chain stepping
        trace = self.check(catalog, full_stage, [[0.0, 1.0]], "per_step",
                           m=1, fwd=0.0, bwd=5e-324, p2p=0.0)
        assert sync_rows(trace, 0) == [(5e-324, 1.0)]

    def test_overflowing_readiness_not_folded(self, catalog, full_stage):
        # the last readiness, 6e307 * 3 / 3, overflows to inf: the last
        # bucket never starts and the run is refused, where a chain folded
        # from r_1 on would end at a finite time
        args, book = sync_book_run(catalog, full_stage,
                                   [[2.1e307, 2.1e307, 1.0]], "per_step",
                                   m=1, fwd=0.0, bwd=6e307, p2p=0.0)
        with pytest.raises(AssertionError, match="makespan inf"):
            run(*args, cost_book=book)

    def stepped(self, monkeypatch, catalog, full_stage, stage_buckets,
                frequency, **kwargs):
        """Each sync's j, the buckets the loop stepped, from the records it
        hands _trace_columns."""
        steps = []
        trace_columns = engine._trace_columns

        def spy(order, codes, costs, starts, sends, syncs, *rest):
            steps.extend(j for records in syncs for j in records[1::3])
            return trace_columns(order, codes, costs, starts, sends, syncs,
                                 *rest)

        monkeypatch.setattr(engine, "_trace_columns", spy)
        self.check(catalog, full_stage, stage_buckets, frequency, **kwargs)
        return steps

    @FREQUENCIES
    def test_comm_bound_chain_steps_at_most_one_bucket(
            self, monkeypatch, catalog, full_stage, frequency):
        # readiness every 0.5 s; each bucket a later one queues behind
        # lasts 0.6 s. The last lasts 0.1 s and gates none, so stage 0's
        # syncs, entering before their first readiness, step one bucket
        steps = self.stepped(monkeypatch, catalog, full_stage,
                             [[0.6] * 5 + [0.1]] * 3, frequency, m=4,
                             bwd=3.0)
        assert max(steps) == 1

    @FREQUENCIES
    def test_ready_bound_chain_steps_to_its_last_readiness(
            self, monkeypatch, catalog, full_stage, frequency):
        # buckets of 0.4 s ready every 0.5 s each wait for their readiness
        steps = self.stepped(monkeypatch, catalog, full_stage,
                             [[0.4] * 6] * 3, frequency, m=4, bwd=3.0)
        assert max(steps) == 6

    @pytest.mark.parametrize("top", [2.0, 32.0])
    @pytest.mark.parametrize("overlap", [True, False])
    def test_equal_run_crossing_a_power_of_two(self, catalog, full_stage,
                                               top, overlap):
        # twenty 0.01 s buckets and a remainder, ready across a 0.1 s
        # backward from 0.15 s below `top` (produce_start), or all at its
        # end: the queue, from the first or second bucket on, crosses top
        trace = self.check(catalog, full_stage, [[0.01] * 20 + [0.003]],
                           "per_step", m=1, fwd=top - 0.15, bwd=0.1,
                           p2p=0.0, overlap=overlap)
        rows = sync_rows(trace, 0)
        assert rows[1][0] < top < rows[-2][1]

    @pytest.mark.parametrize("top", [2.0, 32.0])
    def test_equal_run_ending_an_ulp_past_a_power_of_two(self, catalog,
                                                         full_stage, top):
        # overlap off, the queue enters at top - 8u, u its ulp. Three
        # buckets of 3.25 u end at top + u exactly, which one add rounds
        # to top, while adding them in turn rounds the last up to top + 2u
        u = math.ulp(top / 2)
        trace = self.check(catalog, full_stage, [[3.25 * u] * 3 + [0.5]],
                           "per_step", m=1, fwd=top / 2, bwd=top / 2 - 8 * u,
                           p2p=0.0, overlap=False)
        assert sync_rows(trace, 0)[3] == (top + 2 * u, top + 2 * u + 0.5)

    @pytest.mark.parametrize("overlap", [True, False])
    @FREQUENCIES
    def test_distinct_head_before_an_equal_run(self, catalog, full_stage,
                                               overlap, frequency):
        # the head is folded alone, or stepped (a comm-bound chain steps
        # one bucket), and the run of 0.3 s buckets after it from bucket 1
        self.check(catalog, full_stage, [[0.7] + [0.3] * 8] * 2, frequency,
                   m=3, overlap=overlap)

    @pytest.mark.parametrize("whole", [2, 3])
    def test_tie_valued_duration(self, catalog, full_stage, whole):
        # overlap off, the queue enters at 1.5 + u (u = 2^-52), an odd
        # mantissa, and each bucket lasts (whole + 1/2) u, a tie at every
        # add. Ties round to an even mantissa, so the first add rounds the
        # other way than the later ones: no fixed step gives the sum
        u = 2.0 ** -52
        trace = self.check(catalog, full_stage,
                           [[(whole + 0.5) * u] * 6 + [0.25]], "per_step",
                           m=1, fwd=1.0, bwd=0.5 + u, p2p=0.0, overlap=False)
        tail = sync_rows(trace, 0)[-1][0]
        assert tail != 1.5 + u + 6 * round(whole + 0.5) * u

    @FREQUENCIES
    def test_chain_entered_at_free_zero(self, catalog, full_stage,
                                        frequency):
        # no forward, backward or send time: every bucket is ready at 0
        # and the first sync folds its whole chain from free = 0.0
        self.check(catalog, full_stage, [[0.1] * 5 + [0.05]], frequency,
                   m=2, fwd=0.0, bwd=0.0, p2p=0.0)

    def folds(self, monkeypatch, catalog, full_stage, stage_buckets,
              frequency, **kwargs):
        """The bucket count of each run the loop folds, and of each run
        that fell back to adding in turn."""
        runs, in_turn = [], []
        fold_equal, reduce_in_turn = engine._fold_equal, engine.reduce

        def fold_spy(x, d, k):
            runs.append(k)
            return fold_equal(x, d, k)

        def reduce_spy(function, values, x):
            values = list(values)
            in_turn.append(len(values))
            return reduce_in_turn(function, values, x)

        monkeypatch.setattr(engine, "_fold_equal", fold_spy)
        monkeypatch.setattr(engine, "reduce", reduce_spy)
        self.check(catalog, full_stage, stage_buckets, frequency, **kwargs)
        return runs, in_turn

    @pytest.mark.parametrize("fwd, in_turn", [(1.0, []), (1.5, [8])])
    def test_equal_buckets_fold_in_closed_form(self, monkeypatch, catalog,
                                               full_stage, fwd, in_turn):
        # overlap off, the queue enters at fwd + 2 s: from 3.0 s the tail
        # ends at 3.85 s, inside [2, 4), and both runs take the closed form;
        # from 3.5 s the 0.1 s run crosses 4 s and is added in turn
        runs, fallbacks = self.folds(
            monkeypatch, catalog, full_stage, [[0.1] * 8 + [0.05]],
            "per_step", m=1, fwd=fwd, p2p=0.0, overlap=False)
        assert runs == [8, 1]
        assert fallbacks == in_turn


@st.composite
def fold_cases(draw):
    """(x, d, k) for engine._fold_equal: x anywhere, or a few ulps below a
    power of two; d a multiple of x's ulp plus a fraction (a tie at 1/2),
    or any duration; k up to 3000, so many folds cross the power of two."""
    x = draw(st.one_of(
        st.floats(0.0, 1e4),
        st.floats(0.0, allow_infinity=False),
        st.builds(lambda below, e: math.ldexp(1.0 - below * 2.0 ** -53, e),
                  st.integers(1, 4000), st.integers(-1080, 1024)),
    ))
    u = math.ulp(x)
    d = draw(st.one_of(
        st.builds(lambda whole, part: (whole + part) * u,
                  st.integers(0, 40) | st.integers(0, 2 ** 53),
                  st.sampled_from([0.0, 0.25, 0.5, 0.75])
                  | st.floats(0.0, 1.0, exclude_max=True)),
        st.floats(0.0, 1e3),
        st.sampled_from([0.0, -0.0, 5e-324, u / 2,
                         math.nextafter(u / 2, 0.0)]),
    ))
    return x, d, draw(st.integers(1, 3000))


class TestFoldEqual:
    """engine._fold_equal, k equal durations folded into a time in one add
    where exact, against the fold it replaces, k adds in turn, compared by
    bit pattern; `closed` names the path the explicit cases take."""

    U = 2.0 ** -52  # the ulp in [1, 2)

    def check(self, monkeypatch, x, d, k):
        in_turn = []
        reduce_in_turn = engine.reduce

        def spy(function, values, start):
            in_turn.append(start)
            return reduce_in_turn(function, values, start)

        monkeypatch.setattr(engine, "reduce", spy)
        assert engine._fold_equal(x, d, k).hex() == reduce(
            add, [d] * k, x).hex()
        return not in_turn

    @given(case=fold_cases())
    @settings(max_examples=600, deadline=None)
    def test_random(self, case):
        x, d, k = case
        assert engine._fold_equal(x, d, k).hex() == reduce(
            add, [d] * k, x).hex()

    @pytest.mark.parametrize("x, d, k, closed", [
        # ties d = (r + 1/2) u, r even and odd, at an even and odd mantissa
        (1.0, 2.5 * U, 5, False),
        (1.0, 3.5 * U, 5, False),
        (1.0 + U, 2.5 * U, 5, False),
        (1.0 + U, 3.5 * U, 5, False),
        # t at 2 - u, at 2, at 2 + u (which rounds to 2; in turn 2 + 2u)
        # and past 2
        (2.0 - 10 * U, 3.25 * U, 3, True),
        (2.0 - 9 * U, 3.25 * U, 3, False),
        (2.0 - 8 * U, 3.25 * U, 3, False),
        (1.9, 0.01, 20, False),
        # x a power of two, the least normal float, subnormal, zero
        (4.0, 0.1, 7, True),
        (2.0 ** -1022, 5e-324, 3, True),
        (1e-310, 5e-324, 4, False),
        (0.0, 0.1, 3, False),
        # d of 0.0, -0.0, 5e-324, just under u/2 and at u/2 (a tie)
        (1.5, 0.0, 10, True),
        (1.5, -0.0, 10, True),
        (1.5, 5e-324, 10, True),
        (1.5, math.nextafter(U / 2, 0.0), 10, True),
        (1.5, U / 2, 10, False),
        # q = d / u >= 2^52
        (1.0, 1.0, 3, False),
        (1.0, 3.0, 2, False),
        # k = 1, a large k
        (3.0, 0.6, 1, True),
        (3.0, 0.7, 1, False),  # 0.7 / u ends in 1/2: a tie
        (1024.0, 1e-6, 100_000, True),
        # the top binade, where 2^53 u is inf: a sum inside it, and one
        # that overflows (added in turn, to inf)
        (1.5e308, 1e300, 3, True),
        (1.7976931348623157e308, 2.0 ** 971, 1, False),
    ])
    def test_cases(self, monkeypatch, x, d, k, closed):
        assert self.check(monkeypatch, x, d, k) is closed


class TestRowBuild:
    def test_queued_tail_starts_at_free_bit_for_bit(self):
        # the fold leads each tail with -0.0, the identity of IEEE
        # addition, so a tail entering at free = -0.0 starts at -0.0
        # (0.0 + -0.0 is 0.0). No run reaches a free of -0.0, so the
        # records of one stage and one microbatch are written by hand:
        # forward (start 0, send start 1), backward (start 1, send start
        # 3), then a sync after the slot run second whose bucket 0 was
        # stepped to 3.0 and whose tail from bucket 1 enters at -0.0
        book = CostBook(
            fwd=[[1.0]], bwd=[[2.0]], tp_fwd=[[0.0]], tp_bwd=[[0.0]],
            p2p_fwd=[[0.0]], p2p_bwd=[[0.0]], sync_buckets=[[0.5, 0.25]],
        )
        _, _, codes, order, _ = build_1f1b(1, 1)
        cols, offsets = engine._trace_columns(
            order, codes, engine._slot_costs(book, codes, True, 1),
            [0.0, 1.0], [1.0, 3.0], [[1, 1, -0.0]], [[3.0]],
            book.sync_buckets, True, 1,
        )
        rows = list(zip(cols.start.tolist(), cols.end.tolist(),
                        cols.microbatch.tolist()))
        assert repr(rows) == repr(
            [(0.0, 1.0, 0), (1.0, 3.0, 0), (3.0, 3.5, -1), (-0.0, 0.25, -1)]
        )
        assert offsets.tolist() == [0, 2, 4]


BENCH_CONFIGS = [f"bench/workloads/{name}.json"
                 for name in ("flagship", "sweep-grid", "multimodal-api")]


class TestRowLayout:
    @pytest.mark.parametrize(
        "path", [f"{PRESET_DIR}/{preset}" for preset in PRESETS] + BENCH_CONFIGS
    )
    def test_sub_blocks_are_the_reference_rows(self, path):
        # each stage's rows are its compute rows, then its comm rows, each
        # sub-block the frozen per-row loop's rows of that resource in order
        config = load_config(path)
        args = (config.model, config.stage, config.plan, config.topology,
                config.costmodel, config.seed, config.workload)
        trace = run(*args)
        resources = [KINDS[k][0] for k in trace.columns.kind.tolist()]
        offsets = trace.offsets.tolist()
        for at in range(2 * config.plan.pp):
            assert set(resources[offsets[at]:offsets[at + 1]]) <= {
                (COMPUTE, COMM)[at % 2]
            }
        assert sum(map(len, trace.stage_rows)) == len(resources) == offsets[-1]
        assert_columns_identical(trace, reference_run(*args))


class TestPricingWork:
    def test_collective_calls_scale_with_shapes_not_microbatches(
        self, monkeypatch
    ):
        config = load_config(f"{PRESET_DIR}/paper-70b-5120.json")
        calls = []

        def counted(*args):
            calls.append(args)
            return collective_time(*args)

        monkeypatch.setattr(engine, "collective_time", counted)
        trace = run(config.model, config.stage, config.plan, config.topology,
                    config.costmodel, config.seed, workload=config.workload)
        pp = config.plan.pp
        shapes = set(zip(trace.microbatch_sizes, trace.microbatch_seq_lens))
        assert len(shapes) == 1 and config.plan.microbatches_per_step == 768
        # a stage has at most two bucket sizes: full ones and the remainder
        assert any(args[0] == "allreduce" for args in calls)
        assert len(calls) <= 4 * pp * len(shapes) + pp * 2

    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 64), st.sampled_from([1, 77, 4096, 30000])),
            min_size=1, max_size=60,
        ),
        visual=st.sampled_from([0, 77, 1792]),
        recompute=st.sampled_from(["none", "selective", "full"]),
        dp=st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_mfu_numerator_sums_in_batch_order(self, catalog, shapes, visual,
                                               recompute, dp):
        # per-batch FLOPs with full mantissas: a sum taken in any other
        # order (or as count * flops) differs
        model = dataclasses.replace(catalog["70B"], lm=ODD_LM)
        sizes, seqs = (list(column) for column in zip(*shapes))
        trace = trace_from_rows([[]], dp=dp, microbatch_sizes=sizes,
                                microbatch_seq_lens=seqs,
                                visual_tokens_per_sample=visual)
        total = 0.0
        for size, seq in shapes:
            total += step_flops(model, size, seq, visual_tokens=visual,
                                recompute=recompute)
        assert_identical(
            step_training_flops(trace, model, make_plan(recompute=recompute)),
            total * dp,
        )


def flagship_with(tmp_path, section, key, value):
    with open(f"{PRESET_DIR}/paper-70b-5120.json") as handle:
        doc = json.load(handle)
    node = doc
    for part in section:
        node = node[part]
    node[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestWorkBound:
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("section, key, value", [
        (("costmodel", "grad_sync"), "bucket_bytes", 1),
        (("plan",), "microbatches_per_step", 10**9),
    ])
    def test_refused_from_the_estimate(self, tmp_path, monkeypatch, capsys,
                                       command, section, key, value):
        def never(*args, **kwargs):
            raise AssertionError("work built before the bound was checked")

        monkeypatch.setattr(engine, "partition_layers", never)
        monkeypatch.setattr(engine, "split_buckets", never)
        monkeypatch.setattr(engine, "plan_step_microbatches", never)
        path = flagship_with(tmp_path, section, key, value)
        start = time.perf_counter()
        code = cli.main([command, "--config", str(path),
                         *(["--out", str(tmp_path / "out")]
                           if command == "simulate" else [])])
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"at $.{'.'.join(section)}.{key}:" in err
        assert f"{MAX_TRACE_ROWS:,}" in err

    @pytest.mark.parametrize("preset", PRESETS)
    def test_presets_accepted(self, preset):
        config = load_config(f"{PRESET_DIR}/{preset}")
        check_work_bound(config.model, config.stage, config.plan,
                         config.costmodel)

    @pytest.mark.parametrize("workload", ["flagship", "sweep-grid",
                                          "multimodal-api"])
    def test_benchmark_workloads_accepted(self, workload):
        config = load_config(f"bench/workloads/{workload}.json")
        check_work_bound(config.model, config.stage, config.plan,
                         config.costmodel)

    def test_bound_needs_no_layer_split(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the work bound split the layers")

        monkeypatch.setattr(engine, "partition_layers", never)
        config = load_config(f"{PRESET_DIR}/paper-70b-5120.json")
        check_work_bound(config.model, config.stage, config.plan,
                         config.costmodel)

    @pytest.mark.parametrize("model", ["3B", "8B", "70B"])
    @pytest.mark.parametrize("pp", [1, 3, 8])
    @pytest.mark.parametrize("balance", ["uniform", "cost-balanced"])
    def test_trainable_total_is_every_splits_sum(self, catalog, model, pp,
                                                 balance):
        # the sync volume the bound reads, against the stages' sync bytes
        model = catalog[model]
        for name in ("general-knowledge-injection", "cross-modal-alignment"):
            stage = stage_by_name(name)
            partition = partition_layers(model, pp, balance)
            stages = sum(stage_grad_bytes(model, stage, partition, i, 4, 2)
                         for i in range(pp))
            total = trainable_param_count(model, stage) / 4 * 2
            assert stages == pytest.approx(total, rel=1e-15)

    def test_pipeline_deeper_than_model_refused_as_a_violation(self, catalog,
                                                                full_stage):
        # validate_plan names it before anything splits the layers
        with pytest.raises(ConfigError) as err:
            run(catalog["3B"], full_stage, make_plan(dp=2, tp=1, pp=40, m=40),
                make_topology(nodes=10, chips_per_node=8), CostModelConfig(),
                seed=0)
        assert [v.constraint for v in err.value.violations] == ["pipeline-depth"]

    def test_ladder_point_accepted(self):
        # the deepest point of the scaling ladder: pp=80, m=4096, 2.0M rows
        config = load_config(f"{PRESET_DIR}/paper-70b-5120.json")
        plan = dataclasses.replace(config.plan, pp=80, dp=8,
                                   microbatches_per_step=4096)
        check_work_bound(config.model, config.stage, plan, config.costmodel)
