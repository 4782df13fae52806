import collections
import dataclasses
import inspect
import json
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vlmsim import cli, cluster, engine, metrics, schedule
from vlmsim.arch import stage_flops, step_flops
from vlmsim.engine import (
    COMM,
    COMPUTE,
    CostBook,
    CostModelConfig,
    build_cost_book,
    fused_allgather_gemm_time,
    run,
    step_shape,
    step_training_flops,
)
from vlmsim.cluster import ConfigError, partition_layers
from vlmsim.config import load_config
from vlmsim.metrics import build_report
from vlmsim.comm import GradSyncPolicy, collective_time
from vlmsim.schedule import build_1f1b, measured_bubble
from vlmsim.workload import SequenceLengthModel, stage_by_name
from tests.conftest import (
    EDGE_ROWS,
    PRESET_DIR,
    analytic_bubble,
    fixed_workload,
    make_plan,
    make_topology,
    row_order,
    simulate_slot_completion,
    slot_schedule,
    trace_from_rows,
    uniform_book,
)


class TestFusedTime:
    def test_single_chunk_is_sequential(self):
        assert fused_allgather_gemm_time(0.3, 0.7, 1) == 1.0

    def test_equal_times_eight_chunks(self):
        # 9T/8 against the sequential 2T: a 43.75% reduction
        t = fused_allgather_gemm_time(1.0, 1.0, 8)
        assert t == pytest.approx(9 / 8, abs=1e-15)
        assert 1.0 - t / 2.0 == pytest.approx(0.4375, abs=1e-15)

    def test_degenerate_legs_are_exact(self):
        assert fused_allgather_gemm_time(0.0, 0.7, 8) == 0.7
        assert fused_allgather_gemm_time(0.3, 0.0, 8) == 0.3
        assert fused_allgather_gemm_time(0.0, 0.0, 4) == 0.0

    def test_monotone_nonincreasing_in_chunks(self):
        prev = None
        for k in range(1, 65):
            t = fused_allgather_gemm_time(0.8, 0.5, k)
            if prev is not None:
                assert t <= prev + 1e-15
            prev = t

    @given(
        tc=st.floats(min_value=0, max_value=10),
        tg=st.floats(min_value=0, max_value=10),
        k=st.integers(min_value=1, max_value=256),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounded_by_max_and_sum(self, tc, tg, k):
        t = fused_allgather_gemm_time(tc, tg, k)
        assert t <= tc + tg + 1e-12
        assert t >= max(tc, tg) - 1e-12
        # closed form: max + min/k
        expect = max(tc, tg) + min(tc, tg) / k
        if tc > 0 and tg > 0:
            assert t == pytest.approx(expect, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fused_allgather_gemm_time(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            fused_allgather_gemm_time(-1.0, 1.0, 2)

    @given(
        lump=st.floats(min_value=1e-6, max_value=10),
        comp=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10)),
        k=st.integers(min_value=1, max_value=16),
    )
    @example(lump=1.0, comp=1.0, k=8)  # tc == tg
    @example(lump=3.0, comp=0.5, k=4)  # tc > tg: gated chunks
    @example(lump=0.5, comp=3.0, k=4)  # tc < tg
    @settings(max_examples=200, deadline=None)
    def test_engine_slot_ends_at_the_closed_form(self, catalog, lump, comp,
                                                 k):
        # the slot computes its span inline: p=1, m=1, the fused forward
        # starts at 0.0, and the backward (no lump) starts where it ends
        book = CostBook(fwd=[[comp]], bwd=[[1.0]], tp_fwd=[[lump]],
                        tp_bwd=[[0.0]], p2p_fwd=[[0.0]], p2p_bwd=[[0.0]],
                        sync_buckets=[[]])
        trace = run(
            catalog["3B"], stage_by_name("general-knowledge-injection"),
            make_plan(fusion_chunks=k),
            make_topology(chips_per_node=1, memory=1e18), CostModelConfig(),
            seed=0, workload=fixed_workload(64), cost_book=book,
        )
        backward = [row for row in trace.stage_rows[0] if row[3] == "bwd"]
        assert len(backward) == 1
        # repr tells the bits apart
        assert repr(backward[0][1]) == repr(
            fused_allgather_gemm_time(lump, comp, k)
        )


def run_uniform(catalog, p, m, fwd=1.0, bwd=2.0, tp_comm=0.0, p2p=0.0,
                dual=True, **plan_kw):
    """One replica, synthetic costs, fixed lengths; the scheduling testbed."""
    book = uniform_book(p, m, fwd=fwd, bwd=bwd, tp_comm=tp_comm, p2p=p2p)
    return run_book(catalog, book, dual=dual, **plan_kw)


def run_book(catalog, book, dual=True, **plan_kw):
    """run_uniform's testbed over an injected book of any costs."""
    p, m = len(book.fwd), len(book.fwd[0])
    model = catalog["3B"]
    topo = make_topology(nodes=1, chips_per_node=max(p, 1), memory=1e18,
                         dual=dual)
    plan = make_plan(dp=1, tp=1, pp=p, m=m, **plan_kw)
    stage = stage_by_name("general-knowledge-injection")
    return run(
        model,
        stage,
        plan,
        topo,
        CostModelConfig(),
        seed=0,
        workload=fixed_workload(64, budget=64),
        cost_book=book,
    )


class TestScheduleTiming:
    def test_single_stage_single_microbatch(self, catalog):
        trace = run_uniform(catalog, p=1, m=1, fwd=1.0, bwd=2.0)
        assert trace.makespan == 3.0
        rows = trace.stage_rows[0]
        assert [(r[3], r[1], r[2]) for r in rows] == [
            ("fwd", 0.0, 1.0),
            ("bwd", 1.0, 3.0),
        ]

    def test_zero_comm_bubble_matches_analytic(self, catalog):
        for p, m in [(2, 2), (2, 8), (4, 4), (4, 16), (8, 8), (8, 24)]:
            trace = run_uniform(catalog, p=p, m=m)
            assert measured_bubble(trace) == pytest.approx(
                analytic_bubble(p, m), abs=1e-12
            )

    def test_makespan_formula_at_unit_costs(self, catalog):
        trace = run_uniform(catalog, p=4, m=16, fwd=1.0, bwd=1.0)
        assert trace.makespan == pytest.approx(2 * 16 + 2 * 3, abs=1e-12)

    def test_p2p_delays_downstream_start(self, catalog):
        trace = run_uniform(catalog, p=2, m=2, p2p=0.25)
        first_fwd_s1 = min(
            r[1] for r in trace.stage_rows[1] if r[3] == "fwd"
        )
        first_fwd_end_s0 = min(
            r[2] for r in trace.stage_rows[0] if r[3] == "fwd"
        )
        assert first_fwd_s1 == pytest.approx(first_fwd_end_s0 + 0.25, abs=1e-12)

    def test_causality_along_pipeline(self, catalog):
        trace = run_uniform(catalog, p=4, m=8, p2p=0.1)
        for i in range(3):
            up = {r[4]: r[2] for r in trace.stage_rows[i] if r[3] == "fwd"}
            down = {r[4]: r[1] for r in trace.stage_rows[i + 1] if r[3] == "fwd"}
            for mb, start in down.items():
                assert start >= up[mb] + 0.1 - 1e-12

    def test_event_conservation(self, catalog):
        p, m = 4, 12
        trace = run_uniform(catalog, p=p, m=m, tp_comm=0.0)
        events = {
            (i, r[3], r[4])
            for i in range(p)
            for r in trace.stage_rows[i]
            if r[3] in ("fwd", "bwd")
        }
        assert len(events) == 2 * p * m

    def test_intervals_never_overlap_per_resource(self, catalog):
        trace = run_uniform(
            catalog, p=4, m=8, tp_comm=0.2, p2p=0.05, fusion_chunks=4
        )
        trace.check_invariants()  # raises on violation

    def test_injected_book_shape_must_match(self, catalog, small_topology,
                                            full_stage, costmodel):
        book = uniform_book(2, 4, fwd=1.0, bwd=2.0)
        with pytest.raises(ValueError, match="cost_book shape"):
            run(
                catalog["3B"],
                full_stage,
                make_plan(dp=1, tp=8, pp=1, m=4),
                small_topology,
                costmodel,
                seed=0,
                workload=fixed_workload(64, budget=64),
                cost_book=book,
            )

    def test_invalid_plan_raises_before_simulation(
        self, catalog, small_topology, full_stage, costmodel
    ):
        with pytest.raises(ConfigError) as err:
            run(
                catalog["3B"],
                full_stage,
                make_plan(dp=3, tp=1, pp=1, m=2),
                small_topology,
                costmodel,
                seed=0,
                workload=fixed_workload(64, budget=64),
            )
        assert err.value.violations
        assert err.value.violations[0].constraint == "parallelism-product"

    def test_plan_shape_refused_before_the_work_bound(
        self, catalog, full_stage, costmodel
    ):
        # 40 stages of a 36-layer model, with far too many microbatches:
        # the pipeline depth is named, not the trace-row bound
        with pytest.raises(ConfigError) as err:
            run(
                catalog["3B"],
                full_stage,
                make_plan(dp=1, tp=1, pp=40, m=10**9),
                make_topology(nodes=5, chips_per_node=8),
                costmodel,
                seed=0,
            )
        assert [v.constraint for v in err.value.violations] == ["pipeline-depth"]
        assert str(err.value) == "pp 40 exceeds layer count 36"

    def test_context_limit_checked_after_packing(
        self, catalog, small_topology, full_stage, costmodel
    ):
        tiny = dataclasses.replace(
            catalog["3B"],
            lm=dataclasses.replace(catalog["3B"].lm, context_limit=2048),
        )
        with pytest.raises(ValueError, match="context limit"):
            run(
                tiny,
                full_stage,
                make_plan(dp=1, tp=8, pp=1, m=2),
                small_topology,
                costmodel,
                seed=0,
                workload=fixed_workload(4096, budget=4096),
            )


class TestFusionInEngine:
    def test_comm_heavy_chunking_splits_compute(self, catalog):
        # tc=0.2 > tg=0.1 per chunk: the GEMM shows up as 4 gated slices
        trace = run_uniform(
            catalog, p=1, m=1, fwd=0.4, bwd=0.8, tp_comm=0.8, fusion_chunks=4
        )
        fwd_rows = [
            r for r in trace.stage_rows[0] if r[3] == "fwd" and r[0] == COMPUTE
        ]
        assert len(fwd_rows) == 4
        assert fwd_rows[0][1] == pytest.approx(0.2, abs=1e-12)
        span = fused_allgather_gemm_time(0.8, 0.4, 4)
        assert fwd_rows[-1][2] == pytest.approx(span, abs=1e-12)

    def test_compute_heavy_chunking_keeps_one_interval(self, catalog):
        trace = run_uniform(
            catalog, p=1, m=1, fwd=0.8, bwd=1.6, tp_comm=0.4, fusion_chunks=4
        )
        fwd_rows = [
            r for r in trace.stage_rows[0] if r[3] == "fwd" and r[0] == COMPUTE
        ]
        assert len(fwd_rows) == 1
        assert fwd_rows[0][1] == pytest.approx(0.1, abs=1e-12)  # first chunk lands
        assert fwd_rows[0][2] == pytest.approx(
            fused_allgather_gemm_time(0.4, 0.8, 4), abs=1e-12
        )

    def test_zero_flop_gemm_under_a_lump_records_no_compute(
        self, catalog, full_stage
    ):
        topo = make_topology(nodes=1, chips_per_node=2, memory=1e18)
        for k in range(1, 9):
            book = uniform_book(1, 2, fwd=0.0, bwd=1.0, tp_comm=0.8)
            trace = run(
                catalog["3B"], full_stage,
                make_plan(dp=1, tp=2, pp=1, m=2, fusion_chunks=k), topo,
                CostModelConfig(), seed=0,
                workload=fixed_workload(64, budget=64), cost_book=book,
            )
            rows = trace.stage_rows[0]
            assert not [r for r in rows if r[3] == "fwd"], k
            assert trace.stage_compute_busy()[0] == pytest.approx(
                sum(book.bwd[0]), rel=1e-12
            )
            # the forward slot still ends where its lump does
            collectives = [r for r in rows if r[3] == "collective"]
            assert collectives[1][1] == collectives[0][2] == 0.8

    def test_makespan_monotone_in_chunks(self, catalog):
        times = []
        for k in (1, 2, 4, 8, 16):
            trace = run_uniform(
                catalog, p=2, m=4, tp_comm=0.6, fusion_chunks=k
            )
            times.append(trace.makespan)
        for a, b in zip(times, times[1:]):
            assert b <= a + 1e-12
        assert times[-1] < times[0]

    def test_real_model_chunk_sweep(self, catalog, full_stage):
        # bandwidth tuned so the per-slot collective lump rivals the GEMM
        topo = make_topology(
            nodes=1, chips_per_node=8, intra_bw=1.0e11, peak=2.56e14,
            memory=1.92e11,
        )
        times = []
        for k in (1, 2, 4, 8):
            plan = make_plan(
                dp=1, tp=8, pp=1, m=8, sequence_parallel=True,
                fusion_chunks=k, recompute="selective",
            )
            trace = run(
                catalog["8B"],
                full_stage,
                plan,
                topo,
                CostModelConfig(),
                seed=7,
                workload=fixed_workload(4096, budget=4096),
            )
            times.append(trace.makespan)
        for a, b in zip(times, times[1:]):
            assert b < a
        assert 1.0 - times[-1] / times[0] > 0.10


class TestOverlap:
    def test_dual_stream_never_slower(self, catalog):
        for tp_comm, p2p in [(0.0, 0.0), (0.3, 0.0), (0.0, 0.1), (0.3, 0.1)]:
            on = run_uniform(catalog, p=4, m=8, tp_comm=tp_comm, p2p=p2p,
                             dual=True)
            off = run_uniform(catalog, p=4, m=8, tp_comm=tp_comm, p2p=p2p,
                              dual=False)
            assert on.makespan <= off.makespan + 1e-12
            if tp_comm == 0.0 and p2p == 0.0:
                assert on.makespan == off.makespan

    def test_p2p_overlap_beats_serialization(self, catalog):
        on = run_uniform(catalog, p=4, m=16, p2p=0.2, dual=True)
        off = run_uniform(catalog, p=4, m=16, p2p=0.2, dual=False)
        assert on.makespan < off.makespan


def run_dp(catalog, dp, overlap, dual=True, m=4, policy=None):
    model = catalog["3B"]
    topo = make_topology(nodes=dp, chips_per_node=2, memory=1e18, dual=dual)
    plan = make_plan(dp=dp, tp=2, pp=1, m=m, overlap_grad_sync=overlap)
    from vlmsim.workload import stage_by_name

    stage = stage_by_name("general-knowledge-injection")
    cm = CostModelConfig(grad_sync=policy or GradSyncPolicy())
    return run(
        model, stage, plan, topo, cm, seed=3,
        workload=fixed_workload(1024, budget=1024),
    )


class TestGradSync:
    def test_sync_appears_only_with_dp(self, catalog):
        solo = run_uniform(catalog, p=2, m=4)
        assert all(
            r[3] != "sync_bucket" for rows in solo.stage_rows for r in rows
        )
        synced = run_dp(catalog, dp=2, overlap=True)
        assert any(
            r[3] == "sync_bucket" for rows in synced.stage_rows for r in rows
        )

    def test_overlap_bounded_by_total_sync_time(self, catalog):
        on = run_dp(catalog, dp=4, overlap=True)
        off = run_dp(catalog, dp=4, overlap=False)
        sync_total = sum(
            r[2] - r[1]
            for rows in off.stage_rows
            for r in rows
            if r[3] == "sync_bucket"
        )
        assert sync_total > 0
        gain = off.makespan - on.makespan
        assert -1e-12 <= gain <= sync_total + 1e-12

    def test_last_bucket_is_tail_exposed(self, catalog):
        # the final bucket only becomes ready when its backward completes,
        # so overlapped sync still extends the makespan past the last bwd
        trace = run_dp(catalog, dp=4, overlap=True)
        last_bwd_end = max(
            r[2] for rows in trace.stage_rows for r in rows if r[3] == "bwd"
        )
        sync_rows = [
            r for rows in trace.stage_rows for r in rows if r[3] == "sync_bucket"
        ]
        last_sync = max(r[2] for r in sync_rows)
        assert last_sync > last_bwd_end
        assert trace.makespan == pytest.approx(last_sync, abs=1e-12)

    def test_per_microbatch_syncs_every_backward(self, catalog):
        per_step = run_dp(catalog, dp=2, overlap=True, m=4)
        per_mb = run_dp(
            catalog, dp=2, overlap=True, m=4,
            policy=GradSyncPolicy(frequency="per_microbatch"),
        )
        def sync_count(trace):
            return sum(
                1 for rows in trace.stage_rows for r in rows
                if r[3] == "sync_bucket"
            )
        assert sync_count(per_mb) == 4 * sync_count(per_step)
        assert per_mb.makespan > per_step.makespan

    def test_serialized_sync_with_busy_comm_unit(self, catalog, full_stage):
        # pp>1 so the stage's own p2p send is still draining when the
        # non-overlapped sync wants the comm unit; invariants must hold
        topo = make_topology(nodes=4, chips_per_node=2, memory=1e18)
        plan = make_plan(dp=2, tp=2, pp=2, m=4, overlap_grad_sync=False)
        trace = run(
            catalog["3B"], full_stage, plan, topo, CostModelConfig(), seed=1,
            workload=fixed_workload(1024, budget=1024),
        )
        trace.check_invariants()
        assert any(
            r[3] == "sync_bucket" for rows in trace.stage_rows for r in rows
        )


class TestDeterminism:
    def test_same_seed_same_bytes(self, catalog, small_topology, full_stage,
                                  costmodel, tmp_path):
        def go(name):
            trace = run(
                catalog["3B"], full_stage,
                make_plan(dp=1, tp=8, pp=1, m=6),
                small_topology, costmodel, seed=11,
                workload=fixed_workload(2048, budget=2048),
            )
            return "\n".join(jsonl_lines(trace, tmp_path / name))

        assert go("a.jsonl") == go("b.jsonl")

    def test_seed_changes_sampled_lengths(self, catalog, small_topology,
                                          full_stage, costmodel):
        def lengths(seed):
            workload = dataclasses.replace(
                fixed_workload(2048, budget=2048), seq_len_model=None
            )
            trace = run(
                catalog["3B"], full_stage,
                make_plan(dp=1, tp=8, pp=1, m=6),
                small_topology, costmodel, seed=seed,
                workload=workload,
            )
            return trace.microbatch_seq_lens

        assert lengths(21) == lengths(21)
        assert lengths(21) != lengths(22)


class TestStepFlops:
    def test_matches_arch_arithmetic(self, catalog, small_topology,
                                     full_stage, costmodel):
        plan = make_plan(dp=1, tp=8, pp=1, m=4, recompute="selective")
        trace = run(
            catalog["3B"], full_stage, plan, small_topology, costmodel,
            seed=0, workload=fixed_workload(2048, budget=2048),
        )
        expect = 4 * step_flops(
            catalog["3B"], 1, 2048, recompute="selective"
        )
        assert step_training_flops(trace, catalog["3B"], plan) == expect

    def test_scales_with_dp(self, catalog, full_stage, costmodel):
        topo = make_topology(nodes=2, chips_per_node=8, memory=1e18)
        plan = make_plan(dp=2, tp=8, pp=1, m=4)
        trace = run(
            catalog["3B"], full_stage, plan, topo, costmodel, seed=0,
            workload=fixed_workload(2048, budget=2048),
        )
        assert trace.tokens_per_step == 2 * 4 * 2048
        single = 4 * step_flops(catalog["3B"], 1, 2048)
        assert step_training_flops(trace, catalog["3B"], plan) == 2 * single

    @pytest.mark.parametrize("path", [
        f"{PRESET_DIR}/paper-70b-5120.json",
        f"{PRESET_DIR}/seqpar-32k.json",
        "bench/workloads/multimodal-api.json",
    ])
    def test_cost_book_is_stage_flops_over_chip_rate(self, path):
        cfg = load_config(path)
        plan = cfg.plan
        workload, microbatches, _, _ = step_shape(
            cfg.model, cfg.stage, plan, cfg.topology, cfg.costmodel,
            cfg.seed, cfg.workload,
        )
        partition = partition_layers(cfg.model, plan.pp, plan.layer_balance)
        book = build_cost_book(cfg.model, cfg.stage, plan, cfg.topology,
                               cfg.costmodel, partition, microbatches, workload)
        chip_rate = plan.tp * cfg.topology.chip.peak_flops
        for i, layers in enumerate(partition):
            for k, batch in enumerate(microbatches.batches):
                fwd, bwd = stage_flops(
                    cfg.model, layers, i == 0, i == plan.pp - 1, len(batch),
                    max(batch), workload.visual_tokens_per_sample,
                    plan.recompute,
                )
                assert book.fwd[i][k] == fwd / chip_rate
                assert book.bwd[i][k] == bwd / chip_rate


def reference_row_lines(trace):
    """Interval lines as json.dumps writes each row's dict."""
    return [
        json.dumps(
            {"stage": stage, "resource": res, "start": start, "end": end,
             "label": label, "microbatch": mb},
            separators=(",", ":"),
        )
        for stage in range(trace.pp)
        for res, start, end, label, mb in sorted(
            trace.stage_rows[stage], key=row_order
        )
    ]


def bare_trace(stage_rows, makespan=1.0):
    return trace_from_rows(stage_rows, makespan=makespan)


def jsonl_lines(trace, path):
    """The lines of the trace.jsonl that write_jsonl writes at `path`."""
    trace.write_jsonl(path)
    return path.read_bytes().decode().split("\n")[:-1]


# finite floats of every magnitude, plus ones whose repr is a known edge:
# the smallest subnormal, the largest double, a rounding residue, the
# exponent switch points of repr and negative zero. Many draws come from
# the short list, so rows tie on start and on (start, end), and stages
# share times.
times = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     0.1 + 0.2, 1e16, 1e-5, 1e-4, -0.0, 0.0]),
)
rows = st.tuples(
    st.sampled_from([COMPUTE, COMM, "host"]),
    times,
    times,
    st.one_of(st.sampled_from(["fwd", "bwd", "collective", "p2p",
                               "sync_bucket", "a\nb", "\u2028"]), st.text()),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
)


class TestJsonlWriter:
    @given(stage_rows=st.lists(st.lists(rows, max_size=8), min_size=1,
                               max_size=3))
    @example(stage_rows=EDGE_ROWS)
    @settings(max_examples=300, deadline=None)
    def test_row_lines_equal_json_dumps(self, tmp_path_factory, stage_rows):
        trace = bare_trace(stage_rows)
        lines = jsonl_lines(
            trace, tmp_path_factory.getbasetemp() / "row_lines.jsonl"
        )
        assert lines[1:] == reference_row_lines(trace)

    def test_numpy_cost_book_writes_plain_floats(self, catalog, tmp_path):
        p, m = 3, 4
        book = CostBook(
            fwd=[[np.float64(0.1) * (i + 1)] * m for i in range(p)],
            bwd=[[np.float64(0.2) + 1e-17] * m for _ in range(p)],
            tp_fwd=[[np.float64(0.03)] * m for _ in range(p)],
            tp_bwd=[[np.float64(0.07)] * m for _ in range(p)],
            p2p_fwd=[[np.float64(1e-300)] * m for _ in range(p)],
            p2p_bwd=[[np.float64(5e-324)] * m for _ in range(p)],
            sync_buckets=[[] for _ in range(p)],
        )
        model = catalog["3B"]
        topo = make_topology(nodes=1, chips_per_node=p, memory=1e18)
        trace = run(
            model, stage_by_name("general-knowledge-injection"),
            make_plan(pp=p, m=m, fusion_chunks=2), topo, CostModelConfig(),
            seed=0, workload=fixed_workload(64, budget=64), cost_book=book,
        )
        assert type(book.bwd[0][0]) is np.float64
        lines = jsonl_lines(trace, tmp_path / "trace.jsonl")
        assert lines[1:] == reference_row_lines(trace)
        assert "np.float64" not in "".join(lines)

    def test_write_jsonl_streams_the_same_lines(self, tmp_path):
        trace = bare_trace([[(COMPUTE, 0.0, 0.1 + 0.2, "fwd", None),
                             (COMM, 0.0, 1e-300, "p2p", 3)]] + EDGE_ROWS)
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(path)
        meta = json.dumps(
            {"dp": trace.dp, "tp": trace.tp, "pp": trace.pp,
             "seed": trace.seed, "makespan": trace.makespan,
             "microbatch_sizes": trace.microbatch_sizes,
             "microbatch_seq_lens": trace.microbatch_seq_lens,
             "visual_tokens_per_sample": trace.visual_tokens_per_sample},
            separators=(",", ":"),
        )
        assert path.read_text() == "".join(
            line + "\n" for line in [meta, *reference_row_lines(trace)]
        )


# three to five stages that draw their times from one short list, so rows
# tie and adjacent stages share times (hand-offs), -0.0 and 0.0 among them
@st.composite
def handoff_stages(draw):
    shared = st.sampled_from(draw(st.lists(times, max_size=6)) + [-0.0, 0.0])
    row = st.tuples(
        st.sampled_from([COMPUTE, COMM, "host"]), shared, shared,
        st.sampled_from(["fwd", "bwd", "p2p", "sync_bucket"]),
        st.one_of(st.none(), st.integers(min_value=0, max_value=20)),
    )
    return draw(st.lists(st.lists(row, max_size=12), min_size=3, max_size=5))


class TestJsonlChunks:
    """trace.jsonl is formatted a chunk of rows at a time, in writing order
    across stage boundaries, each chunk handed the texts of the one before."""

    @given(stage_rows=handoff_stages(),
           chunk=st.integers(min_value=1, max_value=7))
    @example(
        stage_rows=[
            [(COMPUTE, 0.0, 1.5, "fwd", 0), (COMM, 1.5, 2.0, "p2p", 0)],
            [(COMM, -0.0, 2.0, "p2p", 0), (COMPUTE, 2.0, 3.5, "fwd", 0),
             (COMM, 3.5, 4.0, "p2p", None)],
            [(COMM, 0.0, 4.0, "p2p", 1), (COMPUTE, 4.0, 5.5, "bwd", 1)],
        ],
        chunk=2,
    )
    @settings(max_examples=300, deadline=None)
    def test_row_lines_equal_json_dumps(self, tmp_path_factory, stage_rows,
                                        chunk):
        trace = bare_trace(stage_rows)
        with mock.patch.object(engine, "JSONL_CHUNK_ROWS", chunk):
            lines = jsonl_lines(
                trace, tmp_path_factory.getbasetemp() / "chunk_lines.jsonl"
            )
        assert lines[1:] == reference_row_lines(trace)

    def test_multimodal_api_streams_in_bounded_memory(self):
        # whole-trace dedupe holds 7.5 MiB of texts at once here; the
        # writer's row order is the trace's, so it is built before counting
        config = load_config("bench/workloads/multimodal-api.json")
        trace = run(config.model, config.stage, config.plan, config.topology,
                    config.costmodel, config.seed, workload=config.workload)
        assert len(trace.columns.start) == 73_216
        trace.writer_order
        tracemalloc.start()
        try:
            collections.deque(trace._jsonl_texts(), maxlen=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


class TestStageRowsView:
    def test_edge_rows_round_trip(self):
        # -0.0, None microbatches, a third resource and line-break labels
        # come back from the columns as they went in, each stage's rows
        # grouped stably: compute, comm, then the "host" rows
        trace = trace_from_rows(EDGE_ROWS)
        first, second, empty, last = EDGE_ROWS
        grouped = [[first[1], first[2], first[3], first[0], first[4], first[5]],
                   second, empty, [last[1], last[0]]]
        assert repr(trace.stage_rows) == repr(grouped)
        assert trace.offsets.tolist() == [0, 3, 5, 6, 7, 8, 8, 8, 8, 8, 9, 9,
                                          10]

    def test_flagship_rows_are_the_columns(self):
        # bench/tracer.py counts engine.rows from this view
        trace = flagship_run()
        rows = trace.stage_rows
        assert [len(stage) for stage in rows] == np.diff(
            trace.offsets[::3]).tolist()
        assert {len(column) for column in trace.columns} == {
            sum(len(stage) for stage in rows)} == {35_599}


class TestFiniteness:
    def fusion_run(self, **costs):
        config = load_config(f"{PRESET_DIR}/fusion-claim.json")
        plan = config.plan
        return run(
            config.model, config.stage, plan, config.topology,
            config.costmodel, config.seed, workload=config.workload,
            cost_book=uniform_book(plan.pp, plan.microbatches_per_step,
                                   **costs),
        )

    def test_nan_cost_is_rejected(self):
        # NaN durations used to leave a 0-row trace with makespan nan
        with pytest.raises(ValueError,
                           match=r"cost_book\.fwd\[0\]\[0\] is not finite"):
            self.fusion_run(fwd=float("nan"), bwd=1.0)

    def test_infinite_cost_is_rejected(self):
        with pytest.raises(ValueError,
                           match=r"cost_book\.fwd\[0\]\[0\] is not finite"):
            self.fusion_run(fwd=float("inf"), bwd=1.0)

    def test_infinite_makespan_is_not_finite(self):
        with pytest.raises(AssertionError, match="makespan inf is not finite"):
            bare_trace([[]], makespan=float("inf")).check_invariants()

    def test_nan_interval_is_not_positive(self):
        for start, end in ((float("nan"), 1.0), (0.0, float("nan"))):
            trace = bare_trace([[(COMPUTE, start, end, "fwd", 0)]])
            with pytest.raises(AssertionError, match="not positive"):
                trace.check_invariants()


class TestInjectedBook:
    """run() refuses an injected book with a negative, NaN or infinite
    duration: a sync's queued tail and the record test assume finite
    durations >= 0."""

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(CostBook)]
    )
    def test_negative_duration_is_refused(self, catalog, name):
        lists = [[0.5] * 3, [0.5, 0.5, -1e-12]]
        book = dataclasses.replace(uniform_book(2, 3, fwd=1.0, bwd=2.0),
                                   **{name: lists})
        with pytest.raises(ValueError,
                           match=rf"cost_book\.{name}\[1\]\[2\] is negative"):
            run_book(catalog, book)

    @pytest.mark.parametrize("name", ["fwd", "bwd", "tp_bwd", "p2p_fwd"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_duration_is_refused(self, catalog, name, value):
        # with bwd[1][1] = nan this book was accepted at makespan 11.2:
        # max() keeps a NaN only in first place
        book = uniform_book(2, 3, fwd=1.0, bwd=2.0, p2p=0.1)
        getattr(book, name)[1][1] = value
        with pytest.raises(ValueError,
                           match=rf"cost_book\.{name}\[1\]\[1\] is not finite"):
            run_book(catalog, book)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_sync_bucket_is_refused(self, catalog, value):
        # a NaN bucket was accepted with its row dropped; an inf one ended
        # in an AssertionError on the makespan
        book = dataclasses.replace(
            uniform_book(2, 3, fwd=1.0, bwd=2.0, p2p=0.1),
            sync_buckets=[[0.5, 0.5], [0.5, value, 0.5]],
        )
        with pytest.raises(
            ValueError, match=r"cost_book\.sync_buckets\[1\]\[1\] is not finite"
        ):
            run_book(catalog, book)

    @pytest.mark.parametrize("name, i, change", [
        # a short row ended the event loop in an IndexError
        ("bwd", 1, lambda row: row.pop()),
        # a long row was read in part: accepted at makespan 12.4
        ("p2p_fwd", 0, lambda row: row.append(0.1)),
        ("tp_bwd", 1, lambda row: row.pop()),
    ])
    def test_every_list_must_be_pp_by_m(self, catalog, name, i, change):
        book = uniform_book(2, 3, fwd=1.0, bwd=2.0, p2p=0.1)
        change(getattr(book, name)[i])
        with pytest.raises(ValueError,
                           match=rf"cost_book shape of {name} does not match"):
            run_book(catalog, book)

    @pytest.mark.parametrize("rows", [[[]], [[], [], []]])
    def test_sync_buckets_must_be_pp_rows(self, catalog, rows):
        book = dataclasses.replace(
            uniform_book(2, 3, fwd=1.0, bwd=2.0, p2p=0.1), sync_buckets=rows
        )
        with pytest.raises(
            ValueError, match=r"cost_book shape of sync_buckets does not match"
        ):
            run_book(catalog, book)

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(CostBook)]
    )
    @pytest.mark.parametrize("rows", [
        [0.5, 0.5],  # p numbers, not p rows
        np.full(2, 0.5),
        np.full((2, 3, 1), 0.5),  # p rows of m one-element rows
        [["0.5"] * 3] * 2,  # p rows of m texts
    ], ids=["flat-list", "1d-array", "3d-array", "texts"])
    def test_field_not_rows_of_numbers_is_refused(self, catalog, name, rows):
        # each raised a TypeError from len() or math.isfinite of an entry
        book = dataclasses.replace(uniform_book(2, 3, fwd=1.0, bwd=2.0),
                                   **{name: rows})
        with pytest.raises(ValueError,
                           match=rf"cost_book shape of {name} does not match"):
            run(catalog["3B"], stage_by_name("general-knowledge-injection"),
                make_plan(pp=2, m=3),
                make_topology(chips_per_node=2, memory=1e18),
                CostModelConfig(), seed=0,
                workload=fixed_workload(64, budget=64), cost_book=book)

    def test_negative_zero_is_not_negative(self, catalog):
        book = uniform_book(2, 3, fwd=-0.0, bwd=2.0)
        assert run_book(catalog, book).makespan > 0.0


def flagship_run():
    config = load_config(f"{PRESET_DIR}/paper-70b-5120.json")
    return run(config.model, config.stage, config.plan, config.topology,
               config.costmodel, config.seed, workload=config.workload)


def count_calls(monkeypatch, fn, *modules):
    """Wrap `fn` at its lookup name in each module, by default at every
    vlmsim name bound to it; return the call list."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    if not modules:
        modules = [
            module for name, module in sys.modules.items()
            if name.split(".")[0] == "vlmsim"
            and getattr(module, fn.__name__, None) is fn
        ]
    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counted)
    return calls


class TestOneExecutor:
    def test_pricing_agrees_with_legality_executor(self, catalog):
        # unit costs, no TP, no p2p, dp=1: the engine's compute ends, in
        # slot order, are the unit-cost completion times check_schedule uses
        for p in range(1, 9):
            for m in (1, 2, 3, 7, 24):
                trace = run_uniform(catalog, p=p, m=m, fwd=1.0, bwd=1.0)
                ends = [[row[2] for row in rows if row[0] == COMPUTE]
                        for rows in trace.stage_rows]
                assert ends == simulate_slot_completion(
                    slot_schedule(build_1f1b(p, m)))

    def test_run_builds_the_schedule_once_and_runs_no_callback(
        self, monkeypatch
    ):
        # the run order comes from build_1f1b, once a run; the loop runs in
        # engine.run itself, with no executor module function, nested slot
        # function or callback
        calls = count_calls(monkeypatch, schedule.build_1f1b, schedule,
                            engine)
        flagship_run()
        assert len(calls) == 1
        assert not hasattr(schedule, "execute")
        nested = {const.co_name for const in engine.run.__code__.co_consts
                  if inspect.iscode(const)}
        assert nested <= {"<listcomp>", "<genexpr>"}
        for module in (schedule, engine):
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                assert "Callable" not in str(inspect.signature(fn)), name

    def test_placement_read_from_the_cluster(self):
        # replica placement has one owner, cluster.group_nodes
        for helper in ("_node_of", "_dp_group_spans_nodes",
                       "_boundary_crosses_nodes"):
            assert not hasattr(engine, helper)

    def test_partition_computed_at_most_twice_per_run(self, monkeypatch):
        # step_shape splits the layers once; the cost book and the memory
        # estimate read its split
        calls = count_calls(monkeypatch, cluster.partition_layers, cluster,
                            engine)
        flagship_run()
        assert len(calls) == 1


class TestStepFactsOnce:
    """engine.step_shape is the one place a run splits its layers and
    estimates its memory; the rest of the run reads what it produced."""

    def test_simulate_splits_and_estimates_once_per_run(
        self, monkeypatch, tmp_path
    ):
        # the flagship and its 8-chip weak-scaling reference: two runs
        splits = count_calls(monkeypatch, cluster.partition_layers)
        estimates = count_calls(monkeypatch, cluster.memory_per_chip)
        argv = ["simulate", "--config", f"{PRESET_DIR}/paper-70b-5120.json",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert len(splits) == 2
        assert len(estimates) == 2

    def test_sweep_derives_each_step_shape_once(self, monkeypatch, tmp_path):
        # 18 points, each with its weak-scaling reference: check_config
        # derives the 36 step shapes and the runs read them
        splits = count_calls(monkeypatch, cluster.partition_layers)
        estimates = count_calls(monkeypatch, cluster.memory_per_chip)
        argv = ["sweep", "--config", "bench/workloads/sweep-grid.json",
                "--parallel", "1", "--out", str(tmp_path)]
        for axis in ("plan.pp=4,8", "plan.recompute=none,selective,full",
                     "plan.fusion_chunks=1,4,8"):
            argv += ["--axis", axis]
        assert cli.main(argv) == 0
        assert len(splits) == 36
        assert len(estimates) == 36

    def test_report_memory_is_the_fit_checked_figure(self, monkeypatch):
        config = load_config(f"{PRESET_DIR}/paper-70b-5120.json")
        *_, memory = step_shape(
            config.model, config.stage, config.plan, config.topology,
            config.costmodel, config.seed, config.workload,
        )
        trace = flagship_run()

        def never(*args, **kwargs):
            raise AssertionError("memory estimated again")

        for module in (cluster, engine, metrics):
            monkeypatch.setattr(module, "memory_per_chip", never,
                                raising=False)
        report = build_report(trace, config.model, config.stage, config.plan,
                              config.topology, "a" * 64)
        assert trace.memory == memory
        assert report.memory == memory


class TestPricingCalls:
    """A run prices its distinct microbatch shapes in array calls, so its
    FLOP and collective calls grow with the stages, not stages x shapes."""

    def test_calls_scale_with_stages_not_shapes(self, monkeypatch):
        config = load_config("bench/workloads/multimodal-api.json")
        flops = count_calls(monkeypatch, stage_flops)
        collectives = count_calls(monkeypatch, collective_time)
        trace = run(config.model, config.stage, config.plan, config.topology,
                    config.costmodel, config.seed, workload=config.workload)
        step_training_flops(trace, config.model, config.plan)
        pp = config.plan.pp
        shapes = set(zip(trace.microbatch_sizes, trace.microbatch_seq_lens))
        assert pp == 4 and len(shapes) == 231
        # the cost book's one, every stage down a column, and one under
        # step_flops
        assert len(flops) == 1 + 1
        # the TP lump's two, one p2p per kind of link, one for the buckets
        assert len(collectives) <= 2 * pp

    @pytest.mark.parametrize("pp", [1, 2, 3, 8])
    def test_one_flops_call_at_any_pp(self, monkeypatch, catalog, pp):
        flops = count_calls(monkeypatch, stage_flops, engine)
        run(catalog["3B"], stage_by_name("general-knowledge-injection"),
            make_plan(dp=1, tp=1, pp=pp, m=4),
            make_topology(chips_per_node=pp, memory=1e18), CostModelConfig(),
            seed=0, workload=fixed_workload(64))
        assert len(flops) == 1
