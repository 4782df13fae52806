import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlmsim import engine
from vlmsim.arch import LanguageModelSpec, lm_layer_param_count
from vlmsim.cluster import (
    ChipSpec,
    ConfigError,
    MemoryBreakdown,
    ParallelismPlan,
    Topology,
    group_nodes,
    memory_per_chip,
    partition_layers,
    stage_local_params,
    validate_plan,
)
from vlmsim.config import load_config
from tests.conftest import PRESET_DIR, fixed_workload, make_plan, make_topology


def step_shape_violations(topology, plan, model, stage, seq_len, microbatch):
    """The plan violations engine.step_shape raises for a step of
    `microbatch`-sample batches of `seq_len` tokens; [] if it accepts."""
    workload = fixed_workload(seq_len, budget=seq_len * microbatch)
    try:
        engine.step_shape(model, stage, plan, topology,
                          engine.CostModelConfig(), 0, workload)
    except ConfigError as exc:
        return exc.violations
    return []


class TestPartition:
    def test_uniform_even_and_remainder(self, catalog):
        model = catalog["70B"]
        assert partition_layers(model, 8) == [10] * 8
        assert partition_layers(model, 1) == [80]
        m3 = catalog["3B"]  # 36 layers
        assert partition_layers(m3, 8) == [5, 5, 5, 5, 4, 4, 4, 4]

    def test_cost_balanced_70b_pp8(self, catalog):
        part = partition_layers(catalog["70B"], 8, balance="cost-balanced")
        assert part == [9, 11, 11, 10, 10, 10, 10, 9]

    def test_cost_balanced_relieves_both_ends(self, catalog):
        for name in ("3B", "8B", "70B"):
            model = catalog[name]
            for pp in (2, 4, 8):
                uniform = partition_layers(model, pp)
                balanced = partition_layers(model, pp, balance="cost-balanced")
                assert sum(balanced) == model.lm.layers
                assert balanced[0] <= uniform[0]
                assert balanced[-1] <= uniform[-1]

    def test_cost_balanced_minimizes_max_stage_cost(self, catalog):
        # the cost-balanced split must beat (or tie) the uniform split
        # under the same cost proxy
        model = catalog["70B"]
        per_layer = lm_layer_param_count(model.lm)
        boundary = model.lm.hidden_size * model.lm.vocab_size

        def max_cost(part):
            costs = [n * per_layer for n in part]
            costs[0] += boundary
            costs[-1] += boundary
            return max(costs)

        for pp in (2, 4, 8):
            balanced = partition_layers(model, pp, balance="cost-balanced")
            uniform = partition_layers(model, pp)
            assert max_cost(balanced) <= max_cost(uniform)

    def test_spread_within_10pct_of_uniform_share(self, catalog):
        part = partition_layers(catalog["70B"], 8, balance="cost-balanced")
        share = catalog["70B"].lm.layers / 8
        for n in part:
            assert abs(n - share) / share <= 0.10 + 1e-12

    def test_partition_errors(self, catalog):
        with pytest.raises(ValueError):
            partition_layers(catalog["3B"], 37)
        with pytest.raises(ValueError):
            partition_layers(catalog["3B"], 0)
        with pytest.raises(ValueError):
            partition_layers(catalog["3B"], 4, balance="greedy")

    @given(pp=st.integers(min_value=1, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_partition_properties(self, pp, catalog):
        model = catalog["70B"]
        for balance in ("uniform", "cost-balanced"):
            part = partition_layers(model, pp, balance=balance)
            assert len(part) == pp
            assert sum(part) == model.lm.layers
            assert min(part) >= 1


def compositions(layers, pp):
    """Every split of `layers` into `pp` stages of at least one layer."""
    for cuts in itertools.combinations(range(1, layers), pp - 1):
        bounds = (0, *cuts, layers)
        yield [b - a for a, b in itertools.pairwise(bounds)]


@st.composite
def lm_sheets(draw):
    """A small LM sheet whose boundary cost (hidden * vocab) is up to
    twelve layers' cost, often an exact multiple of a half, a third or a
    quarter of it, so that stage costs tie."""
    head_size = draw(st.sampled_from([1, 2, 8]))
    kv_heads = draw(st.integers(1, 4))
    hidden = head_size * kv_heads * draw(st.integers(1, 4))
    intermediate = draw(st.integers(1, 64))
    # a layer costs hidden * unit params
    unit = 2 * hidden + 2 * kv_heads * head_size + 3 * intermediate
    vocab = draw(st.one_of(
        st.integers(1, 6 * unit),
        st.builds(lambda k, d: max(1, k * unit // d),
                  st.integers(0, 12), st.sampled_from([1, 2, 3, 4])),
    ))
    return LanguageModelSpec(
        hidden_size=hidden, layers=draw(st.integers(1, 12)),
        kv_heads=kv_heads, head_size=head_size,
        intermediate_size=intermediate, vocab_size=vocab,
        embedding_tying=False,
    )


class TestPartitionOracle:
    """partition_layers against every composition of a small model: the
    split min-maxes the stage cost, and it is the composition whose stage
    costs, sorted in descending order, are lexicographically smallest,
    ties going to more layers on earlier stages."""

    @given(lm=lm_sheets())
    @settings(max_examples=300, deadline=None)
    def test_split_is_the_lexicographic_min_max(self, catalog, lm):
        model = dataclasses.replace(catalog["8B"], lm=lm)
        per_layer = lm_layer_param_count(lm)
        for balance in ("uniform", "cost-balanced"):
            boundary = lm.hidden_size * lm.vocab_size
            if balance == "uniform":
                boundary = 0

            def costs(counts):
                costs = [n * per_layer for n in counts]
                costs[0] += boundary
                costs[-1] += boundary
                return costs

            for pp in range(1, lm.layers + 1):
                split = partition_layers(model, pp, balance)
                every = list(compositions(lm.layers, pp))
                assert max(costs(split)) == min(max(costs(c)) for c in every)
                best = min(every, key=lambda c: (
                    sorted(costs(c), reverse=True), [-n for n in c]
                ))
                assert split == best, (balance, pp)


class TestStageLocals:
    def test_first_stage_owns_encoders_and_embeddings(self, catalog):
        model = catalog["8B"]
        part = partition_layers(model, 4)
        first = stage_local_params(model, part, 0)
        assert first["vision"] == 302_592_000
        assert first["adapter"] == 33_562_624
        assert first["lm"] == part[0] * lm_layer_param_count(model.lm) + (
            model.lm.hidden_size * model.lm.vocab_size
        )

    def test_last_stage_head_untied_vs_tied(self, catalog):
        m8 = catalog["8B"]
        part = partition_layers(m8, 4)
        last = stage_local_params(m8, part, 3)
        assert last["vision"] == 0 and last["adapter"] == 0
        assert last["lm"] == part[3] * lm_layer_param_count(m8.lm) + (
            m8.lm.hidden_size * m8.lm.vocab_size
        )
        m3 = catalog["3B"]  # tied: no second copy on the last stage
        part3 = partition_layers(m3, 4)
        last3 = stage_local_params(m3, part3, 3)
        assert last3["lm"] == part3[3] * lm_layer_param_count(m3.lm)

    def test_stage_totals_cover_model(self, catalog):
        from vlmsim.arch import total_param_count

        for name in ("3B", "8B", "70B"):
            model = catalog[name]
            part = partition_layers(model, 8, balance="cost-balanced")
            total = sum(
                sum(stage_local_params(model, part, i).values())
                for i in range(8)
            )
            assert total == total_param_count(model)


class TestMemory:
    def test_exact_formula_small_case(self, catalog, full_stage):
        model = catalog["8B"]
        plan = make_plan(dp=1, tp=8, pp=1, m=1)
        mem = memory_per_chip(model, plan, full_stage, [model.lm.layers],
                              seq_len=4096, microbatch=1)
        local = stage_local_params(model, partition_layers(model, 1), 0)
        params = sum(local.values())
        assert mem.weights == params * 2.0 / 8
        assert mem.grads == params * 2.0 / 8
        assert mem.optimizer == params * 12.0 / 8
        h = model.lm.hidden_size
        per_token = 24.0 * h / 8 + 10.0 * h  # no sequence parallelism
        scores = 2.0 * model.lm.query_heads * 4096.0**2 / 8
        assert mem.activations == model.lm.layers * (4096 * per_token + scores)
        assert mem.total == mem.weights + mem.grads + mem.optimizer + mem.activations

    def test_adapter_only_stage_shrinks_grads_and_optimizer(self, catalog):
        from vlmsim.workload import stage_by_name

        model = catalog["8B"]
        plan = make_plan(dp=1, tp=8, pp=1, m=1)
        align = stage_by_name("cross-modal-alignment")
        mem = memory_per_chip(model, plan, align, [model.lm.layers],
                              seq_len=4096, microbatch=1)
        assert mem.grads == 33_562_624 * 2.0 / 8
        assert mem.optimizer == 33_562_624 * 12.0 / 8

    def test_sequence_parallel_reduction_selective(self, catalog, full_stage):
        # with selective recompute at tp=8 the replicated activation class
        # shrinks from 10h to 10h/8: (24+10)/8 vs 24/8+10 per token
        model = catalog["70B"]
        base = make_plan(dp=1, tp=8, pp=8, m=8, recompute="selective")
        partition = partition_layers(model, 8)
        off = memory_per_chip(model, base, full_stage, partition, 32768, 1)
        import dataclasses

        on = memory_per_chip(
            model,
            dataclasses.replace(base, sequence_parallel=True),
            full_stage,
            partition,
            32768,
            1,
        )
        reduction = 1.0 - on.activations / off.activations
        assert reduction == pytest.approx(1.0 - (34.0 / 8.0) / 13.0, abs=1e-12)
        assert reduction >= 0.45
        assert on.weights == off.weights and on.optimizer == off.optimizer

    def test_selective_recompute_removes_score_memory(self, catalog, full_stage):
        model = catalog["8B"]
        plan = make_plan(dp=1, tp=8, pp=1, m=1)
        none = memory_per_chip(model, plan, full_stage, [model.lm.layers],
                               8192, 2)
        import dataclasses

        sel = memory_per_chip(
            model,
            dataclasses.replace(plan, recompute="selective"),
            full_stage,
            [model.lm.layers],
            8192,
            2,
        )
        diff = none.activations - sel.activations
        scores = 2.0 * model.lm.query_heads * 8192.0**2 * 2 / 8
        assert diff == model.lm.layers * scores

    def test_full_recompute_keeps_boundary_only(self, catalog, full_stage):
        model = catalog["8B"]
        plan = make_plan(dp=1, tp=1, pp=1, m=1, recompute="full")
        mem = memory_per_chip(model, plan, full_stage, [model.lm.layers],
                              4096, 1)
        assert mem.activations == model.lm.layers * 4096 * 2.0 * model.lm.hidden_size

    def test_in_flight_saturates_at_pp(self, catalog, full_stage):
        model = catalog["70B"]
        shallow = make_plan(dp=1, tp=8, pp=4, m=64)
        partition = partition_layers(model, 4)
        a = memory_per_chip(model, shallow, full_stage, partition, 4096, 1)
        b = memory_per_chip(
            model, make_plan(dp=1, tp=8, pp=4, m=4), full_stage, partition,
            4096, 1,
        )
        assert a.activations == b.activations  # min(pp, m) = 4 both ways
        c = memory_per_chip(
            model, make_plan(dp=1, tp=8, pp=4, m=2), full_stage, partition,
            4096, 1,
        )
        assert c.activations == a.activations / 2

    def test_distributed_optimizer_shards_over_dp(self, catalog, full_stage):
        model = catalog["8B"]
        base = make_plan(dp=4, tp=2, pp=1, m=4)
        import dataclasses

        plain = memory_per_chip(model, base, full_stage, [model.lm.layers],
                                4096, 1)
        sharded = memory_per_chip(
            model,
            dataclasses.replace(base, distributed_optimizer=True),
            full_stage,
            [model.lm.layers],
            4096,
            1,
        )
        assert sharded.optimizer == plain.optimizer / 4
        assert sharded.weights == plain.weights

    @given(
        tp=st.sampled_from([1, 2, 4, 8]),
        seq=st.integers(min_value=1, max_value=8192),
        mb=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_memory_monotone_in_microbatch_and_antitone_in_tp(
        self, tp, seq, mb, catalog, full_stage
    ):
        model = catalog["8B"]
        plan = make_plan(dp=1, tp=tp, pp=1, m=1)
        whole = [model.lm.layers]
        smaller = memory_per_chip(model, plan, full_stage, whole, seq, mb)
        bigger = memory_per_chip(model, plan, full_stage, whole, seq, mb + 1)
        assert bigger.activations >= smaller.activations
        assert bigger.total >= smaller.total
        if tp > 1:
            wider = memory_per_chip(
                model, make_plan(dp=1, tp=tp // 2, pp=1, m=1), full_stage,
                whole, seq, mb,
            )
            assert wider.total >= smaller.total

    def test_flagship_binds_at_stage_one(self, full_stage):
        # cost balancing gives stage 0 nine layers and stage 1 eleven; with
        # seven microbatches in flight against eight, stage 1 needs more
        config = load_config(f"{PRESET_DIR}/paper-70b-5120.json")
        plan = config.plan
        assert partition_layers(config.model, 8, plan.layer_balance)[:2] == [9, 11]
        params = 11 * lm_layer_param_count(config.model.lm)
        h = config.model.lm.hidden_size
        # sequence parallel at tp=8, selective recompute: 34h/8 per token
        per_token = 24.0 * h / 8 + 10.0 * h / 8
        expect = MemoryBreakdown(
            weights=params * 2.0 / 8,
            grads=params * 2.0 / 8,
            optimizer=params * 12.0 / 8 / 80,
            activations=11 * (4096 * per_token) * 7,
        )
        partition = partition_layers(config.model, 8, plan.layer_balance)
        mem = memory_per_chip(config.model, plan, full_stage, partition, 4096, 1)
        assert mem == expect
        assert mem.total == 15_863_172_300.8

    def test_uniform_layout_binds_at_stage_zero(self, catalog, full_stage):
        # equal layers: stage 0 holds the most params and microbatches
        model = catalog["70B"]
        plan = make_plan(dp=2, tp=8, pp=8, m=16)
        local = stage_local_params(model, [10] * 8, 0)
        params = sum(local.values())
        h = model.lm.hidden_size
        scores = 2.0 * model.lm.query_heads * 4096.0**2 / 8
        mem = memory_per_chip(model, plan, full_stage, [10] * 8, 4096, 1)
        assert mem == MemoryBreakdown(
            weights=params * 2.0 / 8,
            grads=params * 2.0 / 8,
            optimizer=params * 12.0 / 8,
            activations=10 * (4096 * (24.0 * h / 8 + 10.0 * h) + scores) * 8,
        )

    def test_breakdown_helpers(self):
        mem = MemoryBreakdown(weights=4.0, grads=1.0, optimizer=2.0, activations=3.0)
        assert mem.total == 10.0
        assert mem.dominant_term() == "weights"
        assert mem.as_dict()["total"] == 10.0


class TestValidation:
    def test_clean_plan_has_no_violations(self, catalog, small_topology):
        plan = make_plan(dp=1, tp=8, pp=1, m=4)
        assert validate_plan(small_topology, plan, catalog["8B"]) == []

    def test_product_mismatch(self, catalog, small_topology):
        plan = make_plan(dp=1, tp=2, pp=1, m=4)
        violations = validate_plan(small_topology, plan, catalog["8B"])
        assert [v.constraint for v in violations] == ["parallelism-product"]
        assert "does not equal total chips 8" in violations[0].message

    def test_tp_exceeds_node(self, catalog):
        topo = make_topology(nodes=4, chips_per_node=8)
        plan = make_plan(dp=1, tp=16, pp=2, m=4)
        violations = validate_plan(topo, plan, catalog["8B"])
        assert any(v.constraint == "tp-within-node" for v in violations)
        msg = next(v for v in violations if v.constraint == "tp-within-node")
        assert msg.message == "tp 16 exceeds chips per node 8"

    def test_tp_must_divide_node(self, catalog):
        topo = make_topology(nodes=2, chips_per_node=6)
        plan = make_plan(dp=2, tp=4, pp=1, m=4)  # wrong product too
        violations = validate_plan(topo, plan, catalog["8B"])
        kinds = {v.constraint for v in violations}
        assert "tp-within-node" in kinds

    def test_pipeline_deeper_than_model(self, catalog, small_topology):
        plan = make_plan(dp=1, tp=1, pp=8, m=8)
        tiny = catalog["3B"]
        import dataclasses

        shallow = dataclasses.replace(
            tiny, lm=dataclasses.replace(tiny.lm, layers=4)
        )
        violations = validate_plan(small_topology, plan, shallow)
        assert any(v.constraint == "pipeline-depth" for v in violations)

    def test_memory_fit_runs_only_with_workload_context(
        self, catalog, full_stage
    ):
        topo = make_topology(nodes=1, chips_per_node=8, memory=2e9)
        plan = make_plan(dp=1, tp=8, pp=1, m=1)
        model = catalog["8B"]
        assert validate_plan(topo, plan, model) == []
        violations = step_shape_violations(
            topo, plan, model, stage=full_stage, seq_len=4096, microbatch=1
        )
        assert [v.constraint for v in violations] == ["memory-fit"]
        assert "dominant term is optimizer" in violations[0].message

    def test_memory_fit_names_activation_pressure(self, catalog, full_stage):
        # long sequences with score materialization make activations dominate
        topo = make_topology(nodes=1, chips_per_node=8, memory=64e9)
        plan = make_plan(dp=1, tp=8, pp=1, m=1)
        violations = step_shape_violations(
            topo,
            plan,
            catalog["8B"],
            stage=full_stage,
            seq_len=32768,
            microbatch=4,
        )
        assert violations
        assert "dominant term is activations" in violations[0].message

    def test_flagship_plan_fits(self, catalog, full_stage):
        # 640 nodes x 8 chips, 70B, the acceptance-scale configuration
        topo = make_topology(
            nodes=640,
            chips_per_node=8,
            intra_bw=3.0e11,
            inter_bw=2.5e10,
            peak=2.56e14,
            memory=1.92e11,
        )
        plan = make_plan(
            dp=80,
            tp=8,
            pp=8,
            m=768,
            sequence_parallel=True,
            recompute="selective",
            distributed_optimizer=True,
            layer_balance="cost-balanced",
        )
        violations = step_shape_violations(
            topo,
            plan,
            catalog["70B"],
            stage=full_stage,
            seq_len=4096,
            microbatch=1,
        )
        assert violations == []

    def test_spec_constructor_guards(self):
        with pytest.raises(ValueError):
            ChipSpec(peak_flops=0, memory=1)
        with pytest.raises(ValueError):
            Topology(
                nodes=0,
                chips_per_node=8,
                intra_node_bw=1,
                inter_node_bw=1,
                intra_latency=0,
                inter_latency=0,
                chip=ChipSpec(peak_flops=1, memory=1),
            )
        with pytest.raises(ValueError):
            ParallelismPlan(dp=1, tp=1, pp=0, microbatches_per_step=1)
        with pytest.raises(ValueError):
            ParallelismPlan(
                dp=1, tp=1, pp=1, microbatches_per_step=1, recompute="maybe"
            )


# tp=2, pp=3, dp=4 on three 8-chip nodes: replica 0 sits on node 0, but
# replicas 1 and 2 each cross a node at a stage boundary
ASYMMETRIC = dict(topology=make_topology(nodes=3, chips_per_node=8),
                  plan=make_plan(dp=4, tp=2, pp=3, m=4))


class TestPlacement:
    def test_group_nodes_follow_chip_ids(self):
        assert group_nodes(**ASYMMETRIC).tolist() == [
            [0, 0, 0], [0, 1, 1], [1, 1, 2], [2, 2, 2],
        ]
        flagship = load_config(f"{PRESET_DIR}/paper-70b-5120.json")
        nodes = group_nodes(flagship.topology, flagship.plan)
        # tp = chips_per_node = 8: each group fills a node of its own
        assert nodes[0].tolist() == list(range(8))
        assert nodes[79].tolist() == list(range(632, 640))

    def test_replicas_crossing_at_other_boundaries_refused(self, catalog):
        violations = validate_plan(**ASYMMETRIC, model=catalog["3B"])
        assert [v.constraint for v in violations] == ["replica-placement"]
        assert violations[0].message.startswith(
            "replica 1 crosses nodes at stage boundary 0-1, unlike replica 0"
        )

    def test_run_refuses_asymmetric_replicas(self, catalog, full_stage):
        with pytest.raises(ConfigError) as err:
            engine.run(catalog["3B"], full_stage, ASYMMETRIC["plan"],
                       ASYMMETRIC["topology"], engine.CostModelConfig(),
                       seed=0, workload=fixed_workload(1024))
        assert [v.constraint for v in err.value.violations] == [
            "replica-placement"
        ]

    def test_placement_checked_only_once_the_shape_fits(self, catalog):
        # a wrong product is named alone: placement reads a layout that
        # does not exist
        topology = make_topology(nodes=3, chips_per_node=8)
        plan = make_plan(dp=5, tp=2, pp=3, m=4)
        violations = validate_plan(topology, plan, catalog["3B"])
        assert [v.constraint for v in violations] == ["parallelism-product"]

    def test_symmetric_crossings_accepted(self, catalog):
        # pp=4 over 2-group nodes: every replica crosses at boundary 1-2
        topology = make_topology(nodes=6, chips_per_node=4)
        plan = make_plan(dp=3, tp=2, pp=4, m=4)
        assert group_nodes(topology, plan)[1].tolist() == [2, 2, 3, 3]
        assert validate_plan(topology, plan, catalog["3B"]) == []
