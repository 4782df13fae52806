import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlmsim.cluster import partition_layers, stage_local_params
from vlmsim.comm import (
    COLLECTIVE_KINDS,
    CollectiveCostModel,
    GradSyncPolicy,
    collective_time,
    split_buckets,
    stage_grad_bytes,
)
from vlmsim.engine import COMPUTE, LABEL_SYNC, CostModelConfig, run
from tests.conftest import (
    assert_identical,
    fixed_workload,
    make_plan,
    make_topology,
    stage_sync_bytes,
    syncs_per_step,
)


class TestCollectiveTime:
    def test_allreduce_worked_example(self):
        # 1 GiB over 8 chips at 300 GB/s with 5 us hops:
        # 2*(7/8)*2^30/3e11 + 14*5e-6
        cost = CollectiveCostModel(latency_per_hop=5e-6, bandwidth=3.0e11)
        t = collective_time("allreduce", 2.0**30, 8, cost)
        expected = 2.0 * (7 / 8) * 2.0**30 / 3.0e11 + 14 * 5e-6
        assert t == expected
        assert t == pytest.approx(6.333e-3, rel=1e-3)

    def test_allgather_worked_example(self):
        cost = CollectiveCostModel(latency_per_hop=5e-6, bandwidth=3.0e11)
        t = collective_time("allgather", 2.0**30, 8, cost)
        expected = (7 / 8) * 2.0**30 / 3.0e11 + 7 * 5e-6
        assert t == expected
        assert t == pytest.approx(3.167e-3, rel=1e-3)

    def test_p2p_is_flat(self):
        cost = CollectiveCostModel(latency_per_hop=1e-5, bandwidth=2.5e10)
        assert collective_time("p2p", 1e9, 2, cost) == 1e9 / 2.5e10 + 1e-5
        # participant count beyond 2 does not change a point-to-point send
        assert collective_time("p2p", 1e9, 7, cost) == collective_time(
            "p2p", 1e9, 2, cost
        )

    def test_single_participant_is_free(self):
        cost = CollectiveCostModel(latency_per_hop=5e-6, bandwidth=1e11)
        for kind in ("allreduce", "allgather", "reducescatter", "p2p"):
            assert collective_time(kind, 1e9, 1, cost) == 0.0

    def test_zero_payload_leaves_latency_term(self):
        cost = CollectiveCostModel(latency_per_hop=5e-6, bandwidth=1e11)
        assert collective_time("allreduce", 0.0, 8, cost) == 14 * 5e-6

    def test_input_validation(self):
        cost = CollectiveCostModel(latency_per_hop=0.0, bandwidth=1e11)
        with pytest.raises(ValueError):
            collective_time("alltoall", 1.0, 2, cost)
        with pytest.raises(ValueError):
            collective_time("allreduce", 1.0, 0, cost)
        with pytest.raises(ValueError):
            collective_time("allreduce", -1.0, 2, cost)
        with pytest.raises(ValueError):
            CollectiveCostModel(latency_per_hop=0.0, bandwidth=0.0)

    # payload >= 1 byte keeps every intermediate in the normal float range,
    # where doubling commutes with rounding and the identity is bit-exact
    @given(
        payload=st.one_of(
            st.just(0.0), st.floats(min_value=1.0, max_value=1e12)
        ),
        n=st.integers(min_value=1, max_value=512),
        bw=st.floats(min_value=1e6, max_value=1e13),
        lat=st.floats(min_value=0, max_value=1e-3),
    )
    @settings(max_examples=300, deadline=None)
    def test_allreduce_equals_allgather_plus_reducescatter(
        self, payload, n, bw, lat
    ):
        cost = CollectiveCostModel(latency_per_hop=lat, bandwidth=bw)
        ar = collective_time("allreduce", payload, n, cost)
        ag = collective_time("allgather", payload, n, cost)
        rs = collective_time("reducescatter", payload, n, cost)
        assert ar == ag + rs
        assert ag == rs

    @given(
        payload=st.floats(min_value=1, max_value=1e12),
        n=st.integers(min_value=2, max_value=512),
    )
    @settings(max_examples=200, deadline=None)
    def test_time_monotone_in_payload_and_participants(self, payload, n):
        cost = CollectiveCostModel(latency_per_hop=1e-6, bandwidth=1e11)
        t = collective_time("allreduce", payload, n, cost)
        assert collective_time("allreduce", payload * 2, n, cost) > t
        assert collective_time("allreduce", payload, n + 1, cost) > t


class TestCollectiveArrays:
    """collective_time over arrays of payloads and participant counts: one
    definition, each element the float its scalar call gives."""

    @given(
        payloads=st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1e13)), min_size=1,
            max_size=20,
        ),
        kind=st.sampled_from(COLLECTIVE_KINDS),
        n=st.sampled_from([1, 2, 5, 8]),
        bw=st.floats(min_value=1e6, max_value=1e13),
        lat=st.sampled_from([0.0, 5e-6, 1.1e-5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_array_payloads_equal_scalar_calls(self, payloads, kind, n, bw,
                                               lat):
        cost = CollectiveCostModel(latency_per_hop=lat, bandwidth=bw)
        times = collective_time(kind, np.array(payloads), n, cost)
        assert times.dtype == np.float64
        assert_identical(
            times.tolist(),
            [collective_time(kind, payload, n, cost) for payload in payloads],
        )

    @pytest.mark.parametrize("kind", COLLECTIVE_KINDS)
    @pytest.mark.parametrize("payload", [0.0, 1.0, 3e9 + 0.1])
    def test_array_participants_equal_scalar_calls(self, kind, payload):
        cost = CollectiveCostModel(latency_per_hop=5e-6, bandwidth=3e11)
        participants = [1, 2, 5, 8]
        times = collective_time(kind, payload, np.array(participants), cost)
        assert_identical(
            times.tolist(),
            [collective_time(kind, payload, n, cost) for n in participants],
        )

    @pytest.mark.parametrize("at", [0, 3, 7])
    def test_a_bad_element_anywhere_is_refused(self, at):
        cost = CollectiveCostModel(latency_per_hop=0.0, bandwidth=1e11)
        payloads = np.full(8, 1e6)
        payloads[at] = -1.0
        with pytest.raises(ValueError, match="payload must be >= 0"):
            collective_time("allreduce", payloads, 2, cost)
        participants = np.full(8, 4)
        participants[at] = 0
        with pytest.raises(ValueError, match="participants must be >= 1"):
            collective_time("p2p", 1e6, participants, cost)


def step_sync_bytes(model, stage, plan, policy) -> float:
    """Bytes one chip of each stage syncs per step, summed over stages."""
    per_sync = sum(stage_sync_bytes(model, stage, plan, policy.precision_bytes))
    return per_sync * syncs_per_step(policy, plan)


class TestGradSyncVolume:
    """comm.stage_grad_bytes, the one definition of sync bytes."""

    def test_half_precision_per_step_vs_fp32_per_microbatch(
        self, catalog, full_stage
    ):
        model = catalog["8B"]
        plan = make_plan(dp=8, tp=8, pp=1, m=8)
        opt = step_sync_bytes(
            model, full_stage, plan, GradSyncPolicy(precision_bytes=2)
        )
        base = step_sync_bytes(
            model,
            full_stage,
            plan,
            GradSyncPolicy(precision_bytes=4, frequency="per_microbatch"),
        )
        # baseline moves 2x the bytes, m times per step
        assert base == opt * 2 * 8
        assert 1.0 - opt / base == pytest.approx(1.0 - 1.0 / (2 * 8), abs=1e-15)
        partition = [model.lm.layers]
        assert stage_grad_bytes(model, full_stage, partition, 0, 8, 4) == (
            2 * stage_grad_bytes(model, full_stage, partition, 0, 8, 2)
        )

    def test_two_microbatch_reduction_is_exactly_75pct(self, catalog, full_stage):
        model = catalog["8B"]
        plan = make_plan(dp=2, tp=1, pp=1, m=2)
        opt = step_sync_bytes(
            model, full_stage, plan, GradSyncPolicy(precision_bytes=2)
        )
        base = step_sync_bytes(
            model,
            full_stage,
            plan,
            GradSyncPolicy(precision_bytes=4, frequency="per_microbatch"),
        )
        assert 1.0 - opt / base == 0.75

    def test_frozen_components_do_not_sync(self, catalog):
        from vlmsim.workload import stage_by_name

        model = catalog["8B"]
        align = stage_by_name("cross-modal-alignment")
        # only the adapter trains, and only the first stage holds it
        assert stage_grad_bytes(model, align, [32], 0, 1, 2) == 2.0 * 33_562_624
        assert stage_grad_bytes(model, align, [16, 16], 0, 1, 2) == 2.0 * 33_562_624
        assert stage_grad_bytes(model, align, [16, 16], 1, 1, 2) == 0.0

    def test_sharding_over_tp_and_pp(self, catalog, full_stage):
        model = catalog["70B"]
        whole = stage_grad_bytes(model, full_stage, [80], 0, 1, 2)
        partition = partition_layers(model, 8)
        sliced = [
            stage_grad_bytes(model, full_stage, partition, i, 8, 2)
            for i in range(8)
        ]
        # tp shards each stage's bytes; pp splits them, stage-local, over
        # stages that hold different amounts (embeddings at the ends)
        for i, stage_bytes in enumerate(sliced):
            assert stage_bytes * 8 == stage_grad_bytes(
                model, full_stage, partition, i, 1, 2
            )
        assert sliced[0] > sliced[1] == sliced[6] < sliced[7]
        assert sum(sliced) == whole / 8
        assert sum(sliced) / 8 == whole / 64

    @pytest.mark.parametrize("balance", ["uniform", "cost-balanced"])
    @pytest.mark.parametrize("name", ["3B", "8B", "70B"])
    def test_stages_sum_to_trainable_params(self, catalog, name, balance):
        from vlmsim.workload import stage_catalog, trainable_param_count

        model = catalog[name]
        for stage in stage_catalog():
            for pp in range(1, 9):
                partition = partition_layers(model, pp, balance)
                for tp in (1, 2, 4, 8):
                    for precision in (2, 4):
                        total = sum(
                            stage_grad_bytes(model, stage, partition, i, tp,
                                             precision)
                            for i in range(pp)
                        )
                        assert total == (
                            trainable_param_count(model, stage) * precision / tp
                        )


class TestBuckets:
    def test_split_exact_and_remainder(self):
        assert split_buckets(256.0, 64.0) == [64.0, 64.0, 64.0, 64.0]
        assert split_buckets(200.0, 64.0) == [64.0, 64.0, 64.0, 8.0]
        assert split_buckets(10.0, 64.0) == [10.0]
        assert split_buckets(0.0, 64.0) == []

    @given(
        volume=st.floats(min_value=0, max_value=1e9),
        bucket=st.floats(min_value=1e4, max_value=1e9),
    )
    @settings(max_examples=200, deadline=None)
    def test_buckets_conserve_volume(self, volume, bucket):
        parts = split_buckets(volume, bucket)
        assert math.fsum(parts) == pytest.approx(volume, rel=1e-12, abs=1e-9)
        assert all(0 < p <= bucket for p in parts)


def sync_rows(catalog, full_stage, policy, dp=8, latency=5e-6, bandwidth=3.0e11):
    """One-stage 3B step on one node; returns (trace, sync_bucket rows)."""
    trace = run(
        catalog["3B"], full_stage,
        make_plan(dp=dp, tp=1, pp=1, m=1),
        make_topology(chips_per_node=dp, intra_bw=bandwidth, intra_lat=latency,
                      memory=1e18),
        CostModelConfig(grad_sync=policy), seed=0,
        workload=fixed_workload(1024),
    )
    rows = [r for rows in trace.stage_rows for r in rows if r[3] == LABEL_SYNC]
    return trace, rows


def sync_seconds(rows) -> float:
    return math.fsum(end - start for _, start, end, _, _ in rows)


def sync_volume(model, policy) -> float:
    # a single stage owns every param; all are trainable in this stage
    local = stage_local_params(model, [model.lm.layers], 0)
    return sum(local.values()) * policy.precision_bytes


class TestSyncTime:
    """Bucketed allreduce as the engine prices it: sync_bucket row durations."""

    def test_dp1_is_free(self, catalog, full_stage):
        policy = GradSyncPolicy(frequency="per_microbatch")
        _, rows = sync_rows(catalog, full_stage, policy, dp=1)
        assert rows == []

    def test_zero_latency_bucketing_is_neutral(self, catalog, full_stage):
        # without per-hop latency, splitting into buckets costs nothing extra
        policy = GradSyncPolicy(bucket_bytes=2**40, overlap=False)
        _, one = sync_rows(catalog, full_stage, policy, latency=0.0)
        policy = GradSyncPolicy(bucket_bytes=16 * 2**20, overlap=False)
        _, many = sync_rows(catalog, full_stage, policy, latency=0.0)
        assert len(one) == 1 and len(many) > 100
        assert sync_seconds(many) == pytest.approx(sync_seconds(one), rel=1e-9)

    def test_latency_term_grows_with_bucket_count(self, catalog, full_stage):
        # each 64 MiB bucket over 8 chips pays 14 hops of 5 us on top of the
        # shared bandwidth term; a single bucket pays the 14 hops once
        single_policy = GradSyncPolicy(bucket_bytes=2**40, overlap=False)
        split_policy = GradSyncPolicy(bucket_bytes=64 * 2**20, overlap=False)
        _, single = sync_rows(catalog, full_stage, single_policy)
        _, split = sync_rows(catalog, full_stage, split_policy)
        volume = sync_volume(catalog["3B"], split_policy)
        buckets = len(split_buckets(volume, 64 * 2**20))
        assert len(single) == 1 and len(split) == buckets > 1
        assert sync_seconds(split) == pytest.approx(
            2.0 * (7 / 8) * volume / 3.0e11 + buckets * 14 * 5e-6, rel=1e-9
        )
        assert sync_seconds(split) - sync_seconds(single) == pytest.approx(
            (buckets - 1) * 14 * 5e-6, rel=1e-6
        )

    def test_overlappable_flag_passthrough(self, catalog, full_stage):
        # overlapped buckets start while the producing backward still runs;
        # serialized ones wait for it to finish
        for overlap in (True, False):
            trace, rows = sync_rows(
                catalog, full_stage, GradSyncPolicy(overlap=overlap)
            )
            compute_end = max(
                r[2] for rows in trace.stage_rows for r in rows if r[0] == COMPUTE
            )
            first_sync = min(r[1] for r in rows)
            assert (first_sync < compute_end) == overlap

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            GradSyncPolicy(precision_bytes=3)
        with pytest.raises(ValueError):
            GradSyncPolicy(frequency="hourly")
        with pytest.raises(ValueError):
            GradSyncPolicy(bucket_bytes=0)
