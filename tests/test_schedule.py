import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlmsim.schedule import PipelineSchedule, build_1f1b, in_flight
from tests.conftest import (
    BACKWARD,
    FORWARD,
    SlotSchedule,
    analytic_bubble,
    build_gpipe,
    check_schedule,
    execute,
    max_in_flight,
    simulate_slot_completion,
    slot_schedule,
)

ORACLES = Path(__file__).parent / "oracles"


def slots_1f1b(p: int, m: int) -> SlotSchedule:
    return slot_schedule(build_1f1b(p, m))


class TestBuild1F1B:
    def test_matches_golden_p3_m4(self):
        with open(ORACLES / "schedule_p3_m4.json") as f:
            golden = json.load(f)
        schedule = slots_1f1b(golden["stages"], golden["microbatches"])
        assert {
            "stages": schedule.stages,
            "microbatches": schedule.microbatches,
            "slots": [[[kind, mb] for kind, mb in stage]
                      for stage in schedule.slots],
        } == golden

    def test_warmup_depth_per_stage(self):
        schedule = slots_1f1b(4, 16)
        for i, slots in enumerate(schedule.slots):
            warmup = 0
            for kind, _ in slots:
                if kind != FORWARD:
                    break
                warmup += 1
            assert warmup == min(4 - i, 16)

    def test_last_stage_strictly_alternates(self):
        schedule = slots_1f1b(4, 8)
        kinds = [kind for kind, _ in schedule.slots[-1]]
        assert kinds == [FORWARD, BACKWARD] * 8

    def test_fewer_microbatches_than_stages(self):
        schedule = slots_1f1b(8, 2)
        check_schedule(schedule)
        for slots in schedule.slots:
            assert len(slots) == 4

    def test_trivial_sizes(self):
        one = build_1f1b(1, 1)
        assert one.codes.tolist() == [1, -1]
        assert slot_schedule(one).slots == (((FORWARD, 1), (BACKWARD, 1)),)
        check_schedule(slot_schedule(one))
        check_schedule(slots_1f1b(1, 5))
        check_schedule(slots_1f1b(5, 1))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            build_1f1b(0, 4)
        with pytest.raises(ValueError):
            build_1f1b(4, 0)

    @given(
        p=st.integers(min_value=1, max_value=12),
        m=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=120, deadline=None)
    def test_always_legal(self, p, m):
        check_schedule(slots_1f1b(p, m))

    def test_fields_are_the_run_arrays(self):
        # every field is required, and the slots exist only as codes
        assert PipelineSchedule._fields == (
            "stages", "microbatches", "codes", "order", "depends")
        assert PipelineSchedule._field_defaults == {}
        schedule = build_1f1b(3, 4)
        for array in schedule[2:]:
            assert array.dtype == np.int64 and array.shape == (3 * 2 * 4,)


class TestLegalityChecker:
    def test_rejects_missing_microbatch(self):
        schedule = SlotSchedule(
            stages=1, microbatches=2, slots=(((FORWARD, 1), (BACKWARD, 1)),)
        )
        with pytest.raises(ValueError, match="missing microbatch"):
            check_schedule(schedule)

    def test_rejects_backward_before_forward(self):
        schedule = SlotSchedule(
            stages=1,
            microbatches=1,
            slots=(((BACKWARD, 1), (FORWARD, 1)),),
        )
        with pytest.raises(ValueError, match="backward 1 before forward"):
            check_schedule(schedule)

    def test_rejects_duplicate_slot(self):
        schedule = SlotSchedule(
            stages=1,
            microbatches=1,
            slots=(((FORWARD, 1), (FORWARD, 1), (BACKWARD, 1)),),
        )
        with pytest.raises(ValueError, match="repeats"):
            check_schedule(schedule)

    def test_rejects_cross_stage_deadlock(self):
        # stage 0 insists on b1 before f2, stage 1 runs f2 before b1;
        # stage 1 cannot start b1 until stage 0... this ordering deadlocks
        # stage 0's b1 (needs stage 1's b1) against stage 1's f2 (needs
        # stage 0's f2)
        slots = (
            ((FORWARD, 1), (BACKWARD, 1), (FORWARD, 2), (BACKWARD, 2)),
            ((FORWARD, 1), (FORWARD, 2), (BACKWARD, 1), (BACKWARD, 2)),
        )
        schedule = SlotSchedule(stages=2, microbatches=2, slots=slots)
        with pytest.raises(ValueError, match="deadlock"):
            check_schedule(schedule)

    @pytest.mark.parametrize("slot", [
        (FORWARD, 0), (FORWARD, -1), (FORWARD, 3), (BACKWARD, -1),
        (BACKWARD, 3),
    ])
    def test_execute_rejects_microbatch_out_of_range(self, slot):
        # hand-offs are kept in lists by microbatch: -1 must not wrap onto
        # microbatch 2, nor 3 run past the end
        slots = ((FORWARD, 1), (FORWARD, 2), (BACKWARD, 1), (BACKWARD, 2))
        schedule = SlotSchedule(stages=1, microbatches=2,
                                    slots=(slots[:2] + (slot,) + slots[2:],))
        ran = []

        def run_slot(i, kind, k, dep):
            ran.append((kind, k))
            return 1.0

        with pytest.raises(ValueError, match="outside 1..2"):
            execute(schedule, run_slot)
        assert ran == list(slots[:2])

    def test_gpipe_is_legal(self):
        check_schedule(build_gpipe(4, 8))


def closed_form_level(p: int, i: int, kind: str, k: int) -> int:
    """The unit-cost end of slot (kind, k) on stage i, from build_1f1b's
    closed form."""
    if kind == BACKWARD:
        return 2 * p - i + 2 * k - 2
    return i + k if k <= p - i else i + 2 * k - 1


def check_run_order(p: int, m: int) -> None:
    """build_1f1b(p, m)'s run order against the slots and the dependency
    oracle: a permutation of the 2pm slots that keeps each stage's slot
    order, runs every slot after its hand-off source with that source's run
    position + 1 as its dependency, and sorts by level * p + stage, where
    the closed-form levels are the oracle's unit-cost ends."""
    schedule = build_1f1b(p, m)
    slots = slot_schedule(schedule)
    per_stage = 2 * m
    order = schedule.order.tolist()
    codes = schedule.codes.tolist()
    assert sorted(order) == list(range(2 * p * m))
    position = {index: r for r, index in enumerate(order)}
    ids = {}
    for index, code in enumerate(codes):
        i, q = divmod(index, per_stage)
        ids[(i, *slots.slots[i][q])] = index
    for i in range(p):
        stage = [index for index in order if index // per_stage == i]
        assert stage == list(range(i * per_stage, (i + 1) * per_stage))

    sources = {}

    def run_slot(i, kind, k, dep):
        index = ids[i, kind, k]
        sources[index] = dep
        return float(index + 1)  # each hand-off names its slot

    execute(slots, run_slot)
    depends = schedule.depends.tolist()
    assert len(sources) == len(order)
    for index, dep in sources.items():
        r = position[index]
        source = int(dep) - 1  # -1: a forward of stage 0 waits for nothing
        if source < 0:
            assert index < per_stage and codes[index] > 0
            assert depends[r] == 0
        else:
            assert position[source] < r
            assert depends[r] == position[source] + 1
        if index % per_stage:
            assert position[index - 1] < r

    levels = [[closed_form_level(p, i, kind, k) for kind, k in stage]
              for i, stage in enumerate(slots.slots)]
    assert simulate_slot_completion(slots) == levels
    keys = [levels[index // per_stage][index % per_stage] * p
            + index // per_stage for index in order]
    assert keys == sorted(set(keys))


class TestRunOrder:
    @given(
        p=st.integers(min_value=1, max_value=16),
        m=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_sizes(self, p, m):
        check_run_order(p, m)

    @pytest.mark.parametrize("p, m", [(1, 1), (1, 6), (6, 1), (8, 3),
                                      (16, 15), (16, 64)])
    def test_edge_sizes(self, p, m):
        check_run_order(p, m)


class TestAnalyticBubble:
    def test_worked_examples(self):
        assert analytic_bubble(4, 16) == 3 / 19
        assert analytic_bubble(8, 160) == 7 / 167
        assert analytic_bubble(1, 7) == 0.0
        assert analytic_bubble(2, 1) == 0.5


class TestUnitCostCompletion:
    def test_makespan_matches_analytic_form(self):
        # unit fwd and bwd costs: makespan = 2m + 2(p-1), busy = 2m per stage
        times = simulate_slot_completion(slots_1f1b(4, 16))
        makespan = max(max(row) for row in times)
        assert makespan == 2 * 16 + 2 * (4 - 1)
        assert makespan == 38.0
        # measured bubble at unit costs equals the analytic fraction
        busy = 2 * 16
        assert 1.0 - busy / makespan == pytest.approx(
            analytic_bubble(4, 16), abs=1e-15
        )

    def test_unit_bubble_matches_analytic_grid(self):
        for p in (1, 2, 3, 5, 8):
            for m in (1, 2, 7, 24):
                times = simulate_slot_completion(slots_1f1b(p, m))
                makespan = max(max(row) for row in times)
                assert 1.0 - 2 * m / makespan == pytest.approx(
                    analytic_bubble(p, m), abs=1e-12
                )

    def test_completion_times_align_with_slots(self):
        schedule = slots_1f1b(3, 4)
        times = simulate_slot_completion(schedule)
        for slots, row in zip(schedule.slots, times):
            assert len(slots) == len(row)
            assert row == sorted(row)


class TestInFlightMemory:
    def test_1f1b_caps_at_warmup_depth(self):
        for p in (1, 2, 4, 8):
            for m in (1, 4, 16, 64):
                schedule = slots_1f1b(p, m)
                for i in range(p):
                    assert max_in_flight(schedule, i) == min(p - i, m)

    def test_in_flight_is_the_1f1b_peak(self):
        # the count the memory model reads is the one the builder warms up to
        for p in range(1, 17):
            for m in range(1, 65):
                schedule = slots_1f1b(p, m)
                for i in range(p):
                    assert in_flight(p, m, i) == max_in_flight(schedule, i)

    def test_gpipe_holds_everything(self):
        schedule = build_gpipe(4, 16)
        for i in range(4):
            assert max_in_flight(schedule, i) == 16

    @given(
        p=st.integers(min_value=1, max_value=10),
        m=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=100, deadline=None)
    def test_1f1b_never_exceeds_gpipe(self, p, m):
        f1b1 = slots_1f1b(p, m)
        gpipe = build_gpipe(p, m)
        for i in range(p):
            assert max_in_flight(f1b1, i) <= max_in_flight(gpipe, i)
            assert max_in_flight(f1b1, i) == min(p - i, m)
