import sys
import xml.etree.ElementTree as ET
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from vlmsim import (
    ChipSpec,
    CostModelConfig,
    LanguageModelSpec,
    MemoryBreakdown,
    ParallelismPlan,
    SequenceLengthModel,
    StepWorkload,
    Topology,
    builtin_model_catalog,
    partition_layers,
    stage_by_name,
    stage_grad_bytes,
)
from vlmsim.engine import COMM, COMPUTE, KINDS, CostBook, TraceColumns, Trace
from vlmsim.schedule import PipelineSchedule

PRESET_DIR = "presets"
PRESETS = [
    "paper-70b-5120.json",
    "bubble-claim.json",
    "fusion-claim.json",
    "seqpar-32k.json",
    "gradsync.json",
]


Row = tuple[str, float, float, str, int | None]  # resource, start, end, label, mb


def row_order(row: Row) -> tuple:
    """Sort key of trace rows: start, compute before comm, end, label.

    The order trace.jsonl writes each stage's rows in; tests sort by this
    key as reference.
    """
    return (row[1], 0 if row[0] == COMPUTE else 1, row[2], row[3])


# odd LM dimensions give FLOPs with full mantissas, so a change in the
# order or grouping of their float operations shows in the last bits; the
# catalog models' FLOPs are multiples of large powers of two
ODD_LM = LanguageModelSpec(
    hidden_size=4095, layers=81, kv_heads=5, head_size=63,
    intermediate_size=11007, vocab_size=150001, embedding_tying=False,
)


def assert_identical(a, b):
    # repr tells -0.0 from 0.0 and numpy.float64 from float, which == hides
    assert repr(a) == repr(b)


def trace_from_rows(stage_rows, **meta) -> Trace:
    """A Trace recording `stage_rows`, lists of Row tuples per stage.

    Each stage's rows are laid out as the engine lays them out: its
    compute rows, then its comm rows, each in the order given. A kind is
    its KINDS index, a None microbatch -1. Raises ValueError on a row the
    engine cannot record: a (resource, label) pair outside KINDS, or a row
    that starts before the previous row of its sub-block ends. `meta`
    overrides the Trace fields other than the record; by default dp = tp =
    1, one stage per list, makespan 1.0, one 1-token batch and zero
    memory.
    """
    rows = []
    offsets = [0]
    for stage, given in enumerate(stage_rows):
        for row in given:
            if (row[0], row[3]) not in KINDS:
                raise ValueError(f"stage {stage} row {row!r}: no such kind")
        for resource in (COMPUTE, COMM):
            block = [row for row in given if row[0] == resource]
            for before, row in zip(block, block[1:]):
                if row[1] < before[2]:
                    raise ValueError(
                        f"stage {stage} row {row!r} starts before the "
                        f"{resource} row before it ends"
                    )
            rows += block
            offsets.append(len(rows))
    columns = TraceColumns(
        start=np.array([row[1] for row in rows], np.float64),
        end=np.array([row[2] for row in rows], np.float64),
        kind=np.array([KINDS.index((row[0], row[3])) for row in rows],
                      np.uint8),
        microbatch=np.array(
            [-1 if row[4] is None else row[4] for row in rows], np.int64
        ),
    )
    fields = dict(
        dp=1, tp=1, pp=len(stage_rows), makespan=1.0, seed=0,
        microbatch_sizes=[1], microbatch_seq_lens=[1],
        visual_tokens_per_sample=0,
        memory=MemoryBreakdown(0.0, 0.0, 0.0, 0.0),
    )
    return Trace(columns=columns, offsets=np.array(offsets, np.intp),
                 **fields | meta)


LANE_LABELS = {
    resource: [label for res, label in KINDS if res == resource]
    for resource in (COMPUTE, COMM)
}


@st.composite
def engine_stage_rows(draw, times, max_rows=8,
                      microbatches=st.one_of(st.none(), st.integers(0, 10**6))):
    """One stage's rows as run can record them: compute and comm rows,
    each resource's in start order and each starting at or after the end
    of the one before, the two interleaved at random. Every time is drawn
    from `times`; a short list there makes rows tie on start and on
    (start, end) across the resources, and stages share times."""
    lanes = []
    for resource in (COMPUTE, COMM):
        points = sorted(set(draw(st.lists(times, max_size=2 * max_rows))))
        lane = []
        at = 0
        while at + 1 < len(points):
            end = draw(st.integers(at + 1, len(points) - 1))
            lane.append((resource, points[at], points[end],
                         draw(st.sampled_from(LANE_LABELS[resource])),
                         draw(microbatches)))
            # the next row starts where this one ends, or later
            at = draw(st.integers(end, len(points) - 1))
        lanes.append(lane)
    rows = []
    while any(lanes):
        rows.append(draw(st.sampled_from([lane for lane in lanes if lane]))
                    .pop(0))
    return rows


# every tie and odd row the writers must order and print as the reference
# does: equal starts across compute and comm, equal (start, end) under
# different labels, -0.0 beside 0.0, touching rows, a time in adjacent and
# in distant stages, and an empty stage
EDGE_ROWS = [
    [(COMM, -0.0, 0.5, "collective", 0), (COMPUTE, 0.0, 1.0, "fwd", 0),
     (COMPUTE, 1.0, 2.0, "bwd", 1), (COMM, 1.0, 2.0, "p2p", 1),
     (COMM, 0.1 + 0.2 + 2.0, 3.0, "sync_bucket", None)],
    [(COMPUTE, 2.0, 3.0, "fwd", 0), (COMM, 3.0, 3.5, "p2p", 0)],
    [],
    [(COMM, -0.0, 2.0, "collective", 7), (COMPUTE, 0.0, 2.0, "fwd", 7)],
]


SVG = "{http://www.w3.org/2000/svg}"
XLINK_HREF = "{http://www.w3.org/1999/xlink}href"


def gantt_lanes(svg: str) -> tuple[dict, dict[str, list]]:
    """What a gantt.svg draws, lane by lane, whatever the file's layout.

    Parses the chart, replaces each <use> with its def's children, each
    child's y moved by the use's y, and returns the root's attributes and,
    per data-lane, the (tag, attributes, text) of every element drawn in
    the lane, in document order. Text counts for elements without children
    only, so the whitespace between tags does not.
    """
    root = ET.fromstring(svg)
    by_id = {el.get("id"): el for el in root.iter() if el.get("id")}

    def drawn(parent, dy, out):
        for child in parent:
            if child.tag == SVG + "use":
                target = by_id[child.get(XLINK_HREF).removeprefix("#")]
                drawn(target, (dy or 0) + int(child.get("y")), out)
                continue
            attrib = dict(child.attrib)
            if dy is not None and "y" in attrib:
                attrib["y"] = str(int(attrib["y"]) + dy)
            out.append((child.tag, attrib, None if len(child) else child.text))
            drawn(child, dy, out)
        return out

    lanes = {
        lane.get("data-lane"): drawn(lane, None, [])
        for lane in root.iter(SVG + "g") if lane.get("data-lane")
    }
    return dict(root.attrib), lanes


@pytest.fixture(scope="session")
def catalog():
    return builtin_model_catalog()


@pytest.fixture(scope="session")
def full_stage():
    return stage_by_name("general-knowledge-injection")


@pytest.fixture
def small_topology():
    # generous memory so memory-fit never interferes with scheduling tests
    return Topology(
        nodes=1,
        chips_per_node=8,
        intra_node_bw=3e11,
        inter_node_bw=2.5e10,
        intra_latency=5e-6,
        inter_latency=1e-5,
        chip=ChipSpec(peak_flops=2.56e14, memory=1e15),
    )


def make_topology(nodes=1, chips_per_node=8, intra_bw=3e11, inter_bw=2.5e10,
                  intra_lat=5e-6, inter_lat=1e-5, peak=2.56e14, memory=1e15,
                  dual=True):
    return Topology(
        nodes=nodes,
        chips_per_node=chips_per_node,
        intra_node_bw=intra_bw,
        inter_node_bw=inter_bw,
        intra_latency=intra_lat,
        inter_latency=inter_lat,
        chip=ChipSpec(
            peak_flops=peak, memory=memory, has_independent_comm_unit=dual
        ),
    )


def make_plan(dp=1, tp=1, pp=1, m=1, **kwargs):
    return ParallelismPlan(
        dp=dp, tp=tp, pp=pp, microbatches_per_step=m, **kwargs
    )


def uniform_book(p, m, fwd, bwd, tp_comm=0.0, p2p=0.0) -> CostBook:
    """A CostBook of p stages and m microbatches, every slot costing the
    same, with no sync buckets."""
    return CostBook(
        fwd=[[fwd] * m for _ in range(p)],
        bwd=[[bwd] * m for _ in range(p)],
        tp_fwd=[[tp_comm] * m for _ in range(p)],
        tp_bwd=[[tp_comm] * m for _ in range(p)],
        p2p_fwd=[[p2p] * m for _ in range(p)],
        p2p_bwd=[[p2p] * m for _ in range(p)],
        sync_buckets=[[] for _ in range(p)],
    )


def fixed_workload(seq=4096, budget=None, visual=0):
    return StepWorkload(
        microbatch_token_budget=budget if budget is not None else seq,
        seq_len_model=SequenceLengthModel.fixed(seq),
        visual_tokens_per_sample=visual,
    )


@pytest.fixture
def costmodel():
    return CostModelConfig()


def stage_sync_bytes(model, stage, plan, precision_bytes) -> list[float]:
    """Bytes one chip of each pipeline stage syncs per sync."""
    partition = partition_layers(model, plan.pp, plan.layer_balance)
    return [
        stage_grad_bytes(model, stage, partition, i, plan.tp, precision_bytes)
        for i in range(plan.pp)
    ]


def syncs_per_step(policy, plan) -> int:
    if policy.frequency == "per_microbatch":
        return plan.microbatches_per_step
    return 1


# Schedule helpers that only tests read: each stage's (kind, microbatch)
# view of a schedule, a GPipe contrast schedule, the dependency oracle
# (`execute`), a legality check and unit-cost completion times run through
# it, the in-flight count of a slot list, and 1F1B's closed-form bubble.

FORWARD = "forward"
BACKWARD = "backward"


class SlotSchedule(NamedTuple):
    """Each stage's slots in order as (kind, microbatch) pairs: the form
    the helpers below read, and the one hand-built schedules, illegal ones
    too, are written in."""

    stages: int
    microbatches: int
    slots: tuple[tuple[tuple[str, int], ...], ...]


def slot_schedule(schedule: PipelineSchedule) -> SlotSchedule:
    """A built schedule's slots from its codes: k is forward k, -k backward
    k."""
    p, m = schedule.stages, schedule.microbatches
    slots = tuple(
        tuple((FORWARD, code) if code > 0 else (BACKWARD, -code)
              for code in stage)
        for stage in schedule.codes.reshape(p, 2 * m).tolist()
    )
    return SlotSchedule(p, m, slots)


def build_gpipe(p: int, m: int) -> SlotSchedule:
    """All forwards, then all backwards: the high-memory reference shape."""
    if p < 1 or m < 1:
        raise ValueError("p and m must be >= 1")
    slots = tuple(
        tuple(
            [(FORWARD, k) for k in range(1, m + 1)]
            + [(BACKWARD, k) for k in range(1, m + 1)]
        )
        for _ in range(p)
    )
    return SlotSchedule(stages=p, microbatches=m, slots=slots)


def execute(
    schedule: SlotSchedule,
    run_slot: Callable[[int, str, int, float], float],
) -> None:
    """Run each stage's slots in order, each once its dependency is met:
    the dependency rule, stated as a polling executor.

    run_slot(i, kind, k, dep) runs slot (kind, k) of stage i no earlier
    than `dep` and returns the time its output is handed off. Forward k on
    stage i waits for forward k's hand-off on stage i-1. Backward k waits
    for backward k's on stage i+1, or on the last stage for its own forward
    k's, and is never ready before its stage has run forward k (a gate
    only; `dep` stays the hand-off). Raises ValueError on deadlock, or
    for a slot whose microbatch is outside 1..m.
    """
    p, m = schedule.stages, schedule.microbatches
    # each stage's hand-off times indexed by microbatch, None until that
    # slot has run (index 0 is never used)
    fwd_handoff = [[None] * (m + 1) for _ in range(p)]
    bwd_handoff = [[None] * (m + 1) for _ in range(p)]
    position = [0] * p
    remaining = sum(len(s) for s in schedule.slots)
    while remaining:
        before = remaining
        for i in range(p):
            slots, pos = schedule.slots[i], position[i]
            n = len(slots)
            fwd_done, bwd_done = fwd_handoff[i], bwd_handoff[i]
            fwd_above = fwd_handoff[i - 1]  # unread on stage 0
            bwd_below = fwd_done if i == p - 1 else bwd_handoff[i + 1]
            while pos < n:
                kind, k = slots[pos]
                if not 0 < k <= m:  # a list index would wrap or overrun
                    raise ValueError(f"stage {i} slot {slots[pos]} outside 1..{m}")
                if kind == FORWARD:
                    dep = 0.0 if i == 0 else fwd_above[k]
                    done = fwd_done
                else:
                    dep = bwd_below[k] if fwd_done[k] is not None else None
                    done = bwd_done
                if dep is None:
                    break
                done[k] = run_slot(i, kind, k, dep)
                pos += 1
            remaining -= pos - position[i]
            position[i] = pos
        if remaining == before:
            raise ValueError("schedule deadlocks: circular or missing dependency")


def check_schedule(sched: SlotSchedule) -> None:
    """Legality validator; raises ValueError on any violation.

    Checks exactly-once coverage, forward-before-backward per stage, and
    cross-stage executability: the schedule must run to completion through
    `execute`, the dependency oracle, at unit cost.
    """
    p, m = sched.stages, sched.microbatches
    if len(sched.slots) != p:
        raise ValueError("slot list count != stages")
    for i, slots in enumerate(sched.slots):
        seen = {}
        for pos, slot in enumerate(slots):
            if slot in seen:
                raise ValueError(f"stage {i} repeats slot {slot}")
            seen[slot] = pos
        for k in range(1, m + 1):
            if (FORWARD, k) not in seen or (BACKWARD, k) not in seen:
                raise ValueError(f"stage {i} missing microbatch {k}")
            if seen[(BACKWARD, k)] < seen[(FORWARD, k)]:
                raise ValueError(f"stage {i} runs backward {k} before forward")
    simulate_slot_completion(sched)  # raises on deadlock


def simulate_slot_completion(sched: SlotSchedule) -> list[list[float]]:
    """Unit-cost completion times per stage slot; raises if not executable.

    Runs `execute` with every slot taking 1.0 and handing off at its
    end. Returns per-stage completion times aligned with the slots.
    """
    clock = [0.0] * sched.stages
    times: list[list[float]] = [[] for _ in range(sched.stages)]

    def run_slot(i: int, kind: str, k: int, dep: float) -> float:
        clock[i] = max(clock[i], dep) + 1.0
        times[i].append(clock[i])
        return clock[i]

    execute(sched, run_slot)
    return times


def max_in_flight(sched: SlotSchedule, stage_index: int) -> int:
    """Peak count of forwards awaiting their backward on one stage."""
    live = 0
    peak = 0
    for kind, _ in sched.slots[stage_index]:
        live += 1 if kind == FORWARD else -1
        peak = max(peak, live)
    return peak


def analytic_bubble(p: int, m: int) -> float:
    if p < 1 or m < 1:
        raise ValueError("p and m must be >= 1")
    return (p - 1) / (m + p - 1)


# Release-gate bookkeeping: test_acceptance registers one verdict line per
# criterion and the terminal summary replays them after the test report, so
# the measured numbers are visible even under captured output. Strict-xfail
# criteria record an honest FAIL line before tripping their assert.
ACCEPTANCE_LINES: dict[str, str] = {}


def record_acceptance(key: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES[key] = f"criterion {key}: {status} - {detail}"
    assert ok, f"acceptance criterion {key} violated: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    del exitstatus, config
    # pytest loads this file as top-level module "conftest" while the test
    # modules import it as "tests.conftest"; merge both instances' registries
    lines = dict(ACCEPTANCE_LINES)
    twin = sys.modules.get("tests.conftest")
    if twin is not None:
        lines.update(twin.ACCEPTANCE_LINES)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")

    def _order(key: str):
        digits = "".join(ch for ch in key if ch.isdigit())
        return (int(digits), key)

    for key in sorted(lines, key=_order):
        terminalreporter.write_line(lines[key])
