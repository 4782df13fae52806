"""Trace scans over numpy columns against the row-by-row loops they replaced.

`reference_check_invariants`, `reference_stage_compute_busy` and
`reference_overlap_efficiency` walk the `stage_rows` view in Python, as the
engine and metrics did before the per-stage columns. The column versions must
raise the same first message and give the same floats, bit for bit, on
synthetic traces shaped as the engine records them, on such traces with
cells of their time columns overwritten (broken ones), and on small engine
runs.

The column versions always return built-in floats; the loops returned the
type they summed (int 0 for a stage without compute). Results are compared
as `repr(float(x))`, which still tells -0.0 from 0.0 and 1.4699999999999998
from 1.47.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlmsim.engine import COMM, COMPUTE, KINDS, CostModelConfig, run
from vlmsim.metrics import _ranks, overlap_efficiency
from tests.conftest import (
    engine_stage_rows,
    make_plan,
    make_topology,
    trace_from_rows,
)
from tests.test_engine_reference import small_configs


def reference_check_invariants(trace):
    if not math.isfinite(trace.makespan):
        raise AssertionError(f"makespan {trace.makespan} is not finite")
    for stage, rows in enumerate(trace.stage_rows):
        for resource in (COMPUTE, COMM):
            prev_end = -math.inf
            for res, start, end, label, _ in rows:
                if res != resource:
                    continue
                if not start < end:
                    raise AssertionError(
                        f"stage {stage} {label} interval not positive"
                    )
                if start < prev_end:
                    raise AssertionError(
                        f"stage {stage} overlapping {resource} intervals"
                    )
                prev_end = end


def reference_stage_compute_busy(trace):
    return [
        sum(end - start for res, start, end, _, _ in rows if res == COMPUTE)
        for rows in trace.stage_rows
    ]


def reference_merge_intervals(spans):
    merged = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def reference_overlap_efficiency(trace):
    total = 0.0
    covered = 0.0
    for rows in trace.stage_rows:
        compute = reference_merge_intervals(
            [(s, e) for res, s, e, _, _ in rows if res == COMPUTE]
        )
        idx = 0
        for res, start, end, _, _ in rows:
            if res != COMM:
                continue
            total += end - start
            while idx > 0 and compute[idx - 1][1] > start:
                idx -= 1
            j = idx
            while j < len(compute) and compute[j][0] < end:
                lo = max(start, compute[j][0])
                hi = min(end, compute[j][1])
                if hi > lo:
                    covered += hi - lo
                if compute[j][1] <= end:
                    j += 1
                else:
                    break
            idx = j
    if total == 0.0:
        return 1.0
    return covered / total


def first_error(check):
    try:
        check()
    except AssertionError as exc:
        return str(exc)
    return None


def assert_same_floats(got, expect):
    if isinstance(expect, list):
        assert all(type(value) is float for value in got)
        expect = [float(value) for value in expect]
    else:
        assert type(got) is float
        expect = float(expect)
    assert repr(got) == repr(expect)


def make_trace(stage_rows, makespan=4.0):
    return trace_from_rows(stage_rows, makespan=makespan,
                           microbatch_seq_lens=[64])


MICROBATCHES = st.one_of(st.none(), st.integers(0, 7))
# shared endpoints make touching rows and equal starts across compute and
# comm likely; 1 - 2e-15 and 1 - 5e-16 end just before a row starting at
# 1.0, and -1.5 starts a sub-block below -1.0 (a sub-block's first row has
# no row before it, so no start of it overlaps)
GRID = st.sampled_from([
    -1.5, -1.0, -0.0, 0.0, 0.17, 0.27, 0.59, 1.0 - 2e-15, 1.0 - 5e-16, 1.0,
    1.74, 2.0, 2.57, 3.0,
])
FINITE_TIMES = st.one_of(GRID, st.floats(-4.0, 4.0))
ANY_TIMES = st.one_of(
    FINITE_TIMES, st.sampled_from([math.inf, -math.inf, math.nan])
)
DURATIONS = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.floats(1e-3, 3.0)
)
# traces as run records them (see engine_stage_rows)
ENGINE_TRACES = st.lists(
    engine_stage_rows(FINITE_TIMES, max_rows=6, microbatches=MICROBATCHES),
    max_size=4,
).map(make_trace)


@st.composite
def broken_traces(draw):
    """Engine-shaped traces with up to three cells of their time columns
    overwritten by any time, finite or not, and a makespan that may not be
    finite: rows that overlap the one before, are empty or inverted, or
    are still fine."""
    trace = draw(ENGINE_TRACES)
    rows = len(trace.columns.start)
    for _ in range(draw(st.integers(1, 3)) if rows else 0):
        column = draw(st.sampled_from(trace.columns[:2]))
        column[draw(st.integers(0, rows - 1))] = draw(ANY_TIMES)
    trace.makespan = draw(st.sampled_from([4.0, 4.0, 4.0, math.inf, math.nan]))
    return trace


def overwrite(trace, row, start=None, end=None):
    """The trace with row `row`'s start or end set: the way to a trace the
    engine cannot record, which trace_from_rows refuses."""
    if start is not None:
        trace.columns.start[row] = start
    if end is not None:
        trace.columns.end[row] = end
    return trace


class TestCheckInvariants:
    @given(trace=st.one_of(ENGINE_TRACES, broken_traces()))
    @settings(max_examples=400, deadline=None)
    def test_same_first_error(self, trace):
        assert first_error(trace.check_invariants) == first_error(
            lambda: reference_check_invariants(trace)
        )

    def test_no_tolerance(self):
        # touching rows pass; a row starting any amount before the previous
        # one ends overlaps it, down to one ulp
        rows = [(COMPUTE, 0.0, 1.0, "fwd", 0), (COMPUTE, 1.0, 2.0, "fwd", 1)]
        make_trace([rows]).check_invariants()
        for start in (1.0 - 2e-15, 1.0 - 5e-16, np.nextafter(1.0, 0.0)):
            trace = overwrite(make_trace([rows]), 1, start=start)
            with pytest.raises(AssertionError,
                               match="stage 0 overlapping compute"):
                trace.check_invariants()

    def test_compute_pass_before_comm_pass(self):
        # rows: the compute row, then the two comm rows, the last made to
        # overlap the one before it
        trace = overwrite(make_trace([[
            (COMM, 0.0, 2.0, "p2p", 0), (COMM, 2.0, 3.0, "p2p", 1),
            (COMPUTE, 1.0, 1.0, "bwd", 0),
        ]]), 2, start=1.0)
        with pytest.raises(AssertionError, match="stage 0 bwd interval not positive"):
            trace.check_invariants()

    def test_positivity_before_overlap_on_one_row(self):
        trace = overwrite(make_trace([[
            (COMM, 0.0, 2.0, "p2p", 0), (COMM, 2.0, 0.5, "sync_bucket", None),
        ]]), 1, start=1.0)
        with pytest.raises(AssertionError, match="sync_bucket interval not positive"):
            trace.check_invariants()

    @staticmethod
    def check_same(trace, message):
        assert first_error(trace.check_invariants) == message
        assert first_error(lambda: reference_check_invariants(trace)) == message

    def test_earlier_stage_comm_before_later_stage_compute(self):
        # both stage 0's comm sub-block and stage 1's compute sub-block
        # are bad; stage 0's comm pass runs first
        trace = make_trace([
            [(COMM, 1.0, 2.0, "p2p", 0), (COMPUTE, 0.0, 1.0, "fwd", 0),
             (COMM, 2.0, 3.0, "sync_bucket", None)],
            [(COMPUTE, 2.0, 2.0, "fwd", 0)],
        ])
        self.check_same(overwrite(trace, 2, start=1.5),
                        "stage 0 overlapping comm intervals")

    def test_empty_compute_sub_block(self):
        comm = [(COMM, 0.5, 2.0, "p2p", 0), (COMM, 2.0, 3.0, "p2p", 1)]
        trace = make_trace([[(COMPUTE, 0.0, 4.0, "fwd", 0)], comm])
        self.check_same(overwrite(trace, 2, start=1.0),
                        "stage 1 overlapping comm intervals")
        self.check_same(make_trace([[], comm[:1], []]), None)

    def test_sub_block_may_start_before_the_last_ones_end(self):
        # each sub-block's first row is checked against -inf, not against
        # the row before it in the record (another pass's or stage's)
        self.check_same(make_trace([
            [(COMPUTE, 0.0, 5.0, "fwd", 0), (COMM, 1.0, 2.0, "p2p", 0)],
            [(COMPUTE, 0.5, 1.0, "fwd", 0), (COMM, -0.5, 0.0, "p2p", 0)],
        ]), None)

    def test_first_row_may_start_below_minus_one(self):
        # no row comes before a sub-block's first row, however early it
        # starts; an end of -1.0 as its floor named it "overlapping"
        self.check_same(make_trace([
            [(COMPUTE, -1.5, 0.0, "fwd", 0), (COMM, -1.5, -1.0, "p2p", 0)],
        ]), None)


class TestStageComputeBusy:
    # inf - inf in a row's duration warns in numpy, not in Python floats
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @given(trace=st.one_of(ENGINE_TRACES, broken_traces()))
    @settings(max_examples=300, deadline=None)
    def test_same_floats(self, trace):
        assert_same_floats(
            trace.stage_compute_busy(), reference_stage_compute_busy(trace)
        )

    def test_sum_is_sequential(self):
        durations = [1.0 / (k + 6) + 0.1 * k for k in range(40)]
        rows, t = [], 0.0
        for k, duration in enumerate(durations):
            rows.append((COMPUTE, t, t + duration, "fwd", k))
            t += duration
        trace = make_trace([rows])
        expect = reference_stage_compute_busy(trace)
        assert_same_floats(trace.stage_compute_busy(), expect)
        # pairwise summation rounds differently on these rows
        pairwise = float(np.sum([end - start for _, start, end, _, _ in rows]))
        assert repr(pairwise) != repr(expect[0])

    def test_negative_zero_durations_sum_to_zero(self):
        # (-0.0) - 0.0 is -0.0, and a sum from 0.0 turns it into 0.0
        trace = make_trace([[(COMPUTE, 0.0, -0.0, "fwd", 0)], []])
        assert repr(trace.stage_compute_busy()) == "[0.0, 0.0]"


class TestRanks:
    """_ranks merges sorted keys into sorted queries; it must give what
    np.searchsorted gives, for either side."""

    SIDES = pytest.mark.parametrize("side", ["left", "right"])

    @staticmethod
    def check(keys, queries, side):
        keys = np.array(keys, np.float64)
        queries = np.array(queries, np.float64)
        got = _ranks(keys, queries, side)
        assert got.tolist() == np.searchsorted(keys, queries, side).tolist()

    @given(
        keys=st.lists(st.one_of(GRID, st.floats(-4.0, 4.0)), max_size=12),
        queries=st.lists(st.one_of(GRID, st.floats(-4.0, 4.0)), max_size=30),
        side=st.sampled_from(["left", "right"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_searchsorted(self, keys, queries, side):
        self.check(sorted(keys), sorted(queries), side)

    @SIDES
    def test_ties(self, side):
        self.check([1.0, 1.0, 2.0], [0.5, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0], side)

    @SIDES
    def test_signed_zeros_tie(self, side):
        # -0.0 == 0.0: either zero counts as the other, in any order
        self.check([-0.0, 0.0], [0.0, -0.0, 0.0], side)
        self.check([0.0, -0.0], [-0.0, -0.0, 0.0], side)
        self.check([-1.0, -0.0, 0.0, 1.0], [-1.0, 0.0, -0.0, 1.0], side)

    @SIDES
    def test_empty_keys(self, side):
        self.check([], [-1.0, 0.0, 2.0], side)

    @SIDES
    def test_empty_queries(self, side):
        self.check([0.0, 1.0], [], side)
        self.check([], [], side)


@st.composite
def pieces_and_rows(draw):
    """One stage's comm rows over compute pieces, in one of three cases,
    the rows in start order, each starting at or after the one before
    ends: each meeting at most one piece ("one"); one spanning two or more
    pieces ("spans"); ending at a piece's start or starting at a piece's
    end ("touch").

    The times are a grid: before the first piece, each piece's start,
    middle and end, the middle of each gap and past the last piece, so
    piece k runs from grid point 4k + 1 to 4k + 3 and a row from grid
    point i to j meets it when i < 4k + 3 and j > 4k + 1. A piece is one
    compute row, or two that touch at its middle and merge."""
    case = draw(st.sampled_from(["one", "spans", "touch"]))
    k = draw(st.integers(2 if case == "spans" else 1, 5))
    t = draw(st.sampled_from([-1.0, -0.0, 0.0, 0.5]))
    bounds = []
    for _ in range(k):
        start = t + draw(st.one_of(st.sampled_from([0.125, 0.5]),
                                   st.floats(1e-3, 2.0)))
        t = start + draw(DURATIONS)
        bounds += [start, t]
    grid = [bounds[0] - 1.0]
    for a, b in zip(bounds, bounds[1:]):
        grid += [a, (a + b) / 2]
    grid += [bounds[-1], bounds[-1] + 1.0]
    rows = []
    for piece in range(k):
        lo, mid, hi = grid[4 * piece + 1:4 * piece + 4]
        if draw(st.booleans()):
            rows += [(COMPUTE, lo, mid, "fwd", piece),
                     (COMPUTE, mid, hi, "bwd", piece)]
        else:
            rows.append((COMPUTE, lo, hi, "fwd", piece))
    last = len(grid) - 1
    spans = []
    at = 0
    if case == "spans":
        # from before piece 0's end to past piece 1's start
        at = draw(st.integers(5, last))
        spans.append((draw(st.integers(0, 2)), at))
    while at < last and len(spans) < 12:
        if case == "touch":
            # to the next piece start, or from the next piece end
            piece = -(-(at - 1) // 4)
            if 4 * piece + 3 >= last or draw(st.booleans()):
                if 4 * piece + 1 <= at:
                    piece += 1
                if 4 * piece + 1 > last:
                    break
                i, j = draw(st.integers(at, 4 * piece)), 4 * piece + 1
            else:
                i = 4 * piece + 3
                j = draw(st.integers(i + 1, min(i + 2, last)))
        else:
            # fewer than four grid steps never reach two pieces
            i = draw(st.integers(at, min(at + 2, last - 1)))
            j = draw(st.integers(i + 1, min(i + 3, last)))
        spans.append((i, j))
        at = j
    rows += [(COMM, grid[i], grid[j], "sync_bucket", None) for i, j in spans]
    return rows


class TestOverlapEfficiency:
    @given(trace=ENGINE_TRACES)
    @settings(max_examples=400, deadline=None)
    def test_same_floats(self, trace):
        assert_same_floats(
            overlap_efficiency(trace), reference_overlap_efficiency(trace)
        )

    @given(stages=st.lists(pieces_and_rows(), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_merge_cases_same_floats(self, stages):
        trace = make_trace(stages)
        assert_same_floats(
            overlap_efficiency(trace), reference_overlap_efficiency(trace)
        )

    def test_touching_intervals_merge(self):
        # one union piece gives 1.47 - 0.0; two pieces give 1.4699999999999998
        rows = [(COMPUTE, 0.17, 0.59, "fwd", 0), (COMPUTE, 0.59, 2.57, "bwd", 0),
                (COMM, 0.27, 1.74, "collective", 0)]
        trace = make_trace([rows])
        assert overlap_efficiency(trace) == 1.0
        assert_same_floats(overlap_efficiency(trace),
                           reference_overlap_efficiency(trace))

    def test_comm_spanning_pieces_and_gaps(self):
        rows = [
            (COMPUTE, 0.0, 1.0, "fwd", 0), (COMPUTE, 2.0, 3.0, "bwd", 0),
            (COMPUTE, 4.0, 5.0, "bwd", 1), (COMM, 0.25, 0.5, "collective", 1),
            (COMM, 0.5, 2.5, "p2p", 0), (COMM, 2.5, 6.0, "sync_bucket", None),
        ]
        trace = make_trace([rows, [], [(COMM, 0.0, 1.0, "p2p", 0)]])
        # covered 0.25 + 1.0 + 1.5 of total 0.25 + 2 + 3.5 + 1
        assert overlap_efficiency(trace) == pytest.approx(2.75 / 6.75)
        assert_same_floats(overlap_efficiency(trace),
                           reference_overlap_efficiency(trace))

    def test_no_comm_scores_one(self):
        assert overlap_efficiency(make_trace([])) == 1.0
        assert overlap_efficiency(make_trace([[(COMPUTE, 0.0, 1.0, "fwd", 0)]])) == 1.0


def sub_blocks_in_order(trace):
    """Whether every row of every sub-block is positive and starts at or
    after the previous row's end, with no tolerance."""
    start, end = trace.columns.start, trace.columns.end
    offsets = trace.offsets.tolist()
    return all(
        (start[a:b] < end[a:b]).all() and (start[a + 1:b] >= end[a:b - 1]).all()
        for a, b in zip(offsets, offsets[1:])
    )


class TestEngineRuns:
    @given(config=small_configs())
    @settings(max_examples=300, deadline=None)
    def test_rows_in_order_and_scans_match(self, catalog, config):
        # every engine trace meets the order rule exactly (run checks it
        # too), and the scans give the loops' floats
        model, stage, plan, topology, costmodel, seed, workload = config
        trace = run(catalog[model], stage, plan, topology, costmodel, seed,
                    workload)
        assert len(trace.offsets) == 2 * plan.pp + 1
        assert sub_blocks_in_order(trace)
        reference_check_invariants(trace)
        assert_same_floats(trace.stage_compute_busy(),
                           reference_stage_compute_busy(trace))
        assert_same_floats(overlap_efficiency(trace),
                           reference_overlap_efficiency(trace))

    @given(config=small_configs(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_broken_rows_same_error(self, catalog, config, data):
        model, stage, plan, topology, costmodel, seed, workload = config
        trace = run(catalog[model], stage, plan, topology, costmodel, seed,
                    workload)
        row = data.draw(st.integers(0, len(trace.columns.start) - 1))
        start, end = trace.columns.start[row], trace.columns.end[row]
        start, end = data.draw(st.sampled_from([
            (end, start),
            (start, start),
            (start - 2e-15 * max(1.0, abs(start)), end),
            (np.nextafter(start, -math.inf), end),
            (-1.0, end),
            (start, math.nan),
        ]))
        overwrite(trace, row, start, end)
        assert first_error(trace.check_invariants) == first_error(
            lambda: reference_check_invariants(trace)
        )


class TestScanWork:
    def test_sub_blocks_follow_resource_names(self):
        rows = [(COMM, 0.5, 1.5, "p2p", 0), (COMPUTE, 0.0, 1.0, "fwd", 0),
                (COMM, 1.5, 2.0, "sync_bucket", None)]
        trace = make_trace([rows])
        assert trace.columns.kind.tolist() == [
            KINDS.index((COMPUTE, "fwd")), KINDS.index((COMM, "p2p")),
            KINDS.index((COMM, "sync_bucket")),
        ]
        assert trace.offsets.tolist() == [0, 1, 3]
        assert trace.columns.start.dtype == trace.columns.end.dtype == np.float64

    def test_scans_read_no_kinds(self, catalog, full_stage):
        # the scans read each sub-block as a slice: no kind mask, no gather
        trace = run(catalog["3B"], full_stage, make_plan(pp=2, m=4),
                    make_topology(nodes=1, chips_per_node=2, memory=1e18),
                    CostModelConfig(), 0)
        busy = trace.stage_compute_busy()
        overlap = overlap_efficiency(trace)
        trace.columns = trace.columns._replace(kind=None)
        trace.check_invariants()
        assert trace.stage_compute_busy() == busy
        assert overlap_efficiency(trace) == overlap


class TestTraceFromRows:
    """The test helper builds only traces the engine can record."""

    @pytest.mark.parametrize("row", [
        ("host", 0.0, 1.0, "fwd", 0),
        (COMPUTE, 0.0, 1.0, "p2p", 0),
        (COMM, 0.0, 1.0, "fwd", 0),
        (COMPUTE, 0.0, 1.0, "a\nb", 0),
    ])
    def test_refuses_a_kind_outside_kinds(self, row):
        with pytest.raises(ValueError, match="no such kind"):
            make_trace([[(COMPUTE, 0.0, 1.0, "fwd", 0)], [row]])

    @pytest.mark.parametrize("resource, label", [
        (COMPUTE, "bwd"), (COMM, "sync_bucket"),
    ])
    def test_refuses_a_row_starting_before_the_one_before_ends(
        self, resource, label
    ):
        other = COMM if resource == COMPUTE else COMPUTE
        first = (resource, 0.0, 1.0, label, 0)
        # a row of the other resource between them does not count
        between = (other, 1.0, 2.0, "fwd" if other == COMPUTE else "p2p", 0)
        for start in (0.5, np.nextafter(1.0, 0.0)):
            with pytest.raises(ValueError, match="starts before the"):
                make_trace([[first, between, (resource, start, 2.0, label, 1)]])
        make_trace([[first, between, (resource, 1.0, 2.0, label, 1)]])
