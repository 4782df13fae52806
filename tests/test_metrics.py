import dataclasses
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vlmsim.cluster import MemoryBreakdown
from vlmsim.engine import (
    COMM,
    COMPUTE,
    KINDS,
    CostBook,
    CostModelConfig,
    build_cost_book,
    run,
)
from vlmsim.cluster import partition_layers
from vlmsim.config import load_config
from vlmsim.metrics import (
    CSV_COLUMNS,
    RunReport,
    _format_3f,
    _thousandths,
    build_report,
    emit_gantt,
    emit_report,
    mfu,
    overlap_efficiency,
    report_csv_row,
    scaling_efficiency,
    weak_scaling_point,
)
from vlmsim.schedule import measured_bubble
from vlmsim.workload import plan_step_microbatches
from tests.conftest import (
    EDGE_ROWS,
    PRESET_DIR,
    SVG,
    XLINK_HREF,
    engine_stage_rows,
    fixed_workload,
    gantt_lanes,
    make_plan,
    make_topology,
    row_order,
    trace_from_rows,
    uniform_book,
)


def synthetic_trace(rows_by_stage, dp=1, tp=1, makespan=None):
    if makespan is None:
        makespan = max(r[2] for rows in rows_by_stage for r in rows)
    return trace_from_rows(
        rows_by_stage, dp=dp, tp=tp, makespan=makespan,
        microbatch_seq_lens=[64],
    )


class TestOverlapEfficiency:
    def test_back_to_back_serialization_scores_zero(self):
        trace = synthetic_trace(
            [[(COMM, 0.0, 1.0, "collective", 0), (COMPUTE, 1.0, 2.0, "fwd", 0)]]
        )
        assert overlap_efficiency(trace) == 0.0

    def test_fully_shadowed_comm_scores_one(self):
        trace = synthetic_trace(
            [[(COMPUTE, 0.0, 2.0, "fwd", 0), (COMM, 0.5, 1.5, "p2p", 0)]]
        )
        assert overlap_efficiency(trace) == 1.0

    def test_half_covered(self):
        trace = synthetic_trace(
            [[(COMPUTE, 0.0, 1.0, "fwd", 0), (COMM, 0.5, 1.5, "p2p", 0)]]
        )
        assert overlap_efficiency(trace) == pytest.approx(0.5, abs=1e-12)

    def test_no_comm_scores_one_by_definition(self):
        trace = synthetic_trace([[(COMPUTE, 0.0, 1.0, "fwd", 0)]])
        assert overlap_efficiency(trace) == 1.0

    def test_coverage_merges_split_compute(self):
        # two compute intervals jointly cover one comm interval
        trace = synthetic_trace(
            [
                [
                    (COMPUTE, 0.0, 0.6, "fwd", 0),
                    (COMPUTE, 0.6, 1.2, "fwd", 1),
                    (COMM, 0.2, 1.0, "collective", 0),
                ]
            ]
        )
        assert overlap_efficiency(trace) == pytest.approx(1.0, abs=1e-12)


class TestMfu:
    def _small_run(self, catalog, full_stage, costmodel, small_topology):
        plan = make_plan(dp=1, tp=8, pp=1, m=4)
        trace = run(
            catalog["3B"], full_stage, plan, small_topology, costmodel,
            seed=0, workload=fixed_workload(2048, budget=2048),
        )
        return trace, plan

    def test_doubling_peak_halves_mfu_exactly(
        self, catalog, full_stage, costmodel, small_topology
    ):
        trace, plan = self._small_run(
            catalog, full_stage, costmodel, small_topology
        )
        base = mfu(trace, catalog["3B"], full_stage, plan, small_topology)
        doubled = dataclasses.replace(
            small_topology,
            chip=dataclasses.replace(
                small_topology.chip,
                peak_flops=small_topology.chip.peak_flops * 2,
            ),
        )
        assert mfu(trace, catalog["3B"], full_stage, plan, doubled) == base / 2

    def test_double_entry_against_measured_bubble(
        self, catalog, full_stage, costmodel
    ):
        # real flop-priced compute, comm stripped: busy seconds and achieved
        # flops are the same numbers in different units, so mfu + bubble = 1
        model = catalog["3B"]
        topo = make_topology(nodes=1, chips_per_node=4, memory=1e18)
        plan = make_plan(dp=1, tp=1, pp=4, m=8)
        workload = fixed_workload(2048, budget=2048)
        microbatches = plan_step_microbatches(
            full_stage.seq_len_model, workload, 8, seed=0
        )
        partition = partition_layers(model, 4)
        book = build_cost_book(
            model, full_stage, plan, topo, costmodel,
            partition, microbatches, workload,
        )
        p, m = 4, 8
        zero = [[0.0] * m for _ in range(p)]
        quiet = CostBook(
            fwd=book.fwd,
            bwd=book.bwd,
            tp_fwd=[row[:] for row in zero],
            tp_bwd=[row[:] for row in zero],
            p2p_fwd=[row[:] for row in zero],
            p2p_bwd=[row[:] for row in zero],
            sync_buckets=[[] for _ in range(p)],
        )
        trace = run(
            model, full_stage, plan, topo, costmodel, seed=0,
            workload=workload, cost_book=quiet,
        )
        got_mfu = mfu(trace, model, full_stage, plan, topo)
        bubble = measured_bubble(trace)
        assert got_mfu + bubble == pytest.approx(1.0, abs=1e-9)
        assert bubble > 0.0

    def test_double_entry_survives_communication(
        self, catalog, full_stage, costmodel
    ):
        # comm occupies the comm unit, never the compute ledger, so the
        # identity holds for a full run too
        topo = make_topology(nodes=1, chips_per_node=8, memory=1e18)
        plan = make_plan(
            dp=1, tp=2, pp=4, m=8, sequence_parallel=True, fusion_chunks=4
        )
        trace = run(
            catalog["3B"], full_stage, plan, topo, costmodel, seed=0,
            workload=fixed_workload(2048, budget=2048),
        )
        got_mfu = mfu(trace, catalog["3B"], full_stage, plan, topo)
        bubble = measured_bubble(trace)
        assert got_mfu + bubble == pytest.approx(1.0, abs=1e-9)

    def test_bubble_outside_unit_interval_is_refused(self):
        # compute busy past the makespan would be a negative bubble
        trace = synthetic_trace([[(COMPUTE, 0.0, 2.0, "fwd", 0)]], makespan=1.0)
        with pytest.raises(ValueError, match="bubble fraction -1.0 out of range"):
            measured_bubble(trace)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="mfu counts recomputed FLOPs as useful work, so it is hardware "
    "FLOPs utilization: full recompute reports 0.8101 at 142.1 s against "
    "0.7837 at 110.7 s with none",
)
def test_recompute_does_not_raise_mfu():
    config = load_config(f"{PRESET_DIR}/paper-70b-5120.json")
    reported = {}
    for recompute in ("none", "full"):
        plan = dataclasses.replace(config.plan, fusion_chunks=1,
                                   recompute=recompute)
        trace = run(config.model, config.stage, plan, config.topology,
                    config.costmodel, config.seed, config.workload)
        reported[recompute] = mfu(trace, config.model, config.stage, plan,
                                  config.topology)
    assert reported["full"] <= reported["none"]


class TestReports:
    def _report(self, efficiency=None):
        return RunReport(
            config_digest="d" * 64,
            chips=8,
            step_time=2.5,
            tokens_per_second=1000.0,
            mfu=0.5,
            bubble=0.1,
            overlap_efficiency=0.8,
            memory=MemoryBreakdown(
                weights=1.0, grads=2.0, optimizer=3.0, activations=4.0
            ),
            efficiency=efficiency,
        )

    def test_json_document_shape(self):
        doc = emit_report(self._report(), "json")
        import json

        parsed = json.loads(doc)
        assert parsed["schema"] == 2
        assert parsed["chips"] == 8
        assert parsed["memory"]["total"] == 10.0
        assert parsed["efficiency"] is None
        assert emit_report(self._report(), "json") == doc

    def test_csv_two_lines_and_roundtrip(self):
        text = emit_report(self._report(efficiency=0.9), "csv")
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_COLUMNS)
        values = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert float(values["step_time"]) == 2.5
        assert float(values["efficiency"]) == 0.9
        assert float(values["memory_total"]) == 10.0

    def test_csv_none_efficiency_is_empty_cell(self):
        row = report_csv_row(self._report())
        assert row[CSV_COLUMNS.index("efficiency")] == ""

    def test_float_cells_roundtrip_exactly(self):
        report = dataclasses.replace(self._report(), step_time=0.1 + 0.2)
        row = report_csv_row(report)
        assert float(row[CSV_COLUMNS.index("step_time")]) == 0.1 + 0.2

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(self._report(), "yaml")

    def test_fraction_fields_validated(self):
        with pytest.raises(ValueError):
            dataclasses.replace(self._report(), mfu=1.5)
        with pytest.raises(ValueError):
            dataclasses.replace(self._report(), bubble=-0.5)

    @pytest.mark.parametrize("name", ["step_time", "tokens_per_second"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_headline_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} = .* is not finite"):
            dataclasses.replace(self._report(), **{name: value})

    def test_build_report_from_run(
        self, catalog, full_stage, costmodel, small_topology
    ):
        plan = make_plan(dp=1, tp=8, pp=1, m=4)
        trace = run(
            catalog["3B"], full_stage, plan, small_topology, costmodel,
            seed=0, workload=fixed_workload(2048, budget=2048),
        )
        report = build_report(
            trace, catalog["3B"], full_stage, plan, small_topology, "a" * 64
        )
        assert report.chips == 8
        assert report.step_time == trace.makespan
        assert report.tokens_per_second == pytest.approx(
            4 * 2048 / trace.makespan
        )
        assert report.memory.total > 0
        assert report.efficiency is None

    def test_csv_cells_of_numpy_costs_are_plain_numbers(
        self, catalog, full_stage, costmodel
    ):
        # headline values may be numpy floats, whose repr under numpy 2 is
        # "np.float64(...)": a run over a CostBook of numpy.float64 gives
        # plain floats, so the report's fields are made numpy floats here
        p, m = 2, 4
        rng = np.random.default_rng(0)

        def draw():
            return [list(rng.uniform(0.1, 2.0, m)) for _ in range(p)]

        book = CostBook(
            fwd=draw(), bwd=draw(),
            tp_fwd=[[0.0] * m for _ in range(p)],
            tp_bwd=[[0.0] * m for _ in range(p)],
            p2p_fwd=draw(), p2p_bwd=draw(),
            sync_buckets=[[] for _ in range(p)],
        )
        plan = make_plan(dp=1, tp=1, pp=p, m=m)
        topology = make_topology(chips_per_node=p)
        trace = run(catalog["3B"], full_stage, plan, topology, costmodel,
                    seed=0, workload=fixed_workload(2048), cost_book=book)
        report = build_report(
            trace, catalog["3B"], full_stage, plan, topology, "a" * 64
        )
        report = dataclasses.replace(report, **{
            name: np.float64(getattr(report, name))
            for name in ("step_time", "tokens_per_second", "mfu", "bubble")
        })
        assert isinstance(report.step_time, np.float64)
        row = report_csv_row(report)
        for name in ("step_time", "tokens_per_second", "mfu", "bubble"):
            assert row[CSV_COLUMNS.index(name)] == repr(
                float(getattr(report, name))
            )
        assert "np." not in emit_report(report, "csv")


class TestGantt:
    def test_rect_per_interval_and_lane_structure(self):
        trace = synthetic_trace(
            [
                [
                    (COMPUTE, 0.0, 1.0, "fwd", 0),
                    (COMPUTE, 1.0, 3.0, "bwd", 0),
                    (COMM, 1.0, 1.5, "p2p", 0),
                ]
            ]
        )
        svg = emit_gantt(trace)
        assert svg.count("<rect") == 3
        assert svg.count('class="lane"') == 2  # one chip: compute + comm
        assert 'data-lane="chip0-compute"' in svg
        assert 'data-lane="chip0-comm"' in svg
        assert "#4c78a8" in svg and "#f58518" in svg and "#b279a2" in svg

    def test_lane_count_is_chips_times_two(self):
        rows = [[(COMPUTE, 0.0, 1.0, "fwd", 0)] for _ in range(2)]
        trace = synthetic_trace(rows, dp=2, tp=2)  # 2*2*2 = 8 chips
        svg = emit_gantt(trace)
        assert svg.count('class="lane"') == 16

    def test_chip_cap_clips_lanes(self):
        rows = [[(COMPUTE, 0.0, 1.0, "fwd", 0)] for _ in range(2)]
        trace = synthetic_trace(rows, dp=2, tp=2)
        svg = emit_gantt(trace, max_chips=3)
        assert svg.count('class="lane"') == 6

    def test_interval_cap_emits_marker(self):
        rows = [
            [(COMPUTE, float(i), float(i) + 0.5, "fwd", i) for i in range(5)]
        ]
        trace = synthetic_trace(rows)
        svg = emit_gantt(trace, max_intervals=2)
        assert svg.count("<rect") == 2
        assert "clipped" in svg

    def test_warmup_staircase_positions(self, catalog, full_stage, costmodel):
        # with uniform unit costs the first forward of stage i starts i
        # units later; the svg lanes must preserve that geometry
        topo = make_topology(nodes=1, chips_per_node=4, memory=1e18)
        plan = make_plan(dp=1, tp=1, pp=4, m=16)
        book = uniform_book(4, 16, fwd=1.0, bwd=2.0)
        trace = run(
            catalog["3B"], full_stage, plan, topo, costmodel, seed=0,
            workload=fixed_workload(64, budget=64), cost_book=book,
        )
        _, lanes = gantt_lanes(emit_gantt(trace))
        first_x = [
            next(float(attrib["x"])
                 for tag, attrib, _ in lanes[f"chip{chip}-compute"]
                 if tag == SVG + "rect")
            for chip in range(4)
        ]
        steps = [b - a for a, b in zip(first_x, first_x[1:])]
        assert all(s > 0 for s in steps)
        # x coords are written at 3 decimals, so equality is quantized
        assert max(steps) - min(steps) < 0.01

    def test_deterministic_output(self):
        trace = synthetic_trace(
            [[(COMPUTE, 0.0, 1.0, "fwd", 0), (COMM, 0.2, 0.6, "p2p", 0)]]
        )
        assert emit_gantt(trace) == emit_gantt(trace)

    def test_empty_trace_rejected(self):
        trace = synthetic_trace([[]], makespan=0.0)
        with pytest.raises(ValueError):
            emit_gantt(trace)

    @pytest.mark.parametrize("max_chips", [0, -1, -64])
    def test_chip_cap_below_one_rejected(self, max_chips):
        # -1 used to write an SVG with a negative height
        trace = synthetic_trace([[(COMPUTE, 0.0, 1.0, "fwd", 0)]])
        with pytest.raises(ValueError, match="max_chips must be >= 1"):
            emit_gantt(trace, max_chips=max_chips)

    @pytest.mark.parametrize("max_intervals", [-1, -300])
    def test_negative_interval_cap_rejected(self, max_intervals):
        # -1 used to drop each lane's last rect and mark the lane clipped
        trace = synthetic_trace([[(COMPUTE, 0.0, 1.0, "fwd", 0)]])
        with pytest.raises(ValueError, match="max_intervals must be >= 0"):
            emit_gantt(trace, max_intervals=max_intervals)

    def test_smallest_caps_accepted(self):
        trace = synthetic_trace(
            [[(COMPUTE, 0.0, 1.0, "fwd", 0), (COMM, 0.2, 0.6, "p2p", 0)]]
        )
        svg = emit_gantt(trace, max_chips=1, max_intervals=0)
        assert svg.count('class="lane"') == 2
        assert svg.count("<rect") == 0
        assert svg.count("clipped") == 2

    def test_writes_file(self, tmp_path):
        trace = synthetic_trace([[(COMPUTE, 0.0, 1.0, "fwd", 0)]])
        out = tmp_path / "chart.svg"
        text = emit_gantt(trace, path=out)
        assert out.read_text() == text

    def test_chip_cap_is_marked_below_the_lanes(self):
        rows = [[(COMPUTE, 0.0, 1.0, "fwd", 0)] for _ in range(2)]
        trace = synthetic_trace(rows, dp=2, tp=2)  # 8 chips
        root = ET.fromstring(emit_gantt(trace, max_chips=3))
        marks = [el for el in root if el.tag == SVG + "text"]
        assert [el.text for el in marks] == ["chips 0-2 of 8 drawn"]
        last_lane_bottom = 2 + 6 * 16 - 2
        assert last_lane_bottom < int(marks[0].get("y")) < int(root.get("height"))
        for max_chips in (8, 64):
            svg = emit_gantt(trace, max_chips=max_chips)
            assert " drawn" not in svg
            assert not [el for el in ET.fromstring(svg) if el.tag == SVG + "text"]

    def test_titles_are_the_engine_labels(self):
        # a rect's title is its row's label, one of KINDS, so the chart is
        # ASCII and no text in it needs escaping
        trace = synthetic_trace([[
            (COMPUTE, 0.0, 1.0, "fwd", 0), (COMPUTE, 1.0, 2.0, "bwd", 0),
            (COMM, 0.0, 0.5, "collective", 0), (COMM, 0.5, 1.0, "p2p", 0),
            (COMM, 1.0, 1.5, "sync_bucket", None),
        ]])
        svg = emit_gantt(trace)
        assert svg.isascii()
        titles = [el.text for el in ET.fromstring(svg).iter(SVG + "title")]
        assert titles == [label for _, label in KINDS]

    def test_flagship_draws_each_lane_once(self):
        config = load_config(f"{PRESET_DIR}/paper-70b-5120.json")
        trace = run(config.model, config.stage, config.plan, config.topology,
                    config.costmodel, config.seed, workload=config.workload)
        svg = emit_gantt(trace)
        # a copy of every lane per chip makes this chart 3,679,742 bytes
        assert len(svg.encode()) < 600_000
        assert_defs_resolve(svg)
        _, lanes = gantt_lanes(svg)
        assert len(lanes) == 128
        assert "chips 0-63 of 5120 drawn" in svg


def assert_defs_resolve(svg):
    """Every <use> names a def, every def is used, and ids are unique."""
    root = ET.fromstring(svg)
    ids = [el.get("id") for el in root.iter() if el.get("id") is not None]
    assert len(ids) == len(set(ids))
    (defs,) = root.iter(SVG + "defs")
    names = {child.get("id") for child in defs}
    used = {use.get(XLINK_HREF) for use in root.iter(SVG + "use")}
    assert used == {f"#{name}" for name in names}


def reference_gantt(trace, max_chips=64, max_intervals=300):
    """emit_gantt as it was before lanes were rendered once per stage:
    every (chip, resource) lane rescans its stage's sorted rows."""
    colors = {"fwd": "#4c78a8", "bwd": "#f58518", "collective": "#54a24b",
              "p2p": "#b279a2", "sync_bucket": "#e45756"}
    chips = min(trace.total_chips, max_chips)
    lane_h = 14
    gap = 2
    left = 150
    width = 1200.0
    height = chips * 2 * (lane_h + gap) + gap + 20
    scale = (width - left - 10) / trace.makespan

    sorted_rows = [sorted(rows, key=row_order) for rows in trace.stage_rows]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" font-family="monospace" font-size="10">'
    ]
    lane = 0
    for chip in range(chips):
        stage = (chip % (trace.pp * trace.tp)) // trace.tp
        for res in (COMPUTE, COMM):
            y = gap + lane * (lane_h + gap)
            parts.append(f'<g class="lane" data-lane="chip{chip}-{res}">')
            parts.append(
                f'<text x="4" y="{y + lane_h - 3}">chip {chip} {res}</text>'
            )
            drawn = 0
            for row_res, start, end, label, _ in sorted_rows[stage]:
                if row_res != res:
                    continue
                if drawn == max_intervals:
                    parts.append(
                        f'<text x="{width - 10:.0f}" y="{y + lane_h - 3}" '
                        f'text-anchor="end">clipped</text>'
                    )
                    break
                x = left + start * scale
                w = max((end - start) * scale, 0.05)
                color = colors[label]
                parts.append(
                    f'<rect x="{x:.3f}" y="{y}" width="{w:.3f}" '
                    f'height="{lane_h}" fill="{color}"><title>{label}</title></rect>'
                )
                drawn += 1
            parts.append("</g>")
            lane += 1
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# times often come from a short list, so rows tie on start across compute
# and comm and on (start, end) under different labels, and stages share
# times
gantt_times = st.one_of(st.floats(min_value=0.0, max_value=100.0),
                        st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1.5]))


class TestGanttMatchesReference:
    @given(
        pp=st.integers(min_value=1, max_value=4),
        tp=st.integers(min_value=1, max_value=3),
        dp=st.integers(min_value=1, max_value=4),
        lanes=st.data(),
        max_chips=st.integers(min_value=1, max_value=40),
        max_intervals=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_small_traces(self, pp, tp, dp, lanes, max_chips,
                                 max_intervals):
        # caps far below the row counts clip lanes; max_chips between one
        # replica (tp * pp chips) and dp replicas cuts a wrapped replica
        stage_rows = [
            lanes.draw(engine_stage_rows(
                gantt_times, max_rows=5,
                microbatches=st.one_of(st.none(), st.integers(0, 9)),
            ))
            for _ in range(pp)
        ]
        assume(any(stage_rows))  # emit_gantt refuses an empty trace
        trace = synthetic_trace(stage_rows, dp=dp, tp=tp)
        svg = emit_gantt(trace, max_chips=max_chips,
                         max_intervals=max_intervals)
        assert_defs_resolve(svg)
        assert gantt_lanes(svg) == gantt_lanes(
            reference_gantt(trace, max_chips, max_intervals)
        )

    def test_edge_rows(self):
        trace = synthetic_trace(EDGE_ROWS, dp=2, tp=2)
        for max_intervals in (0, 2, 300):
            svg = emit_gantt(trace, max_intervals=max_intervals)
            assert_defs_resolve(svg)
            assert gantt_lanes(svg) == gantt_lanes(
                reference_gantt(trace, max_intervals=max_intervals)
            )

    def test_replicas_wrap_into_default_window(self, catalog, full_stage,
                                               costmodel):
        # 5 replicas of 4 x 4 chips: chips 16..63 are replicas 1..3
        topo = make_topology(nodes=10, chips_per_node=8, memory=1e18)
        plan = make_plan(dp=5, tp=4, pp=4, m=128)
        trace = run(
            catalog["3B"], full_stage, plan, topo, costmodel, seed=0,
            workload=fixed_workload(2048, budget=2048),
        )
        svg = emit_gantt(trace)
        assert_defs_resolve(svg)
        assert gantt_lanes(svg) == gantt_lanes(reference_gantt(trace))
        assert svg.count('class="lane"') == 128
        assert "clipped" in svg


def assert_formats_as_format(values):
    """_format_3f's head + tail is format(v, ".3f") for every value."""
    heads, tails = _format_3f(values)
    got = list(map(str.__add__, heads.tolist(), tails.tolist()))
    want = [format(v, ".3f") for v in values.tolist()]
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want)
               if g != w]
        pytest.fail(f"{len(bad)} texts differ, first (value, got, want): "
                    f"{bad[:3]}")


# inputs the integer path does not take: negative, signed zero, subnormal,
# v * 1000 >= 2**53, infinite and NaN
FALLBACK = [
    -1.0, -0.0005, -1e-300, -0.0, 0.0, 5e-324, 2.2250738585072009e-308,
    2.0**53 / 1000, np.nextafter(2.0**53 / 1000, np.inf), 1e13, 1e300,
    1.7976931348623157e308, math.inf, -math.inf, math.nan,
]


class TestFixedPointFormat:
    """The chart's .3f numbers come from integers: the significand times
    1000, shifted right by the binary exponent with round-half-even."""

    def test_every_tie_in_the_chart_range_and_its_neighbours(self):
        # k/1000 + 0.0005 over [0.05, 1200] as the nearest double, and
        # one ulp below and above it
        for first in range(50, 1_200_000, 100_000):
            k = np.arange(first, min(first + 100_000, 1_200_000))
            ties = (2 * k + 1) / 2000
            for values in (np.nextafter(ties, -np.inf), ties,
                           np.nextafter(ties, np.inf)):
                assert_formats_as_format(values)

    def test_random_values(self):
        rng = np.random.default_rng(0)
        assert_formats_as_format(np.concatenate((
            rng.uniform(0.0, 2100.0, 100_000),
            np.round(rng.uniform(0.0, 2100.0, 50_000), 3),
            10.0 ** rng.uniform(-320.0, 16.0, 100_000),
            # any double: both signs, subnormals, infinities, NaNs
            rng.integers(0, 2**64, 100_000, np.uint64).view(np.float64),
        )))

    def test_fallback_inputs(self):
        values = np.array(FALLBACK)
        _, exact = _thousandths(values)
        assert not exact.any()
        assert_formats_as_format(values)

    def test_thousandths_are_exact_below_2_53(self):
        # past the chart's integer table too, up to v * 1000 < 2**53
        rng = np.random.default_rng(1)
        values = np.concatenate((
            [2.2250738585072014e-308, 0.0004999999999999999, 0.0005,
             0.0005000000000000001, np.nextafter(2.0**53 / 1000, 0)],
            10.0 ** rng.uniform(-307.0, np.log10(2.0**53 / 1000), 200_000),
        ))
        thousandths, exact = _thousandths(values)
        assert exact.all()
        assert thousandths.tolist() == [
            int(format(v, ".3f").replace(".", "")) for v in values.tolist()
        ]


class TestScaling:
    def test_efficiency_relative_to_reference(self):
        curve = scaling_efficiency([(16, 180.0), (8, 100.0)], reference=8)
        assert curve[8] == 1.0
        assert curve[16] == pytest.approx(0.9, abs=1e-12)
        assert list(curve) == [8, 16]

    def test_missing_reference_raises(self):
        with pytest.raises(ValueError):
            scaling_efficiency([(16, 180.0)], reference=8)
        curve = scaling_efficiency([(8, 100.0)], reference=8)
        with pytest.raises(KeyError):
            curve[64]

    def test_weak_scaling_rule(self):
        topo = make_topology(nodes=640, chips_per_node=8)
        base = make_plan(dp=80, tp=8, pp=8, m=768)
        small_topo, small_plan = weak_scaling_point(topo, base, 8)
        assert small_topo.nodes == 1
        assert (small_plan.dp, small_plan.tp, small_plan.pp) == (1, 8, 1)
        assert small_plan.microbatches_per_step == 96
        mid_topo, mid_plan = weak_scaling_point(topo, base, 64)
        assert (mid_plan.dp, mid_plan.tp, mid_plan.pp) == (1, 8, 8)
        assert mid_plan.microbatches_per_step == 768
        same_topo, same_plan = weak_scaling_point(topo, base, 5120)
        assert same_plan == base
        assert same_topo == topo

    def test_per_chip_tokens_invariant(self):
        topo = make_topology(nodes=640, chips_per_node=8)
        base = make_plan(dp=80, tp=8, pp=8, m=768)
        for chips in (8, 16, 64, 256, 1024, 5120):
            _, plan = weak_scaling_point(topo, base, chips)
            per_chip = plan.dp * plan.microbatches_per_step / chips
            assert per_chip == pytest.approx(
                80 * 768 / 5120, rel=1e-12
            )

    def test_divisibility_errors(self):
        topo = make_topology(nodes=640, chips_per_node=8)
        base = make_plan(dp=80, tp=8, pp=8, m=768)
        with pytest.raises(ValueError, match="not divisible by tp"):
            weak_scaling_point(topo, base, 12)
        wide_nodes = make_topology(nodes=320, chips_per_node=16)
        with pytest.raises(ValueError, match="chips per node"):
            weak_scaling_point(wide_nodes, base, 8)
        odd = make_plan(dp=80, tp=8, pp=8, m=10)
        with pytest.raises(ValueError, match="integer"):
            weak_scaling_point(topo, odd, 24)
