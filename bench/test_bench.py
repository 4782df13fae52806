"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
from tracer import Span, Tracer, covered, layer_report, op_metrics, self_times  # noqa: E402


def _tree() -> list[Span]:
    # op [0, 10]
    #   cli.execute [1, 6]
    #     engine.run [1.5, 3.5]
    #       engine.build_cost_book [2, 3]
    #     engine.run [4, 5]          (the reference run)
    #   metrics.emit_gantt [7, 9]
    return [
        Span(0, 0, None, "op", 0.0, 10.0),
        Span(0, 1, 0, "cli.execute", 1.0, 6.0),
        Span(0, 2, 1, "engine.run", 1.5, 3.5),
        Span(0, 3, 2, "engine.build_cost_book", 2.0, 3.0),
        Span(0, 4, 1, "engine.run", 4.0, 5.0),
        Span(0, 5, 0, "metrics.emit_gantt", 7.0, 9.0),
    ]


def test_self_time_subtracts_children():
    selfs = self_times(_tree())
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 2.0}


def test_self_times_sum_to_root_duration():
    assert sum(self_times(_tree()).values()) == pytest.approx(10.0)


def test_covered_merges_overlapping_and_clips():
    assert covered((0.0, 10.0), [(1.0, 4.0), (3.0, 5.0), (9.0, 12.0)]) == 5.0
    assert covered((2.0, 3.0), []) == 0.0


def test_op_metrics_on_synthetic_tree():
    values = op_metrics(_tree(), {"engine.runs": 2})
    assert values["engine.run_s"] == 3.0
    assert values["engine.loop_s"] == 2.0  # self time of both runs
    assert values["engine.cost_book_s"] == 1.0
    assert values["cli.execute_s"] == 5.0
    assert values["cli.reference_s"] == 1.0
    assert values["cli.reference_runs"] == 1
    assert values["metrics.gantt_s"] == 2.0
    assert values["engine.runs"] == 2
    assert values["config.load_s"] == 0.0


def test_nested_spans_of_one_metric_count_once():
    spans = [
        Span(0, 0, None, "op", 0.0, 4.0),
        Span(0, 1, 0, "config.config_digest", 1.0, 3.0),
        Span(0, 2, 1, "config.resolved_config_dict", 1.5, 2.5),
    ]
    assert op_metrics(spans, {})["config.digest_s"] == 2.0


def test_tracer_restores_every_name_and_records_layers():
    import vlmsim
    import vlmsim.cli
    import vlmsim.engine

    originals = (vlmsim.run, vlmsim.engine.run, vlmsim.cli.load_config,
                 vlmsim.engine.Trace.__dict__["write_jsonl"])
    traced = Tracer()
    traced.install()
    try:
        assert "vlmsim.engine.build_cost_book" in tracer.wrapped_names()
        assert "vlmsim.cli.load_config" in tracer.wrapped_names()
        traced.begin_op(0)
        cfg = vlmsim.load_config(str(BENCH / "workloads" / "multimodal-api.json"))
        trace = vlmsim.run(
            model=cfg.model, stage=cfg.stage, plan=cfg.plan, topology=cfg.topology,
            costmodel=cfg.costmodel, seed=cfg.seed, workload=cfg.workload,
        )
        traced.end_op()
    finally:
        traced.restore()
    assert tracer.wrapped_names() == []
    assert originals == (vlmsim.run, vlmsim.engine.run, vlmsim.cli.load_config,
                         vlmsim.engine.Trace.__dict__["write_jsonl"])
    samples, absent = layer_report(traced)
    assert samples["engine.runs"] == [1]
    assert samples["engine.rows"] == [sum(len(rows) for rows in trace.stage_rows)]
    assert samples["comm.collective_calls"][0] > 0
    assert "metrics.gantt_s" in absent and "engine.run_s" not in absent


def test_smoke_prints_the_metric_names_of_benchmark_json():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert done.stdout.strip().splitlines()[-1] == "smoke: ok"


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.rglob("*"):
        if path.is_file() and "out" not in path.relative_to(BENCH).parts \
                and "__pycache__" not in path.parts:
            target = tmp_path / "bench" / path.relative_to(BENCH)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flagship", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
