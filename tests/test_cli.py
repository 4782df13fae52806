import concurrent.futures
import copy
import csv
import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vlmsim
from vlmsim import cli, engine
from vlmsim.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    check_config,
    execute,
    main,
    parse_axis,
)
from vlmsim.cluster import MemoryBreakdown
from vlmsim.config import ConfigError
from vlmsim.metrics import RunReport, report_csv_row, weak_scaling_point
from tests.conftest import PRESET_DIR, PRESETS

ARTIFACTS = [
    "report.json",
    "report.csv",
    "trace.jsonl",
    "gantt.svg",
    "resolved_config.json",
]

BUBBLE_PRESET = str(Path(PRESET_DIR) / "bubble-claim.json")
FLAGSHIP_PRESET = str(Path(PRESET_DIR) / "paper-70b-5120.json")
FUSION_PRESET = str(Path(PRESET_DIR) / "fusion-claim.json")


def sweepable_config(tmp_path):
    """The pipeline-depth study config: dp stays symbolic so each sweep
    point re-resolves it against the fixed chip count."""
    with open(BUBBLE_PRESET) as f:
        doc = json.load(f)
    doc["plan"]["dp"] = "auto"
    path = tmp_path / "bubble-auto.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of each process pool a sweep opens. The pool is a
    stand-in that runs its calls in this process and starts no worker."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    return sizes


class TestSimulate:
    def test_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--config", BUBBLE_PRESET,
                     "--out", str(out)]) == EXIT_OK
        for name in ARTIFACTS:
            assert (out / name).is_file(), name
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 1
        assert report["chips"] == 8
        assert report["step_time"] > 0
        assert len(report["config_digest"]) == 64

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", BUBBLE_PRESET, "--out", str(a)])
        main(["simulate", "--config", BUBBLE_PRESET, "--out", str(b)])
        for name in ARTIFACTS:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_override_changes_digest(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", BUBBLE_PRESET, "--out", str(a)])
        main(["simulate", "--config", BUBBLE_PRESET, "--seed", "99",
              "--out", str(b)])
        ra = json.loads((a / "report.json").read_text())
        rb = json.loads((b / "report.json").read_text())
        assert ra["config_digest"] != rb["config_digest"]
        # fixed-length workload: timing identical, only the digest moves
        assert ra["step_time"] == rb["step_time"]
        resolved = json.loads((b / "resolved_config.json").read_text())
        assert resolved["seed"] == 99

    def test_out_env_var_default(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("VLMSIM_OUT", str(target))
        assert main(["simulate", "--config", BUBBLE_PRESET]) == EXIT_OK
        assert (target / "report.json").is_file()

    def test_trace_format(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--config", BUBBLE_PRESET, "--out", str(out)])
        lines = (out / "trace.jsonl").read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["pp"] == 8 and meta["dp"] == 1 and meta["tp"] == 1
        assert meta["seed"] == 42
        assert meta["makespan"] > 0
        first = json.loads(lines[1])
        assert set(first) == {
            "stage", "resource", "start", "end", "label", "microbatch"
        }
        stages = {json.loads(line)["stage"] for line in lines[1:]}
        assert stages == set(range(8))

    def test_flagship_artifacts_never_read_stage_rows(self, tmp_path,
                                                      monkeypatch):
        # the run, report and writers read the columns; stage_rows is a
        # view for tests and the benchmark
        def never(trace):
            raise AssertionError("stage_rows read")

        monkeypatch.setattr(engine.Trace, "stage_rows", property(never))
        assert main(["simulate", "--config", FLAGSHIP_PRESET,
                     "--out", str(tmp_path)]) == EXIT_OK
        for name in ARTIFACTS:
            assert (tmp_path / name).is_file(), name

    @pytest.mark.parametrize("name", ["trace.jsonl", "gantt.svg"])
    def test_failed_write_leaves_no_artifact(self, tmp_path, capsys,
                                             monkeypatch, name):
        # a write that fails part way (a full disk, say) removes its own
        # partial file as well as the artifacts written before it
        def partial(trace, path):
            with open(path, "w") as handle:
                handle.write('{"dp":')
            raise OSError(28, "No space left on device")

        if name == "trace.jsonl":
            monkeypatch.setattr(engine.Trace, "write_jsonl", partial)
        else:
            monkeypatch.setattr(cli, "emit_gantt", partial)
        out = tmp_path / "run"
        assert main(["simulate", "--config", BUBBLE_PRESET,
                     "--out", str(out)]) == EXIT_IO
        assert "No space left on device" in capsys.readouterr().err
        assert [path.name for path in out.iterdir()] == []

    def test_import_starts_no_process_machinery(self):
        # only a parallel sweep imports the process pool
        code = ("import sys, vlmsim.cli; print(sorted(m for m in sys.modules"
                " if m in ('concurrent.futures.process', 'multiprocessing')))")
        src = str(Path(vlmsim.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True,
        )
        assert done.stdout.strip() == "[]"

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "ghost.json"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_IO
        assert "not found" in capsys.readouterr().err

    def test_bad_config_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        with open(BUBBLE_PRESET) as f:
            doc = json.load(f)
        doc["modle"] = doc.pop("model")
        bad.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert "unknown key at $.modle" in capsys.readouterr().err

    def test_unfit_plan_prints_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        with open(BUBBLE_PRESET) as f:
            doc = json.load(f)
        doc["plan"]["tp"] = 16
        bad.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        violations = json.loads(err[err.index("[") : err.rindex("]") + 1])
        assert any(v["constraint"] == "tp-within-node" for v in violations)
        assert "error:" in err


class TestSweep:
    def test_axis_parsing(self):
        key, values = parse_axis("plan.pp=2,4,8")
        assert key == "plan.pp"
        assert values == [2, 4, 8]
        key, values = parse_axis("plan.layer_balance=uniform,cost-balanced")
        assert values == ["uniform", "cost-balanced"]
        key, values = parse_axis("plan.sequence_parallel=true,false")
        assert values == [True, False]
        with pytest.raises(ConfigError):
            parse_axis("plan.pp")
        with pytest.raises(ConfigError):
            parse_axis("=2,4")

    def test_pipeline_depth_sweep(self, tmp_path):
        config = sweepable_config(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config),
                     "--axis", "plan.pp=2,4,8", "--out", str(out)])
        assert code == EXIT_OK
        for pp in (2, 4, 8):
            assert (out / f"plan.pp={pp}" / "report.json").is_file()
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3
        assert [row["plan.pp"] for row in rows] == ["2", "4", "8"]
        bubbles = [float(row["bubble"]) for row in rows]
        assert bubbles[0] < bubbles[1] < bubbles[2]
        # dp re-resolved per point: chips fixed at 8
        assert all(row["chips"] == "8" for row in rows)

    def test_point_isolated_run_matches_sweep_member(self, tmp_path):
        config = sweepable_config(tmp_path)
        out = tmp_path / "sweep"
        main(["sweep", "--config", str(config), "--axis", "plan.pp=2,4",
              "--out", str(out)])
        with open(config) as f:
            doc = json.load(f)
        doc["plan"]["pp"] = 4
        solo_cfg = tmp_path / "solo.json"
        solo_cfg.write_text(json.dumps(doc))
        solo_out = tmp_path / "solo"
        main(["simulate", "--config", str(solo_cfg), "--out", str(solo_out)])
        member = out / "plan.pp=4"
        for name in ("report.csv", "trace.jsonl", "gantt.svg"):
            assert (member / name).read_bytes() == (
                solo_out / name
            ).read_bytes(), name

    def test_fusion_sweep_parallel_monotone(self, tmp_path):
        out = tmp_path / "fusion"
        code = main(["sweep", "--config", FUSION_PRESET,
                     "--axis", "plan.fusion_chunks=1,2,4,8",
                     "--out", str(out), "--parallel", "4"])
        assert code == EXIT_OK
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        times = [float(row["step_time"]) for row in rows]
        assert len(times) == 4
        for a, b in zip(times, times[1:]):
            assert b <= a
        assert times[3] < times[0]

    def test_sweep_csv_independent_of_parallel(self, tmp_path):
        config = sweepable_config(tmp_path)
        axes = ["--axis", "plan.pp=2,4", "--axis", "plan.recompute=none,full"]
        csv_bytes = []
        for parallel in ("1", "2"):
            out = tmp_path / f"p{parallel}"
            code = main(["sweep", "--config", str(config), *axes,
                         "--out", str(out), "--parallel", parallel])
            assert code == EXIT_OK
            csv_bytes.append((out / "sweep.csv").read_bytes())
        assert csv_bytes[0] == csv_bytes[1]

        # each row is what the point's report.json holds
        lines = csv_bytes[0].decode().splitlines()
        assert len(lines) == 5
        for line in lines[1:]:
            pp, recompute, *cells = line.split(",")
            point = tmp_path / "p1" / f"plan.pp={pp}__plan.recompute={recompute}"
            doc = json.loads((point / "report.json").read_text())
            memory = doc.pop("memory")
            del memory["total"]
            report = RunReport(**doc, memory=MemoryBreakdown(**memory))
            assert cells == report_csv_row(report)

    def test_parallel_pool_never_outnumbers_points(self, tmp_path,
                                                   pool_sizes):
        config = sweepable_config(tmp_path)
        for points, parallel in (("2,4", "5000"), ("2", "3")):
            code = main(["sweep", "--config", str(config),
                         "--axis", f"plan.pp={points}",
                         "--out", str(tmp_path / points),
                         "--parallel", parallel])
            assert code == EXIT_OK
        # one point runs in this process, without a pool
        assert pool_sizes == [2]
        assert (tmp_path / "2,4" / "plan.pp=4" / "report.json").is_file()

    @pytest.mark.parametrize("parallel", ["0", "-3"])
    def test_parallel_below_one_is_refused(self, tmp_path, capsys, pool_sizes,
                                           parallel):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(sweepable_config(tmp_path)),
                     "--axis", "plan.pp=2,4", "--out", str(out),
                     f"--parallel={parallel}"])
        assert code == EXIT_VALIDATION
        assert "--parallel" in capsys.readouterr().err
        assert pool_sizes == []
        assert not out.exists()

    def test_empty_axes_degenerates_to_simulate(self, tmp_path):
        out = tmp_path / "plain"
        code = main(["sweep", "--config", BUBBLE_PRESET, "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "report.json").is_file()
        assert not (out / "sweep.csv").exists()

    def test_unknown_axis_key_fails_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", BUBBLE_PRESET,
                     "--axis", "plan.bogus=1,2", "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error: point plan.bogus=1: unknown key at $.plan.bogus" in err
        assert not out.exists()

    def test_axis_key_of_a_section_the_config_omits(self, tmp_path):
        # bubble-claim has no scaling section; the schema has the key
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", BUBBLE_PRESET,
                     "--axis", "scaling.reference_chips=8", "--out", str(out)])
        assert code == EXIT_OK
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert [row["scaling.reference_chips"] for row in rows] == ["8"]
        assert rows[0]["efficiency"] == "1.0"
        resolved = json.loads(
            (out / "scaling.reference_chips=8" / "resolved_config.json")
            .read_text()
        )
        assert resolved["scaling"] == {"reference_chips": 8}

    @pytest.mark.parametrize("axes,message", [
        # the header would name the key twice over a row of both values
        (["plan.fusion_chunks=2", "plan.fusion_chunks=4"],
         "axis key 'plan.fusion_chunks' is given twice"),
        # both points would write one directory
        (["plan.fusion_chunks=2,2"],
         "axis 'plan.fusion_chunks' repeats the value '2'"),
        (["seed=1,\"1\""], "axis 'seed' repeats the value '1'"),
        # a value names a directory under --out: "../../escaped" once wrote
        # its point to <out>/escaped beside an empty "model.name=..", and
        # more "../" left --out
        *(([f"model.name=a,{value}"],
           f"axis 'model.name' value {value!r} holds a path separator")
          for value in ("../../escaped", "a/b", "x/..", "/")),
    ])
    def test_colliding_axes_refused(self, tmp_path, capsys, pool_sizes, axes,
                                    message):
        out = tmp_path / "out" / "sweep"
        argv = ["sweep", "--config", FUSION_PRESET, "--out", str(out),
                "--parallel", "2"]
        for axis in axes:
            argv += ["--axis", axis]
        assert main(argv) == EXIT_VALIDATION
        assert f"error: {message}\n" in capsys.readouterr().err
        assert pool_sizes == []
        assert list(tmp_path.iterdir()) == []  # nothing under --out or beside

    @pytest.mark.parametrize("axis,message", [
        # $.model is the catalog name "8B", not an object
        ("model.lm.layers=16,32",
         "point model.lm.layers=16: axis key 'model.lm.layers': "
         "$.model is not an object"),
        # the tp=8 point is fine; tp=3 does not divide the 8-chip node
        ("plan.tp=8,3", "point plan.tp=3: plan does not fit topology"),
        # the memory fit is checked at the sampled step shape, which
        # load_config does not reach
        ("topology.chip.memory=1.92e11,1e9",
         "point topology.chip.memory=1000000000.0: estimated 2.419e+10 B "
         "exceeds chip memory 1.000e+09 B"),
    ])
    def test_bad_point_fails_before_any_run(self, tmp_path, capsys, axis,
                                            message):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", FUSION_PRESET, "--axis", axis,
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_reference_point_fails_before_any_run(self, tmp_path,
                                                      capsys):
        # both 5120-chip points fit; the 8-chip reference of the second
        # does not
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", FLAGSHIP_PRESET,
                     "--axis", "topology.chip.memory=1.92e11,1.5e11",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert '"constraint": "memory-fit"' in err
        assert (
            "error: point topology.chip.memory=150000000000.0: "
            "at $.scaling.reference_chips (8 chips): estimated 1.551e+11 B "
            "exceeds chip memory 1.500e+11 B"
        ) in err
        assert not out.exists()

    def test_base_the_axes_make_valid_sweeps(self, tmp_path, capsys):
        # pp=3 does not fit the 8-chip topology; every point sets pp=8.
        # The base's own violation used to refuse the sweep, naming no point
        with open(BUBBLE_PRESET) as f:
            doc = json.load(f)
        doc["plan"].update(pp=3, microbatches_per_step=16)
        config = tmp_path / "pp3.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config),
                     "--axis", "plan.pp=8",
                     "--axis", "plan.microbatches_per_step=16,32",
                     "--out", str(out)])
        assert code == EXIT_OK
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert [row["plan.microbatches_per_step"] for row in rows] == [
            "16", "32"
        ]
        for m in (16, 32):
            point = out / f"plan.pp=8__plan.microbatches_per_step={m}"
            assert (point / "report.json").is_file()

        # a point that keeps the base's pp is still refused, by its name
        bad = tmp_path / "bad"
        code = main(["sweep", "--config", str(config),
                     "--axis", "plan.pp=8,3", "--out", str(bad)])
        assert code == EXIT_VALIDATION
        assert ("error: point plan.pp=3: plan does not fit topology: "
                "dp*tp*pp = 3") in capsys.readouterr().err
        assert not bad.exists()

    def test_two_axis_cartesian_product(self, tmp_path):
        config = sweepable_config(tmp_path)
        out = tmp_path / "grid"
        code = main(["sweep", "--config", str(config),
                     "--axis", "plan.pp=2,4",
                     "--axis", "seed=1,2",
                     "--out", str(out)])
        assert code == EXIT_OK
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4
        assert (out / "plan.pp=2__seed=1").is_dir()
        assert (out / "plan.pp=4__seed=2").is_dir()


class TestValidate:
    def test_presets_validate_ok(self, capsys):
        from tests.conftest import PRESETS

        for name in PRESETS:
            code = main(["validate", "--config",
                         str(Path(PRESET_DIR) / name)])
            assert code == EXIT_OK, name
            assert capsys.readouterr().out.strip() == "ok"

    def test_memory_violation_reported(self, tmp_path, capsys):
        with open(BUBBLE_PRESET) as f:
            doc = json.load(f)
        doc["topology"]["chip"]["memory"] = 1e6  # nothing fits in a megabyte
        bad = tmp_path / "oom.json"
        bad.write_text(json.dumps(doc))
        code = main(["validate", "--config", str(bad)])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        violations, end = json.JSONDecoder().raw_decode(captured.err)
        assert violations[0]["constraint"] == "memory-fit"
        assert "exceeds chip memory" in violations[0]["message"]
        assert captured.err[end:].startswith("\nerror: estimated ")


    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_packed_batches_checked_at_the_sampled_shape(
        self, tmp_path, capsys, command
    ):
        # unpadded lognormal packing: validate used to guess the step shape
        # from the budget and print "ok" while simulate ran out of memory
        with open(Path(PRESET_DIR) / "seqpar-32k.json") as f:
            doc = json.load(f)
        doc["workload"]["padded"] = False
        doc["workload"]["sequence_length"] = {
            "kind": "lognormal-truncated", "mean": 7.5, "sigma": 1.2,
            "cap": 32768,
        }
        packed = tmp_path / "packed.json"
        packed.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["--config", str(packed)] + (
            ["--out", str(out)] if command == "simulate" else []
        )
        assert main([command] + argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        # both print the refusal on stderr only
        assert captured.out == ""
        assert '"constraint": "memory-fit"' in captured.err
        assert "estimated 1.195e+12 B exceeds chip memory" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_only_ring_algorithm_accepted(self, tmp_path, capsys, command):
        with open(Path(PRESET_DIR) / "gradsync.json") as f:
            doc = json.load(f)
        assert doc["costmodel"]["algorithm"] == "ring"
        doc["costmodel"]["algorithm"] = "tree"
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["--config", str(bad)] + (
            ["--out", str(out)] if command == "simulate" else []
        )
        assert main([command] + argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error: unsupported algorithm 'tree' at $.costmodel.algorithm" in err
        assert not out.exists()


def asymmetric_doc(dp=4, pp=3):
    """fusion-claim on three 8-chip nodes with tp=2: at pp=3 and dp=4,
    replicas 1 and 2 each cross a node at a stage boundary, replica 0
    does not."""
    with open(FUSION_PRESET) as f:
        doc = json.load(f)
    doc["topology"]["nodes"] = 3
    doc["plan"].update(dp=dp, tp=2, pp=pp)
    return doc


class TestReplicaPlacement:
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_asymmetric_replicas_refused(self, tmp_path, capsys, command):
        config = tmp_path / "asymmetric.json"
        config.write_text(json.dumps(asymmetric_doc()))
        out = tmp_path / "out"
        argv = [command, "--config", str(config)] + (
            ["--out", str(out)] if command == "simulate" else []
        )
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert '"constraint": "replica-placement"' in captured.err
        assert ("replica 1 crosses nodes at stage boundary 0-1, unlike "
                "replica 0") in captured.err
        assert not out.exists()

    def test_asymmetric_sweep_point_fails_before_any_run(self, tmp_path,
                                                          capsys):
        doc = asymmetric_doc(dp="auto", pp=1)
        config = tmp_path / "auto.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config),
                     "--axis", "plan.pp=1,3", "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert '"constraint": "replica-placement"' in err
        assert "error: point plan.pp=3: " in err
        assert not out.exists()

    def test_load_config_refuses(self):
        with pytest.raises(ConfigError) as err:
            vlmsim.load_config(asymmetric_doc())
        assert [v.constraint for v in err.value.violations] == [
            "replica-placement"
        ]

    @pytest.mark.parametrize("path", [
        *(str(Path(PRESET_DIR) / name) for name in PRESETS),
        "bench/workloads/flagship.json",
        "bench/workloads/sweep-grid.json",
        "bench/workloads/multimodal-api.json",
    ])
    def test_shipped_configs_accepted(self, path):
        # check_config checks the scaling reference point too
        check_config(vlmsim.load_config(path))

    def test_sweep_grid_points_accepted(self):
        # the axes of bench/run.py's sweep-grid workload
        with open("bench/workloads/sweep-grid.json") as f:
            doc = json.load(f)
        for pp, recompute, chunks in itertools.product(
            [4, 8], ["none", "selective", "full"], [1, 4, 8]
        ):
            point = copy.deepcopy(doc)
            point["plan"].update(pp=pp, recompute=recompute,
                                 fusion_chunks=chunks)
            check_config(vlmsim.load_config(point))


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_rejected_with_path(self, tmp_path, capsys, command, value):
        # Python's json module reads these tokens as floats
        text = (Path(PRESET_DIR) / "gradsync.json").read_text()
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace('"intra_latency": 5e-6', f'"intra_latency": {value}'))
        out = tmp_path / "out"
        argv = ["--config", str(bad)] + (["--out", str(out)] if command == "simulate" else [])
        assert main([command] + argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "expected a finite number at $.topology.intra_latency" in err
        assert not out.exists()


class TestAutoDpWithZeroFactor:
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("key", ["tp", "pp"])
    def test_rejected_like_an_explicit_dp(self, tmp_path, capsys, command,
                                          key):
        # "auto" divides the chip count by tp * pp, which used to raise
        # ZeroDivisionError and exit 3
        with open(FLAGSHIP_PRESET) as f:
            doc = json.load(f)
        assert doc["plan"]["dp"] == "auto"
        doc["plan"][key] = 0
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["--config", str(bad)] + (["--out", str(out)] if command == "simulate" else [])
        assert main([command] + argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error: at $.plan: dp, tp, pp must all be >= 1" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestRefusedAtTheirPath:
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_zero_max_tiles(self, tmp_path, capsys, command):
        with open(FUSION_PRESET) as f:
            doc = json.load(f)
        doc["model"] = {
            "lm": {"hidden_size": 1024, "layers": 4, "kv_heads": 2,
                   "head_size": 128, "intermediate_size": 2816,
                   "vocab_size": 32000, "embedding_tying": True},
            "vision": {"max_tiles": 0},
        }
        bad = tmp_path / "tiles.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["--config", str(bad)] + (["--out", str(out)] if command == "simulate" else [])
        assert main([command] + argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error: at $.model.vision: max_tiles must be >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("section,key,value,message", [
        # the 5120-chip step fits; its 8-chip reference does not
        ("chip", "memory", 1.5e11,
         "(8 chips): estimated 1.551e+11 B exceeds chip memory 1.500e+11 B"),
        ("scaling", "reference_chips", 12,
         "(12 chips): chips 12 not divisible by tp 8"),
    ])
    def test_scaling_reference_point(self, tmp_path, capsys, monkeypatch,
                                     command, section, key, value, message):
        def never(*args, **kwargs):
            raise AssertionError("a run was priced before the refusal")

        # both runs are checked before either is priced
        monkeypatch.setattr(engine, "run", never)
        with open(FLAGSHIP_PRESET) as f:
            doc = json.load(f)
        sheet = doc["topology"]["chip"] if section == "chip" else doc[section]
        sheet[key] = value
        bad = tmp_path / "reference.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["--config", str(bad)] + (["--out", str(out)] if command == "simulate" else [])
        assert main([command] + argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: at $.scaling.reference_chips {message}" in captured.err
        assert not out.exists()

    def test_negative_seed_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--config", FUSION_PRESET, "--seed", "-1",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestCheckedRuns:
    """check_config returns the runs simulate makes; execute runs those."""

    def test_reference_is_a_second_run(self):
        config = vlmsim.load_config(FLAGSHIP_PRESET)
        (point, reference) = check_config(config)
        assert point[:2] == (config.topology, config.plan)
        assert reference[:2] == weak_scaling_point(
            config.topology, config.plan, config.scaling_reference_chips
        )
        assert reference[0].total_chips == config.scaling_reference_chips
        for topology, plan, shape in (point, reference):
            assert shape == engine.step_shape(
                config.model, config.stage, plan, topology,
                config.costmodel, config.seed, config.workload,
            )

    @pytest.mark.parametrize("own_chips,efficiency", [(True, 1.0),
                                                      (False, None)])
    def test_point_alone_is_one_run(self, own_chips, efficiency):
        config = vlmsim.load_config(FLAGSHIP_PRESET)
        chips = config.topology.total_chips if own_chips else None
        config = dataclasses.replace(config, scaling_reference_chips=chips)
        runs = check_config(config)
        assert [run[:2] for run in runs] == [(config.topology, config.plan)]
        # a run against itself scales with efficiency exactly 1.0
        assert execute(config, runs)[1].efficiency == efficiency

    def test_execute_runs_exactly_the_runs_given(self, monkeypatch):
        config = vlmsim.load_config(FLAGSHIP_PRESET)
        runs = check_config(config)
        priced = []
        real_run = engine.run

        def recording_run(model, stage, plan, topology, *args, **kwargs):
            priced.append((topology, plan, kwargs["shape"]))
            return real_run(model, stage, plan, topology, *args, **kwargs)

        def never(config):
            raise AssertionError("execute checked runs it was handed")

        monkeypatch.setattr(engine, "run", recording_run)
        monkeypatch.setattr(cli, "check_config", never)
        trace, report = execute(config, runs)
        assert priced == runs
        assert report.efficiency is not None
        monkeypatch.undo()
        # without runs, execute checks the config itself: the same report
        assert execute(config)[1] == report
