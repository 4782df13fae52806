#!/usr/bin/env python3
"""Host-time benchmark for vlmsim.

Measures what the simulator costs to run (host seconds, host memory), not
the simulated quantities; those are recorded as exact-match checks.

    python3 bench/run.py --workload flagship --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --smoke

Run from any directory; the program is imported from ``src/`` next to this
directory. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics (see bench/README.md). The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "out"

SETUP_REPEATS = 7
WARMUP_OPS = 1
REFERENCE_REPEATS = 3
SETUP_TIMEOUT_S = 60

SWEEP_AXES = (
    "plan.pp=4,8",
    "plan.recompute=none,selective,full",
    "plan.fusion_chunks=1,4,8",
)
SWEEP_POINTS = 18
REPORT_FIELDS = ("step_time", "tokens_per_second", "mfu", "bubble", "overlap_efficiency")
UNIT_FIELDS = ("mfu", "bubble", "overlap_efficiency")

# Metrics of an untraced run. Only those in GATED (the end-to-end metrics
# of BENCHMARK.json) go into the result line; the others are printed.
GATED = ("setup_s", "op_ref.p50", "peak_rss_mb")
UNITS = {
    "setup_s": "s",
    "op_ref.p50": "ref",
    "peak_rss_mb": "MiB",
    "points_per_ref": "1/ref",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "op_ref.p90": "ref",
    "points_per_s": "1/s",
    "ref_s": "s",
}

# Timed in a fresh interpreter: what every CLI invocation and every
# `sweep --parallel` worker pays before it can price a config.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import vlmsim.cli
vlmsim.cli.load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def reference_work() -> float:
    """Fixed pure-Python work: tuple building, sorting, JSON encoding and a
    float sum, the kind of work the simulator's hot paths do."""
    rows = [(i * 0.5, (i * 7919) % 1000 * 1.0, "fwd" if i & 1 else "bwd", i) for i in range(4000)]
    rows.sort(key=lambda r: (r[1], r[0]))
    text = json.dumps([{"s": a, "e": b, "l": c, "m": d} for a, b, c, d in rows[:1000]])
    return len(text) + sum(r[0] for r in rows)


def reference_time() -> float:
    """Best of a few timings of `reference_work`: the machine's speed now.

    A shared machine's speed drifts by up to 2x over seconds to minutes,
    and every host-time figure drifts with it. An operation's time divided
    by the reference time measured next to it (unit "ref") cancels that
    drift; it changes only when the program's own cost changes.
    """
    best = math.inf
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


@dataclasses.dataclass
class Outputs:
    digests: dict[str, str]
    sim: dict[str, object]


# -- output checks ----------------------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_report(doc: dict, where: str) -> dict[str, float]:
    """Headline values of a parsed report; raises on a non-finite or
    out-of-range value."""
    values = {field: doc[field] for field in REPORT_FIELDS}
    values["memory_total"] = doc["memory"]["total"]
    if doc.get("efficiency") is not None:
        values["efficiency"] = doc["efficiency"]
    for field, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise CheckFailed(f"{where}: {field} = {value!r} is not finite")
    for field in UNIT_FIELDS:
        if not 0.0 <= values[field] <= 1.0:
            raise CheckFailed(f"{where}: {field} = {values[field]!r} outside [0, 1]")
    return values


def read_report(path: Path) -> tuple[bytes, dict[str, float]]:
    data = path.read_bytes()
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path.name} does not parse: {exc}") from exc
    return data, check_report(doc, str(path.parent.name))


def sim_values(values: dict[str, float]) -> dict[str, float]:
    return {
        "sim.step_time_s": values["step_time"],
        "sim.mfu": values["mfu"],
        "sim.bubble": values["bubble"],
        "sim.overlap_efficiency": values["overlap_efficiency"],
        "sim.memory_total_bytes": values["memory_total"],
    }


def require_exit_ok(code: int) -> None:
    if code != 0:
        raise CheckFailed(f"vlmsim exited with code {code}")


# -- workloads ----------------------------------------------------------------

def flagship_execute(config: Path, op_dir: Path):
    import vlmsim.cli

    return vlmsim.cli.main(["simulate", "--config", str(config), "--out", str(op_dir)])


def flagship_inspect(op_dir: Path, code, full: bool) -> Outputs:
    require_exit_ok(code)
    data, values = read_report(op_dir / "report.json")
    return Outputs(
        digests={
            "out.report_sha256": sha256(data),
            "out.trace_sha256": sha256((op_dir / "trace.jsonl").read_bytes()),
        },
        sim=sim_values(values),
    )


def sweep_execute(config: Path, op_dir: Path):
    import vlmsim.cli

    argv = ["sweep", "--config", str(config), "--parallel", "1", "--out", str(op_dir)]
    for axis in SWEEP_AXES:
        argv += ["--axis", axis]
    return vlmsim.cli.main(argv)


def sweep_inspect(op_dir: Path, code, full: bool) -> Outputs:
    require_exit_ok(code)
    points = sorted(path for path in op_dir.iterdir() if path.is_dir())
    if len(points) != SWEEP_POINTS:
        raise CheckFailed(f"sweep wrote {len(points)} point directories, expected {SWEEP_POINTS}")
    csv = (op_dir / "sweep.csv").read_bytes()
    if csv.count(b"\n") != SWEEP_POINTS + 1:
        raise CheckFailed("sweep.csv does not hold one row per point")
    reports, traces = hashlib.sha256(), hashlib.sha256()
    sim: dict[str, list] = {}
    for point in points:
        data, values = read_report(point / "report.json")
        for digest, blob in ((reports, data), (traces, (point / "trace.jsonl").read_bytes())):
            digest.update(point.name.encode() + b"\0" + blob)
        for key, value in sim_values(values).items():
            sim.setdefault(key, []).append(value)
    return Outputs(
        digests={
            "out.report_sha256": reports.hexdigest(),
            "out.trace_sha256": traces.hexdigest(),
            "out.sweep_csv_sha256": sha256(csv),
        },
        sim=sim,
    )


def api_execute(config: Path, op_dir: Path):
    import vlmsim

    cfg = vlmsim.load_config(config)
    trace = vlmsim.run(
        model=cfg.model, stage=cfg.stage, plan=cfg.plan,
        topology=cfg.topology, costmodel=cfg.costmodel,
        seed=cfg.seed, workload=cfg.workload,
    )
    report = vlmsim.build_report(
        trace, cfg.model, cfg.stage, cfg.plan, cfg.topology,
        config_digest=vlmsim.config_digest(cfg),
    )
    return trace, vlmsim.emit_report(report, "json")


def api_inspect(op_dir: Path, result, full: bool) -> Outputs:
    trace, text = result
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report does not parse: {exc}") from exc
    values = check_report(doc, "report")
    digests = {"out.report_sha256": sha256(text.encode())}
    if full:
        # Serializing the trace costs several operations' worth of time, so
        # its digest is taken on the first and the last operation only; the
        # report bytes, which carry makespan, mfu, bubble and overlap, are
        # compared on every operation.
        path = op_dir / "trace.jsonl"
        trace.write_jsonl(path)
        digests["out.trace_sha256"] = sha256(path.read_bytes())
    return Outputs(digests=digests, sim=sim_values(values))


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: str
    points: int  # configs priced per operation
    execute: Callable[[Path, Path], object]  # timed
    inspect: Callable[[Path, object, bool], Outputs]  # untimed


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("flagship", "flagship.json", 1, flagship_execute, flagship_inspect),
        Workload("sweep-grid", "sweep-grid.json", SWEEP_POINTS, sweep_execute, sweep_inspect),
        Workload("multimodal-api", "multimodal-api.json", 1, api_execute, api_inspect),
    )
}


# -- measurement ----------------------------------------------------------------

def percentile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def measure_setup(config: Path) -> float:
    """Import plus load_config in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs, checks and times the operations of one workload."""

    def __init__(self, workload: Workload, config: Path, run_dir: Path, tracer=None):
        self.workload = workload
        self.config = config
        self.run_dir = run_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.reference: Outputs | None = None
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.refs: list[float] = []  # reference time next to each untraced sample
        self.setup: list[float] = []

    def op(self, traced: bool = False, full: bool = False, timed: bool = True) -> None:
        n = self.attempted
        self.attempted += 1
        op_dir = self.run_dir / f"op-{n}"
        op_dir.mkdir()
        calibrate = timed and not traced
        try:
            gc.collect()
            if calibrate:
                ref_before = reference_time()
            if traced:
                self.tracer.install()
                self.tracer.begin_op(n)
            try:
                start = time.perf_counter()
                result = self.workload.execute(self.config, op_dir)
                elapsed = time.perf_counter() - start
            finally:
                if traced:
                    self.tracer.end_op()
                    self.tracer.restore()
            if calibrate:
                ref = (ref_before + reference_time()) / 2
            self.compare(self.workload.inspect(op_dir, result, full or self.reference is None))
        except Exception:  # one failed operation must not end the run
            self.failed += 1
            print(f"operation {n} failed:", file=sys.stderr)
            traceback.print_exc()
            return
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)
        if traced:
            self.traced.append(elapsed)
        elif timed:
            self.untraced.append(elapsed)
            self.refs.append(ref)

    def compare(self, outputs: Outputs) -> None:
        if self.reference is None:
            self.reference = outputs
            return
        for key, digest in outputs.digests.items():
            first = self.reference.digests.get(key)
            if first is not None and first != digest:
                raise CheckFailed(f"{key} differs from the first operation of the run")
        if outputs.sim != self.reference.sim:
            raise CheckFailed("simulated statistics differ from the first operation of the run")

    def loop(self, seconds: float, traced: bool, warmup: int, setup_repeats: int) -> None:
        """Warm up, then run operations for `seconds`. With tracing, traced
        and untraced operations alternate so both see the same machine; the
        difference of their medians is the tracing overhead. Set-up
        interpreters are spread evenly over the run, for the same reason."""
        for _ in range(warmup):
            self.op(timed=False)
        start = time.perf_counter()
        minimum = 2 if traced else 1
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            if len(self.setup) < setup_repeats and elapsed >= len(self.setup) * seconds / setup_repeats:
                self.setup.append(measure_setup(self.config))
                continue
            if elapsed >= seconds and len(self.untraced) >= minimum and (
                not traced or len(self.traced) >= minimum
            ):
                break
            if self.attempted > 4 * (warmup + 2) and not (self.untraced or self.traced):
                break  # every operation fails; stop instead of spinning
            self.op(traced=traced and i % 2 == 1)
            i += 1
        self.op(full=True, timed=False)  # digest the final outputs in full too


# -- reporting ----------------------------------------------------------------------

def run_metadata(seed: int) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def prepare_config(workload: Workload, seed: int, run_dir: Path) -> Path:
    doc = json.loads((BENCH / "workloads" / workload.config).read_text())
    doc["seed"] = seed
    path = run_dir / "config.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, setup_repeats: int, warmup: int
) -> dict:
    """One benchmark run; returns the result record."""
    import vlmsim

    if not Path(vlmsim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported vlmsim from {vlmsim.__file__}, not from {SRC}")

    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        config = prepare_config(workload, seed, run_dir)
        record = {"workload": name, "meta": run_metadata(seed)}
        tracer = tracing.Tracer() if trace else None
        runner = Runner(workload, config, run_dir, tracer)
        runner.loop(seconds, trace, warmup, setup_repeats=0 if trace else setup_repeats)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not runner.untraced or (trace and not runner.traced):
        raise RuntimeError("no operation succeeded")
    untraced = runner.untraced
    record.update(
        attempted=runner.attempted,
        failed=runner.failed,
        outputs={**runner.reference.digests, **runner.reference.sim},
    )
    if not trace:
        setup, refs = runner.setup, runner.refs
        ratios = [op / ref for op, ref in zip(untraced, refs)]
        p90_beyond = len(untraced) - math.ceil(0.9 * len(untraced))
        record["samples"] = {
            "setup_s": f"median of {len(setup)} fresh interpreters spread over the run",
            "op": f"{len(untraced)} timed operations after {warmup} warm-up; "
                  f"{p90_beyond} beyond p90",
        }
        values = {
            "setup_s": statistics.median(setup),
            "op_ref.p50": statistics.median(ratios),
            "points_per_ref": workload.points * len(ratios) / sum(ratios),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_s.p50": statistics.median(untraced),
            "op_s.p90": percentile(untraced, 90),
            "op_ref.p90": percentile(ratios, 90),
            "points_per_s": workload.points * len(untraced) / sum(untraced),
            "ref_s": statistics.median(refs),
        }
        metrics = {key: {"value": value, "unit": UNITS[key]} for key, value in values.items()}
        record["metrics"] = {key: metrics.pop(key) for key in GATED}
        record["also"] = metrics
        return record

    samples, absent = tracing.layer_report(tracer)
    spans_path = WORK / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_jsonl(spans_path)
    traced_p50 = statistics.median(runner.traced)
    record["samples"] = {
        "per_layer": f"median over {len(runner.traced)} traced operations",
        "trace.overhead_s": f"traced p50 ({len(runner.traced)} ops) minus "
                            f"untraced p50 ({len(untraced)} ops)",
    }
    record["absent"] = absent
    record["spans"] = str(spans_path.relative_to(ROOT))
    metrics = {
        metric: {"value": statistics.median(samples[metric]), "unit": unit}
        for metric, (unit, _, _) in tracing.LAYER_METRICS.items()
    }
    metrics["trace.overhead_s"] = {"value": traced_p50 - statistics.median(untraced), "unit": "s"}
    record["metrics"] = metrics
    return record


def print_record(record: dict) -> None:
    meta = record["meta"]
    print(f"workload {record['workload']}  seed {meta['seed']}  commit {meta['commit']}")
    print(
        f"python {meta['python']}  numpy {meta['numpy']}  nproc {meta['nproc']}  "
        f"cpu {meta['cpu']}"
    )
    for key, text in record["samples"].items():
        print(f"samples  {key}: {text}")
    absent = set(record.get("absent", ()))
    for key, metric in record["metrics"].items():
        shown = "absent (layer not reached)" if key in absent else f"{metric['value']!r}"
        print(f"  {key:<24} {shown} {metric['unit']}")
    rate = record["failed"] / record["attempted"]
    print(f"  {'error_rate':<24} {rate!r} ratio ({record['failed']}/{record['attempted']})")
    for key, metric in record.get("also", {}).items():
        print(f"  {key:<24} {metric['value']!r} {metric['unit']}  (not gated)")
    for key, value in record["outputs"].items():
        print(f"check  {key} = {value}")


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def smoke(seed: int) -> int:
    """One short run per workload and mode; checks the printed metric names
    against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match the benchmark's")
    for name in WORKLOADS:
        for trace in (False, True):
            record = run_workload(name, seed, 0, trace, setup_repeats=1, warmup=0)
            print_record(record)
            got = set(record["metrics"])
            if got != expected[trace]:
                problems.append(
                    f"{name} trace={int(trace)}: missing {sorted(expected[trace] - got)}, "
                    f"unexpected {sorted(got - expected[trace])}"
                )
            if record["failed"]:
                problems.append(f"{name} trace={int(trace)}: {record['failed']} operations failed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one short run per workload and mode; checks metric names")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "vlmsim" / "__init__.py").is_file():
        print(f"error: vlmsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke(args.seed)
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), SETUP_REPEATS, WARMUP_OPS
    )
    print_record(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
