"""Command line surface: simulate, sweep, validate.

Exit codes: 0 success, 1 validation failure (bad config or plan), 2 I/O
problem, 3 unexpected internal error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import itertools
import json
import os
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

from . import engine
from .config import (
    ConfigError,
    SimConfig,
    config_digest,
    load_config,
    resolved_config_dict,
)
from .metrics import (
    CSV_COLUMNS,
    RunReport,
    build_report,
    emit_gantt,
    emit_report,
    report_csv_row,
    scaling_efficiency,
    weak_scaling_point,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTERNAL = 3


def _default_out_dir() -> Path:
    return Path(os.environ.get("VLMSIM_OUT", "vlmsim-out"))


@contextmanager
def _named(where: str):
    """Prefix a refusal inside the block with where it happened; its plan
    violations, if any, go with it."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(
            f"{where}: {exc}", getattr(exc, "violations", None)
        ) from exc


def check_config(config: SimConfig) -> list[tuple]:
    """Check a config, and its scaling reference point, as `simulate`
    would run them (engine.step_shape), without the event loop. Returns
    the runs `simulate` makes, each as (topology, plan, step shape): the
    point, then the reference when that is a second run."""
    def check(topology, plan):
        return topology, plan, engine.step_shape(
            config.model, config.stage, plan, topology, config.costmodel,
            config.seed, config.workload,
        )

    runs = [check(config.topology, config.plan)]
    reference = config.scaling_reference_chips
    if reference not in (None, config.topology.total_chips):
        with _named(f"at $.scaling.reference_chips ({reference} chips)"):
            runs.append(check(*weak_scaling_point(
                config.topology, config.plan, reference
            )))
    return runs


def execute(
    config: SimConfig, runs: list[tuple] | None = None
) -> tuple[engine.Trace, RunReport]:
    """Run one config; returns (trace, report).

    `runs` is check_config's result for the config, which is checked here
    when it is not given. When the config carries a scaling reference, the
    last run prices the efficiency field: the reference run, or the point
    itself when the reference is the point's own chip count.
    """
    if runs is None:
        runs = check_config(config)
    traces = [
        engine.run(config.model, config.stage, plan, topology,
                   config.costmodel, config.seed, config.workload,
                   shape=shape)
        for topology, plan, shape in runs
    ]
    trace = traces[0]
    efficiency = None
    reference = config.scaling_reference_chips
    if reference is not None:
        chips = config.topology.total_chips
        efficiency = scaling_efficiency(
            [
                (reference, traces[-1].tokens_per_step / traces[-1].makespan),
                (chips, trace.tokens_per_step / trace.makespan),
            ],
            reference=reference,
        )[chips]
    report = build_report(
        trace,
        config.model,
        config.stage,
        config.plan,
        config.topology,
        config_digest=config_digest(config),
        efficiency=efficiency,
    )
    return trace, report


def cmd_simulate(
    config: SimConfig, out_dir: Path, runs: list[tuple] | None = None
) -> RunReport:
    """Run one config (its checked `runs`, as in `execute`) and write its
    five artifacts; returns the report."""
    trace, report = execute(config, runs)
    out_dir.mkdir(parents=True, exist_ok=True)
    # a path is recorded before its write starts, so a write that fails
    # part way removes its own partial file along with the ones before it
    written: list[Path] = []

    def started(name: str) -> Path:
        written.append(out_dir / name)
        return written[-1]

    try:
        for name, content in (
            ("report.json", emit_report(report, "json")),
            ("report.csv", emit_report(report, "csv")),
        ):
            started(name).write_text(content)
        trace.write_jsonl(started("trace.jsonl"))
        emit_gantt(trace, started("gantt.svg"))
        started("resolved_config.json").write_text(
            json.dumps(resolved_config_dict(config), indent=2, sort_keys=True)
            + "\n"
        )
    except OSError:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise
    return report


def _axis_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_axis(spec: str) -> tuple[str, list]:
    if "=" not in spec:
        raise ConfigError(f"axis {spec!r} is not of the form key=v1,v2,...")
    key, _, values = spec.partition("=")
    if not key or not values:
        raise ConfigError(f"axis {spec!r} is not of the form key=v1,v2,...")
    return key, [_axis_value(v) for v in values.split(",")]


def _set_by_path(doc: dict, dotted: str, value) -> None:
    # sections a sparse config omitted are created on the way down;
    # load_config then refuses a key the schema does not know
    node = doc
    parts = dotted.split(".")
    for depth, part in enumerate(parts[:-1], 1):
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            at = ".".join(parts[:depth])
            raise ConfigError(f"axis key {dotted!r}: $.{at} is not an object")
    node[parts[-1]] = value


def _point_dir_name(assignment: tuple[tuple[str, object], ...]) -> str:
    return "__".join(f"{key}={value}" for key, value in assignment)


def _run_sweep_point(config: SimConfig, out_dir: str, runs: list) -> list[str]:
    # module-level so process pools can pickle the call
    return report_csv_row(cmd_simulate(config, Path(out_dir), runs))


def cmd_sweep(
    doc: dict,
    axes: list[tuple[str, list]],
    out_dir: Path,
    parallel: int = 1,
) -> int:
    """Cartesian sweep. Overrides land on the raw document, so values the
    base config left symbolic (dp: "auto") re-resolve per point. An axis
    key given twice, or an axis repeating a value's text (which names the
    point's directory) or holding a path separator in it (which would put
    the point's files outside `out_dir`), is refused. Every point's config
    is loaded and checked (check_config) before the first point runs, so a
    bad point fails the sweep, named by its directory, before anything is
    written; each point then makes the runs its check returned. The base
    document is loaded only when there are no axes, so a base that its
    axes override into valid points sweeps.
    At most `parallel` points, and never more than there are, run at once."""
    if parallel < 1:
        raise ValueError(f"--parallel must be at least 1, got {parallel}")
    if not axes:
        cmd_simulate(load_config(copy.deepcopy(doc)), out_dir)
        return EXIT_OK

    axis_keys = [key for key, _ in axes]
    for key, values in axes:
        texts = [str(value) for value in values]
        repeated = [text for text in texts if texts.count(text) > 1]
        if not values:
            raise ConfigError(f"axis {key!r} has no values")
        if axis_keys.count(key) > 1:
            raise ConfigError(f"axis key {key!r} is given twice")
        if repeated:
            raise ConfigError(f"axis {key!r} repeats the value {repeated[0]!r}")
        for text in texts:
            if "/" in text or os.sep in text:
                raise ConfigError(
                    f"axis {key!r} value {text!r} holds a path separator")

    assignments = []
    jobs = []
    for combo in itertools.product(*(values for _, values in axes)):
        assignment = tuple(zip(axis_keys, combo))
        name = _point_dir_name(assignment)
        point_doc = copy.deepcopy(doc)
        with _named(f"point {name}"):
            for key, value in assignment:
                _set_by_path(point_doc, key, value)
            config = load_config(point_doc)
            runs = check_config(config)
        assignments.append(assignment)
        jobs.append((config, str(out_dir / name), runs))

    # a fork pool starts all of its workers at the first call, used or not
    workers = min(parallel, len(jobs))
    if workers > 1:
        # imported here: simulate, validate and serial sweeps never start
        # a pool, so they skip the multiprocessing import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            report_rows = list(pool.map(_run_sweep_point, *zip(*jobs)))
    else:
        report_rows = [_run_sweep_point(*job) for job in jobs]

    lines = [",".join(axis_keys + CSV_COLUMNS)]
    for assignment, report_row in zip(assignments, report_rows):
        row = [str(value) for _, value in assignment] + report_row
        lines.append(",".join(row))
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_validate(config: SimConfig) -> int:
    """Check a config as `simulate` would, without the event loop. A
    refusal raises to `main`, which prints it on stderr."""
    check_config(config)
    print("ok")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlmsim",
        description="Deterministic training-infrastructure simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one config, write artifacts")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default=None)

    sweep = sub.add_parser("sweep", help="Cartesian sweep over config keys")
    sweep.add_argument("--config", required=True)
    sweep.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="key=v1,v2,...",
        help="dotted config key and comma-separated values; repeatable",
    )
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--parallel", type=int, default=1)

    val = sub.add_parser("validate", help="check a config against its topology")
    val.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config_path = Path(args.config)
        if not config_path.exists():
            print(f"error: config {config_path} not found", file=sys.stderr)
            return EXIT_IO

        if args.command == "sweep":
            out_dir = Path(args.out) if args.out else _default_out_dir()
            with open(config_path) as handle:
                doc = json.load(handle)
            axes = [parse_axis(spec) for spec in args.axis]
            return cmd_sweep(doc, axes, out_dir, parallel=args.parallel)

        config = load_config(config_path)
        if getattr(args, "seed", None) is not None:
            config = dataclasses.replace(config, seed=args.seed)
        if args.command == "validate":
            return cmd_validate(config)
        out_dir = Path(args.out) if args.out else _default_out_dir()
        cmd_simulate(config, out_dir)
        return EXIT_OK
    except ValueError as exc:
        # a refused config, with the plan violations behind it if any
        if getattr(exc, "violations", None):
            print(
                json.dumps([v.as_dict() for v in exc.violations], indent=2),
                file=sys.stderr,
            )
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
