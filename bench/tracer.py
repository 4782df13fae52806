"""In-memory span recorder for the traced benchmark run.

The tracer wraps the public functions of each vlmsim module from outside
the package. A function is replaced at every name where a caller looks it
up (``vlmsim.engine.build_cost_book``, ``vlmsim.cli.load_config``, the
package re-export ``vlmsim.run``, ...), and methods are replaced on their
class. Each call records one span: operation id, span id, parent span id,
name, start and end (``time.perf_counter`` seconds). Some wrappers also add
counts taken from the call's arguments or result. ``restore`` puts every
original object back, so untraced operations run the unmodified program.

Per-layer metrics are derived from the spans after the run:

* ``incl``: summed duration of the named spans;
* ``self``: summed self time of the named spans, where a span's self time is
  its duration minus the part of its interval its child spans cover;
* ``count``: a count added by a wrapper;
* ``reference``: time and number of the weak-scaling reference runs, i.e.
  every ``engine.run`` child of a ``cli.execute`` span after the first.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

# (module, attribute) pairs that get a span per call; "Class.method" names
# are wrapped on the class.
SPANNED = (
    ("vlmsim.config", "load_config"),
    ("vlmsim.config", "config_digest"),
    ("vlmsim.config", "resolved_config_dict"),
    ("vlmsim.workload", "plan_step_microbatches"),
    ("vlmsim.cluster", "validate_plan"),
    ("vlmsim.cluster", "partition_layers"),
    ("vlmsim.cluster", "memory_per_chip"),
    ("vlmsim.schedule", "build_1f1b"),
    ("vlmsim.schedule", "measured_bubble"),
    ("vlmsim.engine", "run"),
    ("vlmsim.engine", "build_cost_book"),
    ("vlmsim.engine", "Trace.check_invariants"),
    ("vlmsim.engine", "Trace.write_jsonl"),
    ("vlmsim.metrics", "build_report"),
    ("vlmsim.metrics", "overlap_efficiency"),
    ("vlmsim.metrics", "mfu"),
    ("vlmsim.metrics", "emit_report"),
    ("vlmsim.metrics", "emit_gantt"),
    ("vlmsim.cli", "execute"),
    ("vlmsim.cli", "cmd_simulate"),
    ("vlmsim.cli", "cmd_sweep"),
)

# Called thousands of times per operation from inside the cost book, so
# they get a bare counter, not a span: a span each would distort the parent.
# (module, attribute, count metric, add len(result) instead of 1)
COUNTED = (
    ("vlmsim.comm", "collective_time", "comm.collective_calls", False),
    ("vlmsim.comm", "split_buckets", "comm.sync_buckets", True),
)

ROOT_SPAN = "op"


class Span(NamedTuple):
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('vlmsim.')}.{attr}"


def _run_counts(trace) -> dict[str, int]:
    rows = [row for stage in trace.stage_rows for row in stage]
    return {
        "engine.runs": 1,
        "engine.rows": len(rows),
        "engine.sync_rows": sum(1 for row in rows if row[3] == "sync_bucket"),
    }


def _dir_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in Path(path).iterdir() if entry.is_file())


def _bind(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# span name -> fn(original, args, kwargs, result) -> {count metric: increment}.
# A hook runs after its span has ended, so its cost falls in the parent span
# and in the tracing overhead, not in the wrapped function's own time.
COUNT_HOOKS = {
    "workload.plan_step_microbatches": lambda fn, a, k, res: {
        "workload.microbatches": len(res.batches),
        "workload.samples": sum(len(batch) for batch in res.batches),
    },
    "engine.run": lambda fn, a, k, res: _run_counts(res),
    "engine.Trace.write_jsonl": lambda fn, a, k, res: {
        "engine.jsonl_bytes": os.path.getsize(_bind(fn, a, k)["path"]),
    },
    "metrics.emit_gantt": lambda fn, a, k, res: {
        "metrics.gantt_bytes": len(res.encode()),
    },
    "cli.cmd_simulate": lambda fn, a, k, res: {
        "cli.artifact_bytes": _dir_bytes(_bind(fn, a, k)["out_dir"]),
    },
}


class Tracer:
    """Collects spans and counts for the operations run between
    ``install`` and ``restore``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.seen: set[str] = set()
        self.unreadable: set[str] = set()
        self.ops: list[int] = []
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)
        spans, stack, counts, seen = self.spans, self._stack, self.counts, self.seen

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = Span(self._op, sid, parent, name, start, end)
            seen.add(name)
            if hook is not None:
                try:
                    increments = hook(fn, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    # the argument or result no longer has the shape the
                    # hook reads; its counts are reported as absent, not 0
                    self.unreadable.add(name)
                else:
                    bucket = counts[self._op]
                    for metric, value in increments.items():
                        bucket[metric] += value
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn, metric: str, by_len: bool):
        counts, seen = self.counts, self.seen

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen.add(name)
            counts[self._op][metric] += len(result) if by_len else 1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at every vlmsim name bound to it."""
        import vlmsim.cli  # noqa: F401  (loads every module that gets wrapped)

        modules = [
            mod for mod_name, mod in sorted(sys.modules.items())
            if mod_name == "vlmsim" or mod_name.startswith("vlmsim.")
        ]
        targets = [
            (mod_name, attr, functools.partial(self._span_wrapper, span_name(mod_name, attr)))
            for mod_name, attr in SPANNED
        ] + [
            (mod_name, attr, functools.partial(
                self._count_wrapper, span_name(mod_name, attr), metric=metric, by_len=by_len
            ))
            for mod_name, attr, metric, by_len in COUNTED
        ]
        for mod_name, attr, make_wrapper in targets:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, _mark(make_wrapper(original)))
                continue
            original = getattr(owner, attr)
            wrapper = _mark(make_wrapper(original))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    # -- operations ------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self.ops.append(op)
        self._stack.append(len(self.spans))
        self.spans.append(Span(op, len(self.spans), None, ROOT_SPAN, time.perf_counter(), 0.0))

    def end_op(self) -> None:
        sid = self._stack.pop()
        self.spans[sid] = self.spans[sid]._replace(end=time.perf_counter())
        self._op = -1

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def _mark(wrapper):
    wrapper.__bench_wrapper__ = True
    return wrapper


def wrapped_names() -> list[str]:
    """vlmsim names still bound to a tracer wrapper (empty after restore)."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name != "vlmsim" and not mod_name.startswith("vlmsim."):
            continue
        for key, value in vars(mod).items():
            if getattr(value, "__bench_wrapper__", False):
                found.append(f"{mod_name}.{key}")
            if isinstance(value, type):
                found.extend(
                    f"{mod_name}.{key}.{attr}"
                    for attr, member in vars(value).items()
                    if getattr(member, "__bench_wrapper__", False)
                )
    return found


# -- span arithmetic ------------------------------------------------------

def covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of the part of `interval` that the union of `parts` covers."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(parts):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered((span.start, span.end), children.get(span.id, []))
        for span in spans
    }


# metric name -> (unit, kind, source span names); a metric whose sources
# never ran on a workload is reported as absent.
LAYER_METRICS = {
    "config.load_s": ("s", "incl", ("config.load_config",)),
    "config.digest_s": ("s", "incl", ("config.config_digest", "config.resolved_config_dict")),
    "workload.plan_s": ("s", "incl", ("workload.plan_step_microbatches",)),
    "workload.microbatches": ("count", "count", ("workload.plan_step_microbatches",)),
    "workload.samples": ("count", "count", ("workload.plan_step_microbatches",)),
    "cluster.validate_s": ("s", "incl", ("cluster.validate_plan",)),
    "cluster.partition_s": ("s", "incl", ("cluster.partition_layers",)),
    "cluster.memory_s": ("s", "incl", ("cluster.memory_per_chip",)),
    "schedule.build_s": ("s", "incl", ("schedule.build_1f1b",)),
    "schedule.bubble_s": ("s", "incl", ("schedule.measured_bubble",)),
    "comm.collective_calls": ("count", "count", ("comm.collective_time",)),
    "comm.sync_buckets": ("count", "count", ("comm.split_buckets",)),
    "engine.run_s": ("s", "incl", ("engine.run",)),
    "engine.cost_book_s": ("s", "incl", ("engine.build_cost_book",)),
    "engine.loop_s": ("s", "self", ("engine.run",)),
    "engine.invariants_s": ("s", "incl", ("engine.Trace.check_invariants",)),
    "engine.runs": ("count", "count", ("engine.run",)),
    "engine.rows": ("count", "count", ("engine.run",)),
    "engine.sync_rows": ("count", "count", ("engine.run",)),
    "engine.jsonl_s": ("s", "incl", ("engine.Trace.write_jsonl",)),
    "engine.jsonl_bytes": ("bytes", "count", ("engine.Trace.write_jsonl",)),
    "metrics.report_s": ("s", "incl", ("metrics.build_report",)),
    "metrics.overlap_s": ("s", "incl", ("metrics.overlap_efficiency",)),
    "metrics.mfu_s": ("s", "incl", ("metrics.mfu",)),
    "metrics.emit_report_s": ("s", "incl", ("metrics.emit_report",)),
    "metrics.gantt_s": ("s", "incl", ("metrics.emit_gantt",)),
    "metrics.gantt_bytes": ("bytes", "count", ("metrics.emit_gantt",)),
    "cli.execute_s": ("s", "incl", ("cli.execute",)),
    "cli.reference_s": ("s", "reference", ("cli.execute",)),
    "cli.reference_runs": ("count", "reference", ("cli.execute",)),
    "cli.artifacts_s": ("s", "self", ("cli.cmd_simulate",)),
    "cli.artifact_bytes": ("bytes", "count", ("cli.cmd_simulate",)),
    "cli.sweep_self_s": ("s", "self", ("cli.cmd_sweep",)),
}


def _top_level(spans: list[Span], names: tuple[str, ...], by_id: dict[int, Span]) -> list[Span]:
    """Spans named in `names` with no ancestor also named in `names`, so a
    nested pair (config_digest -> resolved_config_dict) is not counted twice."""
    chosen = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and by_id[parent].name not in names:
            parent = by_id[parent].parent
        if parent is None:
            chosen.append(span)
    return chosen


def op_metrics(spans: list[Span], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values of one operation."""
    by_id = {span.id: span for span in spans}
    selfs = self_times(spans)
    ref_time, ref_runs = 0.0, 0
    for span in spans:
        if span.name == "cli.execute":
            runs = sorted(
                (s for s in spans if s.parent == span.id and s.name == "engine.run"),
                key=lambda s: s.start,
            )
            ref_time += sum(s.end - s.start for s in runs[1:])
            ref_runs += len(runs[1:])
    values = {}
    for metric, (_, kind, names) in LAYER_METRICS.items():
        if kind == "incl":
            values[metric] = sum(s.end - s.start for s in _top_level(spans, names, by_id))
        elif kind == "self":
            values[metric] = sum(selfs[s.id] for s in spans if s.name in names)
        elif kind == "count":
            values[metric] = counts.get(metric, 0.0)
        else:
            values[metric] = ref_time if metric.endswith("_s") else ref_runs
    return values


def layer_report(tracer: Tracer) -> tuple[dict[str, list[float]], list[str]]:
    """Per-operation values of every layer metric, and the absent metrics."""
    per_op: dict[int, list[Span]] = defaultdict(list)
    for span in tracer.spans:
        per_op[span.op].append(span)
    samples: dict[str, list[float]] = {metric: [] for metric in LAYER_METRICS}
    for op in tracer.ops:
        for metric, value in op_metrics(per_op[op], tracer.counts[op]).items():
            samples[metric].append(value)
    absent = [
        metric for metric, (_, kind, names) in LAYER_METRICS.items()
        if not tracer.seen.intersection(names)
        or (kind == "count" and tracer.unreadable.intersection(names))
    ]
    return samples, absent
