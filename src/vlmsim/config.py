"""Config files: one declarative schema, strict parsing, canonical form, digests.

A config document is plain JSON. Each section of it is described once, by a
table of keys: the key's JSON type, its default (or that it is required) and
the dataclass field it fills. One walker uses the tables to reject unknown
keys with their JSON path (a typo like "modle" fails loudly as `unknown key
at $.modle` instead of silently using defaults), to check types, to fill
defaults and to build the objects of a SimConfig; resolved_config_dict
renders a SimConfig back through the same tables to a canonical dict with
every default filled in and "auto" values replaced, which is what gets
digested and written next to run artifacts. The tables describe schema 2;
a schema-1 document is rewritten to its schema-2 form before the walk.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

from .arch import (
    _VISION,
    AdapterSpec,
    LanguageModelSpec,
    ModelSpec,
    VisionEncoderSpec,
    builtin_model_catalog,
    total_param_count,
)
from .cluster import ChipSpec, ConfigError, ParallelismPlan, Topology, validate_plan
from .comm import GradSyncPolicy
from .engine import CostModelConfig
from .workload import SequenceLengthModel, StepWorkload, TrainingStage, stage_by_name


@dataclass(frozen=True)
class SimConfig:
    model: ModelSpec
    stage: TrainingStage
    topology: Topology
    plan: ParallelismPlan
    costmodel: CostModelConfig
    workload: StepWorkload
    seed: int
    scaling_reference_chips: int | None = None


# ---------------------------------------------------------------------------
# the schema language

_REQUIRED = MISSING
_FROM_CLASS = object()  # the dataclass field's own default, else required

# JSON types of leaf keys; float accepts any finite JSON number and keeps an
# int an int, since the digest hashes the JSON rendering of the value
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "a boolean",
               str: "a string"}


class _Key(NamedTuple):
    name: str
    kind: object  # a _TYPE_NAMES type, object (any value), a _Table or a _Custom
    default: object = _FROM_CLASS  # a value, {} for an optional section, or
    # a function (section values so far, enclosing section values) -> value
    attr: str | None = ""  # field filled: "" means `name`, None means none


class _Custom(NamedTuple):
    parse: Callable  # (raw, path, enclosing section values) -> value
    render: Callable  # value -> JSON


class _Table(NamedTuple):
    cls: type | None  # None: the walk returns the values dict
    keys: tuple  # _Key entries and hooks (values, path, enclosing), in parse order
    allowed: frozenset
    names: frozenset


def _table(cls, *entries, allowed=None) -> _Table:
    class_defaults = {f.name: f.default for f in fields(cls)} if cls else {}
    keys = []
    for entry in entries:
        if isinstance(entry, _Key):
            attr = entry.name if entry.attr == "" else entry.attr
            default = entry.default
            if default is _FROM_CLASS:
                default = class_defaults.get(attr, _REQUIRED)
            entry = entry._replace(attr=attr, default=default)
        keys.append(entry)
    names = frozenset(k.name for k in keys if isinstance(k, _Key))
    return _Table(cls, tuple(keys), frozenset(allowed or names), names)


def _parse(kind, raw, path: str, enclosing):
    if isinstance(kind, _Table):
        return _walk(kind, raw, path, enclosing)
    if isinstance(kind, _Custom):
        return kind.parse(raw, path, enclosing)
    accepted = (int, float) if kind is float else kind
    if not isinstance(raw, accepted) or (
        kind in (int, float) and isinstance(raw, bool)
    ):
        raise ConfigError(f"expected {_TYPE_NAMES[kind]} at {path}")
    if kind is float and isinstance(raw, float) and not math.isfinite(raw):
        raise ConfigError(f"expected a finite number at {path}")
    return raw


def _walk(table: _Table, data, path: str, enclosing=None):
    """Parse one section: unknown keys, then each key in table order, then
    the dataclass build. Keys the table allows but does not read (say,
    "sigma" on a fixed-length model) fail after the build."""
    if not isinstance(data, dict):
        raise ConfigError(f"expected an object at {path}")
    for key in sorted(set(data) - table.allowed):
        raise ConfigError(f"unknown key at {path}.{key}")
    values: dict = {}
    for key in table.keys:
        if not isinstance(key, _Key):
            key(values, path, enclosing)
            continue
        at = f"{path}.{key.name}"
        if key.name in data:
            value = _parse(key.kind, data[key.name], at, values)
        elif key.default is _REQUIRED:
            raise ConfigError(f"missing required key at {at}")
        elif isinstance(key.default, dict):  # optional section: absent is {}
            value = _parse(key.kind, {}, at, values)
        elif callable(key.default):
            value = key.default(values, enclosing)
        else:
            value = key.default
        if key.attr is not None:
            values[key.attr] = value
    if table.cls is None:
        return values
    try:
        built = table.cls(**values)
    except ValueError as exc:  # a dataclass validator; reattach the JSON path
        raise ConfigError(f"at {path}: {exc}") from exc
    for key in sorted(set(data) - table.names):
        raise ConfigError(f"unknown key at {path}.{key}")
    return built


def _render(table: _Table, obj) -> dict:
    doc = {}
    for key in table.keys:
        if not isinstance(key, _Key):
            continue
        value = None if key.attr is None else getattr(obj, key.attr)
        if isinstance(key.kind, _Table):
            value = _render(key.kind, value)
        elif isinstance(key.kind, _Custom):
            value = key.kind.render(value)
        doc[key.name] = value
    return doc


def _keys(kind, *names: str) -> tuple[_Key, ...]:
    return tuple(_Key(name, kind) for name in names)


# ---------------------------------------------------------------------------
# the schema


def _schema_version(raw, path, enclosing):
    schema = _parse(int, raw, path, enclosing)
    if schema != 2:
        raise ConfigError(f"unsupported schema {schema} at {path}")
    return schema


def _stage_named(raw, path, enclosing):
    try:
        return stage_by_name(_parse(str, raw, path, enclosing))
    except KeyError as exc:
        raise ConfigError(f"at {path}: {exc.args[0]}") from exc


_VISION_TABLE = _table(
    VisionEncoderSpec,
    *(_Key(f.name, int, getattr(_VISION, f.name))
      for f in fields(VisionEncoderSpec)),
)
_LM = _table(
    LanguageModelSpec,
    *_keys(int, "hidden_size", "layers", "kv_heads", "head_size",
           "intermediate_size", "vocab_size"),
    _Key("embedding_tying", bool),
    _Key("context_limit", int),
)
# pixel-unshuffle merges 2x2 vision tokens into one adapter input
_ADAPTER = _table(
    AdapterSpec,
    _Key("in_channels", int, lambda _, model: 4 * model["vision"].hidden_size),
    _Key("out_channels", int, lambda _, model: model["lm"].hidden_size),
)
_MODEL = _table(
    ModelSpec,
    _Key("name", str, "custom"),
    _Key("vision", _VISION_TABLE, {}),
    _Key("lm", _LM),
    _Key("adapter", _ADAPTER, {}),
    _Key("nominal_params", int,
         lambda model, _: total_param_count(ModelSpec(**model, nominal_params=1))),
)


def _catalog_or_sheet(raw, path, enclosing):
    if not isinstance(raw, str):
        return _walk(_MODEL, raw, path, enclosing)
    catalog = builtin_model_catalog()
    if raw not in catalog:
        raise ConfigError(
            f"unknown model {raw!r} at {path}; catalog has {sorted(catalog)}"
        )
    return catalog[raw]


_TOPOLOGY = _table(
    Topology,
    _Key("chip", _table(
        ChipSpec,
        *_keys(float, "peak_flops", "memory"),
        _Key("has_independent_comm_unit", bool),
    )),
    *_keys(int, "nodes", "chips_per_node"),
    *_keys(float, "intra_node_bw", "inter_node_bw", "intra_latency",
           "inter_latency"),
)


def _resolve_dp(plan, path, root):
    dp = plan["dp"]
    if dp == "auto":
        # checked before dividing by tp*pp; ParallelismPlan's own message
        if min(plan["tp"], plan["pp"]) < 1:
            raise ConfigError(f"at {path}: dp, tp, pp must all be >= 1")
        denom = plan["tp"] * plan["pp"]
        chips = root["topology"].total_chips
        if chips % denom != 0:
            raise ConfigError(
                f'at {path}.dp: cannot resolve "auto", '
                f"{chips} chips not divisible by tp*pp = {denom}"
            )
        plan["dp"] = chips // denom
    elif isinstance(dp, bool) or not isinstance(dp, int):
        raise ConfigError(f'expected an integer or "auto" at {path}.dp')


_PLAN = _table(
    ParallelismPlan,
    _Key("dp", object),
    *_keys(int, "tp", "pp"),
    _resolve_dp,
    _Key("microbatches_per_step", int),
    _Key("sequence_parallel", bool),
    _Key("recompute", str),
    _Key("fusion_chunks", int),
    _Key("distributed_optimizer", bool),
    _Key("layer_balance", str),
)
_COSTMODEL = _table(
    CostModelConfig,
    _Key("grad_sync", _table(
        GradSyncPolicy,
        _Key("precision_bytes", int),
        _Key("frequency", str),
        _Key("bucket_bytes", float),
        _Key("overlap", bool),
    ), {}),
)

# both length kinds share one key set; a key of the other kind is unknown
_LENGTH_KEYS = {"kind", "value", "mean", "sigma", "cap"}
_LENGTH_KIND = _table(None, _Key("kind", str), allowed=_LENGTH_KEYS)
_LENGTH_TABLES = {
    "fixed": _table(
        SequenceLengthModel,
        _Key("kind", str),
        _Key("value", int, _REQUIRED),
        _Key("cap", int),
        allowed=_LENGTH_KEYS,
    ),
    "lognormal-truncated": _table(
        SequenceLengthModel,
        _Key("kind", str),
        *(_Key(name, float, _REQUIRED) for name in ("mean", "sigma")),
        _Key("cap", int),
        allowed=_LENGTH_KEYS,
    ),
}


def _length_model(raw, path, enclosing):
    if raw is None:  # the stage's own length model
        return None
    kind = _walk(_LENGTH_KIND, raw, path)["kind"]
    if kind not in _LENGTH_TABLES:
        raise ConfigError(f"unknown sequence length kind {kind!r} at {path}")
    return _walk(_LENGTH_TABLES[kind], raw, path)


_WORKLOAD = _table(
    StepWorkload,
    _Key("sequence_length", _Custom(
        _length_model,
        lambda seq: None if seq is None else _render(_LENGTH_TABLES[seq.kind], seq),
    ), attr="seq_len_model"),
    _Key("microbatch_token_budget", int),
    _Key("visual_tokens_per_sample", int),
    _Key("padded", bool),
)
_SCALING = _table(None, _Key("reference_chips", int))


def _non_negative_seed(root, path, enclosing):
    if root["seed"] < 0:
        raise ConfigError(f"at {path}.seed: must be >= 0, got {root['seed']}")


def _reference_chips(raw, path, enclosing):
    reference = _walk(_SCALING, raw, path)["reference_chips"]
    if reference < 1:
        raise ConfigError(f"at {path}.reference_chips: must be >= 1")
    return reference


_ROOT = _table(
    SimConfig,
    _Key("schema", _Custom(_schema_version, lambda _: 2), attr=None),
    _Key("model", _Custom(_catalog_or_sheet, lambda model: _render(_MODEL, model))),
    _Key("stage", _Custom(_stage_named, lambda stage: stage.name)),
    _Key("topology", _TOPOLOGY),
    _Key("plan", _PLAN),
    _Key("costmodel", _COSTMODEL, {}),
    _Key("workload", _WORKLOAD),
    _Key("seed", int, 0),
    _non_negative_seed,
    _Key("scaling", _Custom(
        _reference_chips, lambda reference: {"reference_chips": reference}
    ), attr="scaling_reference_chips"),
)


def _from_schema_1(doc):
    """A schema-1 document (schema 1, or no "schema" key) in its schema-2
    form, without changing the caller's dict; any other document as it is.
    Schema 1 also has costmodel.algorithm, which must be "ring", and
    plan.overlap_grad_sync, which folds into costmodel.grad_sync.overlap as
    their AND; both keep their schema-1 messages. What the walk checks (a
    section that is not an object, say) is left to the walk."""
    schema = doc.get("schema", 1) if isinstance(doc, dict) else None
    if type(schema) is not int or schema != 1:  # a bool is not a schema
        return doc
    doc = {**doc, "schema": 2}
    plan, costmodel = doc.get("plan"), doc.get("costmodel", {})
    grad_sync = costmodel.get("grad_sync", {}) if isinstance(costmodel, dict) else None
    if isinstance(plan, dict) and "overlap_grad_sync" in plan:
        plan = doc["plan"] = dict(plan)
        at = "$.plan.overlap_grad_sync"
        if not _parse(bool, plan.pop("overlap_grad_sync"), at, None) and isinstance(
                grad_sync, dict) and grad_sync.get("overlap", True) is True:
            costmodel = doc["costmodel"] = {
                **costmodel, "grad_sync": {**grad_sync, "overlap": False}}
    if isinstance(costmodel, dict) and "algorithm" in costmodel:
        costmodel = doc["costmodel"] = dict(costmodel)
        at = "$.costmodel.algorithm"
        algorithm = _parse(str, costmodel.pop("algorithm"), at, None)
        if algorithm != "ring":
            raise ConfigError(f"unsupported algorithm {algorithm!r} at {at}")
    return doc


# ---------------------------------------------------------------------------
# public surface


def load_config(source) -> SimConfig:
    """Parse and validate a config from a file path or an in-memory dict."""
    if isinstance(source, (str, Path)):
        try:
            with open(source) as handle:
                doc = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        doc = source

    config = _walk(_ROOT, _from_schema_1(doc), "$")
    violations = validate_plan(config.topology, config.plan, config.model)
    if violations:
        lines = "; ".join(v.message for v in violations)
        raise ConfigError(f"plan does not fit topology: {lines}", violations)
    return config


def resolved_config_dict(config: SimConfig) -> dict:
    """Canonical dict form: every default explicit, "auto" values resolved.

    load_config(resolved_config_dict(c)) reproduces c, and the digest is
    computed over exactly this rendering.
    """
    doc = _render(_ROOT, config)
    if config.scaling_reference_chips is None:
        del doc["scaling"]
    return doc


def canonical_config_bytes(config: SimConfig) -> bytes:
    return json.dumps(
        resolved_config_dict(config), sort_keys=True, separators=(",", ":")
    ).encode()


def config_digest(config: SimConfig) -> str:
    """Hex SHA-256 of the canonical resolved config rendering."""
    return hashlib.sha256(canonical_config_bytes(config)).hexdigest()
