import copy
import json
from pathlib import Path

import pytest

from vlmsim import config as schema
from vlmsim.config import (
    ConfigError,
    canonical_config_bytes,
    config_digest,
    load_config,
    resolved_config_dict,
)
from tests.conftest import PRESET_DIR, PRESETS


def base_doc(**overrides):
    doc = {
        "schema": 2,
        "model": "8B",
        "stage": "general-knowledge-injection",
        "topology": {
            "nodes": 1,
            "chips_per_node": 8,
            "intra_node_bw": 3.0e11,
            "inter_node_bw": 2.5e10,
            "intra_latency": 5e-6,
            "inter_latency": 1e-5,
            "chip": {"peak_flops": 2.56e14, "memory": 1.92e11},
        },
        "plan": {"dp": 1, "tp": 8, "pp": 1, "microbatches_per_step": 4},
        "workload": {
            "sequence_length": {"kind": "fixed", "value": 4096},
            "microbatch_token_budget": 4096,
        },
        "seed": 7,
    }
    doc.update(overrides)
    return doc


class TestLoading:
    def test_catalog_model_by_name(self, catalog):
        config = load_config(base_doc())
        assert config.model == catalog["8B"]
        assert config.stage.name == "general-knowledge-injection"
        assert config.seed == 7
        assert config.plan.tp == 8
        assert config.scaling_reference_chips is None

    def test_defaults_fill_in(self):
        config = load_config(base_doc())
        assert config.costmodel.grad_sync.precision_bytes == 2
        assert config.costmodel.grad_sync.frequency == "per_step"
        assert config.costmodel.grad_sync.overlap
        assert config.plan.recompute == "none"
        assert config.plan.fusion_chunks == 1
        assert not config.plan.sequence_parallel
        assert config.workload.padded
        assert config.topology.chip.has_independent_comm_unit

    def test_seed_defaults_to_zero(self):
        doc = base_doc()
        del doc["seed"]
        assert load_config(doc).seed == 0

    def test_inline_model_with_derived_defaults(self):
        doc = base_doc(
            model={
                "name": "tiny",
                "lm": {
                    "hidden_size": 1024,
                    "layers": 4,
                    "kv_heads": 2,
                    "head_size": 128,
                    "intermediate_size": 2816,
                    "vocab_size": 32000,
                    "embedding_tying": True,
                },
            }
        )
        config = load_config(doc)
        model = config.model
        assert model.name == "tiny"
        assert model.vision.hidden_size == 1024 and model.vision.layers == 24
        # adapter defaults: pixel-unshuffled vision width in, lm width out
        assert model.adapter.in_channels == 4 * 1024
        assert model.adapter.out_channels == 1024
        from vlmsim.arch import total_param_count

        assert model.nominal_params == total_param_count(model)

    def test_unknown_catalog_model(self):
        with pytest.raises(ConfigError, match="unknown model '13B'"):
            load_config(base_doc(model="13B"))

    def test_unknown_stage(self):
        with pytest.raises(ConfigError, match=r"at \$\.stage"):
            load_config(base_doc(stage="pretraining"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(bad)


class TestStrictKeys:
    def test_top_level_typo(self):
        doc = base_doc()
        doc["modle"] = doc.pop("model")
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert str(err.value) == "unknown key at $.modle"

    def test_nested_typo(self):
        doc = base_doc()
        doc["plan"]["fusion_chunk"] = 8
        with pytest.raises(ConfigError, match=r"unknown key at \$\.plan\.fusion_chunk"):
            load_config(doc)

    def test_allowed_but_unconsumed_key(self):
        # sigma is a legal sequence_length key, but not on a fixed model
        doc = base_doc()
        doc["workload"]["sequence_length"]["sigma"] = 0.5
        with pytest.raises(
            ConfigError,
            match=r"unknown key at \$\.workload\.sequence_length\.sigma",
        ):
            load_config(doc)

    def test_wrong_types_are_located(self):
        with pytest.raises(ConfigError, match=r"expected an integer at \$\.seed"):
            load_config(base_doc(seed=True))
        doc = base_doc()
        doc["topology"]["nodes"] = "many"
        with pytest.raises(
            ConfigError, match=r"expected an integer at \$\.topology\.nodes"
        ):
            load_config(doc)
        doc = base_doc()
        doc["plan"]["sequence_parallel"] = "yes"
        with pytest.raises(
            ConfigError, match=r"expected a boolean at \$\.plan\.sequence_parallel"
        ):
            load_config(doc)

    def test_missing_required_key(self):
        doc = base_doc()
        del doc["plan"]["tp"]
        with pytest.raises(
            ConfigError, match=r"missing required key at \$\.plan\.tp"
        ):
            load_config(doc)

    def test_dataclass_error_carries_path(self):
        doc = base_doc()
        doc["plan"]["recompute"] = "sometimes"
        with pytest.raises(ConfigError, match=r"at \$\.plan:"):
            load_config(doc)


    @pytest.mark.parametrize("section,key,value", [
        ("lm", "kv_heads", 0),
        ("lm", "kv_heads", -4),
        ("lm", "head_size", 0),
        ("vision", "heads", 0),
        ("vision", "patch_size", 0),
        ("vision", "tokens_per_tile", 0),
    ])
    def test_head_and_patch_counts_must_be_positive(self, section, key,
                                                     value):
        # each one divides in the sheet arithmetic: zero used to escape as
        # ZeroDivisionError, and kv_heads -4 was accepted
        model = {"lm": {
            "hidden_size": 1024, "layers": 4, "kv_heads": 2, "head_size": 128,
            "intermediate_size": 2816, "vocab_size": 32000,
            "embedding_tying": True,
        }}
        model.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError) as err:
            load_config(base_doc(model=model))
        assert str(err.value) == f"at $.model.{section}: {key} must be >= 1"

    @pytest.mark.parametrize("lengths", [
        {"kind": "fixed", "value": 4096},
        {"kind": "lognormal-truncated", "mean": 7.0, "sigma": 0.5, "cap": 4096},
    ])
    def test_negative_seed_is_refused(self, lengths):
        doc = base_doc(seed=-1)
        doc["workload"]["sequence_length"] = lengths
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert str(err.value) == "at $.seed: must be >= 0, got -1"


class TestDpResolution:
    def test_auto_divides_chips(self):
        doc = base_doc()
        doc["plan"] = {"dp": "auto", "tp": 2, "pp": 2, "microbatches_per_step": 4}
        config = load_config(doc)
        assert config.plan.dp == 2

    def test_auto_indivisible(self):
        doc = base_doc()
        doc["plan"] = {"dp": "auto", "tp": 3, "pp": 1, "microbatches_per_step": 4}
        with pytest.raises(ConfigError, match=r'cannot resolve "auto"'):
            load_config(doc)

    def test_dp_type_check(self):
        doc = base_doc()
        doc["plan"]["dp"] = 1.5
        with pytest.raises(
            ConfigError, match=r'expected an integer or "auto" at \$\.plan\.dp'
        ):
            load_config(doc)

    def test_structural_fit_checked_at_load(self):
        doc = base_doc()
        doc["plan"]["dp"] = 2  # 2*8*1 = 16 != 8 chips
        with pytest.raises(ConfigError, match="plan does not fit topology") as err:
            load_config(doc)
        assert err.value.violations
        assert err.value.violations[0].constraint == "parallelism-product"


class TestCanonicalForm:
    def test_resolved_dict_round_trips(self):
        config = load_config(base_doc())
        resolved = resolved_config_dict(config)
        again = load_config(resolved)
        assert again == config
        assert resolved_config_dict(again) == resolved

    def test_presets_round_trip(self):
        for name in PRESETS:
            config = load_config(Path(PRESET_DIR) / name)
            resolved = resolved_config_dict(config)
            again = load_config(resolved)
            assert again == config, name
            assert config_digest(again) == config_digest(config), name

    def test_resolved_dict_is_fully_explicit(self):
        resolved = resolved_config_dict(load_config(base_doc()))
        assert resolved["plan"]["recompute"] == "none"
        assert resolved["plan"]["layer_balance"] == "uniform"
        assert resolved["costmodel"]["grad_sync"]["bucket_bytes"] == 64 * 2**20
        assert resolved["workload"]["visual_tokens_per_sample"] == 0
        assert resolved["model"]["lm"]["vocab_size"] == 182025
        assert "scaling" not in resolved

    def test_auto_dp_resolves_in_canonical_form(self):
        doc = base_doc()
        doc["plan"] = {"dp": "auto", "tp": 2, "pp": 2, "microbatches_per_step": 4}
        resolved = resolved_config_dict(load_config(doc))
        assert resolved["plan"]["dp"] == 2

    def test_scaling_block_preserved(self):
        doc = base_doc(scaling={"reference_chips": 8})
        config = load_config(doc)
        assert config.scaling_reference_chips == 8
        assert resolved_config_dict(config)["scaling"] == {"reference_chips": 8}


class TestDigest:
    def test_digest_is_sha256_of_canonical_bytes(self):
        import hashlib

        config = load_config(base_doc())
        digest = config_digest(config)
        assert len(digest) == 64
        assert digest == hashlib.sha256(canonical_config_bytes(config)).hexdigest()

    def test_digest_stable_across_loads_and_key_order(self):
        doc = base_doc()
        shuffled = dict(reversed(list(doc.items())))
        assert config_digest(load_config(doc)) == config_digest(
            load_config(shuffled)
        )

    def test_digest_changes_with_any_field(self):
        base = config_digest(load_config(base_doc()))
        assert config_digest(load_config(base_doc(seed=8))) != base
        doc = base_doc()
        doc["plan"]["microbatches_per_step"] = 5
        assert config_digest(load_config(doc)) != base

    def test_default_and_explicit_default_digest_equally(self):
        implicit = load_config(base_doc())
        doc = base_doc()
        doc["plan"]["recompute"] = "none"
        doc["costmodel"] = {"grad_sync": {"overlap": True}}
        explicit = load_config(doc)
        assert config_digest(implicit) == config_digest(explicit)


# ---------------------------------------------------------------------------
# table-driven checks: every leaf key of the schema tables

# sections whose key is parsed by a custom hook, and the tables behind them
_HOOK_TABLES = {
    "$.model": [schema._MODEL],
    "$.workload.sequence_length": list(schema._LENGTH_TABLES.values()),
    "$.scaling": [schema._SCALING],
}
_HOOK_LEAVES = {"$.schema": int, "$.stage": str}


def _leaf_keys(table, path="$"):
    for key in table.keys:
        if not isinstance(key, schema._Key):
            continue  # a hook such as dp resolution
        at = f"{path}.{key.name}"
        if isinstance(key.kind, schema._Table):
            yield from _leaf_keys(key.kind, at)
        elif at in _HOOK_TABLES:
            for sub in _HOOK_TABLES[at]:
                yield from _leaf_keys(sub, at)
        elif at in _HOOK_LEAVES:
            yield at, _HOOK_LEAVES[at]
        else:
            assert not isinstance(key.kind, schema._Custom), f"unmapped hook {at}"
            yield at, key.kind


LEAF_KEYS = sorted(dict(_leaf_keys(schema._ROOT)).items())

_WRONG = {
    int: ("1", 1.5, True, None),
    float: ("1", True, None, [1.0]),
    bool: (1, "true", None),
    str: (1, True, None),
    object: ("2", 1.5, True, None),
}
_EXPECTED = {
    int: "expected an integer",
    float: "expected a number",
    bool: "expected a boolean",
    str: "expected a string",
    object: 'expected an integer or "auto"',
}


def _fully_explicit_docs():
    """Resolved docs (every key present) for both sequence length kinds."""
    fixed = resolved_config_dict(load_config(base_doc(scaling={"reference_chips": 8})))
    lognormal = copy.deepcopy(fixed)
    lognormal["workload"]["sequence_length"] = {
        "kind": "lognormal-truncated", "mean": 7.0, "sigma": 0.5, "cap": 4096,
    }
    return fixed, lognormal


def _with_value(path, value):
    for doc in _fully_explicit_docs():
        node = doc
        *parents, leaf = path.split(".")[1:]
        for part in parents:
            node = node[part]
        if leaf in node:
            node[leaf] = value
            return doc
    raise AssertionError(f"{path} is in no fully explicit doc")


def test_leaf_key_enumeration_is_complete():
    paths = {path for path, _ in LEAF_KEYS}
    assert len(paths) == 54
    assert {"$.plan.dp", "$.model.vision.max_tiles", "$.scaling.reference_chips",
            "$.workload.sequence_length.sigma",
            "$.costmodel.grad_sync.bucket_bytes"} <= paths


@pytest.mark.parametrize("path,kind", LEAF_KEYS, ids=[p for p, _ in LEAF_KEYS])
def test_wrong_type_names_type_and_path(path, kind):
    for value in _WRONG[kind]:
        with pytest.raises(ConfigError) as err:
            load_config(_with_value(path, value))
        assert str(err.value) == f"{_EXPECTED[kind]} at {path}", value
    if kind is float:
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError) as err:
                load_config(_with_value(path, value))
            assert str(err.value) == f"expected a finite number at {path}"


def test_integer_numbers_keep_their_json_type():
    doc = base_doc()
    doc["topology"]["chip"] = {"peak_flops": 256000000000000, "memory": 192000000000}
    doc["costmodel"] = {"grad_sync": {"bucket_bytes": 67108864}}
    config = load_config(doc)
    canonical = canonical_config_bytes(config).decode()
    for rendered in ('"peak_flops":256000000000000', '"memory":192000000000',
                     '"bucket_bytes":67108864'):
        assert rendered in canonical
    resolved = json.loads(canonical)
    assert isinstance(resolved["topology"]["chip"]["memory"], int)
    # the digest of this document's schema-2 canonical form
    assert config_digest(config) == (
        "b2e16ad73b72c430cfc41d2aa47f68f21ca3610d3abed0b785b0efb85641c806"
    )


# ---------------------------------------------------------------------------
# schema-1 documents: read through one upgrade to schema 2


def schema_1_doc(overlap_grad_sync=True, **grad_sync):
    """base_doc as a schema-1 file, with the two keys schema 2 dropped:
    costmodel.algorithm "ring" and plan.overlap_grad_sync; grad_sync holds
    the keys given."""
    doc = base_doc(schema=1, costmodel={"grad_sync": grad_sync,
                                        "algorithm": "ring"})
    doc["plan"]["overlap_grad_sync"] = overlap_grad_sync
    return doc


class TestSchema1:
    @pytest.mark.parametrize("plan", [True, False])
    @pytest.mark.parametrize("grad_sync", [True, False, None])
    def test_overlap_switches_fold_as_their_and(self, plan, grad_sync):
        given = {} if grad_sync is None else {"overlap": grad_sync}
        config = load_config(schema_1_doc(plan, **given))
        assert config.costmodel.grad_sync.overlap == (plan and grad_sync is not False)
        expect = base_doc(costmodel={"grad_sync": {
            "overlap": plan and grad_sync is not False}})
        assert resolved_config_dict(config) == resolved_config_dict(load_config(expect))
        assert config_digest(config) == config_digest(load_config(expect))

    def test_no_schema_key_is_schema_1(self):
        doc = schema_1_doc(False)
        del doc["schema"]
        config = load_config(doc)
        assert not config.costmodel.grad_sync.overlap
        assert resolved_config_dict(config)["schema"] == 2

    def test_plan_switch_off_without_a_costmodel_section(self):
        doc = base_doc(schema=1)
        doc["plan"]["overlap_grad_sync"] = False
        assert not load_config(doc).costmodel.grad_sync.overlap
        assert "costmodel" not in doc

    def test_callers_dict_is_not_changed(self):
        doc = schema_1_doc(False, overlap=True, bucket_bytes=1e8)
        before = copy.deepcopy(doc)
        load_config(doc)
        assert doc == before

    @pytest.mark.parametrize("value,message", [
        (1.0, "expected an integer at $.schema"),
        (True, "expected an integer at $.schema"),
        ("1", "expected an integer at $.schema"),
        (0, "unsupported schema 0 at $.schema"),
        (3, "unsupported schema 3 at $.schema"),
    ])
    def test_schema_values_refused(self, value, message):
        # True == 1.0 == 1 in Python, but a bool or a float is not a schema
        for doc in (schema_1_doc(), base_doc()):
            doc["schema"] = value
            with pytest.raises(ConfigError) as err:
                load_config(doc)
            assert str(err.value) == message

    @pytest.mark.parametrize("section,key,value", [
        ("plan", "overlap_grad_sync", True),
        ("costmodel", "algorithm", "ring"),
    ])
    def test_schema_2_refuses_the_schema_1_keys(self, section, key, value):
        doc = base_doc(costmodel={})
        doc[section][key] = value
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert str(err.value) == f"unknown key at $.{section}.{key}"

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["costmodel"].update(algorithm="tree"),
         "unsupported algorithm 'tree' at $.costmodel.algorithm"),
        (lambda doc: doc["costmodel"].update(algorithm=1),
         "expected a string at $.costmodel.algorithm"),
        (lambda doc: doc["plan"].update(overlap_grad_sync=1),
         "expected a boolean at $.plan.overlap_grad_sync"),
        (lambda doc: doc["plan"].update(overlap_grad_sync="false"),
         "expected a boolean at $.plan.overlap_grad_sync"),
        # a wrong value the walk checks is not folded away by the AND
        (lambda doc: doc["costmodel"]["grad_sync"].update(overlap="yes"),
         "expected a boolean at $.costmodel.grad_sync.overlap"),
        (lambda doc: doc["costmodel"].update(grad_sync=[]),
         "expected an object at $.costmodel.grad_sync"),
        (lambda doc: doc.update(costmodel=5),
         "expected an object at $.costmodel"),
        (lambda doc: doc.update(plan="fast"), "expected an object at $.plan"),
        (lambda doc: doc.update(sorted_keys=1), "unknown key at $.sorted_keys"),
    ])
    def test_refused_with_the_schema_1_message(self, edit, message):
        doc = schema_1_doc(False)
        edit(doc)
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert str(err.value) == message
