import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlmsim.arch import (
    RECOMPUTE_POLICIES,
    LanguageModelSpec,
    adapter_fwd_flops_per_tile,
    adapter_param_count,
    component_param_counts,
    lm_head_fwd_flops_per_token,
    lm_layer_fwd_flops_per_token,
    lm_layer_param_count,
    lm_param_count,
    stage_flops,
    step_flops,
    tile_grid,
    total_param_count,
    vision_fwd_flops_per_tile,
    vision_param_count,
    visual_token_count,
)

from tests.conftest import ODD_LM, assert_identical

ORACLES = Path(__file__).parent / "oracles"


def load_param_oracle():
    with open(ORACLES / "param_counts.csv") as f:
        return {row["model"]: row for row in csv.DictReader(f)}


class TestParamCounts:
    def test_catalog_matches_hand_spreadsheet(self, catalog):
        oracle = load_param_oracle()
        for name, model in catalog.items():
            row = oracle[name]
            assert lm_layer_param_count(model.lm) == int(row["lm_layer_params"])
            embed = model.lm.hidden_size * model.lm.vocab_size
            assert embed == int(row["lm_embedding_params"])
            assert lm_param_count(model.lm) == int(row["lm_params"])
            assert vision_param_count(model.vision) == int(row["vision_params"])
            assert adapter_param_count(model.adapter) == int(
                row["adapter_params"]
            )
            assert total_param_count(model) == int(row["total_params"])
            counts = component_param_counts(model)
            assert sum(counts.values()) == int(row["total_params"])

    def test_embedding_tying_counts_once(self, catalog):
        m3, m8 = catalog["3B"], catalog["8B"]
        assert m3.lm.embedding_tying
        assert not m8.lm.embedding_tying
        # tied: one vocab matrix; untied: separate input and output matrices
        assert lm_param_count(m3.lm) == (
            m3.lm.layers * lm_layer_param_count(m3.lm)
            + m3.lm.hidden_size * m3.lm.vocab_size
        )
        assert lm_param_count(m8.lm) == (
            m8.lm.layers * lm_layer_param_count(m8.lm)
            + 2 * m8.lm.hidden_size * m8.lm.vocab_size
        )

    def test_degenerate_lm(self):
        lm = LanguageModelSpec(
            hidden_size=1,
            layers=0,
            kv_heads=1,
            head_size=1,
            intermediate_size=0,
            vocab_size=1,
            embedding_tying=True,
        )
        assert lm_param_count(lm) == 1

    def test_gqa_grouping_enforced(self):
        with pytest.raises(ValueError):
            LanguageModelSpec(
                hidden_size=4096,
                layers=2,
                kv_heads=3,
                head_size=128,
                intermediate_size=8192,
                vocab_size=100,
                embedding_tying=True,
            )


class TestFlops:
    def test_against_frozen_oracle(self, catalog):
        with open(ORACLES / "flops_8b_seq4096.json") as f:
            oracle = json.load(f)
        model = catalog[oracle["model"]]
        seq = oracle["seq_len"]
        per_tok = oracle["per_token"]
        assert lm_layer_fwd_flops_per_token(model.lm, seq) == per_tok["layer_fwd"]
        assert lm_head_fwd_flops_per_token(model.lm) == per_tok["head_fwd"]
        assert (
            per_tok["qkvo_gemms"]
            + per_tok["attention_scores_and_values"]
            + per_tok["mlp"]
            == per_tok["layer_fwd"]
        )
        assert (
            lm_layer_fwd_flops_per_token(model.lm, seq) * seq
            == oracle["layer_fwd"]
        )
        fwd = (
            oracle["layer_fwd"] * model.lm.layers
            + lm_head_fwd_flops_per_token(model.lm) * seq
        )
        assert fwd == oracle["fwd_total"]
        assert step_flops(model, 1, seq) == oracle["step_none"]
        assert (
            step_flops(model, 1, seq, recompute="selective")
            == oracle["step_selective"]
        )
        assert step_flops(model, 1, seq, recompute="full") == oracle["step_full"]

    def test_step_scales_linearly_in_microbatch(self, catalog):
        model = catalog["3B"]
        one = step_flops(model, 1, 2048)
        assert step_flops(model, 4, 2048) == 4 * one
        assert step_flops(model, 0, 2048) == 0.0

    def test_attention_term_quadratic_in_seq(self, catalog):
        lm = catalog["70B"].lm
        base = lm_layer_fwd_flops_per_token(lm, 1024)
        grown = lm_layer_fwd_flops_per_token(lm, 2048)
        assert grown - base == 4 * 1024 * lm.hidden_size

    def test_context_limit_enforced(self, catalog):
        with pytest.raises(ValueError):
            step_flops(catalog["8B"], 1, 32769)
        with pytest.raises(ValueError):
            step_flops(catalog["8B"], 1, 0)
        with pytest.raises(ValueError):
            step_flops(catalog["8B"], 1, 4096, recompute="sometimes")

    def test_visual_tokens_add_vision_and_adapter_work(self, catalog):
        model = catalog["8B"]
        v = model.vision
        a = model.adapter
        base = step_flops(model, 1, 4096)
        with_vis = step_flops(model, 1, 4096, visual_tokens=512)
        per_layer_tok = 2 * (
            4 * v.hidden_size**2 + 2 * v.hidden_size * v.intermediate_size
        )
        attn = 4 * v.patches_per_tile * v.hidden_size
        tile = v.patches_per_tile * (
            2 * 3 * v.patch_size**2 * v.hidden_size
            + v.layers * (per_layer_tok + attn)
        )
        assert vision_fwd_flops_per_tile(v) == tile
        adapter_tile = v.tokens_per_tile * 2 * (
            a.in_channels * a.out_channels + a.out_channels**2
        )
        assert adapter_fwd_flops_per_tile(v, a) == adapter_tile
        # 512 visual tokens = 2 tiles, forward + 2x backward on both encoders
        assert with_vis - base == 3 * 2 * (tile + adapter_tile)


# (microbatch, seq_len, visual tokens, recompute) shapes for the stage sums
STAGE_SHAPES = [
    (1, 4096, 0, "none"),
    (3, 2048, 1792, "selective"),
    (2, 8192, 256, "full"),
    (5, 777, 3328, "selective"),
]


class TestStageFlops:
    @pytest.mark.parametrize("balance", ["uniform", "cost-balanced"])
    @pytest.mark.parametrize("name", ["3B", "8B", "70B"])
    def test_stages_sum_to_step_flops(self, catalog, name, balance):
        from vlmsim.cluster import partition_layers

        model = catalog[name]
        for pp in range(1, 9):
            partition = partition_layers(model, pp, balance)
            for microbatch, seq, visual, recompute in STAGE_SHAPES:
                total = 0.0
                for i, layers in enumerate(partition):
                    fwd, bwd = stage_flops(
                        model, layers, i == 0, i == pp - 1, microbatch, seq,
                        visual, recompute,
                    )
                    total += fwd + bwd
                assert total == step_flops(
                    model, microbatch, seq, visual_tokens=visual,
                    recompute=recompute,
                ), (pp, microbatch, seq, visual, recompute)

    def test_ends_add_vision_and_head(self, catalog):
        model = catalog["8B"]
        lm = model.lm
        tokens = 2.0 * 4096
        layers_only = tokens * 10 * lm_layer_fwd_flops_per_token(lm, 4096)
        head = tokens * lm_head_fwd_flops_per_token(lm)
        vision = 2 * 3 * (
            vision_fwd_flops_per_tile(model.vision)
            + adapter_fwd_flops_per_tile(model.vision, model.adapter)
        )

        def fwd(first, last):
            return stage_flops(model, 10, first, last, 2, 4096, 768)[0]

        assert fwd(False, False) == layers_only
        assert fwd(False, True) == layers_only + head
        assert fwd(True, False) == layers_only + vision
        assert fwd(True, True) == layers_only + head + vision

    def test_backward_is_twice_forward_plus_recompute(self, catalog):
        model = catalog["3B"]
        lm = model.lm
        tokens = 3.0 * 2048
        none = stage_flops(model, 7, False, False, 3, 2048)
        selective = stage_flops(model, 7, False, False, 3, 2048,
                                recompute="selective")
        full = stage_flops(model, 7, False, False, 3, 2048, recompute="full")
        assert none[0] == selective[0] == full[0]
        assert none[1] == 2.0 * none[0]
        assert selective[1] - none[1] == tokens * 7 * 4.0 * 2048 * lm.hidden_size
        assert full[1] - none[1] == none[0]


class TestArrayShapes:
    """stage_flops and step_flops over arrays of shapes: one definition,
    each element the float its scalar call gives."""

    shapes = st.lists(
        st.tuples(st.integers(0, 64), st.sampled_from([1, 77, 4096, 30000])),
        min_size=1, max_size=40,
    )

    @given(
        shapes=shapes,
        layers=st.lists(st.integers(0, 81), min_size=1, max_size=4),
        first=st.booleans(),
        last=st.booleans(),
        visual=st.sampled_from([0, 77, 1792]),
        recompute=st.sampled_from(RECOMPUTE_POLICIES),
    )
    @settings(max_examples=300, deadline=None)
    def test_stage_flops_elementwise(self, catalog, shapes, layers, first,
                                     last, visual, recompute):
        # a column of layer counts against a row of shapes, with scalar
        # end flags shared by every stage
        model = dataclasses.replace(catalog["70B"], lm=ODD_LM)
        sizes, seqs = (np.array(column) for column in zip(*shapes))
        fwd, bwd = stage_flops(model, np.array(layers)[:, None], first, last,
                               sizes, seqs, visual, recompute)
        assert fwd.dtype == bwd.dtype == np.float64
        for r, count in enumerate(layers):
            scalar = [
                stage_flops(model, count, first, last, size, seq, visual,
                            recompute)
                for size, seq in shapes
            ]
            assert_identical((fwd[r].tolist(), bwd[r].tolist()),
                             tuple(map(list, zip(*scalar))))

    @pytest.mark.parametrize("recompute", RECOMPUTE_POLICIES)
    @pytest.mark.parametrize("visual", [0, 1792])
    @pytest.mark.parametrize("pp", [1, 2, 3, 5, 8])
    def test_stage_flops_with_end_flag_columns(self, catalog, pp, visual,
                                               recompute):
        # every stage in one call, as the cost book prices them: layer
        # counts and boolean first/last flags down a column
        model = dataclasses.replace(catalog["70B"], lm=ODD_LM)
        layers = [7, 1, 12, 3, 9, 4, 6, 2][:pp]
        sizes = np.array([1, 3, 0, 17, 64])
        seqs = np.array([4096, 77, 1, 30000, 2048])
        stage = np.arange(pp)[:, None]
        fwd, bwd = stage_flops(model, np.array(layers)[:, None], stage == 0,
                               stage == pp - 1, sizes, seqs, visual, recompute)
        assert fwd.shape == bwd.shape == (pp, len(sizes))
        for i, count in enumerate(layers):
            scalar = [
                stage_flops(model, count, i == 0, i == pp - 1, int(size),
                            int(seq), visual, recompute)
                for size, seq in zip(sizes, seqs)
            ]
            assert_identical((fwd[i].tolist(), bwd[i].tolist()),
                             tuple(map(list, zip(*scalar))))

    @given(shapes=shapes, visual=st.sampled_from([0, 77, 1792]),
           recompute=st.sampled_from(RECOMPUTE_POLICIES))
    @settings(max_examples=100, deadline=None)
    def test_step_flops_elementwise(self, catalog, shapes, visual, recompute):
        model = dataclasses.replace(catalog["70B"], lm=ODD_LM)
        sizes, seqs = (np.array(column) for column in zip(*shapes))
        assert_identical(
            step_flops(model, sizes, seqs, visual, recompute).tolist(),
            [step_flops(model, size, seq, visual, recompute)
             for size, seq in shapes],
        )

    @pytest.mark.parametrize("size, seq", [
        (-1, 4096), (1, 0), (1, 32769),
    ])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_step_flops_refuses_a_bad_element_anywhere(self, catalog, size,
                                                       seq, at):
        model = catalog["8B"]
        with pytest.raises(ValueError):
            step_flops(model, size, seq)
        sizes = np.full(5, 2)
        seqs = np.full(5, 4096)
        sizes[at], seqs[at] = size, seq
        with pytest.raises(ValueError):
            step_flops(model, sizes, seqs)


class TestTiling:
    @pytest.mark.parametrize(
        "w,h,expect",
        [
            (448, 448, (1, 1)),
            (896, 448, (1, 2)),
            (448, 896, (2, 1)),
            (4032, 448, (1, 9)),
            (448, 4032, (9, 1)),
        ],
    )
    def test_grid_examples(self, w, h, expect, catalog):
        assert tile_grid(w, h, catalog["8B"].vision) == expect

    def test_max_visual_tokens(self, catalog):
        vision = catalog["8B"].vision
        counts = [
            visual_token_count(w, h, vision)
            for w in range(112, 4481, 112)
            for h in range(112, 4481, 112)
        ]
        assert max(counts) == 3328  # 12 tiles + thumbnail, 256 tokens each

    def test_single_tile_has_no_thumbnail(self, catalog):
        vision = catalog["8B"].vision
        assert visual_token_count(448, 448, vision) == 256
        assert visual_token_count(896, 448, vision) == 3 * 256

    def test_grid_matches_exhaustive_enumeration(self, catalog):
        vision = catalog["8B"].vision
        dims = range(224, 4481, 112)
        for w in dims:
            for h in dims:
                got = tile_grid(w, h, vision)
                best = min(
                    (abs(math.log(c / r) - math.log(w / h)), r * c, -c, r, c)
                    for r in range(1, vision.max_tiles + 1)
                    for c in range(1, vision.max_tiles + 1)
                    if r * c <= vision.max_tiles
                )
                assert got == (best[3], best[4]), (w, h)

    @given(
        w=st.integers(min_value=1, max_value=8192),
        h=st.integers(min_value=1, max_value=8192),
    )
    @settings(max_examples=300, deadline=None)
    def test_grid_properties(self, w, h, catalog):
        vision = catalog["8B"].vision
        rows, cols = tile_grid(w, h, vision)
        assert 1 <= rows * cols <= vision.max_tiles
        assert tile_grid(h, w, vision) == (cols, rows)
        count = rows * cols
        expected = count * 256 + (256 if count > 1 else 0)
        assert visual_token_count(w, h, vision) == expected

    def test_scale_invariance(self, catalog):
        vision = catalog["8B"].vision
        base = tile_grid(1344, 448, vision)
        assert base == (1, 3)
        for k in (2, 3, 5):
            assert tile_grid(1344 * k, 448 * k, vision) == base

    def test_grid_reads_the_sheets_max_tiles(self, catalog):
        vision = dataclasses.replace(catalog["8B"].vision, max_tiles=6)
        dims = range(112, 4481, 112)
        grids = [tile_grid(w, h, vision) for w in dims for h in dims]
        assert max(rows * cols for rows, cols in grids) == 6
        counts = [visual_token_count(w, h, vision) for w in dims for h in dims]
        assert max(counts) == 7 * 256  # 6 tiles + thumbnail

    def test_zero_max_tiles_is_refused(self, catalog):
        with pytest.raises(ValueError, match="max_tiles must be >= 1"):
            dataclasses.replace(catalog["8B"].vision, max_tiles=0)
