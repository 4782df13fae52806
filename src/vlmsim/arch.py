"""Model data sheets and the arithmetic over them.

Parameter counts, per-step FLOPs, and image-tiling token math for a
three-size multimodal family (3B / 8B / 70B): a ViT-style vision encoder,
a two-layer MLP adapter, and a GQA + gated-MLP decoder language model.
Image tiling reads the vision sheet's max_tiles and tokens_per_tile.

Counting conventions (kept deliberately minimal so the hand oracles in
tests/oracles/ match exactly):
  * norm and positional parameters are excluded (well under 0.1% of total)
  * the LM MLP is gated (3 matmuls), the vision MLP is not (2 matmuls)
  * tied embeddings are counted once
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COMPONENTS = ("vision", "adapter", "lm")

RECOMPUTE_POLICIES = ("none", "selective", "full")


@dataclass(frozen=True)
class VisionEncoderSpec:
    hidden_size: int
    layers: int
    heads: int
    intermediate_size: int
    patch_size: int
    tile_side: int = 448
    tokens_per_tile: int = 256
    max_tiles: int = 12

    def __post_init__(self) -> None:
        for name in ("heads", "patch_size", "tokens_per_tile", "max_tiles"):
            if getattr(self, name) < 1:  # divisors below, and the tile cap
                raise ValueError(f"{name} must be >= 1")
        if self.hidden_size % self.heads != 0:
            raise ValueError("hidden_size must divide evenly into heads")
        if self.tile_side % self.patch_size != 0:
            raise ValueError("tile_side must be divisible by patch_size")
        patches = (self.tile_side // self.patch_size) ** 2
        if patches % self.tokens_per_tile != 0:
            raise ValueError(
                f"tokens_per_tile {self.tokens_per_tile} must divide "
                f"patch count {patches}"
            )

    @property
    def patches_per_tile(self) -> int:
        return (self.tile_side // self.patch_size) ** 2


@dataclass(frozen=True)
class AdapterSpec:
    """The two-layer MLP adapter: in_channels -> out_channels -> out_channels."""

    in_channels: int
    out_channels: int

    def __post_init__(self) -> None:
        if self.in_channels <= 0 or self.out_channels <= 0:
            raise ValueError("adapter channel counts must be positive")


@dataclass(frozen=True)
class LanguageModelSpec:
    hidden_size: int
    layers: int
    kv_heads: int
    head_size: int
    intermediate_size: int
    vocab_size: int
    embedding_tying: bool
    context_limit: int = 32768

    def __post_init__(self) -> None:
        for name in ("kv_heads", "head_size"):
            if getattr(self, name) < 1:  # divisors below
                raise ValueError(f"{name} must be >= 1")
        if self.hidden_size % self.head_size != 0:
            raise ValueError("hidden_size must be divisible by head_size")
        q = self.query_heads
        if q < self.kv_heads:
            raise ValueError("query heads must be >= kv heads")
        if q % self.kv_heads != 0:
            raise ValueError("query heads must group evenly over kv heads")

    @property
    def query_heads(self) -> int:
        return self.hidden_size // self.head_size


@dataclass(frozen=True)
class ModelSpec:
    name: str
    vision: VisionEncoderSpec
    adapter: AdapterSpec
    lm: LanguageModelSpec
    nominal_params: int

    def __post_init__(self) -> None:
        if self.nominal_params <= 0:
            raise ValueError("nominal_params must be positive")


_VISION = VisionEncoderSpec(
    hidden_size=1024,
    layers=24,
    heads=16,
    intermediate_size=4096,
    patch_size=14,
)


def builtin_model_catalog() -> dict[str, ModelSpec]:
    """The three built-in model data sheets, keyed by size name."""
    return {
        "3B": ModelSpec(
            name="3B",
            vision=_VISION,
            adapter=AdapterSpec(in_channels=4096, out_channels=2048),
            lm=LanguageModelSpec(
                hidden_size=2048,
                layers=36,
                kv_heads=2,
                head_size=128,
                intermediate_size=11008,
                vocab_size=151673,
                embedding_tying=True,
            ),
            nominal_params=3_000_000_000,
        ),
        "8B": ModelSpec(
            name="8B",
            vision=_VISION,
            adapter=AdapterSpec(in_channels=4096, out_channels=4096),
            lm=LanguageModelSpec(
                hidden_size=4096,
                layers=32,
                kv_heads=8,
                head_size=128,
                intermediate_size=14336,
                vocab_size=182025,
                embedding_tying=False,
            ),
            nominal_params=8_000_000_000,
        ),
        "70B": ModelSpec(
            name="70B",
            vision=_VISION,
            adapter=AdapterSpec(in_channels=4096, out_channels=8192),
            lm=LanguageModelSpec(
                hidden_size=8192,
                layers=80,
                kv_heads=8,
                head_size=128,
                intermediate_size=28672,
                vocab_size=182025,
                embedding_tying=False,
            ),
            nominal_params=70_000_000_000,
        ),
    }


# ---------------------------------------------------------------------------
# parameter counts


def lm_layer_param_count(spec: LanguageModelSpec) -> int:
    """Params in one decoder layer: Q/O projections + GQA K/V + gated MLP."""
    h = spec.hidden_size
    qo = 2 * h * h
    kv = 2 * h * spec.kv_heads * spec.head_size
    mlp = 3 * h * spec.intermediate_size
    return qo + kv + mlp


def lm_param_count(spec: LanguageModelSpec) -> int:
    embeddings = spec.hidden_size * spec.vocab_size
    if not spec.embedding_tying:
        embeddings *= 2
    return embeddings + spec.layers * lm_layer_param_count(spec)


def vision_param_count(spec: VisionEncoderSpec) -> int:
    h = spec.hidden_size
    patch_embed = 3 * spec.patch_size**2 * h
    per_layer = 4 * h * h + 2 * h * spec.intermediate_size
    return patch_embed + spec.layers * per_layer


def adapter_param_count(spec: AdapterSpec) -> int:
    # layer 1: in -> out, layer 2: out -> out, both with biases
    return (
        spec.in_channels * spec.out_channels
        + spec.out_channels * spec.out_channels
        + 2 * spec.out_channels
    )


def component_param_counts(model: ModelSpec) -> dict[str, int]:
    return {
        "vision": vision_param_count(model.vision),
        "adapter": adapter_param_count(model.adapter),
        "lm": lm_param_count(model.lm),
    }


def total_param_count(model: ModelSpec) -> int:
    return sum(component_param_counts(model).values())


# ---------------------------------------------------------------------------
# image tiling


def tile_grid(width: int, height: int, vision: VisionEncoderSpec) -> tuple[int, int]:
    """Pick the (rows, cols) tile grid whose aspect ratio best matches the image.

    Searches every grid with rows*cols <= vision.max_tiles and minimizes
    |log(cols/rows) - log(width/height)|. Ties go to the smaller tile count,
    then to more columns, which keeps a square image on a single tile.
    """
    import math

    if width < 1 or height < 1:
        raise ValueError("image dimensions must be >= 1")
    target = math.log(width / height)
    best: tuple[float, int, int, int, int] | None = None
    for rows in range(1, vision.max_tiles + 1):
        for cols in range(1, vision.max_tiles // rows + 1):
            diff = abs(math.log(cols / rows) - target)
            key = (diff, rows * cols, -cols, rows, cols)
            if best is None or key < best:
                best = key
    assert best is not None
    return best[3], best[4]


def visual_token_count(width: int, height: int, vision: VisionEncoderSpec) -> int:
    """Visual tokens of an image: its tiles, plus a thumbnail if more than one."""
    rows, cols = tile_grid(width, height, vision)
    tiles = rows * cols
    if tiles > 1:
        tiles += 1
    return tiles * vision.tokens_per_tile


# ---------------------------------------------------------------------------
# FLOPs
#
# All counts are dense-matmul FLOPs (2 per multiply-accumulate). The
# attention score/context matmuls contribute 4*seq*hidden per token; every
# projection contributes 2*(its MAC count) per token.


def lm_layer_fwd_flops_per_token(spec: LanguageModelSpec, seq_len: int) -> float:
    return 2.0 * lm_layer_param_count(spec) + 4.0 * seq_len * spec.hidden_size


def lm_head_fwd_flops_per_token(spec: LanguageModelSpec) -> float:
    return 2.0 * spec.hidden_size * spec.vocab_size


def vision_fwd_flops_per_tile(spec: VisionEncoderSpec) -> float:
    h = spec.hidden_size
    tokens = spec.patches_per_tile
    patch_embed = 2.0 * 3 * spec.patch_size**2 * h
    per_layer = 2.0 * (4 * h * h + 2 * h * spec.intermediate_size) + 4.0 * tokens * h
    return tokens * (patch_embed + spec.layers * per_layer)


def adapter_fwd_flops_per_tile(vision: VisionEncoderSpec, adapter: AdapterSpec) -> float:
    per_token = 2.0 * (
        adapter.in_channels * adapter.out_channels
        + adapter.out_channels * adapter.out_channels
    )
    return vision.tokens_per_tile * per_token


def stage_flops(
    model: ModelSpec,
    layers: int | np.ndarray,
    first: bool | np.ndarray,
    last: bool | np.ndarray,
    microbatch: int | np.ndarray,
    seq_len: int | np.ndarray,
    visual_tokens: int = 0,
    recompute: str = "none",
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(forward, backward) FLOPs of one pipeline stage for one microbatch.

    `layers` decoder layers over `microbatch` samples padded to `seq_len`;
    a `last` stage adds the LM head, and a `first` stage the vision
    encoder and adapter for `visual_tokens` per sample (which already
    occupy part of `seq_len`). Each end's term is added times its flag, so
    a stage that holds neither adds +0.0 and keeps its float. Backward is
    2x forward plus the recompute extra: selective re-runs the attention
    score matmuls, full the decoder layers. Frozen components are charged
    a full backward too.

    `layers`, `first`, `last`, `microbatch` and `seq_len` may be numpy
    arrays (integer, or boolean flags) that broadcast together: the FLOPs
    are then float64 arrays, each element the float the scalar call gives,
    since every element takes the same IEEE operations in the same order.
    That is how every stage and all of a step's distinct microbatch shapes
    are priced in one call: stages down a column, shapes along a row.
    """
    lm = model.lm
    # the exact integer product, rounded to float once, as float() does
    tokens = 1.0 * (microbatch * seq_len)
    layer_flops = lm_layer_fwd_flops_per_token(lm, seq_len)
    fwd = tokens * layers * layer_flops
    fwd = fwd + tokens * lm_head_fwd_flops_per_token(lm) * last
    tiles = microbatch * (visual_tokens / model.vision.tokens_per_tile)
    fwd = fwd + tiles * (
        vision_fwd_flops_per_tile(model.vision)
        + adapter_fwd_flops_per_tile(model.vision, model.adapter)
    ) * first
    if recompute == "selective":
        extra = tokens * layers * 4.0 * seq_len * lm.hidden_size
    elif recompute == "full":
        extra = tokens * layers * layer_flops
    else:
        extra = 0.0
    return fwd, 2.0 * fwd + extra


def step_flops(
    model: ModelSpec,
    microbatch: int | np.ndarray,
    seq_len: int | np.ndarray,
    visual_tokens: int = 0,
    recompute: str = "none",
) -> float | np.ndarray:
    """Training FLOPs for one microbatch: forward + backward + recompute.

    The whole model taken as one pipeline stage (see stage_flops), so the
    per-stage FLOPs of any layer partition add up to this. Elementwise
    over numpy arrays of sizes and lengths, as stage_flops is; every
    element must pass the checks.
    """
    if recompute not in RECOMPUTE_POLICIES:
        raise ValueError(f"unknown recompute policy {recompute!r}")
    if (np.asarray(microbatch) < 0).any():
        raise ValueError("microbatch must be >= 0")
    if (np.asarray(seq_len) < 1).any():
        raise ValueError("seq_len must be >= 1")
    if (np.asarray(seq_len) > model.lm.context_limit).any():
        raise ValueError(
            f"seq_len {np.max(seq_len)} exceeds context limit "
            f"{model.lm.context_limit}"
        )
    fwd, bwd = stage_flops(
        model, model.lm.layers, True, True, microbatch, seq_len,
        visual_tokens, recompute,
    )
    return fwd + bwd
