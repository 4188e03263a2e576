"""Feature-pyramid assembly over a toy equivariant backbone.

Five wiring variants share one skeleton -- lateral 1x1 group convolutions,
top-down nearest-neighbour upsampling, and a 3x3 smoothing group convolution
after each merge -- and differ only in how the upper feature is treated
before fusing with the lower one:

=========  ==========================  =======================
variant    upper-feature attention     fusion
=========  ==========================  =======================
Baseline   none                        elementwise add
PlusSE     squeeze-excite (plain)      elementwise add
PlusReCA   equivariant channel att.    elementwise add
PlusIAFF   none                        two-stage plain fusion
ReAFFPN    none                        two-stage equiv. fusion
=========  ==========================  =======================

Every feature map is a Tensor [B, K*N, H, W]; N comes from the layer, each
group convolution and attention block reading it from its own weights.  The
build-time knobs, ``PyramidConfig``, and the variant names (``VARIANTS``,
``EQUIVARIANT_VARIANTS``) live in ``reafuse.config`` with the other config
checks.

The forward runs in three stages: ``toy_backbone`` (image to bottom-up
features), ``lateral_maps`` (one 1x1 group convolution per level) and
``build_pyramid`` (the top-down merges and smoothing, the only stage that
depends on the variant).  ``init_pyramid`` draws the backbone and lateral
weights from the seed and the layer name alone, so the variants built from
one seed share the first two stages: ``verify`` runs the backbone and the
laterals once per seed for the identity and once for the generator of C_N,
and hands each of the five heads its own copy of the laterals list.
``lateral_maps`` and ``build_pyramid`` consume the list they get, popping
each map into its conv or merge, so the maps themselves are only read and a
feature map or lateral that no caller holds is freed as soon as it is used.

Baseline, PlusReCA, and ReAFFPN are exactly rotation-equivariant end to end;
PlusSE and PlusIAFF break equivariance on generic weights.  That five-way
contrast is the main thing the verification harness measures.

The backbone is deliberately tiny (one lifting convolution, then two 3x3
group convolutions per level with a relu between them and stride-2
transitions): deep enough to exercise every op, small enough for
seconds-scale property tests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .config import PyramidConfig, ShapeError
from .groupequiv import GroupConvParams, group_conv, init_group_conv, lift_conv
from .reaff import init_plain_iaff, init_reaff, plain_iaff_forward, reaff_forward
from .reca import init_reca, init_se, reca_forward, se_forward
from .tensor import Rng, Tensor, add, relu, reshape, upsample_nearest2x

__all__ = [
    "PyramidParams",
    "init_pyramid",
    "init_attention",
    "toy_backbone",
    "lateral_maps",
    "build_pyramid",
    "run_pyramid",
    "named_parameters",
]


@dataclass(frozen=True)
class PyramidParams:
    """All weights of one configured pyramid.

    ``stem`` is the 3x3 lift: a ``GroupConvParams`` with one input
    orientation, weight [K, 3, 1, 3, 3].  ``stages[l]`` holds the two 3x3
    group convolutions of backbone level l (the first runs at stride 2 for
    l > 0).  ``lateral``/``smooth`` are the per-level 1x1 and 3x3 pyramid
    convolutions; ``smooth`` has one entry per *fused* level (the coarsest
    level is never smoothed).  ``attention`` likewise has one entry per fused
    level and its type depends on the variant: None for Baseline, SEParams,
    ReCAParams, PlainIAFFParams, or ReAFFParams.
    """

    config: PyramidConfig
    stem: GroupConvParams
    stages: tuple[tuple[GroupConvParams, GroupConvParams], ...]
    lateral: tuple[GroupConvParams, ...]
    smooth: tuple[GroupConvParams, ...]
    attention: tuple

    def __post_init__(self):
        L = self.config.levels
        if not (len(self.stages) == len(self.lateral) == L):
            raise ShapeError(f"expected {L} backbone stages and laterals")
        if not (len(self.smooth) == len(self.attention) == L - 1):
            raise ShapeError(f"expected {L - 1} smooth convolutions and attention entries")


def init_pyramid(config: PyramidConfig) -> PyramidParams:
    """Seeded parameter construction for 3-channel images.

    Every layer gets a derived rng stream.
    """
    rng = Rng(config.seed)
    k, n = config.kernel_channels, config.orientations
    stages = tuple(
        (
            init_group_conv(rng.derive(f"stage{l}.conv0"), k, k, n, 3),
            init_group_conv(rng.derive(f"stage{l}.conv1"), k, k, n, 3),
        )
        for l in range(config.levels)
    )
    lateral = tuple(
        init_group_conv(rng.derive(f"lateral{l}"), k, k, n, 1) for l in range(config.levels)
    )
    smooth = tuple(
        init_group_conv(rng.derive(f"smooth{l}"), k, k, n, 3) for l in range(config.levels - 1)
    )
    return PyramidParams(
        config=config,
        stem=init_group_conv(rng.derive("stem"), k, 3, 1, 3),
        stages=stages,
        lateral=lateral,
        smooth=smooth,
        attention=init_attention(config),
    )


def init_attention(config: PyramidConfig) -> tuple:
    """The attention entries of ``init_pyramid(config)``, one per fused level.

    Level l draws from the ``attention{l}`` stream of the config's seed, so a
    variant's attention can be drawn on its own and swapped into the
    parameters of another variant built from the same seed, whose other
    layers are the same.
    """
    rng = Rng(config.seed)
    c, n, r = config.channels, config.orientations, config.reduction
    attention: list = []
    for l in range(config.levels - 1):
        arng = rng.derive(f"attention{l}")
        if config.variant == "PlusSE":
            attention.append(init_se(arng, c, r))
        elif config.variant == "PlusReCA":
            attention.append(init_reca(arng, c, n, r))
        elif config.variant == "PlusIAFF":
            attention.append(init_plain_iaff(arng, c, r))
        elif config.variant == "ReAFFPN":
            attention.append(init_reaff(arng, c, n, r))
        else:
            attention.append(None)
    return tuple(attention)


def toy_backbone(x: Tensor, params: PyramidParams) -> list[Tensor]:
    """Bottom-up features, finest first; level l has spatial extent H / 2^l.

    Requires a square input whose side is divisible by 2^(levels-1), so every
    stride-2 transition sees even extents (the exact-equivariance condition
    for block-averaged downsampling).
    """
    cfg = params.config
    if x.ndim != 4:
        raise ShapeError(f"backbone input needs 4 axes, got {x.shape}")
    h, w = x.shape[2], x.shape[3]
    if h != w:
        raise ShapeError(f"backbone input must be square, got {h}x{w}")
    factor = 2 ** (cfg.levels - 1)
    if h % factor:
        raise ShapeError(
            f"spatial size not divisible: input side {h} must be a multiple of "
            f"2^(levels-1) = {factor}"
        )
    f = lift_conv(x, params.stem, cfg.orientations)
    feats = []
    for l, (conv0, conv1) in enumerate(params.stages):
        f = group_conv(f, conv0, stride=2 if l > 0 else 1)
        f = relu(f)
        f = group_conv(f, conv1, stride=1)
        feats.append(f)
    return feats


def lateral_maps(feats: list[Tensor], params: PyramidParams) -> list[Tensor]:
    """The 1x1 lateral projection of every backbone level, finest first.

    ``feats`` is consumed: each level is popped off the list into its
    conv, coarsest first, so the list is empty on return and a feature map
    nobody else holds is freed as soon as its lateral exists.  A caller that
    reuses its features passes a copy, ``list(feats)``.
    """
    if len(feats) != params.config.levels:
        raise ShapeError(f"got {len(feats)} feature maps for {params.config.levels} levels")
    laterals = [group_conv(feats.pop(), conv) for conv in reversed(params.lateral)]
    laterals.reverse()
    return laterals


def build_pyramid(laterals: list[Tensor], params: PyramidParams) -> list[Tensor]:
    """Top-down merge of lateral projections into pyramid levels, finest first.

    The coarsest level is its lateral, ``laterals[-1]`` itself; every other
    level fuses its lateral with the (attended, upsampled) level above and is
    then smoothed by a 3x3 group convolution.  ``laterals`` is consumed: each
    lateral is popped off the list into its merge, so the list is empty on
    return and a lateral nobody else holds is freed before its smoothing
    conv runs.  A caller that reuses its laterals, as ``verify`` does for the
    heads of several variants, passes a copy, ``list(laterals)``.
    """
    cfg = params.config
    if len(laterals) != cfg.levels:
        raise ShapeError(f"got {len(laterals)} lateral maps for {cfg.levels} levels")
    # each merge's lateral and intermediates are dropped before its
    # smoothing conv runs, so a forward-only pass holds the fused map and
    # the smoothing output of one level at a time
    pyramid: list[Tensor | None] = [None] * cfg.levels
    pyramid[-1] = laterals.pop()
    for l in range(cfg.levels - 2, -1, -1):
        fused = _merge(laterals.pop(), pyramid[l + 1], params.attention[l], cfg.variant)
        pyramid[l] = group_conv(fused, params.smooth[l])
        del fused
    return pyramid


def _merge(low: Tensor, upper: Tensor, att, variant: str) -> Tensor:
    """Fuse a lateral with the (attended, upsampled) level above it.

    The additive variants broadcast each upper pixel over its 2x2 block of
    ``low`` instead of materializing the upsampled map: the same additions,
    so the same bits.  The two fusion variants read the upsampled map three
    times and build it once.
    """
    if variant == "PlusSE":
        upper = se_forward(upper, att)
    elif variant == "PlusReCA":
        upper = reca_forward(upper, att)
    elif variant == "PlusIAFF":
        return plain_iaff_forward(low, upsample_nearest2x(upper), att)
    elif variant == "ReAFFPN":
        return reaff_forward(low, upsample_nearest2x(upper), att)
    b, c, h, w = upper.shape
    blocks = add(reshape(low, (b, c, h, 2, w, 2)), reshape(upper, (b, c, h, 1, w, 1)))
    return reshape(blocks, low.shape)


def run_pyramid(image: Tensor, params: PyramidParams) -> list[Tensor]:
    """Full forward pass: image -> backbone -> laterals -> pyramid levels.

    Each backbone feature is released once its lateral exists, before the
    next lateral conv runs (``lateral_maps`` owns the features list), and
    each lateral once its merge has run, before its smoothing conv
    (``build_pyramid`` owns the laterals list).
    So the level-0 smoothing conv holds two level-0 maps, the fused map and
    its own output, plus its band buffers.
    """
    return build_pyramid(lateral_maps(toy_backbone(image, params), params), params)


def named_parameters(obj) -> list[tuple[str, Tensor]]:
    """Flatten any nested parameter dataclass into (dotted-name, tensor) pairs.

    Walks dataclass fields and tuples/lists in declaration order, so the
    listing is deterministic: two builds from one config list the same names
    in the same order.  Names are relative to ``obj``: ``stem.weight``,
    ``stages[0][1].weight``.
    """
    out: list[tuple[str, Tensor]] = []

    def walk(name, value):
        if isinstance(value, Tensor):
            out.append((name, value))
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            for f in dataclasses.fields(value):
                walk(f"{name}.{f.name}" if name else f.name, getattr(value, f.name))
        elif isinstance(value, (tuple, list)):
            for i, item in enumerate(value):
                walk(f"{name}[{i}]", item)

    walk("", obj)
    return out
