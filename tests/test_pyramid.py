"""Pyramid assembly: shapes, wiring, variant equivariance matrix, determinism."""

import tracemalloc

import numpy as np
import pytest

from reafuse import tensor as ops
from reafuse.autograd import backward
from reafuse.groupequiv import ReFeatureMap, g_act, relative_residual
from reafuse.pyramid import (
    EQUIVARIANT_VARIANTS,
    MAX_LEVELS,
    VARIANTS,
    PyramidConfig,
    build_pyramid,
    init_pyramid,
    lateral_maps,
    _merge,
    named_parameters,
    run_pyramid,
    toy_backbone,
)
from reafuse.reca import reca_forward, se_forward
from reafuse.tensor import Rng, ShapeError, Tensor


def small_config(variant="Baseline", levels=2, n=4, seed=0):
    return PyramidConfig(levels=levels, kernel_channels=2, orientations=n,
                         reduction=1, variant=variant, seed=seed)


def test_backbone_and_pyramid_shapes():
    cfg = small_config(levels=2)
    params = init_pyramid(cfg)
    x = Tensor(Rng(1).uniform((2, 3, 8, 8)))
    feats = toy_backbone(x, params)
    assert [f.shape for f in feats] == [(2, 8, 8, 8), (2, 8, 4, 4)]
    laterals = lateral_maps(feats, params)
    assert [p.shape for p in laterals] == [(2, 8, 8, 8), (2, 8, 4, 4)]
    coarsest = laterals[-1]
    levels = build_pyramid(laterals, params)
    assert [p.shape for p in levels] == [(2, 8, 8, 8), (2, 8, 4, 4)]
    assert levels[-1] is coarsest  # the coarsest level is its lateral
    assert laterals == []  # build_pyramid consumes the list it is given
    # three levels halve twice
    cfg3 = small_config(levels=3)
    out = run_pyramid(Tensor(Rng(2).uniform((2, 3, 16, 16))), init_pyramid(cfg3))
    assert [p.shape[-1] for p in out] == [16, 8, 4]


def test_zero_input_gives_zero_levels():
    # all biases are zero-initialized, and zero logits gate by exactly 0.5
    for variant in ("Baseline", "ReAFFPN"):
        params = init_pyramid(small_config(variant))
        levels = run_pyramid(Tensor(np.zeros((2, 3, 8, 8))), params)
        for lv in levels:
            assert np.all(lv.data.data == 0.0)


def test_baseline_wiring_definition():
    # P_low = smooth(lateral(C_low) + upsample(lateral(C_high))), bit-exact
    from reafuse.groupequiv import group_conv

    params = init_pyramid(small_config("Baseline", seed=3))
    x = Tensor(Rng(3).uniform((2, 3, 8, 8)))
    c_low, c_high = toy_backbone(x, params)
    lat_low = group_conv(c_low, params.lateral[0])
    lat_high = group_conv(c_high, params.lateral[1])
    up = ops.upsample_nearest2x(lat_high.data)
    fused = ReFeatureMap(ops.add(lat_low.data, up), 2, 4)
    want = group_conv(fused, params.smooth[0]).data.data
    got = build_pyramid(lateral_maps([c_low, c_high], params), params)[0].data.data
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("variant", ["Baseline", "PlusSE", "PlusReCA"])
def test_additive_merge_is_add_of_the_upsampled_map(variant):
    # the broadcast add over 2x2 blocks makes the same additions as adding
    # the materialized upsampled map, in values and in recorded gradients
    params = init_pyramid(small_config(variant, seed=6))
    att = params.attention[0]
    rng = Rng(6)
    low = ReFeatureMap(Tensor(rng.derive("low").uniform((2, 8, 8, 8))), 2, 4)
    upper = ReFeatureMap(Tensor(rng.derive("up").uniform((2, 8, 4, 4))), 2, 4)
    leaves = [low.data, upper.data] + [t for _, t in named_parameters(att)]
    for leaf in leaves:
        leaf.requires_grad = True
    got = _merge(low, upper, att, variant)
    attended = upper.data
    if variant == "PlusSE":
        attended = se_forward(upper.data, att)
    elif variant == "PlusReCA":
        attended = reca_forward(upper, att).data
    want = ops.add(low.data, ops.upsample_nearest2x(attended))
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.data.data, want.data)
    weights = Tensor(rng.derive("w").uniform(want.shape))
    grads_got = backward(ops.tsum(ops.mul(got.data, weights)), leaves)
    grads_want = backward(ops.tsum(ops.mul(want, weights)), leaves)
    for leaf in leaves:
        np.testing.assert_array_equal(grads_got[id(leaf)], grads_want[id(leaf)])


def test_reaff_identity_propagates_through_fusion_level():
    # identity laterals/smooth + equal fusion inputs leave the level unchanged
    cfg = small_config("ReAFFPN", seed=4)
    params = init_pyramid(cfg)
    k, n = cfg.kernel_channels, cfg.orientations
    for conv, size in ((params.lateral[0], 1), (params.lateral[1], 1), (params.smooth[0], 3)):
        conv.weight.data[...] = 0.0
        mid = size // 2
        for kk in range(k):
            conv.weight.data[kk, kk, 0, mid, mid] = 1.0
        conv.bias.data[...] = 0.0
    c_high = ReFeatureMap(Tensor(Rng(5).uniform((2, k * n, 4, 4))), k, n)
    c_low = ReFeatureMap(ops.upsample_nearest2x(c_high.data), k, n)
    levels = build_pyramid(lateral_maps([c_low, c_high], params), params)
    assert np.abs(levels[0].data.data - c_low.data.data).max() <= 1e-12


def test_variant_equivariance_matrix_small():
    n = 4
    for variant in VARIANTS:
        worst = 0.0
        for seed in (0, 1):
            params = init_pyramid(small_config(variant, n=n, seed=seed))
            x = Tensor(Rng(1000 + seed).uniform((2, 3, 8, 8)))
            base = run_pyramid(x, params)
            for s in range(1, n):
                moved = run_pyramid(ops.rot90(x, s), params)
                for l in range(len(base)):
                    worst = max(worst, relative_residual(moved[l], g_act(base[l], s)))
        if variant in EQUIVARIANT_VARIANTS:
            assert worst <= 1e-10, (variant, worst)
        else:
            assert worst >= 1e-2, (variant, worst)


def test_trivial_group_makes_every_variant_equivariant():
    # N=1 has a single group element: equivariance is vacuous for all variants
    for variant in VARIANTS:
        params = init_pyramid(small_config(variant, n=1))
        levels = run_pyramid(Tensor(Rng(6).uniform((2, 3, 8, 8))), params)
        assert all(np.isfinite(lv.data.data).all() for lv in levels)


def test_variants_with_one_seed_share_every_non_attention_weight():
    # verify runs one backbone for all variants of a seed; that is sound only
    # because init_pyramid draws stem, stage, lateral and smooth weights from
    # the seed and the layer name alone
    a = init_pyramid(small_config("PlusSE", levels=3, seed=11))
    b = init_pyramid(small_config("ReAFFPN", levels=3, seed=11))
    for name in ("stem", "stages", "lateral", "smooth"):
        shared_a = named_parameters(getattr(a, name))
        shared_b = named_parameters(getattr(b, name))
        assert [n for n, _ in shared_a] == [n for n, _ in shared_b]
        for (n, ta), (_, tb) in zip(shared_a, shared_b):
            assert np.array_equal(ta.data, tb.data), (name, n)


@pytest.mark.parametrize("variant", VARIANTS)
def test_determinism_same_seed_bit_identical(variant):
    # a pyramid's weights are init_pyramid(config): nothing else stores them
    cfg = small_config(variant, seed=42)
    pa, pb = init_pyramid(cfg), init_pyramid(cfg)
    named_a, named_b = named_parameters(pa), named_parameters(pb)
    assert [n for n, _ in named_a] == [n for n, _ in named_b]
    for (n, ta), (_, tb) in zip(named_a, named_b):
        assert np.array_equal(ta.data, tb.data), n
    x = Tensor(Rng(7).uniform((2, 3, 8, 8)))
    a = run_pyramid(x, pa)
    b = run_pyramid(x, pb)
    for la, lb in zip(a, b):
        np.testing.assert_array_equal(la.data.data, lb.data.data)


def test_named_parameters_unique_and_trainable():
    params = init_pyramid(PyramidConfig(levels=3, kernel_channels=8, orientations=4,
                                        reduction=2, variant="ReAFFPN", seed=0))
    named = named_parameters(params)
    names = [n for n, _ in named]
    assert len(names) == len(set(names)) == 56
    assert names[:2] == ["stem.weight", "stem.bias"] and "stages[0][1].weight" in names
    # unmarked: gradcheck marks the ones it differentiates
    assert not any(t.requires_grad for _, t in named)
    assert any(".stage1." in n for n in names) and any("smooth" in n for n in names)


def test_backbone_input_validation():
    params = init_pyramid(small_config(levels=3))
    with pytest.raises(ShapeError, match="spatial size not divisible"):
        toy_backbone(Tensor(np.zeros((1, 3, 10, 10))), params)
    with pytest.raises(ShapeError):
        toy_backbone(Tensor(np.zeros((1, 3, 8, 4))), params)  # not square
    with pytest.raises(ShapeError):
        toy_backbone(Tensor(np.zeros((3, 8, 8))), params)  # missing batch axis
    with pytest.raises(ShapeError):
        lateral_maps([], params)
    with pytest.raises(ShapeError):
        build_pyramid([], params)


def test_config_validation():
    with pytest.raises(ShapeError):
        PyramidConfig(levels=1)
    assert PyramidConfig(levels=MAX_LEVELS).levels == MAX_LEVELS
    with pytest.raises(ShapeError, match=r"levels must be in \[2, 9\], got 10"):
        PyramidConfig(levels=MAX_LEVELS + 1)
    with pytest.raises(ShapeError, match="orientations must be 1, 2 or 4, got 3"):
        PyramidConfig(orientations=3)
    with pytest.raises(ShapeError):
        PyramidConfig(variant="FancyNet")
    with pytest.raises(ShapeError):
        PyramidConfig(seed=-1)
    with pytest.raises(ShapeError):
        PyramidConfig(kernel_channels=0)
    with pytest.raises(ShapeError, match="kernel_channels must be an integer"):
        PyramidConfig(kernel_channels=True)  # a bool is not a width


@pytest.mark.parametrize("variant", VARIANTS)
def test_marked_forward_is_bit_identical(variant):
    params = init_pyramid(small_config(variant, seed=4))
    image = Tensor(Rng(6).uniform((2, 3, 8, 8)))
    named = named_parameters(params)
    assert not any(t.requires_grad for _, t in named)
    bare = run_pyramid(image, params)
    assert all(fm.data.parents == () and not fm.data.requires_grad for fm in bare)
    for _, t in named:
        t.requires_grad = True
    recorded = run_pyramid(image, params)
    assert all(fm.data.parents and fm.data.requires_grad for fm in recorded)
    for a, b in zip(recorded, bare):
        np.testing.assert_array_equal(a.data.data, b.data.data)


def test_forward_releases_the_backbone_before_the_merges():
    # demo-large's pyramid: Baseline, 3 levels, 8 x 4 channels, [4, 3, 128, 128]
    params = init_pyramid(PyramidConfig(levels=3, kernel_channels=8, orientations=4,
                                        reduction=2, variant="Baseline", seed=0))
    image = Tensor(Rng(1).uniform((4, 3, 128, 128)))
    level0 = 4 * 32 * 128 * 128 * 8  # bytes of one level-0 map
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        levels = run_pyramid(image, params)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept - start >= 1.3 * level0  # the pyramid itself: 1 + 1/4 + 1/16
    # Above the returned pyramid, the forward holds at most the fused map
    # and the smoothing conv's band buffers (1.32 maps).  A forward that
    # keeps the level-0 lateral through the smoothing conv or builds the
    # upsampled map peaks at 2.42 maps, one that keeps the backbone features
    # through the merges at 3.31.
    assert peak - kept <= 1.4 * level0, (peak - kept) / level0
    assert len(levels) == 3
