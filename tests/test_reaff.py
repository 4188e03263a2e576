"""Two-stage attentional fusion: identity, convexity, equivariance, collapse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reafuse.groupequiv import ReFeatureMap, g_act, relative_residual
from reafuse.pyramid import named_parameters
from reafuse.reaff import (
    ReMParams,
    init_plain_iaff,
    init_reaff,
    init_rem,
    plain_iaff_forward,
    reaff_forward,
    rem_fuse,
)
from reafuse.reca import init_reca
from reafuse.tensor import Rng, ShapeError, Tensor


def tensors(params):
    return [t for _, t in named_parameters(params)]


def random_pair(rng, k, n, size, batch=2):
    c = k * n
    x = ReFeatureMap(Tensor(rng.derive("x").uniform((batch, c, size, size))), k, n)
    y = ReFeatureMap(Tensor(rng.derive("y").uniform((batch, c, size, size))), k, n)
    return x, y


def test_fuse_equal_inputs_is_identity():
    worst = 0.0
    for seed in range(20):
        rng = Rng(seed)
        n = (1, 2, 4)[seed % 3]
        k = (2, 4)[seed % 2]
        p = init_reaff(rng.derive("p"), k * n, n, 2 if seed % 5 else 1)
        x, _ = random_pair(rng, k, n, 4)
        out = reaff_forward(x, x, p)
        worst = max(worst, np.abs(out.data.data - x.data.data).max())
    assert worst <= 1e-12


def test_fuse_zero_params_is_midpoint():
    n, k = 2, 3
    rng = Rng(33)
    p = init_reaff(rng, k * n, n, 1)
    for t in tensors(p):
        t.data[...] = 0.0
    x, y = random_pair(rng, k, n, 4)
    out = reaff_forward(x, y, p)
    np.testing.assert_allclose(out.data.data, 0.5 * (x.data.data + y.data.data),
                               rtol=0, atol=1e-15)


def test_joint_equivariance():
    worst = 0.0
    for seed in range(10):
        rng = Rng(40 + seed)
        n = (2, 4)[seed % 2]
        k = 3
        p = init_reaff(rng.derive("p"), k * n, n, 1)
        x, y = random_pair(rng, k, n, 6)
        base = reaff_forward(x, y, p)
        for s in range(1, n):
            moved = reaff_forward(g_act(x, s), g_act(y, s), p)
            worst = max(worst, relative_residual(moved, g_act(base, s)))
    assert worst <= 1e-10


def test_attention_map_is_strictly_inside_unit_interval():
    rng = Rng(55)
    n, k = 4, 2
    p = init_rem(rng.derive("p"), k * n, n, 1)
    x, _ = random_pair(rng, k, n, 4)
    m = rem_fuse(x, p)
    assert np.all(m.data > 0.0) and np.all(m.data < 1.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 4]))
def test_fused_output_is_convex_combination(seed, n):
    # min(x,y) <= Z <= max(x,y) elementwise, since both stages gate in (0,1)
    rng = Rng(seed)
    k = 2
    p = init_reaff(rng.derive("p"), k * n, n, 1)
    x, y = random_pair(rng, k, n, 4)
    z = reaff_forward(x, y, p).data.data
    lo = np.minimum(x.data.data, y.data.data)
    hi = np.maximum(x.data.data, y.data.data)
    eps = 1e-12
    assert np.all(z >= lo - eps) and np.all(z <= hi + eps)


def test_spatially_constant_input_collapses_local_to_global():
    # constant maps make the pointwise branch equal the squeezed branch,
    # provided both branches share the same weight banks
    n, k = 2, 3
    rng = Rng(66)
    p = init_rem(rng.derive("p"), k * n, n, 1)
    for src, dst in zip(tensors(p.global_att), tensors(p.local_att)):
        dst.data[...] = src.data
    base = rng.derive("v").uniform((2, k * n, 1, 1))
    x = ReFeatureMap(Tensor(np.broadcast_to(base, (2, k * n, 5, 5)).copy()), k, n)
    from reafuse.reca import attention_logits
    local = attention_logits(x, p.local_att, squeeze=False).data.data
    glob = attention_logits(x, p.global_att, squeeze=True).data.data
    assert np.abs(local - glob).max() <= 1e-12  # broadcast comparison


def test_plain_iaff_identity_and_midpoint():
    rng = Rng(77)
    c = 8
    p = init_plain_iaff(rng.derive("p"), c, 2)
    x = Tensor(rng.derive("x").uniform((2, c, 4, 4)))
    y = Tensor(rng.derive("y").uniform((2, c, 4, 4)))
    np.testing.assert_allclose(plain_iaff_forward(x, x, p).data, x.data, atol=1e-12)
    for t in tensors(p):
        if t.ndim > 1:  # weights only; keep BN gamma at 1 so stats stay usable
            t.data[...] = 0.0
    out = plain_iaff_forward(x, y, p).data
    np.testing.assert_allclose(out, 0.5 * (x.data + y.data), atol=1e-15)


def test_plain_iaff_breaks_joint_equivariance():
    n, k = 4, 4
    c = k * n
    best = 0.0
    for seed in range(3):
        rng = Rng(88 + seed)
        p = init_plain_iaff(rng.derive("p"), c, 2)
        x, y = random_pair(rng, k, n, 8)
        base = plain_iaff_forward(x.data, y.data, p)
        for s in range(1, n):
            moved = plain_iaff_forward(g_act(x, s).data, g_act(y, s).data, p)
            want = g_act(ReFeatureMap(base, k, n), s).data.data
            best = max(best, relative_residual(moved, want))
    assert best >= 1e-2


def test_n1_collapse_to_plain_iaff():
    # map the single-bank equivariant params onto the plain route and compare
    rng = Rng(99)
    c, r = 8, 2
    p = init_reaff(rng.derive("p"), c, 1, r)
    plain = init_plain_iaff(rng.derive("q"), c, r)
    for rem, mscam in ((p.stage1, plain.stage1), (p.stage2, plain.stage2)):
        for att, mlp in ((rem.global_att, mscam.global_att),
                         (rem.local_att, mscam.local_att)):
            mlp.w1.data[...] = att.w_a.data[0]
            mlp.w2.data[...] = att.w_b.data[0]
            mlp.bn_gamma.data[...] = att.bn_gamma.data
            mlp.bn_beta.data[...] = att.bn_beta.data
    x = Tensor(rng.derive("x").uniform((2, c, 4, 4)))
    y = Tensor(rng.derive("y").uniform((2, c, 4, 4)))
    got = reaff_forward(ReFeatureMap(x, c, 1), ReFeatureMap(y, c, 1), p).data.data
    want = plain_iaff_forward(x, y, plain).data
    assert np.abs(got - want).max() <= 1e-12


def test_shape_mismatch_rejected():
    rng = Rng(111)
    p = init_reaff(rng, 8, 4, 1)
    x = ReFeatureMap(Tensor(np.zeros((2, 8, 4, 4))), 2, 4)
    y = ReFeatureMap(Tensor(np.zeros((2, 8, 6, 6))), 2, 4)
    with pytest.raises(ShapeError):
        reaff_forward(x, y, p)


@pytest.mark.parametrize("local_shape", [(2, 2, 4), (4, 1, 4), (4, 2, 2)],
                         ids=["orientations", "reduction", "kernel_channels"])
def test_rem_branches_must_share_bank_shape(local_shape):
    n, reduced, k = local_shape
    glob = init_reca(Rng(112), 16, 4, 2)  # banks [4, 2, 4]
    local = init_reca(Rng(113), k * n, n, k // reduced)
    with pytest.raises(ShapeError, match="global and local banks must share"):
        ReMParams(global_att=glob, local_att=local)
    ReMParams(global_att=glob, local_att=init_reca(Rng(113), 16, 4, 2))
