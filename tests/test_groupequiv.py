"""Group action, lifting/group convolutions, and their equivariance contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reafuse import groupequiv
from reafuse import tensor as ops
from reafuse.groupequiv import (
    GroupConvParams,
    LiftConvParams,
    ReFeatureMap,
    g_act,
    group_conv,
    init_group_conv,
    init_lift_conv,
    lift_conv,
    relative_residual,
)
from reafuse.naive import naive_group_conv, naive_lift_conv
from reafuse.tensor import Rng, ShapeError, Tensor


def fm(rng, k, n, size, batch=2):
    return ReFeatureMap(Tensor(rng.uniform((batch, k * n, size, size))), k, n)


def test_g_act_identity_element_is_bit_exact():
    x = fm(Rng(0), 2, 4, 6)
    np.testing.assert_array_equal(g_act(x, 0).data.data, x.data.data)


def test_g_act_pure_orientation_cycle_at_1x1():
    # K=1, N=4, 1x1 spatial: channels [a,b,c,d] shift to [d,a,b,c]
    x = ReFeatureMap(Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1)), 1, 4)
    got = g_act(x, 1).data.data.reshape(-1)
    np.testing.assert_array_equal(got, [4.0, 1.0, 2.0, 3.0])


def test_g_act_composition_law_exhaustive():
    for n in (1, 2, 4):
        x = fm(Rng(n), 3, n, 4)
        for a in range(n):
            for b in range(n):
                lhs = g_act(g_act(x, a), b).data.data
                rhs = g_act(x, (a + b) % n).data.data
                np.testing.assert_array_equal(lhs, rhs)


def test_g_act_validates_element_range():
    x = fm(Rng(1), 1, 4, 4)
    with pytest.raises(ValueError):
        g_act(x, 4)
    with pytest.raises(ValueError):
        g_act(x, -1)


def test_refeaturemap_layout_validation():
    with pytest.raises(ShapeError):
        ReFeatureMap(Tensor(np.zeros((2, 7, 4, 4))), 2, 4)  # 7 != 2*4
    with pytest.raises(ValueError):
        ReFeatureMap(Tensor(np.zeros((2, 6, 4, 4))), 2, 3)  # unsupported N


def test_g_act_kernel_channel_major_layout():
    # K=2, N=2, 1x1 spatial: channel k*N + n, so [a,b,c,d] = [k0n0, k0n1, k1n0, k1n1]
    # and s=1 swaps the orientations inside each kernel channel
    x = ReFeatureMap(Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1)), 2, 2)
    got = g_act(x, 1).data.data.reshape(-1)
    np.testing.assert_array_equal(got, [2.0, 1.0, 4.0, 3.0])


def test_lift_conv_equivariance_20_seeds():
    worst = 0.0
    for seed in range(20):
        rng = Rng(seed)
        n = (1, 2, 4)[seed % 3]
        params = init_lift_conv(rng.derive("w"), 2, 3)
        x = Tensor(rng.derive("x").uniform((2, 3, 8, 8)))
        base = lift_conv(x, params, n)
        for s in range(1, n):
            rot = lift_conv(ops.rot90(x, s * (4 // n)), params, n)
            worst = max(worst, relative_residual(rot, g_act(base, s)))
    assert worst <= 1e-10


def test_lift_conv_n1_equals_plain_conv_bit_exact():
    rng = Rng(5)
    params = init_lift_conv(rng.derive("w"), 4, 3)
    x = Tensor(rng.derive("x").uniform((2, 3, 6, 6)))
    lifted = lift_conv(x, params, 1)
    plain = ops.conv2d(x, params.weight, params.bias)
    np.testing.assert_array_equal(lifted.data.data, plain.data)


def test_lift_conv_symmetric_kernel_gives_identical_orientations():
    x = Tensor(Rng(6).uniform((1, 2, 6, 6)))
    params = LiftConvParams(Tensor(np.ones((1, 2, 3, 3))), Tensor(np.zeros((1,))))
    out = lift_conv(x, params, 4).data.data
    for m in range(1, 4):
        np.testing.assert_array_equal(out[:, m::4], out[:, 0::4])


def test_group_conv_equivariance_20_seeds_both_strides():
    worst = 0.0
    for seed in range(20):
        rng = Rng(100 + seed)
        n = (2, 4)[seed % 2]
        params = init_group_conv(rng.derive("w"), 2, 2, n)
        x = fm(rng.derive("x"), 2, n, 8)
        for stride in (1, 2):
            base = group_conv(x, params, stride=stride)
            for s in range(1, n):
                rot = group_conv(g_act(x, s), params, stride=stride)
                worst = max(worst, relative_residual(rot, g_act(base, s)))
    assert worst <= 1e-10


def test_group_conv_n1_equals_conv2d_bit_exact():
    rng = Rng(7)
    params = init_group_conv(rng.derive("w"), 3, 2, 1)
    x = fm(rng.derive("x"), 2, 1, 6)
    grouped = group_conv(x, params).data.data
    plain = ops.conv2d(x.data, Tensor(params.weight.data[:, :, 0]), params.bias).data
    np.testing.assert_array_equal(grouped, plain)


def test_group_conv_delta_kernel_identity_wiring():
    # 1x1 kernels, K_in=K_out=1, weight[n]=delta(n=0): orientation i passes through
    n = 4
    w = np.zeros((1, 1, n, 1, 1))
    w[0, 0, 0, 0, 0] = 1.0
    params = GroupConvParams(Tensor(w), Tensor(np.zeros((1,))))
    x = fm(Rng(8), 1, n, 5)
    out = group_conv(x, params)
    np.testing.assert_array_equal(out.data.data, x.data.data)


def test_group_conv_matches_five_loop_oracle():
    worst = 0.0
    for seed in range(8):
        rng = Rng(200 + seed)
        n = (1, 2, 4)[seed % 3]
        k_out, k_in = rng.integer(1, 3), rng.integer(1, 3)
        stride = 2 if seed % 2 else 1
        x = rng.uniform((2, k_in * n, 4, 4))
        w = rng.uniform((k_out, k_in, n, 3, 3))
        b = rng.uniform((k_out,))
        got = group_conv(ReFeatureMap(Tensor(x), k_in, n),
                         GroupConvParams(Tensor(w), Tensor(b)), stride=stride).data.data
        want = naive_group_conv(x, w, b, stride=stride)
        worst = max(worst, np.abs(got - want).max())
    assert worst <= 1e-12


def test_lift_conv_matches_loop_oracle():
    rng = Rng(300)
    x = rng.uniform((2, 3, 5, 5))
    w = rng.uniform((2, 3, 3, 3))
    b = rng.uniform((2,))
    got = lift_conv(Tensor(x), LiftConvParams(Tensor(w), Tensor(b)), 4).data.data
    assert np.abs(got - naive_lift_conv(x, w, b, 4)).max() <= 1e-12


def test_stride2_lattice_subsampling_is_not_equivariant():
    """Plain x[::2] subsampling breaks rot90 commutation on even grids.

    This is the counterexample behind using an exact 2x2 block mean for
    stride-2 group convolutions: the strided lattice {0,2,..} is not mapped
    to itself by a 90-degree rotation of an even-sized grid.
    """
    rng = Rng(9)
    x = rng.uniform((1, 1, 8, 8))
    sub = x[:, :, ::2, ::2]
    rot_then_sub = np.rot90(x, 1, axes=(-2, -1))[:, :, ::2, ::2]
    sub_then_rot = np.rot90(sub, 1, axes=(-2, -1))
    residual = np.linalg.norm(rot_then_sub - sub_then_rot) / np.linalg.norm(sub_then_rot)
    assert residual > 1e-2  # decisively broken, not a rounding artifact


def test_blockmean_subsampling_is_equivariant():
    n = 4
    x = fm(Rng(10), 2, n, 8)
    base = ops.blockmean2x(x.data)
    for s in range(1, n):
        rotated = ops.blockmean2x(g_act(x, s).data)
        want = g_act(ReFeatureMap(base, 2, n), s).data.data
        np.testing.assert_allclose(rotated.data, want, rtol=0, atol=1e-14)


def test_param_validation():
    with pytest.raises(ShapeError):
        LiftConvParams(Tensor(np.zeros((2, 3, 2, 2))), Tensor(np.zeros((2,))))  # even kernel
    with pytest.raises(ShapeError):
        LiftConvParams(Tensor(np.zeros((2, 3, 3, 5))), Tensor(np.zeros((2,))))  # non-square
    with pytest.raises(ShapeError):
        GroupConvParams(Tensor(np.zeros((2, 2, 4, 3, 3))), Tensor(np.zeros((3,))))  # bias len
    p = init_group_conv(Rng(11), 2, 2, 4)
    x = fm(Rng(12), 2, 2, 4)
    with pytest.raises(ShapeError):
        group_conv(x, p)  # orientation mismatch


def test_relative_residual_properties():
    a = np.ones((3, 3))
    assert relative_residual(a, a) == 0.0
    assert relative_residual(np.zeros((2,)), np.zeros((2,))) == 0.0
    # scale invariance of the symmetric normalization
    b = np.full((3, 3), 1.5)
    assert relative_residual(a, b) == pytest.approx(relative_residual(10 * a, 10 * b))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 3))
def test_g_act_preserves_value_multiset(seed, s):
    x = fm(Rng(seed), 2, 4, 4)
    moved = g_act(x, s)
    np.testing.assert_array_equal(np.sort(moved.data.data, axis=None),
                                  np.sort(x.data.data, axis=None))


def reference_lift_kernel(w, n):
    """The rotate-and-stack expansion: N rot90 copies stacked per filter."""
    k_out, c_in, k, _ = w.shape
    copies = [ops.rot90(w, i * (4 // n)).data for i in range(n)]
    return np.stack(copies, axis=1).reshape(k_out * n, c_in, k, k)


def reference_group_kernel(w, n):
    """The per-orientation expansion: take relative orientations, rotate, stack."""
    k_out, k_in, _, k, _ = w.shape
    banks = [ops.rot90(ops.take(w, [(m - i) % n for m in range(n)], axis=2), i * (4 // n)).data
             for i in range(n)]
    return np.stack(banks, axis=1).reshape(k_out * n, k_in * n, k, k)


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("k", [1, 3])
def test_gathered_kernels_equal_rotate_and_stack_expansion(n, k):
    rng = Rng(400 + 10 * n + k)
    lw = Tensor(rng.uniform((3, 2, k, k)))
    gw = Tensor(rng.uniform((3, 2, n, k, k)))
    lift = groupequiv._gather(lw, groupequiv._kernel_index(3, 2, 1, n, k)).data
    group = groupequiv._gather(gw, groupequiv._kernel_index(3, 2, n, n, k)).data
    assert np.array_equal(lift, reference_lift_kernel(lw, n))
    assert np.array_equal(group, reference_group_kernel(gw, n))

    # and the layers built on them equal one conv2d with the reference kernel
    x = rng.uniform((2, 2, 5, 5))
    b = rng.uniform((3,))
    bias = np.repeat(b, n)
    got = lift_conv(Tensor(x), LiftConvParams(lw, Tensor(b)), n).data.data
    want = ops.conv2d(Tensor(x), Tensor(reference_lift_kernel(lw, n)), Tensor(bias)).data
    assert np.array_equal(got, want)
    gx = rng.uniform((2, 2 * n, 6, 6))
    got = group_conv(ReFeatureMap(Tensor(gx), 2, n), GroupConvParams(gw, Tensor(b))).data.data
    want = ops.conv2d(Tensor(gx), Tensor(reference_group_kernel(gw, n)), Tensor(bias)).data
    assert np.array_equal(got, want)


def test_gather_index_cache_never_goes_stale():
    # the cached indices depend on shapes only: in-place weight edits (as
    # gradcheck makes) show up in the next call
    rng = Rng(450)
    p = init_group_conv(rng.derive("w"), 2, 2, 4)
    x = fm(rng.derive("x"), 2, 4, 4)
    group_conv(x, p)
    index = groupequiv._kernel_index(2, 2, 4, 4, 3)
    assert not index.flags.writeable
    p.weight.data[1, 0, 2, 0, 1] += 0.5
    got = group_conv(x, p).data.data
    want = ops.conv2d(x.data, Tensor(reference_group_kernel(p.weight, 4)),
                      Tensor(np.repeat(p.bias.data, 4))).data
    assert np.array_equal(got, want)
    assert groupequiv._kernel_index(2, 2, 4, 4, 3) is index
