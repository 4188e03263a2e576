"""Primitive op semantics checked against hand values and in-test loop oracles."""

import tracemalloc

import numpy as np
import pytest

from reafuse import tensor as ops
from reafuse.autograd import Tape, backward, gradcheck
from reafuse.groupequiv import group_conv, init_group_conv
from reafuse.naive import naive_conv2d
from reafuse.tensor import DegenerateStatisticsError, Rng, ShapeError, Tensor


def loop_conv2d(x, w, b):
    # independent reference: pad, then accumulate in (kernel-row, kernel-col,
    # in-channel) order like the documented contract
    bs, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    p = (k - 1) // 2
    xp = np.zeros((bs, cin, h + 2 * p, wd + 2 * p))
    xp[:, :, p:p + h, p:p + wd] = x
    out = np.zeros((bs, cout, h, wd))
    for bi in range(bs):
        for co in range(cout):
            for i in range(h):
                for j in range(wd):
                    acc = 0.0
                    for ki in range(k):
                        for kj in range(k):
                            for ci in range(cin):
                                acc += xp[bi, ci, i + ki, j + kj] * w[co, ci, ki, kj]
                    out[bi, co, i, j] = acc + b[co]
    return out


def test_conv2d_zero_input_gives_zero_output():
    x = Tensor(np.zeros((1, 1, 4, 4)))
    w = Tensor(np.random.default_rng(0).normal(size=(2, 1, 3, 3)))
    out = ops.conv2d(x, w, Tensor(np.zeros((2,))))
    assert np.all(out.data == 0.0)


def test_conv2d_identity_kernel_passthrough():
    x = Tensor(np.random.default_rng(1).normal(size=(2, 1, 5, 5)))
    w = Tensor(np.ones((1, 1, 1, 1)))
    out = ops.conv2d(x, w)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_matches_loop_oracle():
    rng = Rng(42)
    worst = 0.0
    for t in range(12):
        r = rng.derive(f"t{t}")
        bs, cin, cout = r.integer(1, 3), r.integer(1, 3), r.integer(1, 4)
        size = r.integer(3, 7)
        k = 3 if t % 2 else 1
        x = r.uniform((bs, cin, size, size))
        w = r.uniform((cout, cin, k, k))
        b = r.uniform((cout,))
        got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        want = loop_conv2d(x, w, b)
        worst = max(worst, np.abs(got - want).max())
    assert worst <= 1e-12


def whole_map_conv2d(x, w, b):
    # reference of the whole-map formula: per sample, one [k*k*Cin, H*W]
    # column matrix in (kernel-row, kernel-col, in-channel) order, one matmul
    bs, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    p = (k - 1) // 2
    wf = w.transpose(0, 2, 3, 1).reshape(cout, k * k * cin)
    out = np.empty((bs, cout, h * wd))
    for s in range(bs):
        xp = np.pad(x[s], ((0, 0), (p, p), (p, p)))
        cols = np.stack([xp[:, ki:ki + h, kj:kj + wd] for ki in range(k) for kj in range(k)])
        np.matmul(wf, cols.reshape(k * k * cin, h * wd), out=out[s])
    out = out.reshape(bs, cout, h, wd)
    return out if b is None else out + b[:, None, None]


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("k", [1, 3])  # 1x1 pads by 0, so its band is its im2col; 3x3 pads by 1
def test_conv2d_paths_match_earlier_formula_and_oracle(batch, k):
    r = Rng(100 + 10 * k).derive(f"b{batch}")
    x = r.uniform((batch, 5, 8, 8))
    w = r.uniform((6, 5, k, k))
    b = r.uniform((6,))
    got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
    assert np.array_equal(got, whole_map_conv2d(x, w, b))
    assert np.abs(got - naive_conv2d(x, w, b)).max() <= 1e-12


# 8 and 32: one band; 48, 128, 256: equal bands; 96: bands of 10 and 11 rows
@pytest.mark.parametrize("width", [8, 32, 48, 96, 128, 256])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("with_bias", [False, True])
def test_banded_conv2d_bit_identical_to_whole_map(width, k, batch, with_bias):
    r = Rng(width).derive(f"k{k}/b{batch}")
    x = r.uniform((batch, 3, width, width))
    w = r.uniform((5, 3, k, k))
    b = r.uniform((5,)) if with_bias else None
    got = ops.conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b)).data
    assert np.array_equal(got, whole_map_conv2d(x, w, b))


@pytest.mark.parametrize("shape", [
    (2, 32, 64, 64, 32, 3),   # the pyramid's layer widths, 4 equal bands
    (2, 32, 64, 64, 32, 1),   # a lateral or 1x1 group conv at those widths
    (1, 8, 36, 36, 16, 3),    # 36 px wide: bands in steps of 2 rows
    (1, 4, 34, 34, 8, 3),     # 1156 px, not a multiple of 8: one band
    (1, 4, 8, 300, 8, 3),     # 2400 px in 8 rows of 300 px
], ids=["pyramid-64x64", "pyramid-64x64-1x1", "36x36", "34x34", "8x300"])
def test_banded_conv2d_bit_identical_on_odd_shapes(shape):
    batch, cin, h, wd, cout, k = shape
    r = Rng(7).derive(str((batch, cin, h, wd, cout)))
    x = r.uniform((batch, cin, h, wd))
    w = r.uniform((cout, cin, k, k))
    b = r.uniform((cout,))
    got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
    assert np.array_equal(got, whole_map_conv2d(x, w, b))


def test_banded_conv2d_buffers_are_sized_by_the_band():
    # whole-map im2col would take a k*k*32 x 128*128 column buffer (37.7 MB
    # at 3x3, 4.2 MB at 1x1); a band of 256 px takes k*k*32 x 256 (0.59 MB
    # at 3x3)
    x = Tensor(Rng(3).uniform((1, 32, 128, 128)))
    for k in (1, 3):
        w = Tensor(Rng(4).uniform((32, 32, k, k)))
        tracemalloc.start()
        try:
            out = ops.conv2d(x, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.data.nbytes + 2**20, f"{k}x{k}"


# 8, 32 and 36: one band, or bands of 2 rows; 128 and 256: many even bands;
# 34x34 is 1156 px, not a multiple of 8, so one band
@pytest.mark.parametrize("shape", [(8, 8), (32, 32), (36, 36), (128, 128), (256, 256), (34, 34)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("with_bias", [False, True])
def test_blockmean_conv2d_bit_identical_to_blockmean_of_conv2d(shape, k, batch, with_bias):
    r = Rng(shape[1]).derive(f"k{k}/b{batch}")
    x = Tensor(r.uniform((batch, 3) + shape))
    w = Tensor(r.uniform((5, 3, k, k)))
    b = Tensor(r.uniform((5,))) if with_bias else None
    got = ops.conv2d(x, w, b, blockmean=True).data
    assert got.shape == (batch, 5, shape[0] // 2, shape[1] // 2)
    assert np.array_equal(got, ops.blockmean2x(ops.conv2d(x, w, b)).data)


@pytest.mark.parametrize("k", [1, 3])
def test_blockmean_conv2d_gradients(k):
    r = Rng(30 + k)
    x = Tensor(r.derive("x").uniform((2, 3, 6, 6)))
    w = Tensor(r.derive("w").uniform((4, 3, k, k)))
    b = Tensor(r.derive("b").uniform((4,)))

    def square(out):
        return ops.tsum(ops.mul(out, out))

    report = gradcheck(lambda: square(ops.conv2d(x, w, b, blockmean=True)), [x, w, b],
                       r.derive("coords"))
    assert report.passed, str(report)
    # the same gradients, bit for bit, as blockmean2x of the stride-1 output
    pooled = backward(square(ops.conv2d(x, w, b, blockmean=True)))
    composed = backward(square(ops.blockmean2x(ops.conv2d(x, w, b))))
    for t in (x, w, b):
        assert np.array_equal(pooled[id(t)], composed[id(t)])


def test_blockmean_conv2d_never_builds_the_full_resolution_map():
    # a stride-2 group convolution of a [1, 32, 128, 128] map: averaging
    # each band into the half-resolution output leaves the band buffers as
    # the only overhead, where the whole-map output alone would be 4.2 MB
    k, n = 8, 4
    x = Tensor(Rng(3).uniform((1, k * n, 128, 128)))
    p = init_group_conv(Rng(4), k, k, n)
    tracemalloc.start()
    try:
        out = group_conv(x, p, stride=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (1, k * n, 64, 64)
    assert peak < out.data.nbytes + 1.5 * 2**20


def test_blockmean_conv2d_rejects_odd_extents():
    w = Tensor(np.zeros((1, 1, 3, 3)))
    for shape in [(1, 1, 5, 6), (1, 1, 6, 5)]:
        with pytest.raises(ShapeError):
            ops.conv2d(Tensor(np.zeros(shape)), w, blockmean=True)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


_SPECIAL_VALUES = np.array([
    np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
    2.2250738585072014e-308, 1.0, -1.0, 40.0, -40.0, 800.0, -800.0, 1e300, -1e300,
])


def test_relu_and_sigmoid_match_their_reference_formulas_bitwise():
    rng = np.random.default_rng(11)
    inputs = (_SPECIAL_VALUES, rng.normal(scale=10.0, size=(3, 4, 5, 6)),
              rng.uniform(-1e-300, 1e-300, size=257))
    for x in inputs:
        g = rng.normal(size=x.shape)
        t = Tensor(x, requires_grad=True)
        relu, sigmoid = ops.relu(t), ops.sigmoid(t)
        want_relu = np.where(x > 0, x, 0.0)
        want_sigmoid = 0.5 * (np.tanh(0.5 * x) + 1.0)
        assert np.array_equal(_bits(relu.data), _bits(want_relu))
        assert np.array_equal(_bits(sigmoid.data), _bits(want_sigmoid))
        (g_relu,) = relu.backward_fn(g)
        (g_sigmoid,) = sigmoid.backward_fn(g)
        assert np.array_equal(_bits(g_relu), _bits(g * (x > 0.0)))
        assert np.array_equal(_bits(g_sigmoid), _bits(g * want_sigmoid * (1.0 - want_sigmoid)))


@pytest.mark.parametrize("op", [ops.relu, ops.sigmoid])
def test_relu_and_sigmoid_allocate_only_their_output(op):
    # np.where(x > 0, x, 0.0) also holds a boolean mask (1/8 of the map);
    # 0.5 * (tanh(0.5 * x) + 1.0) holds two temporaries of the map's size
    x = Tensor(Rng(5).uniform((256, 1024), -4.0, 4.0))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = op(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= out.data.nbytes + 64 * 2**10, (peak - start) / out.data.nbytes


def test_conv2d_rejects_even_kernel_and_bad_stride():
    x = Tensor(np.zeros((1, 1, 4, 4)))
    with pytest.raises(ShapeError):
        ops.conv2d(x, Tensor(np.zeros((1, 1, 2, 2))))
    with pytest.raises(ShapeError):
        ops.conv2d(x, Tensor(np.zeros((1, 1, 3, 1))))  # not square
    with pytest.raises(TypeError):
        ops.conv2d(x, Tensor(np.zeros((1, 1, 3, 3))), stride=2)  # same padding, stride 1 only
    with pytest.raises(ShapeError):
        ops.conv2d(x, Tensor(np.zeros((1, 2, 3, 3))))  # channel mismatch


def test_rot90_quarter_turn_convention():
    # counter-clockwise positive: [[1,2],[3,4]] -> [[2,4],[1,3]]
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(ops.rot90(x, 1).data, [[2.0, 4.0], [1.0, 3.0]])


def test_rot90_cycle_and_composition():
    x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 4, 4)))
    np.testing.assert_array_equal(ops.rot90(x, 0).data, x.data)
    np.testing.assert_array_equal(ops.rot90(x, 4).data, x.data)
    for a in range(4):
        for b in range(4):
            lhs = ops.rot90(ops.rot90(x, a), b).data
            rhs = ops.rot90(x, (a + b) % 4).data
            np.testing.assert_array_equal(lhs, rhs)


def test_global_avg_pool_values_and_rotation_invariance():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    assert ops.global_avg_pool(x).data.reshape(()) == 2.5
    const = Tensor(np.full((2, 3, 5, 5), 7.25))
    assert np.all(ops.global_avg_pool(const).data == 7.25)
    r = Tensor(np.random.default_rng(4).normal(size=(2, 3, 6, 6)))
    base = ops.global_avg_pool(r).data
    for s in range(1, 4):
        assert np.abs(ops.global_avg_pool(ops.rot90(r, s)).data - base).max() <= 1e-12


def test_upsample_nearest_definition():
    x = Tensor(np.array([[[[1.0]]]]))
    np.testing.assert_array_equal(ops.upsample_nearest2x(x).data,
                                  [[[[1.0, 1.0], [1.0, 1.0]]]])
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    want = [[[[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]]]
    np.testing.assert_array_equal(ops.upsample_nearest2x(x).data, want)


def test_upsample_commutes_with_rot90_bit_exact():
    x = Tensor(np.random.default_rng(5).normal(size=(2, 4, 5, 5)))
    for s in range(4):
        a = ops.upsample_nearest2x(ops.rot90(x, s)).data
        b = ops.rot90(ops.upsample_nearest2x(x), s).data
        np.testing.assert_array_equal(a, b)


def test_blockmean2x_is_exact_block_average():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    got = ops.blockmean2x(Tensor(x)).data
    want = np.array([[[[2.5, 4.5], [10.5, 12.5]]]])
    np.testing.assert_array_equal(got, want)
    with pytest.raises(ShapeError):
        ops.blockmean2x(Tensor(np.zeros((1, 1, 5, 5))))


@pytest.mark.parametrize("shape", [(1, 1, 2, 2), (2, 4, 2, 8), (3, 5, 6, 10),
                                   (2, 32, 32, 32), (4, 32, 128, 128)])
def test_blockmean2x_bit_identical_to_reshape_mean(shape):
    # the corner-sum forward must reproduce the reshape-mean formula exactly,
    # or the demo artifacts would change; the last shape is the demo-large stem
    b, c, h, w = shape
    x = Rng(sum(shape)).uniform(shape, -3.0, 3.0)
    want = x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    assert np.array_equal(ops.blockmean2x(Tensor(x)).data, want)


def test_elementwise_definitions():
    assert ops.sigmoid(Tensor(np.zeros(()))).item() == 0.5
    assert ops.relu(Tensor(np.array(-3.0))).item() == 0.0
    assert ops.relu(Tensor(np.array(3.0))).item() == 3.0
    x = Tensor(np.random.default_rng(6).normal(size=(3, 4)))
    np.testing.assert_array_equal(ops.add(x, Tensor(np.zeros((3, 4)))).data, x.data)


def test_sigmoid_extremes_stay_finite():
    x = Tensor(np.array([-750.0, -50.0, 0.0, 50.0, 750.0]))
    out = ops.sigmoid(x).data
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[-1] == 1.0


def test_broadcast_is_restricted_to_trailing_spatial_dims():
    gate = Tensor(np.random.default_rng(7).normal(size=(2, 3, 1, 1)))
    x = Tensor(np.random.default_rng(8).normal(size=(2, 3, 4, 4)))
    out = ops.mul(x, gate)
    np.testing.assert_allclose(out.data, x.data * gate.data)
    with pytest.raises(ShapeError):
        ops.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_batchnorm_statistics():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(2.0, 3.0, size=(8, 4, 6, 6)))
    gamma = Tensor(np.ones(4))
    beta = Tensor(np.zeros((4,)))
    out = ops.batchnorm(x, gamma, beta).data
    assert np.abs(out.mean(axis=(0, 2, 3))).max() <= 1e-10
    assert np.abs(out.var(axis=(0, 2, 3)) - 1.0).max() <= 1e-3  # eps-regularized

    # gamma=0 kills the signal entirely
    beta2 = Tensor(np.array([1.0, -2.0, 0.5, 3.0]))
    out2 = ops.batchnorm(x, Tensor(np.zeros((4,))), beta2).data
    np.testing.assert_array_equal(out2, np.broadcast_to(beta2.data[None, :, None, None], x.shape))

    # constant input per channel -> zeros under gamma=1, beta=0
    const = Tensor(np.full((4, 3, 2, 2), 5.0))
    out3 = ops.batchnorm(const, Tensor(np.ones(3)), Tensor(np.zeros(3))).data
    assert np.abs(out3).max() <= 1e-12


def test_batchnorm_degenerate_statistics_error():
    x = Tensor(np.zeros((1, 3)))
    with pytest.raises(DegenerateStatisticsError):
        ops.batchnorm(x, Tensor(np.ones(3)), Tensor(np.zeros((3,))))
    with pytest.raises(ShapeError):
        ops.batchnorm(Tensor(np.zeros((4, 3, 2, 2))), Tensor(np.ones(2)), Tensor(np.zeros((2,))))


def composite_batchnorm(x, gamma, beta):
    # the reference formula, step by step on raw arrays: batch mean, centre,
    # biased variance, (var + eps)^-1/2, normalize, scale, shift
    axes = (0,) + tuple(range(2, x.ndim))
    count = x.size // x.shape[1]
    bshape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    centered = x - x.sum(axis=axes, keepdims=True) * (1.0 / count)
    var = (centered * centered).sum(axis=axes, keepdims=True) * (1.0 / count)
    inv = (var + 1e-5) ** -0.5
    return centered * inv * gamma.reshape(bshape) + beta.reshape(bshape)


# [B, C], [B, C, H, W], and the [B, R, N, H, W] view reca._shared_batchnorm takes
BATCHNORM_SHAPES = [(6, 4), (3, 4, 5, 5), (2, 3, 4, 5, 5)]


def _batchnorm_inputs(shape, seed):
    r = Rng(seed)
    c = shape[1]
    return (Tensor(r.derive("x").uniform(shape, -2.0, 3.0)),
            Tensor(r.derive("gamma").uniform((c,), 0.5, 1.5)),
            Tensor(r.derive("beta").uniform((c,), -0.5, 0.5)))


@pytest.mark.parametrize("shape", BATCHNORM_SHAPES)
def test_batchnorm_is_bit_identical_to_the_composite_formula(shape):
    x, gamma, beta = _batchnorm_inputs(shape, 21)
    want = composite_batchnorm(x.data, gamma.data, beta.data)
    assert np.array_equal(ops.batchnorm(x, gamma, beta).data, want)
    x.requires_grad = True  # a recorded forward computes the same bits
    assert np.array_equal(ops.batchnorm(x, gamma, beta).data, want)


@pytest.mark.parametrize("shape", BATCHNORM_SHAPES)
def test_batchnorm_backward_passes_gradcheck(shape):
    x, gamma, beta = _batchnorm_inputs(shape, 22)
    weights = Tensor(Rng(23).uniform(shape))
    report = gradcheck(lambda: ops.tsum(ops.mul(ops.batchnorm(x, gamma, beta), weights)),
                       [x, gamma, beta], Rng(24))
    assert report.passed, str(report)
    assert report.checked == min(50, x.size) + 2 * shape[1]


def test_batchnorm_records_one_node_over_x_gamma_beta():
    x, gamma, beta = _batchnorm_inputs((2, 3, 4, 4), 25)
    gamma.requires_grad = True
    out = ops.batchnorm(x, gamma, beta)
    assert out.op == "batchnorm" and out.parents == (x, gamma, beta)
    assert Tape.trace(out).nodes == [out]


def test_take_gathers_along_axis_and_checks_range():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    for c in range(3):
        np.testing.assert_array_equal(ops.take(x, [c], axis=1).data, x.data[:, [c]])
    with pytest.raises(ShapeError):
        ops.take(x, [5], axis=1)


def test_matmul_matches_numpy():
    a = np.random.default_rng(10).normal(size=(3, 4))
    b = np.random.default_rng(11).normal(size=(4, 5))
    np.testing.assert_allclose(ops.matmul(Tensor(a), Tensor(b)).data, a @ b)


def test_rng_determinism_and_derivation_independence():
    a = Rng(123).uniform((4, 4))
    b = Rng(123).uniform((4, 4))
    np.testing.assert_array_equal(a, b)
    # derived streams differ from the parent and from each other
    c = Rng(123).derive("x").uniform((4, 4))
    d = Rng(123).derive("y").uniform((4, 4))
    assert np.abs(a - c).max() > 0 and np.abs(c - d).max() > 0
    assert Rng(123).derive("x").seed == Rng(123).derive("x").seed


def test_values_stay_finite_through_op_chain():
    r = Rng(12)
    x = Tensor(r.uniform((2, 4, 8, 8), -5.0, 5.0))
    w = Tensor(r.uniform((4, 4, 3, 3)))
    out = ops.sigmoid(ops.conv2d(ops.relu(x), w))
    out = ops.blockmean2x(ops.upsample_nearest2x(out))
    assert np.all(np.isfinite(out.data))


def test_unmarked_inputs_return_bare_outputs():
    x = Tensor(Rng(13).uniform((2, 3, 4, 4)))
    w = Tensor(Rng(14).uniform((2, 3, 3, 3)))

    def outputs():
        return [ops.conv2d(x, w), ops.relu(x), ops.add(x, x), ops.tsum(x),
                ops.batchnorm(x, Tensor(np.ones(3)), Tensor(np.zeros((3,))))]

    bare = outputs()
    for out in bare:
        assert out.parents == () and out.backward_fn is None
        assert not out.requires_grad and out.op == "leaf"
    # one marked parent is enough to record, whichever position it holds
    w.requires_grad = True
    recorded = outputs()
    assert recorded[0].requires_grad and recorded[0].parents == (x, w)
    assert not any(out.requires_grad for out in recorded[1:])
    for got, want in zip(recorded, bare):
        assert np.array_equal(got.data, want.data)
