"""Cyclic-weight channel attention: shift covariance, gating, SE contrast."""

import numpy as np
import pytest

from reafuse import reca
from reafuse import tensor as ops
from reafuse.config import ShapeError
from reafuse.groupequiv import g_act, relative_residual
from reafuse.naive import naive_se_with_bn
from reafuse.reca import (
    ReCAParams,
    SEParams,
    attention_logits,
    cyclic_blocks,
    init_reca,
    init_se,
    reca_forward,
    se_forward,
)
from reafuse.tensor import Rng, Tensor


def double_loop_blocks(x, banks):
    """Independent reference for block i = sum_n bank[(n-i) % N] @ block[n].

    Orientation block m of the [B, in*N] input is the channel slice x[:, m::N].
    """
    n = banks.shape[0]
    out = []
    for i in range(n):
        acc = np.zeros((x.shape[0], banks.shape[1]))
        for m in range(n):
            acc += x[:, m::n] @ banks[(m - i) % n].T
        out.append(acc)
    return out


def pooled(x):
    """A [B, C] array as the [B, C, 1, 1] map ``global_avg_pool`` returns."""
    return x.reshape(x.shape + (1, 1))


def test_cyclic_blocks_n1_is_plain_reduction():
    rng = Rng(0)
    p = init_reca(rng, 6, 1, 2)
    x = rng.derive("b").uniform((3, 6))
    out = cyclic_blocks(Tensor(pooled(x)), p.w_a)
    np.testing.assert_allclose(out.data, pooled(x @ p.w_a.data[0].T), atol=1e-14)


def test_conv_blocks_zero_weights_give_zero():
    p = ReCAParams(w_a=Tensor(np.zeros((4, 2, 4))), w_b=Tensor(np.zeros((4, 4, 2))),
                   bn_gamma=Tensor(np.ones((2,))), bn_beta=Tensor(np.zeros((2,))))
    x = Tensor(pooled(Rng(0).uniform((2, 4 * 4))))
    out = cyclic_blocks(x, p.w_a)
    assert out.shape == (2, 2 * 4, 1, 1)
    assert np.all(out.data == 0.0)


def test_shift_covariance_against_double_loop():
    # the algebraic heart: shifted input orientations re-index the output blocks exactly
    worst = 0.0
    for n in (2, 4):
        for seed in range(10):
            rng = Rng(seed)
            rows, r = 3, 2
            cols = rows * r
            banks = rng.uniform((n, rows, cols))
            x = rng.uniform((2, cols * n))
            base = cyclic_blocks(Tensor(pooled(x)), Tensor(banks)).data[:, :, 0, 0]
            for i, want in enumerate(double_loop_blocks(x, banks)):
                worst = max(worst, np.abs(base[:, i::n] - want).max())
            for s in range(n):
                shifted = x[:, [k * n + (m - s) % n for k in range(cols) for m in range(n)]]
                moved = cyclic_blocks(Tensor(pooled(shifted)), Tensor(banks)).data[:, :, 0, 0]
                for i in range(n):
                    dev = np.abs(moved[:, i::n] - base[:, (i - s) % n::n]).max()
                    worst = max(worst, dev)
    assert worst <= 1e-12


def test_identity_wiring_recovers_input():
    # r=1, both banks = delta(n=0) * I, BN skipped, non-negative input
    n, k = 4, 3
    eye = np.zeros((n, k, k))
    eye[0] = np.eye(k)
    p = ReCAParams(w_a=Tensor(eye), w_b=Tensor(eye.copy()),
                   bn_gamma=Tensor(np.ones((k,))), bn_beta=Tensor(np.zeros((k,))))
    x = Tensor(pooled(np.abs(Rng(40).uniform((2, k * n)))))
    out = cyclic_blocks(ops.relu(cyclic_blocks(x, p.w_a)), p.w_b)
    np.testing.assert_allclose(out.data, x.data, atol=1e-14)


def test_attention_logits_shift_covariance_with_bn():
    # BN pooled over batch x blocks keeps the covariance through the full stack
    worst = 0.0
    for n in (2, 4):
        rng = Rng(50 + n)
        k = 4
        p = init_reca(rng.derive("p"), k * n, n, 2)
        x = Tensor(rng.derive("x").uniform((3, k * n, 5, 5)))
        base = attention_logits(ops.global_avg_pool(x), p)
        for s in range(1, n):
            moved = attention_logits(ops.global_avg_pool(g_act(x, s, n)), p)
            want = g_act(base, s, n)
            worst = max(worst, relative_residual(moved, want))
    assert worst <= 1e-10


def test_per_channel_bn_statistics_keep_equivariance(monkeypatch):
    # under the joint action, one element acting on the whole batch as here,
    # per-channel statistics permute with the channels, so with gamma/beta
    # still shared by the N copies of a reduced channel the attention still
    # commutes with g_act; a per-sample action would break them
    def per_channel_batchnorm(x, n, gamma, beta):
        spread = np.repeat(np.arange(gamma.shape[0]), n)  # channel r*N + i -> r
        return ops.batchnorm(x, ops.take(gamma, spread, 0), ops.take(beta, spread, 0))

    n, k, r = 4, 4, 2
    rng = Rng(55)
    p = init_reca(rng.derive("p"), k * n, n, r)
    p = ReCAParams(w_a=p.w_a, w_b=p.w_b,
                   bn_gamma=Tensor(rng.derive("g").uniform((k // r,), 0.5, 1.5)),
                   bn_beta=Tensor(rng.derive("b").uniform((k // r,))))
    x = Tensor(rng.derive("x").uniform((3, k * n, 5, 5)))
    shared = attention_logits(x, p).data
    monkeypatch.setattr(reca, "_shared_batchnorm", per_channel_batchnorm)
    base_logits = attention_logits(x, p)
    assert np.abs(base_logits.data - shared).max() > 1e-3  # the patch is live
    base_gated = reca_forward(x, p)
    worst = 0.0
    for s in range(1, n):
        moved = g_act(x, s, n)
        worst = max(worst,
                    relative_residual(attention_logits(moved, p),
                                      g_act(base_logits, s, n)),
                    relative_residual(reca_forward(moved, p), g_act(base_gated, s, n)))
    assert worst <= 1e-12


def test_reca_zero_params_gate_half():
    n, k = 4, 2
    p = ReCAParams(w_a=Tensor(np.zeros((n, k, k))), w_b=Tensor(np.zeros((n, k, k))),
                   bn_gamma=Tensor(np.ones((k,))), bn_beta=Tensor(np.zeros((k,))))
    x = Tensor(Rng(60).uniform((2, k * n, 4, 4)))
    out = reca_forward(x, p)
    np.testing.assert_array_equal(out.data, 0.5 * x.data)


def test_reca_equivariance_random_configs():
    worst = 0.0
    for seed in range(10):
        rng = Rng(70 + seed)
        n = (2, 4)[seed % 2]
        k = 4
        p = init_reca(rng.derive("p"), k * n, n, 2)
        x = Tensor(rng.derive("x").uniform((2, k * n, 8, 8)))
        base = reca_forward(x, p)
        for s in range(1, n):
            worst = max(worst, relative_residual(reca_forward(g_act(x, s, n), p),
                                                 g_act(base, s, n)))
    assert worst <= 1e-10


def test_reca_gate_multiset_invariant_under_group_action():
    rng = Rng(80)
    n, k = 4, 2
    p = init_reca(rng.derive("p"), k * n, n, 1)
    x = Tensor(rng.derive("x").uniform((2, k * n, 4, 4)))
    base = np.sort(attention_logits(ops.global_avg_pool(x), p).data, axis=None)
    for s in range(1, n):
        moved = np.sort(attention_logits(ops.global_avg_pool(g_act(x, s, n)), p).data, axis=None)
        assert np.abs(moved - base).max() <= 1e-12


def test_reca_n1_equals_se_with_shared_bn():
    rng = Rng(90)
    c = 8
    p = init_reca(rng.derive("p"), c, 1, 2)
    x = rng.derive("x").uniform((3, c, 6, 6))
    got = reca_forward(Tensor(x), p).data
    want = naive_se_with_bn(x, p.w_a.data[0], p.w_b.data[0],
                            p.bn_gamma.data, p.bn_beta.data)
    assert np.abs(got - want).max() <= 1e-12


def test_se_zero_weights_gate_half():
    p = SEParams(w1=Tensor(np.zeros((2, 8))), w2=Tensor(np.zeros((8, 2))))
    x = Tensor(Rng(100).uniform((2, 8, 4, 4)))
    np.testing.assert_array_equal(se_forward(x, p).data, 0.5 * x.data)


def test_se_identity_weights_closed_form():
    # r=1, W1 = W2 = I: out = x * sigmoid(relu(gap(x)))
    c = 5
    p = SEParams(w1=Tensor(np.eye(c)), w2=Tensor(np.eye(c)))
    x = Rng(110).uniform((2, c, 4, 4))
    gap = x.mean(axis=(2, 3), keepdims=True)
    want = x / (1.0 + np.exp(-np.maximum(gap, 0.0)))
    got = se_forward(Tensor(x), p).data
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_se_breaks_equivariance_on_generic_weights():
    # residual >= 1e-2 for at least one group element (reseed policy: fixed
    # seeds below were not tuned; any generic draw works at He scale)
    n, k = 4, 4
    c = k * n
    best = 0.0
    for seed in range(3):
        rng = Rng(120 + seed)
        p = init_se(rng.derive("p"), c, 2)
        x = Tensor(rng.derive("x").uniform((2, c, 8, 8)))
        base = se_forward(x, p)
        for s in range(1, n):
            moved = se_forward(g_act(x, s, n), p)
            best = max(best, relative_residual(moved, g_act(base, s, n)))
    assert best >= 1e-2


def test_init_validation():
    with pytest.raises(ShapeError):
        init_reca(Rng(0), 9, 4, 1)  # channels not divisible by N
    with pytest.raises(ShapeError):
        init_reca(Rng(0), 8, 4, 3)  # K=2 not divisible by r=3
    with pytest.raises(ShapeError):
        init_se(Rng(0), 8, 3)
    with pytest.raises(ShapeError, match="not a multiple of reduced axis 3"):
        ReCAParams(w_a=Tensor(np.zeros((4, 3, 4))), w_b=Tensor(np.zeros((4, 4, 3))),
                   bn_gamma=Tensor(np.ones((3,))), bn_beta=Tensor(np.zeros((3,))))
    p = init_reca(Rng(0), 8, 4, 2)
    x = Tensor(np.zeros((2, 12, 4, 4)))  # 12 channels against banks for K*N = 8
    with pytest.raises(ShapeError, match="channel axis mismatch, input has 12"):
        reca_forward(x, p)  # the first bank's conv2d rejects it
    with pytest.raises(ShapeError, match="channel axis mismatch, input has 12"):
        se_forward(x, init_se(Rng(0), 8, 2))  # and so does SE's first 1x1 conv2d


def interleave(block_major, n, rows, cols):
    """Reorder a block-major [N*rows, N*cols] matrix (block (i, m) at rows
    i*rows.., columns m*cols..) into feature-map order (r*N + i, k*N + m)."""
    return block_major.reshape(n, rows, n, cols).transpose(1, 0, 3, 2).reshape(rows * n, cols * n)


def shift_permutation(channels, n, s):
    """P_s: the orientation shift of g_act, (P_s x)[k*N + m] = x[k*N + (m - s) mod N]."""
    p = np.zeros((channels * n, channels * n))
    for k in range(channels):
        for m in range(n):
            p[k * n + m, k * n + (m - s) % n] = 1.0
    return p


def bank_matrix(banks):
    """The [out*N, in*N] matrix ``cyclic_blocks`` applies, read off its output.

    Applied to the identity, every input is one-hot, so the output is the
    matrix transposed, exactly.
    """
    n, _, cols = banks.shape
    return cyclic_blocks(Tensor(pooled(np.eye(cols * n))), Tensor(banks)).data[:, :, 0, 0].T


@pytest.mark.parametrize("n", [1, 2, 4])
def test_circulant_equals_assembled_block_matrix(n):
    rows, cols = 3, 2
    banks = Rng(130 + n).uniform((n, rows, cols))
    block_major = np.block([[banks[(m - i) % n] for m in range(n)] for i in range(n)])
    got = bank_matrix(banks)
    assert got.shape == (rows * n, cols * n)
    assert np.array_equal(got, interleave(block_major, n, rows, cols))
    for r in range(rows):
        for i in range(n):
            for k in range(cols):
                for m in range(n):
                    assert got[r * n + i, k * n + m] == banks[(m - i) % n, r, k]


@pytest.mark.parametrize("n", [2, 4])
def test_circulant_commutes_with_orientation_shift(n):
    rows, cols = 2, 3
    c = bank_matrix(Rng(140 + n).uniform((n, rows, cols)))
    for s in range(n):
        p_out, p_in = shift_permutation(rows, n, s), shift_permutation(cols, n, s)
        assert np.array_equal(p_out @ c, c @ p_in)


def split_blocks_reference_logits(x, p, squeeze):
    """The split -> N^2 block products -> pooled batch-norm -> merge path."""
    n, k = p.orientations, p.w_a.shape[2]
    w_a, w_b = p.w_a.data, p.w_b.data
    data = x.data.mean(axis=(2, 3)) if squeeze else x.data
    blocks = [data[:, [j * n + m for j in range(k)]] for m in range(n)]

    def stage(blocks, banks):
        return [sum(np.einsum("oc,bc...->bo...", banks[(m - i) % n], blocks[m])
                    for m in range(n)) for i in range(n)]

    hidden = stage(blocks, w_a)
    joined = np.concatenate(hidden, axis=0)
    axes = (0,) if joined.ndim == 2 else (0, 2, 3)
    mean = joined.mean(axis=axes, keepdims=True)
    var = ((joined - mean) ** 2).mean(axis=axes, keepdims=True)
    shape = [1, -1] + [1] * (joined.ndim - 2)
    normed = ((joined - mean) / np.sqrt(var + 1e-5) * p.bn_gamma.data.reshape(shape)
              + p.bn_beta.data.reshape(shape))
    b = data.shape[0]
    hidden = [np.maximum(normed[i * b:(i + 1) * b], 0.0) for i in range(n)]
    out = np.stack(stage(hidden, w_b), axis=2)          # [B, K, N, ...]
    out = out.reshape((b, k * n) + out.shape[3:])
    return out.reshape(b, k * n, 1, 1) if squeeze else out


@pytest.mark.parametrize("squeeze", [True, False])
def test_attention_logits_match_split_blocks_reference(squeeze):
    worst = 0.0
    for seed, (n, k, r) in enumerate([(1, 4, 2), (2, 4, 2), (4, 4, 2), (4, 2, 1)]):
        rng = Rng(150 + seed)
        p = init_reca(rng.derive("p"), k * n, n, r)
        p = ReCAParams(w_a=p.w_a, w_b=p.w_b,
                       bn_gamma=Tensor(rng.derive("g").uniform((k // r,), 0.5, 1.5)),
                       bn_beta=Tensor(rng.derive("b").uniform((k // r,))))
        x = Tensor(rng.derive("x").uniform((3, k * n, 5, 5)))
        got = attention_logits(ops.global_avg_pool(x) if squeeze else x, p).data
        want = split_blocks_reference_logits(x, p, squeeze)
        assert got.shape == want.shape
        worst = max(worst, np.abs(got - want).max())
    assert worst <= 1e-13


@pytest.mark.parametrize("spatial", [(1, 1), (3, 3)])
def test_cyclic_blocks_matches_loop_reference(spatial):
    for n in (1, 2, 4):
        rng = Rng(160 + n)
        banks = rng.uniform((n, 3, 2))
        x = rng.uniform((2, 2 * n) + spatial)
        got = cyclic_blocks(Tensor(x), Tensor(banks)).data
        assert got.shape == (2, 3 * n) + spatial
        for i in range(n):
            want = sum(np.einsum("oc,bc...->bo...", banks[(m - i) % n], x[:, m::n])
                       for m in range(n))
            assert np.abs(got[:, i::n] - want).max() <= 1e-13
    with pytest.raises(ShapeError):
        cyclic_blocks(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((1, 3, 2))))
