"""Straight-line reference implementations for oracle comparisons.

Everything here recomputes an operation from its definition with explicit
index arithmetic over plain ndarrays -- no Tensor graph, no im2col, no weight
expansion, and no imports from the fast modules.  The verification harness
and the tests compare the fast implementations against these on small random
instances; keeping the two routes textually and structurally separate is the
point, so do not "optimize" this module by delegating to the main code path.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "naive_rot90",
    "naive_conv2d",
    "naive_blockmean2x",
    "naive_group_conv",
    "naive_lift_conv",
    "naive_conv_blocks",
    "naive_se_with_bn",
]


def naive_rot90(m: np.ndarray, quarter_turns: int) -> np.ndarray:
    """Counter-clockwise rotation of the last two axes by explicit indexing."""
    out = np.array(m, dtype=np.float64)
    for _ in range(quarter_turns % 4):
        h, w = out.shape[-2], out.shape[-1]
        rot = np.empty(out.shape[:-2] + (w, h), dtype=np.float64)
        for i in range(w):
            for j in range(h):
                rot[..., i, j] = out[..., j, w - 1 - i]
        out = rot
    return out


def naive_conv2d(x, w, bias=None) -> np.ndarray:
    """Stride-1 "same" cross-correlation by direct summation over every output coordinate."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    batch, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    pad = (kh - 1) // 2
    xp = np.zeros((batch, cin, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    out_h = h + 2 * pad - kh + 1
    out_w = wd + 2 * pad - kw + 1
    out = np.zeros((batch, cout, out_h, out_w))
    for b in range(batch):
        for co in range(cout):
            for oi in range(out_h):
                for oj in range(out_w):
                    acc = 0.0
                    for ki in range(kh):
                        for kj in range(kw):
                            for ci in range(cin):
                                acc += w[co, ci, ki, kj] * xp[b, ci, oi + ki, oj + kj]
                    out[b, co, oi, oj] = acc
            if bias is not None:
                out[b, co] += bias[co]
    return out


def naive_blockmean2x(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    b, c, h, w = x.shape
    out = np.zeros((b, c, h // 2, w // 2))
    for i in range(h // 2):
        for j in range(w // 2):
            out[:, :, i, j] = (x[:, :, 2 * i, 2 * j] + x[:, :, 2 * i, 2 * j + 1]
                               + x[:, :, 2 * i + 1, 2 * j] + x[:, :, 2 * i + 1, 2 * j + 1]) / 4.0
    return out


def naive_group_conv(x, w, bias, stride: int = 1) -> np.ndarray:
    """Regular group convolution from its defining sum.

    x: [B, K_in*N, H, W] kernel-channel-major; w: [K_out, K_in, N, k, k];
    output orientation i of kernel channel k_out is the sum over every
    (k_in, m) input plane of a conv with the (m - i) mod N bank rotated by
    i * (4/N) quarter turns.  stride 2 averages 2x2 blocks at the end.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    k_out, k_in, n, _, _ = w.shape
    batch, _, h, wd = x.shape
    out = np.zeros((batch, k_out * n, h, wd))
    for ko in range(k_out):
        for i in range(n):
            for ki in range(k_in):
                for m in range(n):
                    kernel = naive_rot90(w[ko, ki, (m - i) % n], i * (4 // n))
                    plane = x[:, ki * n + m][:, None]
                    out[:, ko * n + i] += naive_conv2d(plane, kernel[None, None])[:, 0]
            out[:, ko * n + i] += bias[ko]
    if stride == 2:
        out = naive_blockmean2x(out)
    return out


def naive_lift_conv(x, w, bias, n: int) -> np.ndarray:
    """Lifting convolution: orientation i of kernel k uses the i-rotated filter."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    k_out = w.shape[0]
    batch, _, h, wd = x.shape
    out = np.zeros((batch, k_out * n, h, wd))
    for k in range(k_out):
        for i in range(n):
            rotated = naive_rot90(w[k], i * (4 // n))
            out[:, k * n + i] = naive_conv2d(x, rotated[None])[:, 0] + bias[k]
    return out


def naive_conv_blocks(blocks: list[np.ndarray], banks: np.ndarray) -> list[np.ndarray]:
    """Cyclically indexed blocks: out_i = sum_n banks[(n - i) mod N] blocks[n].

    Accumulates one output channel at a time through explicit row dots, to
    stay structurally different from any batched-matmul implementation.
    """
    banks = np.asarray(banks, dtype=np.float64)
    n, rows, _ = banks.shape
    out = []
    for i in range(n):
        acc = np.zeros((blocks[0].shape[0], rows))
        for m in range(n):
            bank = banks[(m - i) % n]
            for o in range(rows):
                acc[:, o] += np.asarray(blocks[m], dtype=np.float64) @ bank[o]
        out.append(acc)
    return out


def naive_se_with_bn(x, w1, w2, gamma, beta, eps: float = 1e-5) -> np.ndarray:
    """Squeeze-excite with batch-norm between the two layers (stats over batch).

    The straight-line reference for what equivariant channel attention
    degenerates to when the group is trivial.
    """
    x = np.asarray(x, dtype=np.float64)
    pooled = x.mean(axis=(2, 3))                      # [B, C]
    hidden = pooled @ np.asarray(w1).T                # [B, C/r]
    mean = hidden.mean(axis=0)
    var = ((hidden - mean) ** 2).mean(axis=0)
    hidden = (hidden - mean) / np.sqrt(var + eps) * gamma + beta
    hidden = np.maximum(hidden, 0.0)
    gates = 1.0 / (1.0 + np.exp(-(hidden @ np.asarray(w2).T)))  # [B, C]
    return x * gates[:, :, None, None]
