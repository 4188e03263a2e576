"""Rotation-equivariant channel attention, plus the plain SE baseline.

A feature map is a Tensor [B, K*N, H, W]; N comes from the layer, here the
first axis of the attention banks.  The equivariant attention squeezes a
feature map to per-channel descriptors and runs them through two banks of
cyclically weight-shared 1x1 weights, CB^a (reduction) and CB^b
(expansion).  Call the channels
{k*N + n : k} orientation block n; output block i of a bank is

    CB_i = sum_n  W_{(n-i) mod N} (block n)

i.e. output block i applies bank (n - i) mod N to input block n and sums.
This indexing is the whole trick: shifting the input orientations by s
re-indexes the output blocks by i -> (i - s) mod N instead of changing their
values, so after batch-norm (statistics pooled over batch x blocks, one
gamma/beta per reduced channel), relu, a second bank, and a sigmoid, the
attention weights permute together with the feature channels and the gating
commutes with the group action.

A bank is a 1x1 regular C_N group convolution (Cohen & Welling, arXiv
1602.07576): the k = 1 case of ``groupequiv.group_conv``, whose filter
rotations are all the identity, so its expanded kernel is one
block-circulant matrix over the whole channel axis.  ``cyclic_blocks``
expands a bank by the group-conv gather, ``groupequiv._kernel_index``, and
applies it by a single matmul (squeezed) or 1x1 conv2d (per pixel),
directly in feature-map channel order.  The index rule above is written
once, in ``groupequiv``.

``se_forward`` is the deliberate control: an ordinary squeeze-excite whose
full channel-mixing weights ignore orientation structure and therefore break
equivariance on generic weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ShapeError
from .groupequiv import _gather, _kernel_index, _uniform_init
from .tensor import (
    Rng,
    Tensor,
    batchnorm,
    conv2d,
    global_avg_pool,
    matmul,
    mul,
    relu,
    reshape,
    sigmoid,
    transpose,
)

__all__ = [
    "ReCAParams",
    "SEParams",
    "cyclic_blocks",
    "attention_logits",
    "reca_forward",
    "se_forward",
    "init_reca",
    "init_se",
]


@dataclass(frozen=True)
class ReCAParams:
    """N-banked 1x1 attention weights with shared batch-norm parameters.

    ``w_a``: [N, (C/N)/r, C/N] reduction banks; ``w_b``: [N, C/N, (C/N)/r]
    expansion banks; ``bn_gamma``/``bn_beta``: [(C/N)/r], one pair shared by
    all N blocks.  Sharing gamma/beta is what the shift covariance needs; see
    ``_shared_batchnorm`` for the statistics.

    Only the N distinct banks are stored.  Read as [out, in, N], a bank is
    the weight of a 1x1 group convolution; at use the group-conv gather
    expands it into the [out*N, in*N] block-circulant matrix whose block
    (i, m) is bank[(m - i) mod N].
    """

    w_a: Tensor
    w_b: Tensor
    bn_gamma: Tensor
    bn_beta: Tensor

    def __post_init__(self):
        if self.w_a.ndim != 3 or self.w_b.ndim != 3:
            raise ShapeError(
                f"attention banks need 3 axes, got {self.w_a.shape} and {self.w_b.shape}"
            )
        n, reduced, k = self.w_a.shape
        if self.w_b.shape != (n, k, reduced):
            raise ShapeError(
                f"expansion banks shaped {self.w_b.shape}, expected ({n}, {k}, {reduced})"
            )
        if reduced < 1 or k % reduced:
            raise ShapeError(f"kernel channel axis {k} not a multiple of reduced axis {reduced}")
        if self.bn_gamma.shape != (reduced,) or self.bn_beta.shape != (reduced,):
            raise ShapeError(
                f"bn parameter shapes {self.bn_gamma.shape}/{self.bn_beta.shape} != ({reduced},)"
            )

    @property
    def orientations(self) -> int:
        return self.w_a.shape[0]


@dataclass(frozen=True)
class SEParams:
    """Plain squeeze-excite weights: ``w1``: [C/r, C], ``w2``: [C, C/r]."""

    w1: Tensor
    w2: Tensor

    def __post_init__(self):
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ShapeError(f"SE weights need 2 axes, got {self.w1.shape} and {self.w2.shape}")
        reduced, c = self.w1.shape
        if self.w2.shape != (c, reduced):
            raise ShapeError(f"w2 shaped {self.w2.shape}, expected ({c}, {reduced})")


def cyclic_blocks(x: Tensor, banks: Tensor) -> Tensor:
    """Apply an [N, out, in] bank along the channel axis of ``x``.

    ``x`` is [B, in*N] or [B, in*N, H, W] in feature-map channel order
    (channel k*N + m); the result has out*N channels in the same order.
    Read as [out, in, N], the bank is the weight of a 1x1 group convolution,
    so the group-conv gather expands it into the [out*N, in*N, 1, 1] kernel
    whose entry (r*N + i, k*N + m) is banks[(m - i) mod N, r, k].  That
    kernel is applied by one 1x1 conv2d to 4-D inputs and, with its 1x1
    axes reshaped away, by one matmul to 2-D inputs.
    """
    n, rows, cols = banks.shape
    kernel = _gather(transpose(banks, (1, 2, 0)), _kernel_index(rows, cols, n, n, 1))
    if x.ndim == 2:
        return matmul(x, transpose(reshape(kernel, (rows * n, cols * n)), (1, 0)))
    if x.ndim == 4:
        return conv2d(x, kernel)
    raise ShapeError(f"cyclic_blocks: input must have 2 or 4 axes, got {x.shape}")


def _shared_batchnorm(x: Tensor, n: int, gamma: Tensor, beta: Tensor) -> Tensor:
    """Batch-norm with statistics pooled over batch x orientations (x spatial).

    ``x`` is [B, R*N] or [B, R*N, H, W] in feature-map channel order.
    All N orientation copies of a reduced channel share one gamma/beta, so an
    orientation shift (a permutation inside each group of N) permutes the
    outputs without changing any value.  They also share one mean/var, but
    that is a design choice, not an equivariance requirement: per-channel
    statistics permute along with the channels, so they commute with the
    shift as well.
    """
    b, c, *space = x.shape
    return reshape(batchnorm(reshape(x, [b, c // n, n] + space), gamma, beta), x.shape)


def attention_logits(x: Tensor, p: ReCAParams, squeeze: bool = True) -> Tensor:
    """Pre-sigmoid attention logits in feature-map channel layout.

    Pipeline: (squeeze) -> block-circulant matrix of ``w_a`` -> shared
    batch-norm -> relu -> block-circulant matrix of ``w_b``, each matrix
    applied to the whole channel axis at once.  With ``squeeze`` the result
    is [B, C, 1, 1]; without it the same matrices run at every spatial
    location (1x1 convolutions) and the result is [B, C, H, W].  The first
    bank's matmul or conv2d rejects a map whose channel count is not the
    banks' K*N.
    """
    b, c = x.shape[0], x.shape[1]
    h = reshape(global_avg_pool(x), (b, c)) if squeeze else x
    h = cyclic_blocks(h, p.w_a)
    h = relu(_shared_batchnorm(h, p.orientations, p.bn_gamma, p.bn_beta))
    h = cyclic_blocks(h, p.w_b)
    return reshape(h, (b, c, 1, 1)) if squeeze else h


def reca_forward(x: Tensor, p: ReCAParams) -> Tensor:
    """Gate a feature map with equivariant channel attention.

    Output = x * sigmoid(logits), the [B, C, 1, 1] gates broadcasting over
    space.  Commutes with g_act; at N=1 it degenerates to a squeeze-excite
    with batch-norm.
    """
    return mul(x, sigmoid(attention_logits(x, p, squeeze=True)))


def se_forward(x: Tensor, p: SEParams) -> Tensor:
    """Plain squeeze-excite: x * sigmoid(W2 relu(W1 gap(x))).

    No orientation structure and no batch-norm; the non-equivariant control.
    """
    b, c = x.shape[0], x.shape[1]
    if p.w1.shape[1] != c:
        raise ShapeError(f"SE weights expect {p.w1.shape[1]} channels, input has {c}")
    pooled = reshape(global_avg_pool(x), (b, c))
    hidden = relu(matmul(pooled, transpose(p.w1, (1, 0))))
    gates = sigmoid(matmul(hidden, transpose(p.w2, (1, 0))))
    return mul(x, reshape(gates, (b, c, 1, 1)))


def init_reca(rng: Rng, channels: int, n: int, r: int) -> ReCAParams:
    """Seeded He-uniform weight init; gamma=1, beta=0."""
    if channels % n:
        raise ShapeError(f"channel count {channels} not divisible by {n} orientations")
    k = channels // n
    if r < 1 or k % r:
        raise ShapeError(f"kernel channel axis {k} not divisible by reduction r={r}")
    reduced = k // r
    return ReCAParams(
        w_a=_uniform_init(rng, (n, reduced, k), n * k),
        w_b=_uniform_init(rng, (n, k, reduced), n * reduced),
        bn_gamma=Tensor(np.ones(reduced)),
        bn_beta=Tensor(np.zeros(reduced)),
    )


def init_se(rng: Rng, channels: int, r: int) -> SEParams:
    if r < 1 or channels % r:
        raise ShapeError(f"channel count {channels} not divisible by reduction r={r}")
    reduced = channels // r
    return SEParams(
        w1=_uniform_init(rng, (reduced, channels), channels),
        w2=_uniform_init(rng, (channels, reduced), reduced),
    )
