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
applies it by one 1x1 conv2d, directly in feature-map channel order: to the
pooled [B, C, 1, 1] map when squeezed, to the [B, C, H, W] map per pixel.
The index rule above is written once, in ``groupequiv``.

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
    mul,
    relu,
    reshape,
    sigmoid,
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
    """Apply an [N, out, in] bank along the channel axis of a [B, in*N, H, W] map.

    ``x`` is in feature-map channel order (channel k*N + m); the result has
    out*N channels in the same order.  Read as [out, in, N], the bank is the
    weight of a 1x1 group convolution, so the group-conv gather expands it
    into the [out*N, in*N, 1, 1] kernel whose entry (r*N + i, k*N + m) is
    banks[(m - i) mod N, r, k], and one 1x1 conv2d applies that kernel.  The
    gather reads the bank where it is stored, in [N, out, in] order, so the
    kernel is a pure copy of it and no transpose runs.  A squeezed input is
    the [B, in*N, 1, 1] map ``global_avg_pool`` returns.
    """
    n, rows, cols = banks.shape
    stored = np.arange(banks.size).reshape(n, rows, cols).transpose(1, 2, 0).reshape(-1)
    return conv2d(x, _gather(banks, stored[_kernel_index(rows, cols, n, n, 1)]))


def _shared_batchnorm(x: Tensor, n: int, gamma: Tensor, beta: Tensor) -> Tensor:
    """Batch-norm with statistics pooled over batch x orientations (x spatial).

    ``x`` is [B, R*N, H, W] in feature-map channel order.
    All N orientation copies of a reduced channel share one gamma/beta, so an
    orientation shift (a permutation inside each group of N) permutes the
    outputs without changing any value.  They also share one mean/var:
    per-channel statistics would permute along with the channels only when
    one group element acts on the whole batch, and would break under a
    per-sample action.
    """
    b, c, *space = x.shape
    return reshape(batchnorm(reshape(x, [b, c // n, n] + space), gamma, beta), x.shape)


def attention_logits(x: Tensor, p: ReCAParams) -> Tensor:
    """Pre-sigmoid attention logits of a [B, C, H, W] map, in its channel layout.

    Pipeline: block-circulant kernel of ``w_a`` -> shared batch-norm -> relu
    -> block-circulant kernel of ``w_b``, each kernel a 1x1 conv2d over the
    whole channel axis, so the logits have the input's shape.  ReCA and
    ReAFF's global branch pass ``global_avg_pool`` of a map ([B, C, 1, 1]);
    ReAFF's local branch passes the map itself.  The first bank's conv2d
    rejects a map whose channel count is not the banks' K*N.
    """
    h = cyclic_blocks(x, p.w_a)
    h = relu(_shared_batchnorm(h, p.orientations, p.bn_gamma, p.bn_beta))
    return cyclic_blocks(h, p.w_b)


def reca_forward(x: Tensor, p: ReCAParams) -> Tensor:
    """Gate a feature map with equivariant channel attention.

    Output = x * sigmoid(logits), the [B, C, 1, 1] gates broadcasting over
    space.  Commutes with g_act; at N=1 it degenerates to a squeeze-excite
    with batch-norm.
    """
    return mul(x, sigmoid(attention_logits(global_avg_pool(x), p)))


def se_forward(x: Tensor, p: SEParams) -> Tensor:
    """Plain squeeze-excite: x * sigmoid(W2 relu(W1 gap(x))).

    No orientation structure and no batch-norm; the non-equivariant control.
    W1 and W2 run as 1x1 conv2ds of the pooled [B, C, 1, 1] map, as the
    plain-iAFF control's channel MLPs do.
    """
    hidden = relu(conv2d(global_avg_pool(x), reshape(p.w1, p.w1.shape + (1, 1))))
    return mul(x, sigmoid(conv2d(hidden, reshape(p.w2, p.w2.shape + (1, 1)))))


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
