"""Two-stage attentional feature fusion, equivariant and plain variants.

The equivariant path fuses two feature maps, each a Tensor [B, K*N, H, W]
whose N comes from the layer's attention banks, with an attention map built
from two branches sharing the cyclic-bank structure of ``reafuse.reca``:

* a global branch -- squeeze, then the two cyclic banks ([B, C, 1, 1]);
* a local branch -- the same banks applied at every spatial location
  (1x1 equivariant convolutions, batch-norm pooled over
  batch x orientation x spatial), so fine spatial detail survives.

Fusion is iterated twice: a first attention map built from x + y produces an
initial integration U, and a second, independently parameterized attention
map built from U produces the final mix.  Both mixes are convex per element,
so fusing a map with itself returns it unchanged.

``plain_iaff_forward`` is the non-equivariant control: identical two-stage
wiring, but with single full-channel MLP branches instead of orientation
banks.  It is written as its own straight-line computation (not by calling
the equivariant path with N=1) so the degenerate-group collapse can be
checked between two independent routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ShapeError
from .groupequiv import _uniform_init
from .reca import ReCAParams, attention_logits, init_reca
from .tensor import (
    Rng,
    Tensor,
    add,
    batchnorm,
    conv2d,
    global_avg_pool,
    mul,
    relu,
    reshape,
    sigmoid,
    sub,
)

__all__ = [
    "ReMParams",
    "ReAFFParams",
    "ChannelMLPParams",
    "MSCAMParams",
    "PlainIAFFParams",
    "rem_fuse",
    "reaff_forward",
    "plain_iaff_forward",
    "init_rem",
    "init_reaff",
    "init_channel_mlp",
    "init_mscam",
    "init_plain_iaff",
]


@dataclass(frozen=True)
class ReMParams:
    """One attention map's parameters: a global and a local branch.

    Both branches are ReCA-shaped banks over the same (C, N, r); the local
    one is applied pointwise with no squeeze.
    """

    global_att: ReCAParams
    local_att: ReCAParams

    def __post_init__(self):
        g, l = self.global_att.w_a.shape, self.local_att.w_a.shape
        if g != l:
            raise ShapeError(f"global and local banks must share (N, K/r, K), got {g} vs {l}")


@dataclass(frozen=True)
class ReAFFParams:
    """Independently parameterized initial-integration and final-fusion stages."""

    stage1: ReMParams
    stage2: ReMParams


def rem_fuse(x: Tensor, p: ReMParams) -> Tensor:
    """Attention map M = sigmoid(local logits + global logits), in (0,1).

    The global branch runs the banks on the pooled [B, C, 1, 1] map, the
    local branch the same pipeline, with its own banks, at every pixel
    ([B, C, H, W]); the global logits broadcast over the local ones.  M
    permutes with the group action of the input.
    """
    glob = attention_logits(global_avg_pool(x), p.global_att)
    loc = attention_logits(x, p.local_att)
    del x  # freed here when the caller passed a temporary
    return sigmoid(add(loc, glob))


def _mix(m: Tensor, x: Tensor, y: Tensor) -> Tensor:
    """m * x + (1 - m) * y; a mask passed as a temporary is freed before the
    second product."""
    one_minus = sub(1.0, m)
    mx = mul(m, x)
    del m
    my = mul(one_minus, y)
    del one_minus
    return add(mx, my)


def reaff_forward(x: Tensor, y: Tensor, p: ReAFFParams) -> Tensor:
    """Fuse x and y: U = M1(x+y) * x + (1-M1) * y, Z = M2(U) * x + (1-M2) * y.

    Jointly equivariant: fusing the transformed pair equals transforming the
    fused result.  Each stage is an elementwise convex combination, so
    reaff_forward(x, x) == x up to roundoff.
    """
    if x.shape != y.shape:
        raise ShapeError(f"cannot fuse maps of shape {x.shape} and {y.shape}")
    # One expression, so that x + y, U and both masks are temporaries, each
    # owned by the call it is passed to (CPython 3.11 and later move an
    # argument into the callee's frame): ``rem_fuse`` frees x + y or U once
    # both branches have read it, and ``_mix`` its mask before the second
    # product.
    return _mix(rem_fuse(_mix(rem_fuse(add(x, y), p.stage1), x, y), p.stage2), x, y)


# -- plain (non-equivariant) control ------------------------------------------------


@dataclass(frozen=True)
class ChannelMLPParams:
    """One full-channel bottleneck: w1 [C/r, C], w2 [C, C/r], batch-norm between."""

    w1: Tensor
    w2: Tensor
    bn_gamma: Tensor
    bn_beta: Tensor

    def __post_init__(self):
        reduced, c = self.w1.shape
        if self.w2.shape != (c, reduced):
            raise ShapeError(f"w2 shaped {self.w2.shape}, expected ({c}, {reduced})")
        if self.bn_gamma.shape != (reduced,) or self.bn_beta.shape != (reduced,):
            raise ShapeError(f"bn parameters must be shaped ({reduced},)")


@dataclass(frozen=True)
class MSCAMParams:
    global_att: ChannelMLPParams
    local_att: ChannelMLPParams


@dataclass(frozen=True)
class PlainIAFFParams:
    stage1: MSCAMParams
    stage2: MSCAMParams


def _mlp_logits(x: Tensor, p: ChannelMLPParams) -> Tensor:
    """1x1 conv -> batch-norm (stats over batch and space) -> relu -> 1x1 conv."""
    hidden = conv2d(x, reshape(p.w1, p.w1.shape + (1, 1)))
    hidden = relu(batchnorm(hidden, p.bn_gamma, p.bn_beta))
    return conv2d(hidden, reshape(p.w2, p.w2.shape + (1, 1)))


def _mscam(x: Tensor, p: MSCAMParams) -> Tensor:
    """M = sigmoid(local MLP (x) + global MLP (gap(x))).

    Frees x once both branches have read it, when the caller passed a
    temporary.
    """
    loc = _mlp_logits(x, p.local_att)
    glob = _mlp_logits(global_avg_pool(x), p.global_att)
    del x
    return sigmoid(add(loc, glob))


def _plain_mix(m: Tensor, x: Tensor, y: Tensor) -> Tensor:
    """m * x + (1 - m) * y, freeing a temporary mask before the second product.

    Not shared with ``reaff_forward``'s ``_mix``, so that the two routes the
    N = 1 collapse compares stay independent.
    """
    one_minus = sub(1.0, m)
    mx = mul(m, x)
    del m
    my = mul(one_minus, y)
    del one_minus
    return add(mx, my)


def plain_iaff_forward(x: Tensor, y: Tensor, p: PlainIAFFParams) -> Tensor:
    """Two-stage fusion with ordinary (orientation-blind) channel attention.

    Same wiring as reaff_forward; breaks rotation equivariance on generic
    weights because the full [C/r, C] mixes ignore the orientation layout.
    """
    if x.shape != y.shape:
        raise ShapeError(f"cannot fuse tensors of shape {x.shape} and {y.shape}")
    # one expression, so that every full-size intermediate is a temporary
    # freed by the call it is passed to, as in reaff_forward
    return _plain_mix(_mscam(_plain_mix(_mscam(add(x, y), p.stage1), x, y), p.stage2), x, y)


# -- initializers --------------------------------------------------------------------


def init_rem(rng: Rng, channels: int, n: int, r: int) -> ReMParams:
    return ReMParams(
        global_att=init_reca(rng.derive("global"), channels, n, r),
        local_att=init_reca(rng.derive("local"), channels, n, r),
    )


def init_reaff(rng: Rng, channels: int, n: int, r: int) -> ReAFFParams:
    return ReAFFParams(
        stage1=init_rem(rng.derive("stage1"), channels, n, r),
        stage2=init_rem(rng.derive("stage2"), channels, n, r),
    )


def init_channel_mlp(rng: Rng, channels: int, r: int) -> ChannelMLPParams:
    if r < 1 or channels % r:
        raise ShapeError(f"channel count {channels} not divisible by reduction r={r}")
    reduced = channels // r
    return ChannelMLPParams(
        w1=_uniform_init(rng, (reduced, channels), channels),
        w2=_uniform_init(rng, (channels, reduced), reduced),
        bn_gamma=Tensor(np.ones(reduced)),
        bn_beta=Tensor(np.zeros(reduced)),
    )


def init_mscam(rng: Rng, channels: int, r: int) -> MSCAMParams:
    return MSCAMParams(
        global_att=init_channel_mlp(rng.derive("global"), channels, r),
        local_att=init_channel_mlp(rng.derive("local"), channels, r),
    )


def init_plain_iaff(rng: Rng, channels: int, r: int) -> PlainIAFFParams:
    return PlainIAFFParams(
        stage1=init_mscam(rng.derive("stage1"), channels, r),
        stage2=init_mscam(rng.derive("stage2"), channels, r),
    )
