"""Two-stage attentional feature fusion, equivariant and plain variants.

The equivariant path fuses two re-feature maps with an attention map built
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

from .groupequiv import ReFeatureMap, _uniform_init
from .reca import ReCAParams, attention_logits, init_reca
from .tensor import (
    Rng,
    ShapeError,
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
        g, l = self.global_att, self.local_att
        if (g.orientations, g.kernel_channels, g.r) != (l.orientations, l.kernel_channels, l.r):
            raise ShapeError(
                "global and local branches must share (C, N, r), got "
                f"({g.channels}, {g.orientations}, {g.r}) vs ({l.channels}, {l.orientations}, {l.r})"
            )

    @property
    def tensors(self) -> tuple[Tensor, ...]:
        return self.global_att.tensors + self.local_att.tensors


@dataclass(frozen=True)
class ReAFFParams:
    """Independently parameterized initial-integration and final-fusion stages."""

    stage1: ReMParams
    stage2: ReMParams

    @property
    def tensors(self) -> tuple[Tensor, ...]:
        return self.stage1.tensors + self.stage2.tensors


def rem_fuse(x: ReFeatureMap, p: ReMParams) -> Tensor:
    """Attention map M = sigmoid(local logits + global logits), in (0,1).

    The local branch runs the global branch's pipeline, with its own banks,
    at every pixel ([B, C, H, W]); the global [B, C, 1, 1] logits broadcast
    over it.  M permutes with the group action of the input.
    """
    glob = attention_logits(x, p.global_att, squeeze=True)
    loc = attention_logits(x, p.local_att, squeeze=False)
    return sigmoid(add(loc.data, glob.data))


def _check_fusable(x: ReFeatureMap, y: ReFeatureMap):
    if x.orientations != y.orientations or x.shape != y.shape:
        raise ShapeError(
            f"cannot fuse maps of shape {x.shape} (N={x.orientations}) "
            f"and {y.shape} (N={y.orientations})"
        )


def reaff_forward(x: ReFeatureMap, y: ReFeatureMap, p: ReAFFParams) -> ReFeatureMap:
    """Fuse x and y: U = M1(x+y) * x + (1-M1) * y, Z = M2(U) * x + (1-M2) * y.

    Jointly equivariant: fusing the transformed pair equals transforming the
    fused result.  Each stage is an elementwise convex combination, so
    reaff_forward(x, x) == x up to roundoff.
    """
    _check_fusable(x, y)
    k, n = x.kernel_channels, x.orientations
    m1 = rem_fuse(ReFeatureMap(add(x.data, y.data), k, n), p.stage1)
    u = add(mul(m1, x.data), mul(sub(1.0, m1), y.data))
    del m1  # a forward-only pass frees each full-size map once it is used
    m2 = rem_fuse(ReFeatureMap(u, k, n), p.stage2)
    del u
    z = add(mul(m2, x.data), mul(sub(1.0, m2), y.data))
    return ReFeatureMap(z, k, n)


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

    @property
    def tensors(self) -> tuple[Tensor, ...]:
        return (self.w1, self.w2, self.bn_gamma, self.bn_beta)


@dataclass(frozen=True)
class MSCAMParams:
    global_att: ChannelMLPParams
    local_att: ChannelMLPParams

    @property
    def tensors(self) -> tuple[Tensor, ...]:
        return self.global_att.tensors + self.local_att.tensors


@dataclass(frozen=True)
class PlainIAFFParams:
    stage1: MSCAMParams
    stage2: MSCAMParams

    @property
    def tensors(self) -> tuple[Tensor, ...]:
        return self.stage1.tensors + self.stage2.tensors


def _mlp_logits(x: Tensor, p: ChannelMLPParams) -> Tensor:
    """1x1 conv -> batch-norm (stats over batch and space) -> relu -> 1x1 conv."""
    hidden = conv2d(x, reshape(p.w1, p.w1.shape + (1, 1)))
    hidden = relu(batchnorm(hidden, p.bn_gamma, p.bn_beta, reduce_axes=(0, 2, 3)))
    return conv2d(hidden, reshape(p.w2, p.w2.shape + (1, 1)))


def _mscam(x: Tensor, p: MSCAMParams) -> Tensor:
    """M = sigmoid(local MLP (x) + global MLP (gap(x)))."""
    return sigmoid(add(_mlp_logits(x, p.local_att), _mlp_logits(global_avg_pool(x), p.global_att)))


def plain_iaff_forward(x: Tensor, y: Tensor, p: PlainIAFFParams) -> Tensor:
    """Two-stage fusion with ordinary (orientation-blind) channel attention.

    Same wiring as reaff_forward; breaks rotation equivariance on generic
    weights because the full [C/r, C] mixes ignore the orientation layout.
    """
    if x.shape != y.shape:
        raise ShapeError(f"cannot fuse tensors of shape {x.shape} and {y.shape}")
    m1 = _mscam(add(x, y), p.stage1)
    u = add(mul(m1, x), mul(sub(1.0, m1), y))
    del m1  # a forward-only pass frees each full-size map once it is used
    m2 = _mscam(u, p.stage2)
    del u
    return add(mul(m2, x), mul(sub(1.0, m2), y))


# -- initializers --------------------------------------------------------------------


def init_rem(rng: Rng, channels: int, n: int, r: int | None = None) -> ReMParams:
    return ReMParams(
        global_att=init_reca(rng.derive("global"), channels, n, r),
        local_att=init_reca(rng.derive("local"), channels, n, r),
    )


def init_reaff(rng: Rng, channels: int, n: int, r: int | None = None) -> ReAFFParams:
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
        bn_gamma=Tensor(np.ones(reduced), requires_grad=True),
        bn_beta=Tensor(np.zeros(reduced), requires_grad=True),
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
