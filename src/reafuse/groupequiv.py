"""Cyclic-group (C_N) equivariant feature maps and convolutions.

A *re-feature map* is a [B, K*N, H, W] tensor whose channel axis factors into
K kernel channels times N orientation channels, laid out kernel-channel-major:
channel index ``c = k*N + n``.  The group element ``s`` acts by rotating the
spatial axes ``s * (4/N)`` quarter-turns counter-clockwise AND cyclically
shifting the orientation index ``n -> (n + s) mod N`` inside every kernel
channel.  Every op in this module commutes with that action; the residual
helper at the bottom is how all equivariance tests measure failure.

Only N in {1, 2, 4} is supported: those are the cyclic groups whose filter
rotation is an exact pixel permutation.  N=1 degenerates to ordinary
convolution, bit-for-bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .tensor import (
    Rng,
    ShapeError,
    Tensor,
    blockmean2x,
    conv2d,
    reshape,
    rot90,
    take,
)

__all__ = [
    "ReFeatureMap",
    "LiftConvParams",
    "GroupConvParams",
    "g_act",
    "lift_conv",
    "group_conv",
    "init_lift_conv",
    "init_group_conv",
    "relative_residual",
]

SUPPORTED_ORIENTATIONS = (1, 2, 4)


@dataclass(frozen=True)
class ReFeatureMap:
    """Feature tensor with (kernel-channel x orientation) channel structure."""

    data: Tensor
    kernel_channels: int
    orientations: int

    def __post_init__(self):
        if self.orientations not in SUPPORTED_ORIENTATIONS:
            raise ShapeError(
                f"orientation count {self.orientations} not in {SUPPORTED_ORIENTATIONS}"
            )
        if self.data.ndim != 4:
            raise ShapeError(f"re-feature map needs 4 axes, got shape {self.data.shape}")
        expected = self.kernel_channels * self.orientations
        if self.data.shape[1] != expected:
            raise ShapeError(
                f"channel axis extent {self.data.shape[1]} != kernel_channels * "
                f"orientations = {self.kernel_channels} * {self.orientations}"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def channels(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LiftConvParams:
    """First-layer weights mapping a plain image into a re-feature map.

    ``weight``: [K_out, C_in, k, k]; ``bias``: [K_out], shared across the N
    orientation copies (per-orientation bias would break equivariance).
    """

    weight: Tensor
    bias: Tensor

    def __post_init__(self):
        if self.weight.ndim != 4:
            raise ShapeError(f"lift weight needs 4 axes, got {self.weight.shape}")
        k_out, _, kh, kw = self.weight.shape
        if kh != kw or kh % 2 == 0:
            raise ShapeError(f"lift kernel must be square and odd, got {kh}x{kw}")
        if self.bias.shape != (k_out,):
            raise ShapeError(f"lift bias shape {self.bias.shape} != ({k_out},)")


@dataclass(frozen=True)
class GroupConvParams:
    """Regular group-convolution weights.

    ``weight``: [K_out, K_in, N, k, k], indexed by relative orientation;
    ``bias``: [K_out], shared across orientations.
    """

    weight: Tensor
    bias: Tensor

    def __post_init__(self):
        if self.weight.ndim != 5:
            raise ShapeError(f"group weight needs 5 axes, got {self.weight.shape}")
        k_out, _, n, kh, kw = self.weight.shape
        if n not in SUPPORTED_ORIENTATIONS:
            raise ShapeError(f"orientation count {n} not in {SUPPORTED_ORIENTATIONS}")
        if kh != kw or kh % 2 == 0:
            raise ShapeError(f"group kernel must be square and odd, got {kh}x{kw}")
        if self.bias.shape != (k_out,):
            raise ShapeError(f"group bias shape {self.bias.shape} != ({k_out},)")

    @property
    def orientations(self) -> int:
        return self.weight.shape[2]


def g_act(x: ReFeatureMap, s: int) -> ReFeatureMap:
    """Apply group element ``s``: spatial rotation plus orientation shift.

    Satisfies the composition law g_act(g_act(x, a), b) == g_act(x, (a+b) mod N)
    bit-exactly, because both parts are pure index permutations.
    """
    n = x.orientations
    if not 0 <= s < n:
        raise ValueError(f"group element {s} out of range for {n} orientations")
    b, c, h, w = x.shape
    if h != w:
        raise ShapeError(f"group action needs square spatial axes, got {h}x{w}")
    rotated = rot90(x.data, s * (4 // n))
    perm = [k * n + (m - s) % n for k in range(x.kernel_channels) for m in range(n)]
    shifted = take(rotated, perm, axis=1)
    return ReFeatureMap(shifted, x.kernel_channels, n)


def _orientation_shared_bias(bias: Tensor, n: int) -> Tensor:
    """[K] -> [K*N] replicating each kernel channel's bias across orientations."""
    k_out = bias.shape[0]
    return take(bias, np.repeat(np.arange(k_out), n), axis=0)


def _gather(weight: Tensor, index: np.ndarray) -> Tensor:
    """One ``take`` on the flattened weight, reshaped to ``index.shape``."""
    flat = take(reshape(weight, (weight.size,)), index.reshape(-1), axis=0)
    return reshape(flat, index.shape)


@functools.lru_cache(maxsize=None)
def _kernel_index(k_out: int, k_in: int, n_in: int, n: int, k: int) -> np.ndarray:
    """Flat-weight positions of an expanded [K_out*N, K_in*n_in, k, k] kernel.

    Entry (k_out*N + i, k_in*n_in + m, a, b) is where
    rot90(weight[k_out, k_in, (m - i) mod n_in], i*(4/N))[a, b] sits in the
    flattened [K_out, K_in, n_in, k, k] weight.  A group conv has n_in = N; a
    lift has n_in = 1, since a plain image carries no orientation axis.  A
    ReCA attention bank is the group conv with k = 1, where every rotation
    is the identity.  This is the one place outside ``naive`` that encodes
    the C_N weight-sharing rule (m - i) mod N.  Derived from shapes only,
    so the cache can never hold stale weights.
    """
    pos = np.arange(k_out * k_in * n_in * k * k).reshape(k_out, k_in, n_in, k, k)
    copies = [
        np.rot90(pos[:, :, [(m - i) % n_in for m in range(n_in)]], i * (4 // n), axes=(-2, -1))
        for i in range(n)
    ]
    index = np.stack(copies, axis=1).reshape(k_out * n, k_in * n_in, k, k)
    index.flags.writeable = False
    return index


def lift_conv(x: Tensor, p: LiftConvParams, n: int) -> ReFeatureMap:
    """Convolve a plain image with N rotated copies of each filter.

    Orientation i of kernel channel k is conv2d(x, rot90(weight[k], i*(4/N)))
    + bias[k].  The N rotated copies are one gather of the weight into a
    [K_out*N, C_in, k, k] kernel (a pure copy, so bit-identical to rotating
    and stacking), applied by one conv2d call; for N=1 this reduces to plain
    conv2d, bit-for-bit.
    """
    if n not in SUPPORTED_ORIENTATIONS:
        raise ShapeError(f"orientation count {n} not in {SUPPORTED_ORIENTATIONS}")
    k_out, c_in, kh, _ = p.weight.shape
    big = _gather(p.weight, _kernel_index(k_out, c_in, 1, n, kh))
    out = conv2d(x, big, _orientation_shared_bias(p.bias, n))
    return ReFeatureMap(out, k_out, n)


def group_conv(x: ReFeatureMap, p: GroupConvParams, stride: int = 1) -> ReFeatureMap:
    """Regular group convolution on a re-feature map.

    out[k_out, i] = sum over (k_in, m) of
        conv2d(x[k_in, m], rot90(weight[k_out, k_in, (m - i) mod N], i*(4/N)))
    plus bias[k_out].  The relative-orientation indexing plus filter rotation
    is what makes the map commute with g_act.

    Seen as one matrix over the orientation axis the kernel is
    block-circulant up to the filter rotations: one gather of the weight
    builds the whole [K_out*N, K_in*N, k, k] kernel, and one conv2d call
    applies it.  A gather is a pure copy, so N=1 equals plain conv2d
    bit-exact.

    stride=2 downsamples by averaging 2x2 blocks of the full-resolution
    output (requires even H, W).  A strided sampling lattice is NOT used: on
    an even grid rotation swaps pixel parities, so lattice subsampling cannot
    commute with rot90, while the 2x2 block partition is rotation-stable.
    """
    n = p.orientations
    if x.orientations != n:
        raise ShapeError(
            f"orientation count mismatch: feature map has {x.orientations}, "
            f"params expect {n}"
        )
    if stride not in (1, 2):
        raise ShapeError(f"group_conv: stride {stride} not in (1, 2)")
    k_out, k_in, _, kh, _ = p.weight.shape
    big = _gather(p.weight, _kernel_index(k_out, k_in, n, n, kh))
    out = conv2d(x.data, big, _orientation_shared_bias(p.bias, n))
    if stride == 2:
        out = blockmean2x(out)
    return ReFeatureMap(out, k_out, n)


# Uniform(-sqrt(6/fan_in), +sqrt(6/fan_in)): variance 2/fan_in, which keeps
# activation magnitudes roughly constant through relu networks.  Desk-scale
# breakage measurements need O(1) activations: with smaller weights the
# squeeze values collapse toward zero, non-equivariant gates flatten to ~0.5,
# and the deliberate equivariance violations become too small to observe.
_INIT_GAIN = np.sqrt(6.0)


def _uniform_init(rng: Rng, shape, fan_in: int) -> Tensor:
    bound = _INIT_GAIN / np.sqrt(fan_in)
    return Tensor(rng.uniform(shape, -bound, bound), requires_grad=True)


def init_lift_conv(rng: Rng, k_out: int, c_in: int, kernel_size: int = 3) -> LiftConvParams:
    fan_in = c_in * kernel_size * kernel_size
    weight = _uniform_init(rng, (k_out, c_in, kernel_size, kernel_size), fan_in)
    return LiftConvParams(weight=weight, bias=Tensor(np.zeros(k_out), requires_grad=True))


def init_group_conv(rng: Rng, k_out: int, k_in: int, n: int, kernel_size: int = 3) -> GroupConvParams:
    fan_in = k_in * n * kernel_size * kernel_size
    weight = _uniform_init(rng, (k_out, k_in, n, kernel_size, kernel_size), fan_in)
    return GroupConvParams(weight=weight, bias=Tensor(np.zeros(k_out), requires_grad=True))


def relative_residual(got, want) -> float:
    """Relative Frobenius distance ||got - want|| / max(||got||, ||want||).

    The primary equivariance metric: compare f(g_act(x)) against
    g_act(f(x)).  Accepts ReFeatureMap, Tensor, or ndarray.  Returns 0 for
    two all-zero operands.
    """
    a = _as_array(got)
    b = _as_array(want)
    if a.shape != b.shape:
        raise ShapeError(f"residual of mismatched shapes {a.shape} and {b.shape}")
    scale = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()))
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm((a - b).ravel()) / scale)


def _as_array(x) -> np.ndarray:
    if isinstance(x, ReFeatureMap):
        return x.data.data
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)
