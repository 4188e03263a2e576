"""Cyclic-group (C_N) equivariant feature maps and convolutions.

A feature map is a Tensor [B, K*N, H, W]; N comes from the layer.  Its
channel axis factors into K kernel channels times N orientation channels,
laid out kernel-channel-major: channel index ``c = k*N + n``.  Every layer
that needs N reads it from its own weights (a group conv from its weight's
axis 2), and ``g_act`` takes it as an argument.  The group element ``s``
acts by rotating the spatial axes ``s * (4/N)`` quarter-turns
counter-clockwise AND cyclically shifting the orientation index
``n -> (n + s) mod N`` inside every kernel channel, as ``_action_index``
alone states it for feature maps, filters, attention banks and biases.
Every op in this module commutes with that action; the residual helper at
the bottom is how all equivariance tests measure failure.

A lift is the group convolution with one input orientation: a plain image
carries no orientation axis, so its weight is a ``GroupConvParams`` with
n_in = 1, and ``lift_conv`` and ``group_conv`` expand and apply their weights
by the same step.

Only what rotates pixels needs N in {1, 2, 4}, the cyclic groups whose
rotation is an exact pixel permutation: ``g_act``, ``lift_conv`` and group
convolutions with k > 1 check it through ``quarter_turns``.  A 1x1 group
convolution and the attention built on it act on orientations only by a
cyclic shift, so they take any N >= 1.  N=1 degenerates to ordinary
convolution, bit-for-bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import ShapeError, quarter_turns
from .tensor import (
    Rng,
    Tensor,
    conv2d,
    reshape,
    take,
)

__all__ = [
    "GroupConvParams",
    "g_act",
    "lift_conv",
    "group_conv",
    "init_group_conv",
    "relative_residual",
]


@dataclass(frozen=True)
class GroupConvParams:
    """Regular group-convolution weights, for a lift and a group conv alike.

    ``weight``: [K_out, K_in, n_in, k, k], axis 2 indexed by relative input
    orientation: n_in = N for a group conv, n_in = 1 for a lift, whose K_in
    is the image's channel count.  ``bias``: [K_out], shared across the N
    output orientations (a per-orientation bias would break equivariance).
    """

    weight: Tensor
    bias: Tensor

    def __post_init__(self):
        if self.weight.ndim != 5:
            raise ShapeError(f"group weight needs 5 axes, got {self.weight.shape}")
        k_out, _, _, kh, kw = self.weight.shape
        if kh != kw or kh % 2 == 0:
            raise ShapeError(f"group kernel must be square and odd, got {kh}x{kw}")
        if self.bias.shape != (k_out,):
            raise ShapeError(f"group bias shape {self.bias.shape} != ({k_out},)")


def _action_index(channels: int, n: int, size: int, turns: int, s: int) -> np.ndarray:
    """The flat permutation element ``s`` of C_N applies to a [channels, size, size] array:
    its pixels turn ``s * turns`` quarter turns, and orientation m of each kernel channel
    reads orientation (m - s) mod N.  The one statement of the action outside ``naive``."""
    pos = np.arange(channels * size * size).reshape(channels // n, n, size, size)
    return np.rot90(np.roll(pos, s, axis=1), s * turns, axes=(2, 3)).reshape(-1)


def g_act(x: Tensor, s: int, n: int) -> Tensor:
    """Apply element ``s`` of C_N: spatial rotation plus orientation shift.

    The one check of the feature-map layout: 4 axes, square spatial axes,
    and a channel count that is a multiple of N.  Satisfies the composition
    law g_act(g_act(x, a, n), b, n) == g_act(x, (a+b) mod N, n) bit-exactly,
    because the action is a pure index permutation.
    """
    turns = quarter_turns(n)
    if not 0 <= s < n:
        raise ValueError(f"group element {s} out of range for {n} orientations")
    if x.ndim != 4 or x.shape[1] % n or x.shape[2] != x.shape[3]:
        raise ShapeError(
            f"feature map shaped {x.shape} is not [B, K*N, H, H] for N = {n}: it needs "
            f"4 axes, square spatial axes and a channel count that is a multiple of N"
        )
    b, c, h, _ = x.shape
    flat = take(reshape(x, (b, c * h * h)), _action_index(c, n, h, turns, s), axis=1)
    return reshape(flat, x.shape)


def _gather(weight: Tensor, index: np.ndarray) -> Tensor:
    """One ``take`` on the flattened weight, reshaped to ``index.shape``."""
    flat = take(reshape(weight, (weight.size,)), index.reshape(-1), axis=0)
    return reshape(flat, index.shape)


@functools.lru_cache(maxsize=None)
def _kernel_index(k_out: int, k_in: int, n_in: int, n: int, k: int) -> np.ndarray:
    """Flat-weight positions of an expanded [K_out*N, K_in*n_in, k, k] kernel.

    Entry (k_out*N + i, k_in*n_in + m, a, b) is where
    rot90(weight[k_out, k_in, (m - i) mod n_in], i*(4/N))[a, b] sits in the
    flattened [K_out, K_in, n_in, k, k] weight, the ``GroupConvParams``
    layout: copy i holds the filters acted on by element i.  A group conv has
    n_in = N; a lift has n_in = 1, as a plain image has no orientation axis;
    a ReCA bank has k = 1, and a [K_out] bias is the 1x1 lift with k_in = 1.
    Derived from shapes only, so the cache can never hold stale weights.
    A 1x1 filter is its own rotation, so only k > 1 needs N to divide 4;
    every k needs N >= 1.
    """
    turns = quarter_turns(n) if k > 1 else 0
    if n < 1:
        raise ShapeError(f"orientation count must be at least 1, got {n}")
    copies = [_action_index(k_out * k_in * n_in, n_in, k, turns, i).reshape(k_out, -1)
              for i in range(n)]
    index = np.stack(copies, axis=1).reshape(k_out * n, k_in * n_in, k, k)
    index.flags.writeable = False
    return index


def _expand_conv(x: Tensor, p: GroupConvParams, n: int, blockmean: bool = False) -> Tensor:
    """One gather of the weight into its expanded kernel, applied by one conv2d."""
    k_out, k_in, n_in, kh, _ = p.weight.shape
    big = _gather(p.weight, _kernel_index(k_out, k_in, n_in, n, kh))
    bias = take(p.bias, _kernel_index(k_out, 1, 1, n, 1).reshape(-1), axis=0)
    return conv2d(x, big, bias, blockmean=blockmean)


def lift_conv(x: Tensor, p: GroupConvParams, n: int) -> Tensor:
    """Convolve a plain image with N rotated copies of each filter.

    The lift is the group convolution with one input orientation: ``p``'s
    weight is [K_out, C_in, 1, k, k].  Orientation i of kernel channel k is
    conv2d(x, rot90(weight[k, :, 0], i*(4/N))) + bias[k].  The N rotated
    copies are one gather of the weight into a [K_out*N, C_in, k, k] kernel
    (a pure copy, so bit-identical to rotating and stacking), applied by one
    conv2d call; for N=1 this reduces to plain conv2d, bit-for-bit.
    """
    if p.weight.shape[2] != 1:
        raise ShapeError(
            f"lift weight needs one input orientation, got weight shape {p.weight.shape}"
        )
    return _expand_conv(x, p, n)


def group_conv(x: Tensor, p: GroupConvParams, stride: int = 1) -> Tensor:
    """Regular group convolution on a [B, K_in*N, H, W] feature map.

    out[k_out, i] = sum over (k_in, m) of
        conv2d(x[k_in, m], rot90(weight[k_out, k_in, (m - i) mod N], i*(4/N)))
    plus bias[k_out].  The relative-orientation indexing plus filter rotation
    is what makes the map commute with g_act.

    Seen as one matrix over the orientation axis the kernel is
    block-circulant up to the filter rotations: one gather of the weight
    builds the whole [K_out*N, K_in*N, k, k] kernel, and one conv2d call
    applies it.  A gather is a pure copy, so N=1 equals plain conv2d
    bit-exact.

    N is the weight's axis 2; ``conv2d`` rejects a map whose channel count is
    not K_in*N.

    stride=2 downsamples by averaging 2x2 blocks of the output (requires
    even H, W): ``blockmean2x`` of the stride-1 output, bit for bit, which
    ``conv2d`` computes band by band without building the full-resolution
    map.  A strided sampling lattice is NOT used: on an even grid rotation
    swaps pixel parities, so lattice subsampling cannot commute with rot90,
    while the 2x2 block partition is rotation-stable.
    """
    if stride not in (1, 2):
        raise ShapeError(f"group_conv: stride {stride} not in (1, 2)")
    return _expand_conv(x, p, p.weight.shape[2], blockmean=stride == 2)


# Uniform(-sqrt(6/fan_in), +sqrt(6/fan_in)): variance 2/fan_in, which keeps
# activation magnitudes roughly constant through relu networks.  Desk-scale
# breakage measurements need O(1) activations: with smaller weights the
# squeeze values collapse toward zero, non-equivariant gates flatten to ~0.5,
# and the deliberate equivariance violations become too small to observe.
_INIT_GAIN = np.sqrt(6.0)


def _uniform_init(rng: Rng, shape, fan_in: int) -> Tensor:
    bound = _INIT_GAIN / np.sqrt(fan_in)
    return Tensor(rng.uniform(shape, -bound, bound))


def init_group_conv(rng: Rng, k_out: int, k_in: int, n: int, kernel_size: int = 3) -> GroupConvParams:
    """He-uniform weight over ``n`` input orientations (1 for a lift), zero bias."""
    fan_in = k_in * n * kernel_size * kernel_size
    weight = _uniform_init(rng, (k_out, k_in, n, kernel_size, kernel_size), fan_in)
    return GroupConvParams(weight=weight, bias=Tensor(np.zeros(k_out)))


def relative_residual(got, want) -> float:
    """Relative Frobenius distance ||got - want|| / max(||got||, ||want||).

    The primary equivariance metric: compare f(g_act(x)) against
    g_act(f(x)).  Accepts a Tensor or an ndarray.  Returns 0 for
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
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)
