"""Dense float64 tensors with a recorded reverse-mode graph.

Everything downstream (group convolutions, attention, fusion, pyramids) is
built from the small op set in this module.  Design constraints:

* float64 only, so equivariance checks can use tight tolerances;
* values are immutable after construction -- every op returns a new tensor;
  an AST scan in the tests fails on any write into ``.data[...]`` in the package
  (gradcheck's perturb-and-restore through a flat view is the one exception);
* deterministic: the same inputs always produce bit-identical outputs.
  conv2d contracts its receptive field in a fixed (kernel-row, kernel-col,
  in-channel) flattening, so repeated runs are reproducible;
* every op is a primitive: it computes on raw arrays and records at most
  one graph node with its own backward.  ``batchnorm`` is one too, a node
  over (x, gamma, beta) with the closed-form batch-norm gradient;
* rotation convention: positive quarter turns are counter-clockwise in the
  usual matrix-print orientation (row index down, column index right).
  ``rot90([[1,2],[3,4]], 1) == [[2,4],[1,3]]``.  Fixed here, used everywhere.

A graph is recorded only downstream of a tensor with ``requires_grad``: an
op with such a parent records its parents and a closure computing parent
gradients, and ``reafuse.autograd`` replays those records in reverse
execution order.  Every other op returns a bare leaf (no parents, no
closure), so a forward over unmarked tensors -- the parameter initialisers
return unmarked ones -- neither builds a graph nor keeps its intermediates
alive.  The values computed are the same either way.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Rng",
    "ShapeError",
    "DegenerateStatisticsError",
    "add",
    "sub",
    "mul",
    "matmul",
    "relu",
    "sigmoid",
    "reshape",
    "transpose",
    "take",
    "tsum",
    "rot90",
    "global_avg_pool",
    "upsample_nearest2x",
    "blockmean2x",
    "conv2d",
    "batchnorm",
]


class ShapeError(ValueError):
    """An operand shape violates an operation's contract."""


class DegenerateStatisticsError(ValueError):
    """Batch statistics would be computed over a single element."""


# Monotone id assigned at construction; reverse ids == reverse execution order.
_EXECUTION_COUNTER = itertools.count()


class Tensor:
    """Immutable dense float64 array plus an optional autograd record.

    ``data`` is a contiguous row-major ndarray.  ``parents``/``backward_fn``
    are populated only for tensors produced by an op with at least one
    gradient-requiring input; leaves have neither.
    """

    __slots__ = ("data", "requires_grad", "parents", "backward_fn", "op", "seq")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.parents: tuple[Tensor, ...] = ()
        self.backward_fn: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None
        self.op = "leaf"
        self.seq = next(_EXECUTION_COUNTER)

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad}, op={self.op})"


class Rng:
    """Seeded random source (PCG64): same seed, same sequence.

    Tests rely on distributional properties only, never on the exact values,
    so the stream does not need to match any other implementation.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, shape, low: float = -1.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def choice(self, n: int, size: int) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=False)

    def derive(self, label: str) -> "Rng":
        """Independent child stream identified by ``label``.

        Stable across runs and independent of how much has been drawn from
        this stream; used to give every layer / variant its own seed.
        """
        digest = hashlib.blake2s(
            f"{self.seed}/{label}".encode("utf-8"), digest_size=8
        ).digest()
        return Rng(int.from_bytes(digest, "little"))


# -- graph plumbing --------------------------------------------------------------


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _record(out: Tensor, op: str, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    # runs on every op: a plain loop costs about a fifth of any() over a generator
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out.parents = parents
            out.backward_fn = backward_fn
            out.op = op
            break
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- pointwise ops ----------------------------------------------------------------


def _broadcast_op(a, b, op_name: str, fwd, da, db) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        data = fwd(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op_name}: incompatible shapes {a.shape} and {b.shape}") from exc

    def backward(g: np.ndarray):
        return (
            _unbroadcast(da(g, a.data, b.data), a.shape),
            _unbroadcast(db(g, a.data, b.data), b.shape),
        )

    return _record(Tensor(data), op_name, (a, b), backward)


def add(a, b) -> Tensor:
    return _broadcast_op(a, b, "add", lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _broadcast_op(a, b, "sub", lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _broadcast_op(a, b, "mul", lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def relu(a) -> Tensor:
    """max(0, x); the subgradient at the kink is taken as 0.

    NaN and -0.0 map to +0.0, as ``np.where(x > 0, x, 0.0)`` maps them.
    """
    a = _wrap(a)
    out = np.fmax(a.data, 0.0)  # fmax drops NaN in favour of 0.0
    out += 0.0  # fmax may keep -0.0; -0.0 + 0.0 is +0.0
    return _record(Tensor(out), "relu", (a,), lambda g: (g * (a.data > 0.0),))


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    # 0.5 * (tanh(0.5 * x) + 1) in one buffer; the tanh form avoids exp
    # overflow for large negative inputs
    s = np.multiply(a.data, 0.5)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return _record(Tensor(s), "sigmoid", (a,), lambda g: (g * s * (1.0 - s),))


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expected two matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul: inner axis mismatch, {a.shape[1]} (lhs columns) vs {b.shape[0]} (rhs rows)"
        )

    def backward(g: np.ndarray):
        return g @ b.data.T, a.data.T @ g

    return _record(Tensor(a.data @ b.data), "matmul", (a, b), backward)


# -- structural ops -----------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    shape = tuple(int(s) for s in shape)
    try:
        data = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from exc
    return _record(Tensor(data), "reshape", (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes: Sequence[int]) -> Tensor:
    a = _wrap(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _record(
        Tensor(np.transpose(a.data, axes)), "transpose", (a,),
        lambda g: (np.transpose(g, inverse),),
    )


def take(a, indices, axis: int) -> Tensor:
    """Gather along ``axis``; duplicate indices accumulate in the gradient."""
    a = _wrap(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"take: indices must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[axis]):
        raise ShapeError(f"take: index out of range for axis {axis} with extent {a.shape[axis]}")
    data = np.take(a.data, idx, axis=axis)

    def backward(g: np.ndarray):
        ga = np.zeros_like(a.data)
        key = (slice(None),) * axis + (idx,)
        np.add.at(ga, key, g)
        return (ga,)

    return _record(Tensor(data), "take", (a,), backward)


def tsum(a) -> Tensor:
    """The sum of every entry, a 0-d tensor."""
    a = _wrap(a)
    return _record(Tensor(a.data.sum()), "sum", (a,),
                   lambda g: (np.broadcast_to(g, a.shape).copy(),))


# -- spatial ops -------------------------------------------------------------------


def rot90(a, quarter_turns: int) -> Tensor:
    """Rotate the last two axes by ``quarter_turns`` * 90 degrees counter-clockwise.

    A pure index permutation (bit-exact).  Non-square inputs are allowed for
    odd turns; the two spatial extents swap.
    """
    a = _wrap(a)
    if a.ndim < 2:
        raise ShapeError(f"rot90: need at least 2 axes, got shape {a.shape}")
    k = int(quarter_turns) % 4
    data = np.ascontiguousarray(np.rot90(a.data, k, axes=(-2, -1)))
    return _record(
        Tensor(data), "rot90", (a,),
        lambda g: (np.ascontiguousarray(np.rot90(g, -k, axes=(-2, -1))),),
    )


def global_avg_pool(a) -> Tensor:
    """Mean over the spatial axes: [B,C,H,W] -> [B,C,1,1]."""
    a = _wrap(a)
    if a.ndim != 4:
        raise ShapeError(f"global_avg_pool: expected [batch, channel, height, width], got {a.shape}")
    h, w = a.shape[2], a.shape[3]
    data = a.data.mean(axis=(2, 3), keepdims=True)

    def backward(g: np.ndarray):
        return (np.broadcast_to(g / (h * w), a.shape).copy(),)

    return _record(Tensor(data), "global_avg_pool", (a,), backward)


def upsample_nearest2x(a) -> Tensor:
    """Replicate every pixel into a 2x2 block: [B,C,H,W] -> [B,C,2H,2W].

    Nearest-neighbour is chosen deliberately: it commutes with rot90
    bit-exactly, which interpolating upsamplers do not at borders.
    """
    a = _wrap(a)
    if a.ndim != 4:
        raise ShapeError(f"upsample_nearest2x: expected 4 axes, got {a.shape}")
    data = np.repeat(np.repeat(a.data, 2, axis=2), 2, axis=3)
    b, c, h, w = a.shape

    def backward(g: np.ndarray):
        return (g.reshape(b, c, h, 2, w, 2).sum(axis=(3, 5)),)

    return _record(Tensor(data), "upsample_nearest2x", (a,), backward)


def _block_mean(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Mean of the 2x2 blocks of the last two axes of a raw array, into ``out``.

    Computed as ((top-left + top-right) + (bottom-left + bottom-right)) * 0.25;
    the tests check this is bit-identical to
    reshape(..., h/2, 2, w/2, 2).mean(axis=(-3, -1)), which costs a strided
    multi-axis reduction.  ``blockmean2x`` and ``conv2d(..., blockmean=True)``
    both average through here, so they round alike.
    """
    out = np.add(x[..., 0::2, 0::2], x[..., 0::2, 1::2], out=out)
    out += x[..., 1::2, 0::2] + x[..., 1::2, 1::2]
    out *= 0.25
    return out


def _expand_block_grad(g: np.ndarray) -> np.ndarray:
    """Backward of the 2x2 block mean: each pixel of a block gets g / 4."""
    return np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25


def _check_even(op: str, shape) -> None:
    h, w = shape[2:]
    if h % 2:
        raise ShapeError(f"{op}: height axis extent {h} is odd")
    if w % 2:
        raise ShapeError(f"{op}: width axis extent {w} is odd")


def blockmean2x(a) -> Tensor:
    """Average non-overlapping 2x2 blocks: [B,C,H,W] -> [B,C,H/2,W/2].

    Requires even H and W.  The 2x2 block partition is mapped onto itself by
    quarter-turn rotations, so this downsampling commutes with rot90 exactly;
    a stride-2 sampling lattice does not (rotation on an even grid swaps even
    and odd pixel parities).
    """
    a = _wrap(a)
    if a.ndim != 4:
        raise ShapeError(f"blockmean2x: expected 4 axes, got {a.shape}")
    _check_even("blockmean2x", a.shape)
    return _record(Tensor(_block_mean(a.data)), "blockmean2x", (a,),
                   lambda g: (_expand_block_grad(g),))


# conv2d's forward runs im2col on bands of about _BAND_PIXELS output pixels,
# so its column buffer holds k*k*Cin x _BAND_PIXELS float64s, not a whole map:
# 0.59 MB at Cin = 32, which stays in a 2 MB per-core L2 cache.
# BLAS takes a GEMM's output columns in blocks (8 in OpenBLAS's Haswell DGEMM)
# and rounds a narrower leftover block differently, depending on the GEMM's
# size; so bands start and end on multiples of _BAND_ALIGN pixels, where the
# whole-map GEMM's blocks start too, and the results stay bit-identical.
_BAND_PIXELS = 256
_BAND_ALIGN = 8


def conv2d(x, w, bias=None, blockmean: bool = False) -> Tensor:
    """2-D cross-correlation of [B,Cin,H,W] with [Cout,Cin,k,k], same padding.

    The kernel is square and odd; the input is zero-padded by (k-1)/2 on
    each side and the stride is 1, so the output keeps the input's spatial
    extent.  The receptive field is flattened in (kernel-row, kernel-col,
    in-channel) order before the contraction, which fixes the accumulation
    order and makes results reproducible run to run.

    The forward of every kernel, 1x1 included, runs im2col on one band of
    output rows at a time, so its buffers are sized by the band, not by the
    map.  A map of at most ``_BAND_PIXELS`` pixels, or whose pixel count is
    not a multiple of ``_BAND_ALIGN``, is one band; a larger one is split
    into ``ceil(H*W / _BAND_PIXELS)`` balanced bands of whole rows.  The
    output is bit-identical to that of one whole-map GEMM.

    ``blockmean=True`` returns ``blockmean2x`` of the biased output, bit for
    bit, without building the full-resolution map: each band's GEMM output
    is averaged straight into its rows of the [B,Cout,H/2,W/2] result, and
    bands start and end on even rows.  H and W must be even.
    """
    x, w = _wrap(x), _wrap(w)
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input axis count {x.ndim} != 4 (batch, channel, height, width)")
    if w.ndim != 4:
        raise ShapeError(f"conv2d: kernel axis count {w.ndim} != 4 (out, in, kh, kw)")
    batch, cin, h, wd = x.shape
    cout, cin_w, k, kw = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d: channel axis mismatch, input has {cin}, kernel expects {cin_w}")
    if k != kw or k % 2 == 0:
        raise ShapeError(f"conv2d: kernel must be square and odd, got {k}x{kw}")
    if blockmean:
        _check_even("conv2d", x.shape)
    pad = (k - 1) // 2

    b_t = _wrap(bias) if bias is not None else None
    if b_t is not None and b_t.shape != (cout,):
        raise ShapeError(f"conv2d: bias axis shape {b_t.shape} != ({cout},)")

    def tap(src: np.ndarray, ki: int, kj: int) -> np.ndarray:
        return src[..., ki : ki + h, kj : kj + wd]

    wf = w.data.transpose(0, 2, 3, 1).reshape(cout, k * k * cin)
    # pad and im2col one band of rows of one sample at a time, in documented
    # (kernel-row, kernel-col, in-channel) order, through band-sized buffers
    # (a 1x1 kernel pads by 0, and its band is its own im2col).  Each band's
    # GEMM writes straight into its rows of ``out``, or, under blockmean, into
    # a band buffer that is biased and averaged into its half as many rows of
    # ``out``.  Bands are balanced in steps of ``step`` rows, the fewest whole
    # rows (an even number under blockmean) that span a multiple of
    # _BAND_ALIGN pixels
    step = _BAND_ALIGN // math.gcd(wd, _BAND_ALIGN)
    if blockmean:
        step = math.lcm(step, 2)
    steps = -(-h // step)
    nbands = 1 if h * wd % _BAND_ALIGN else min(steps, -(-h * wd // _BAND_PIXELS))
    bounds = [min(h, step * (i * steps // nbands)) for i in range(nbands + 1)]
    rows = max(r1 - r0 for r0, r1 in zip(bounds, bounds[1:]))
    if blockmean:
        out = np.empty((batch, cout, h // 2, wd // 2))
        gemm_buf = np.empty((cout, rows * wd))
    else:
        out = np.empty((batch, cout, h, wd))
        flat = out.reshape(batch, cout, h * wd)
    col_buf = np.empty(k * k * cin * rows * wd)
    # the left and right pad columns are never written and stay zero
    pad_buf = np.zeros((cin, rows + 2 * pad, wd + 2 * pad))
    for s in range(batch):
        for r0, r1 in zip(bounds, bounds[1:]):
            n = r1 - r0
            # input rows r0 - pad .. r1 + pad - 1, zero outside the map
            lo, hi = max(r0 - pad, 0), min(r1 + pad, h)
            top, bottom = lo - r0 + pad, hi - r0 + pad
            band = pad_buf[:, : n + 2 * pad]
            band[:, :top] = 0.0
            band[:, top:bottom, pad : pad + wd] = x.data[s, :, lo:hi]
            band[:, bottom:] = 0.0
            cols = col_buf[: k * k * cin * n * wd].reshape(k * k, cin, n, wd)
            for ki in range(k):
                for kj in range(k):
                    cols[ki * k + kj] = band[:, ki : ki + n, kj : kj + wd]
            dest = gemm_buf[:, : n * wd] if blockmean else flat[s, :, r0 * wd : r1 * wd]
            np.matmul(wf, cols.reshape(k * k * cin, n * wd), out=dest)
            if b_t is not None:
                dest += b_t.data[:, None]
            if blockmean:
                _block_mean(dest.reshape(cout, n, wd), out=out[s, :, r0 // 2 : r1 // 2])

    def backward(g: np.ndarray):
        if blockmean:
            g = _expand_block_grad(g)
        xp = np.zeros((batch, cin, h + 2 * pad, wd + 2 * pad))
        xp[:, :, pad : pad + h, pad : pad + wd] = x.data
        grad_w = np.empty_like(w.data)
        grad_xp = np.zeros_like(xp)
        for ki in range(k):
            for kj in range(k):
                xs = tap(xp, ki, kj)
                grad_w[:, :, ki, kj] = np.tensordot(g, xs, axes=([0, 2, 3], [0, 2, 3]))
                spread = np.tensordot(g, w.data[:, :, ki, kj], axes=([1], [0]))
                tap(grad_xp, ki, kj)[...] += spread.transpose(0, 3, 1, 2)
        grads = [grad_xp[:, :, pad : pad + h, pad : pad + wd], grad_w]
        if b_t is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        return grads

    parents = (x, w) if b_t is None else (x, w, b_t)
    return _record(Tensor(out), "conv2d", parents, backward)


_BN_EPS = 1e-5


def batchnorm(x, gamma, beta) -> Tensor:
    """Normalize channel axis 1 over every other axis, then scale/shift per channel.

    Statistics are always the batch statistics of the given tensor (there is
    no running-average mode); ``gamma`` and ``beta`` index axis 1.

    A primitive with its own backward, like ``conv2d``: the forward runs the
    steps m = sum(x) / count, c = x - m, var = sum(c * c) / count,
    inv = (var + eps) ** -0.5 and out = c * inv * gamma + beta on raw arrays,
    and records one node with parents (x, gamma, beta).  The backward is the
    closed form (Ioffe & Szegedy, arXiv 1502.03167): with x_hat = c * inv and
    dx_hat = g * gamma, dx = inv * (dx_hat - mean(dx_hat) - x_hat * mean(dx_hat * x_hat)).
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    if x.ndim < 2 or gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ShapeError(
            f"batchnorm: gamma/beta shapes {gamma.shape}/{beta.shape} do not match "
            f"channel axis 1 of {x.shape}"
        )
    axes = (0,) + tuple(range(2, x.ndim))
    count = math.prod(x.shape[:1] + x.shape[2:])
    if count < 2:
        raise DegenerateStatisticsError(
            f"batchnorm: statistics over a single element (shape {x.shape})"
        )

    bshape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    # ``normed`` holds c, then x_hat in place: the same bits as c * inv
    normed = x.data - x.data.sum(axis=axes, keepdims=True) * (1.0 / count)
    var = (normed * normed).sum(axis=axes, keepdims=True) * (1.0 / count)
    inv = (var + _BN_EPS) ** -0.5
    normed *= inv
    out = normed * gamma.data.reshape(bshape)
    out += beta.data.reshape(bshape)

    def backward(g: np.ndarray):
        grad_beta = g.sum(axis=axes)
        grad_gamma = (g * normed).sum(axis=axes)
        dn = g * gamma.data.reshape(bshape)
        grad_x = dn - dn.mean(axis=axes, keepdims=True)
        grad_x -= normed * (dn * normed).mean(axis=axes, keepdims=True)
        grad_x *= inv
        return grad_x, grad_gamma, grad_beta

    return _record(Tensor(out), "batchnorm", (x, gamma, beta), backward)
