"""Orientation-only layers at group orders whose rotation is no pixel permutation.

ReCA, ReAFF and 1x1 group convolutions act on the orientation axis by a
cyclic shift and on space pointwise, so any pixel permutation combined with
the orientation roll n -> n + s commutes with them, for every N >= 1.  The
layers that rotate pixels by 4/N quarter turns still need N to divide 4.
"""

import numpy as np
import pytest

from reafuse.config import ShapeError
from reafuse.groupequiv import (
    GroupConvParams,
    g_act,
    group_conv,
    init_group_conv,
    lift_conv,
    relative_residual,
)
from reafuse.reaff import init_plain_iaff, init_reaff, plain_iaff_forward, reaff_forward
from reafuse.reca import cyclic_blocks, init_reca, init_se, reca_forward, se_forward
from reafuse.tensor import Rng, Tensor

ORDERS = (3, 6, 8)
K = 4


def act(x: Tensor, s: int, n: int) -> Tensor:
    """One quarter turn of the pixels together with the orientation roll by s."""
    perm = [k * n + (m - s) % n for k in range(x.shape[1] // n) for m in range(n)]
    data = np.rot90(x.data, 1, axes=(2, 3))[:, perm]
    return Tensor(np.ascontiguousarray(data))


def _reca(rng, n):
    p = init_reca(rng, K * n, n, 2)
    return lambda x, y: reca_forward(x, p)


def _reaff(rng, n):
    p = init_reaff(rng, K * n, n, 2)
    return lambda x, y: reaff_forward(x, y, p)


def _group_conv_1x1(rng, n):
    p = init_group_conv(rng, K, K, n, kernel_size=1)
    return lambda x, y: group_conv(x, p)


def _se(rng, n):
    p = init_se(rng, K * n, 2)
    return lambda x, y: se_forward(x, p)


def _plain_iaff(rng, n):
    p = init_plain_iaff(rng, K * n, 2)
    return lambda x, y: plain_iaff_forward(x, y, p)


def worst_residual(build, n: int) -> float:
    rng = Rng(300 + n)
    f = build(rng.derive("p"), n)
    x, y = (Tensor(rng.derive(name).uniform((2, K * n, 6, 6))) for name in ("x", "y"))
    base = f(x, y)
    return max(relative_residual(f(act(x, s, n), act(y, s, n)), act(base, s, n))
               for s in range(1, n))


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("build", [_reca, _reaff, _group_conv_1x1])
def test_orientation_only_layers_commute_at_any_order(build, n):
    assert worst_residual(build, n) <= 1e-12


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("build", [_se, _plain_iaff])
def test_channel_blind_controls_break_at_any_order(build, n):
    assert worst_residual(build, n) >= 1e-2


def test_pixel_rotating_layers_need_n_to_divide_4():
    rng = Rng(310)
    x3 = Tensor(rng.derive("x").uniform((2, 2 * 3, 6, 6)))
    image = Tensor(rng.derive("image").uniform((2, 3, 6, 6)))
    lift = init_group_conv(rng.derive("lift"), 2, 3, 1)
    with pytest.raises(ShapeError, match="orientations must be 1, 2 or 4, got 3"):
        g_act(x3, 1, 3)
    for n in (3, 0):
        with pytest.raises(ShapeError, match=f"orientations must be 1, 2 or 4, got {n}"):
            lift_conv(image, lift, n)
    with pytest.raises(ShapeError, match="orientations must be 1, 2 or 4, got 3"):
        group_conv(x3, init_group_conv(rng.derive("group"), 2, 2, 3))
    empty = GroupConvParams(Tensor(np.zeros((2, 2, 0, 3, 3))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):
        group_conv(Tensor(np.zeros((2, 2, 6, 6))), empty)


def test_1x1_layers_need_at_least_one_orientation():
    # a 1x1 filter needs no quarter turns, so only the order itself is checked
    image = Tensor(np.ones((2, 3, 4, 4)))
    lift = GroupConvParams(Tensor(np.ones((2, 3, 1, 1, 1))), Tensor(np.zeros(2)))
    for n in (0, -1):
        with pytest.raises(ShapeError, match=f"orientation count must be at least 1, got {n}"):
            lift_conv(image, lift, n)
    with pytest.raises(ShapeError, match="orientation count must be at least 1, got 0"):
        cyclic_blocks(Tensor(np.ones((2, 0, 1, 1))), Tensor(np.zeros((0, 2, 2))))
