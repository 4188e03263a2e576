"""
Rotation equivariance from first principles
===========================================

Rotating the input and then convolving gives the same answer as convolving
and then applying the group action to the output — provided the convolution
is built for it.  This script shows the lifting layer, stacked group layers,
and the one place where naive downsampling silently breaks the property.
"""

import numpy as np

from reafuse import (
    ReFeatureMap,
    Rng,
    Tensor,
    g_act,
    group_conv,
    init_group_conv,
    init_lift_conv,
    lift_conv,
    relative_residual,
)
from reafuse import tensor as ops

rng = Rng(42)
n = 4  # the cyclic group of quarter-turn rotations
image = Tensor(rng.derive("image").uniform((1, 3, 16, 16)))

# %% Lifting: a plain image has no orientation axis yet.  The lifting layer
# convolves with every rotated copy of its kernel, producing K kernel
# channels x N orientations, laid out orientation-fastest along the channel
# axis.
lift = init_lift_conv(rng.derive("lift"), k_out=4, c_in=3)
feat = lift_conv(image, lift, n)
print("lifted:", feat.data.shape, "=", feat.kernel_channels, "kernels x", feat.orientations)

# %% The group action g_act rotates the plane AND cyclically relabels the
# orientation channels.  On a lifted map the two must move together.
rotated_first = lift_conv(ops.rot90(image, 1), lift, n)
rotated_after = g_act(feat, 1)
print("lift equivariance residual:",
      relative_residual(rotated_first.data.data, rotated_after.data.data))

# %% Stacking group convolutions preserves the property, including stride 2,
# which averages each 2x2 block before the lattice ever gets subsampled.
gconv = init_group_conv(rng.derive("g1"), k_out=4, k_in=feat.kernel_channels, n=n)
deep = group_conv(feat, gconv, stride=2)
lhs = group_conv(g_act(feat, 3), gconv, stride=2)
rhs = g_act(deep, 3)
print("group conv (stride 2) residual:",
      relative_residual(lhs.data.data, rhs.data.data))

# %% Why block means?  Subsampling x[::2, ::2] picks the top-left corner of
# every block, and a quarter turn of an even grid maps those corners onto
# pixels the subsample never kept.  The property fails by a wide margin:
plain = feat.data.data[:, :, ::2, ::2]
rot_then_sub = g_act(feat, 1).data.data[:, :, ::2, ::2]
sub_then_rot = np.rot90(plain, 1, axes=(-2, -1))
# relabel orientations by hand to isolate the spatial failure
moved = np.concatenate([np.roll(block, 1, axis=1) for block in
                        np.split(sub_then_rot, feat.kernel_channels, axis=1)], axis=1)
print("naive subsample residual (expected to be large):",
      relative_residual(rot_then_sub, moved))

# %% The orientation axis is a genuine group axis: acting by s=1 four times
# is the identity, and each orientation travels to the next slot.  Orientation
# m of every kernel channel is the channel slice [m::n].
labels = [f"orientation {i}" for i in range(n)]
cycled = feat
for _ in range(n):
    cycled = g_act(cycled, 1)
print("four quarter-turns return the original map:",
      np.array_equal(cycled.data.data, feat.data.data))
first = feat.data.data[:, 0::n]
print("orientation 0 lands in slot 1 after one step:",
      np.allclose(g_act(feat, 1).data.data[:, 1::n], np.rot90(first, 1, axes=(-2, -1))))
