"""
Attentional fusion of two feature maps
======================================

Instead of adding two maps, learn a soft mask M in (0,1) and blend:
z = M*x + (1-M)*y, applied twice (the second mask looks at the first blend).
Three consequences worth seeing with numbers: fusing a map with itself is a
no-op, the output lives between the inputs, and the whole block commutes
with rotation when built from group-aware pieces.
"""

import numpy as np

from reafuse import (
    ReFeatureMap,
    Rng,
    Tensor,
    g_act,
    init_plain_iaff,
    init_reaff,
    plain_iaff_forward,
    reaff_forward,
    relative_residual,
    rem_fuse,
)

rng = Rng(5150)
k, n = 4, 4
c = k * n
p = init_reaff(rng.derive("p"), c, n, 4)

x = ReFeatureMap(Tensor(rng.derive("x").uniform((2, c, 8, 8))), n)
y = ReFeatureMap(Tensor(rng.derive("y").uniform((2, c, 8, 8))), n)

# Fusing x with itself: z = M*x + (1-M)*x = x exactly, whatever the weights.
z = reaff_forward(x, x, p)
print("fuse(x, x) deviation from x:", np.abs(z.data.data - x.data.data).max())

# The blend is convex, so every output value sits inside the input envelope.
z = reaff_forward(x, y, p)
lo = np.minimum(x.data.data, y.data.data)
hi = np.maximum(x.data.data, y.data.data)
print("output within [min(x,y), max(x,y)]:",
      bool(((z.data.data >= lo - 1e-12) & (z.data.data <= hi + 1e-12)).all()))

# The mask itself is strictly inside (0, 1) — sigmoid never saturates exactly.
mask = rem_fuse(x, p.stage1)
print("mask range: (%.4f, %.4f)" % (mask.data.min(), mask.data.max()))

# Rotating both inputs rotates the fused output: the mask is computed from
# group-aware attention, so it travels with the inputs.
lhs = reaff_forward(g_act(x, 1), g_act(y, 1), p)
rhs = g_act(reaff_forward(x, y, p), 1)
print("fusion equivariance residual:",
      relative_residual(lhs.data.data, rhs.data.data))

# The ordinary (non-group) version of the same block — global + local channel
# attention, two stages — does not commute with rotation.
plain = init_plain_iaff(rng.derive("plain"), c, 2)
lhs_p = plain_iaff_forward(g_act(x, 1).data, g_act(y, 1).data, plain)
rhs_p = g_act(ReFeatureMap(plain_iaff_forward(x.data, y.data, plain), n), 1).data
print("plain iAFF residual (expected to be large):",
      relative_residual(lhs_p.data, rhs_p.data))
