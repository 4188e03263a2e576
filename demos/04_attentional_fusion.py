"""
Attentional fusion of two feature maps
======================================

Instead of adding two maps, learn a soft mask M in (0,1) and blend:
z = M*x + (1-M)*y, applied twice (the second mask looks at the first blend).
Three consequences worth seeing with numbers: fusing a map with itself is a
no-op, the output lives between the inputs, and the whole block commutes
with rotation when built from group-aware pieces.  A feature map is a Tensor
[B, K*N, H, W]; N comes from the layer, here the attention banks.
"""

import numpy as np

from reafuse import (
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

x = Tensor(rng.derive("x").uniform((2, c, 8, 8)))
y = Tensor(rng.derive("y").uniform((2, c, 8, 8)))

# Fusing x with itself: z = M*x + (1-M)*x = x exactly, whatever the weights.
z = reaff_forward(x, x, p)
print("fuse(x, x) deviation from x:", np.abs(z.data - x.data).max())

# The blend is convex, so every output value sits inside the input envelope.
z = reaff_forward(x, y, p)
lo = np.minimum(x.data, y.data)
hi = np.maximum(x.data, y.data)
print("output within [min(x,y), max(x,y)]:",
      bool(((z.data >= lo - 1e-12) & (z.data <= hi + 1e-12)).all()))

# The mask itself is strictly inside (0, 1) — sigmoid never saturates exactly.
mask = rem_fuse(x, p.stage1)
print("mask range: (%.4f, %.4f)" % (mask.data.min(), mask.data.max()))

# Rotating both inputs rotates the fused output: the mask is computed from
# group-aware attention, so it travels with the inputs.
lhs = reaff_forward(g_act(x, 1, n), g_act(y, 1, n), p)
rhs = g_act(reaff_forward(x, y, p), 1, n)
print("fusion equivariance residual:", relative_residual(lhs, rhs))

# The ordinary (non-group) version of the same block — global + local channel
# attention, two stages — does not commute with rotation.
plain = init_plain_iaff(rng.derive("plain"), c, 2)
lhs_p = plain_iaff_forward(g_act(x, 1, n), g_act(y, 1, n), plain)
rhs_p = g_act(plain_iaff_forward(x, y, plain), 1, n)
print("plain iAFF residual (expected to be large):", relative_residual(lhs_p, rhs_p))
