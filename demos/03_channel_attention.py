"""
Channel attention that survives rotation
========================================

Squeeze-and-excitation reweights channels from a global average — and treats
the orientation axis as just more channels, so rotating the input scrambles
its gates.  The rotation-aware variant processes the N orientation blocks
with one cyclically-indexed bank of weights, which makes the gates travel
with the rotation instead of fighting it.  A feature map is a Tensor
[B, K*N, H, W]; N comes from the layer, here the attention banks.
"""

import numpy as np

from reafuse import (
    Rng,
    Tensor,
    attention_logits,
    g_act,
    init_reca,
    init_se,
    reca_forward,
    relative_residual,
    se_forward,
)
from reafuse import tensor as ops

rng = Rng(1234)
k, n = 8, 4
c = k * n
x = Tensor(rng.derive("x").uniform((2, c, 8, 8)))
p = init_reca(rng.derive("p"), c, n, 8)

# Rotate then attend vs. attend then rotate: identical up to float noise.
lhs = reca_forward(g_act(x, 1, n), p)
rhs = g_act(reca_forward(x, p), 1, n)
print("rotation-aware attention residual:", relative_residual(lhs, rhs))

# The per-channel gates are a multiset invariant: rotation only permutes them.
gates = attention_logits(x, p)
gates_rot = attention_logits(g_act(x, 1, n), p)
a = np.sort(ops.sigmoid(gates).data, axis=None)
b = np.sort(ops.sigmoid(gates_rot).data, axis=None)
print("sorted gate values match after rotation:", np.allclose(a, b, atol=1e-12))

# Plain SE on the same input: the equivariance residual is orders of
# magnitude away from zero, because its weight matrix mixes orientation
# channels with no regard for the group structure.
se = init_se(rng.derive("se"), c, 16)
lhs_se = se_forward(g_act(x, 1, n), se)
rhs_se = g_act(se_forward(x, se), 1, n)
print("plain SE residual (expected to be large):", relative_residual(lhs_se, rhs_se))

# With the trivial group N=1 there is nothing to be equivariant to, and the
# rotation-aware module degenerates to SE with a shared batch norm — same
# squeeze, same two-layer bottleneck, same sigmoid gate.
p1 = init_reca(rng.derive("p1"), c, 1, 16)
print("N=1 output shape:", reca_forward(x, p1).shape)
