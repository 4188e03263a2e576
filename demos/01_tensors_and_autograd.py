"""
Tensors, the tape, and gradient checking
========================================

A walk through the float64 tensor core: build a small expression, pull
gradients off the recorded tape, and confirm them against central finite
differences.
"""

import numpy as np

from reafuse import Rng, Tensor, backward, gradcheck
from reafuse import tensor as ops

# Every leaf that should receive a gradient is marked explicitly: a graph is
# recorded only downstream of a tensor with requires_grad.
# x is a [2, 3, 1, 1] map (batch 2, 3 channels, one pixel) and w a 1x1 kernel:
# conv2d is the one op that contracts channels, and on a one-pixel map it is
# a matrix-vector product per sample.
rng = Rng(7)
x = Tensor(rng.derive("x").uniform((2, 3, 1, 1)), requires_grad=True)
w = Tensor(rng.derive("w").uniform((3, 3, 1, 1)), requires_grad=True)

# Ops compose like plain functions; the tape records silently behind them.
y = ops.relu(ops.conv2d(x, w))
loss = ops.tsum(ops.mul(y, y))
print("loss value:", loss.data)

# backward() walks the tape once and returns {id(tensor): gradient array}.
grads = backward(loss)
print("dL/dx shape:", grads[id(x)].shape)
print("dL/dw, [out, in]:\n", grads[id(w)][:, :, 0, 0])

# A second loss over the same leaf records a graph of its own.
value = ops.tsum(ops.sigmoid(x))
g = backward(value, wrt=[x])
print("sum of sigmoid:", value.item())
print("sigmoid' at x (should be in (0, 0.25]):", g[id(x)].max())

# The same machinery that the `reafuse gradcheck` command uses: compare the
# recorded gradient of every coordinate against (f(x+h) - f(x-h)) / 2h.
# The closure rebuilds the whole expression so each probe re-traces it.
# gradcheck marks its wrt tensors itself, so unmarked ones work too.
def f():
    out = ops.relu(ops.conv2d(x, w))
    return ops.tsum(ops.mul(out, out))

report = gradcheck(f, [x, w], rng.derive("fd"))
print(f"gradcheck: passed={report.passed} "
      f"max relative error={report.max_rel_error:.3e} "
      f"coords checked={report.checked}")

# Kinks are the classic finite-difference trap: relu is not differentiable at
# zero, so coordinates whose probes land on different sides of the kink are
# excluded, not fudged.  gradcheck reads each probe's relu inputs off the
# graph it records, and counts a sign change within max(1e-6, h) of zero as a
# kink: the window grows with the step, so a coordinate sitting on the kink
# is always caught.
z = Tensor(np.array([[-1.0, 1e-9, 1.0]]), requires_grad=True)
kinky = gradcheck(lambda: ops.tsum(ops.relu(z)), [z], rng.derive("kink"))
print("coords skipped at the relu kink:", kinky.skipped_kinks)
