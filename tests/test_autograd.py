"""Tape construction, backward accumulation, and finite-difference checks."""

import numpy as np
import pytest

from reafuse import tensor as ops
from reafuse.autograd import Tape, backward, gradcheck
from reafuse.config import ShapeError
from reafuse.groupequiv import g_act, init_group_conv, group_conv
from reafuse.pyramid import named_parameters
from reafuse.reca import init_reca, reca_forward
from reafuse.tensor import Rng, Tensor


def test_grad_of_sum_is_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 5)), requires_grad=True)
    grads = backward(ops.tsum(x))
    np.testing.assert_array_equal(grads[id(x)], np.ones((3, 5)))


def test_grad_of_sigmoid_sum_at_zero_is_quarter():
    x = Tensor(np.zeros((4, 4)), requires_grad=True)
    grads = backward(ops.tsum(ops.sigmoid(x)))
    np.testing.assert_allclose(grads[id(x)], np.full((4, 4), 0.25), rtol=0, atol=1e-15)


def test_backward_linearity_is_exact():
    x = Tensor(np.random.default_rng(1).normal(size=(6,)), requires_grad=True)
    g1 = backward(ops.tsum(ops.mul(x, x)))[id(x)]
    g3 = backward(ops.mul(ops.tsum(ops.mul(x, x)), 3.0))[id(x)]
    np.testing.assert_array_equal(g3, 3.0 * g1)


def test_tape_is_in_execution_order():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = ops.mul(ops.add(x, x), ops.sigmoid(x))
    tape = Tape.trace(ops.tsum(y))
    seqs = [n.seq for n in tape.nodes]
    assert seqs == sorted(seqs)
    # every parent that is itself an op appears before its child
    pos = {id(n): i for i, n in enumerate(tape.nodes)}
    for n in tape.nodes:
        for p in n.parents:
            if id(p) in pos:
                assert pos[id(p)] < pos[id(n)]
    assert tape.root.item() == ops.tsum(y).item()


def test_backward_rejects_non_scalar_loss():
    x = Tensor(np.ones((3,)), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(ops.mul(x, x))


def test_shared_subexpression_accumulates_once_per_use():
    # loss = sum((x + x)^2) = sum(4 x^2)  =>  dloss/dx = 8x
    x = Tensor(np.random.default_rng(2).normal(size=(5,)), requires_grad=True)
    y = ops.add(x, x)
    grads = backward(ops.tsum(ops.mul(y, y)))
    np.testing.assert_allclose(grads[id(x)], 8.0 * x.data, rtol=1e-12)
    # the intermediate also has its gradient retained
    np.testing.assert_allclose(grads[id(y)], 2.0 * y.data, rtol=1e-12)


def test_wrt_zero_fills_disconnected_tensors():
    x = Tensor(np.ones((2,)), requires_grad=True)
    unused = Tensor(np.ones((3, 3)), requires_grad=True)
    grads = backward(ops.tsum(x), wrt=[x, unused])
    np.testing.assert_array_equal(grads[id(unused)], np.zeros((3, 3)))


def test_backward_rejects_an_unmarked_wrt_tensor():
    # no graph is recorded downstream of an unmarked tensor, so zeros for it
    # would be a wrong answer, not a disconnected one
    x = Tensor(np.ones((2,)), requires_grad=True)
    plain = Tensor(np.ones((2,)))
    loss = ops.tsum(ops.mul(x, plain))
    with pytest.raises(ValueError, match=r"wrt\[1\].*does not require grad"):
        backward(loss, wrt=[x, plain])
    assert not plain.requires_grad


def test_gradcheck_marks_its_wrt_tensors():
    x = Tensor(np.array([2.0, -1.0]))
    w = Tensor(np.array([0.5, 3.0]))
    report = gradcheck(lambda: ops.tsum(ops.mul(ops.mul(x, x), w)), [x], Rng(2))
    assert report.passed and report.checked == 2
    assert x.requires_grad and not w.requires_grad


def test_gradcheck_validates_step_size():
    x = Tensor(np.ones((2,)), requires_grad=True)
    with pytest.raises(ValueError):
        gradcheck(lambda: ops.tsum(x), [x], Rng(0), h=1e-2)
    with pytest.raises(ValueError):
        gradcheck(lambda: ops.tsum(x), [x], Rng(0), h=1e-8)


def test_gradcheck_raises_on_non_finite():
    x = Tensor(np.ones((2,)), requires_grad=True)
    with pytest.raises(FloatingPointError, match="non-finite loss"):
        gradcheck(lambda: ops.tsum(ops.mul(x, np.inf)), [x], Rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_gradcheck_raises_on_a_non_finite_analytic_gradient(bad):
    # forward is 2x, finite everywhere; backward scales by NaN or Inf, and a
    # NaN relative error would never exceed the tolerance
    x = Tensor(np.ones((3,)), requires_grad=True)

    def poisoned(t):
        from reafuse.tensor import _record
        return _record(Tensor(t.data * 2.0), "poisoned", (t,), lambda g: (g * bad,))

    with pytest.raises(FloatingPointError, match=r"non-finite analytic gradient of wrt\[0\]"):
        gradcheck(lambda: ops.tsum(poisoned(x)), [x], Rng(0))


def test_gradcheck_flags_a_wrong_gradient():
    # a deliberately broken op: forward is x^2 but backward claims d/dx = 1
    x = Tensor(np.random.default_rng(3).normal(size=(4,)) + 2.0, requires_grad=True)

    def broken_square(t):
        out = Tensor(t.data * t.data)
        from reafuse.tensor import _record
        return _record(out, "broken", (t,), lambda g: (g,))

    report = gradcheck(lambda: ops.tsum(broken_square(x)), [x], Rng(1))
    assert not report.passed
    assert report.failures


def test_gradcheck_on_reca_small_config():
    rng = Rng(7)
    n, k, r = 4, 2, 2
    params = init_reca(rng.derive("p"), k * n, n, r)
    x = Tensor(rng.derive("x").uniform((2, k * n, 4, 4)), requires_grad=True)

    def loss():
        out = reca_forward(x, params)
        return ops.tsum(ops.mul(out, out))

    wrt = [t for _, t in named_parameters(params)] + [x]
    report = gradcheck(loss, wrt, rng.derive("coords"), h=1e-5, tol=1e-6)
    assert report.passed, str(report)
    assert report.checked >= 50


def test_gradient_of_equivariant_map_commutes_with_group_action():
    # invariant loss L(x) = sum(f(x)^2) with equivariant f:
    # grad at a rotated input is the rotated gradient
    rng = Rng(11)
    n = 4
    params = init_group_conv(rng.derive("w"), 2, 2, n)
    x = Tensor(rng.derive("x").uniform((2, 2 * n, 6, 6)), requires_grad=True)

    def loss_of(data):
        t = Tensor(data, requires_grad=True)
        out = group_conv(t, params)
        return t, ops.tsum(ops.mul(out, out))

    t0, loss0 = loss_of(x.data)
    g0 = backward(loss0)[id(t0)]
    for s in range(1, n):
        moved = g_act(Tensor(x.data.copy()), s, n)
        t1, loss1 = loss_of(moved.data)
        g1 = backward(loss1)[id(t1)]
        want = g_act(Tensor(g0), s, n).data
        denom = max(np.linalg.norm(g1), 1e-30)
        assert np.linalg.norm(g1 - want) / denom <= 1e-8


def test_gradcheck_kink_window_follows_the_step():
    # x sits 2.8e-6 above a relu kink: the +-h evaluations straddle it while
    # both pre-activations stay farther than 1e-6 from zero
    x = Tensor(np.array([2.8e-6, 0.5]), requires_grad=True)
    report = gradcheck(lambda: ops.tsum(ops.relu(x)), [x], Rng(0), h=1e-5)
    assert report.passed, str(report)
    assert (report.checked, report.skipped_kinks) == (1, 1)


def test_gradcheck_traces_one_tape_for_its_one_backward(monkeypatch):
    # the relu pre-activations of every evaluation come from that evaluation's
    # graph without building a Tape, so Tape.trace counts only replayed tapes
    real = Tape.__dict__["trace"]
    roots = []

    def counted(cls, root):
        roots.append(root)
        return real.__func__(cls, root)

    monkeypatch.setattr(Tape, "trace", classmethod(counted))
    x = Tensor(np.array([2.8e-6, 0.5, -0.75]), requires_grad=True)
    report = gradcheck(lambda: ops.tsum(ops.relu(ops.mul(x, 2.0))), [x], Rng(0))
    assert (report.checked, report.skipped_kinks) == (2, 1)
    assert len(roots) == 1


def test_gradcheck_extrapolation_removes_curvature_error():
    # for f = x^3 a central difference is off by exactly h^2; the
    # extrapolated (4 D(h/2) - D(h)) / 3 cancels that term
    h = 1e-3
    x = Tensor(np.array([0.5, -0.25, 0.75]), requires_grad=True)
    central = ((x.data + h) ** 3 - (x.data - h) ** 3) / (2 * h)
    plain_rel = np.abs(central - 3 * x.data ** 2) / np.maximum(np.abs(central), 1.0)
    assert plain_rel.max() > 1e-7
    report = gradcheck(lambda: ops.tsum(ops.mul(ops.mul(x, x), x)), [x], Rng(0), h=h, tol=1e-9)
    assert report.passed, str(report)
    assert report.checked == 3
