"""Reverse-mode differentiation over the graph recorded by ``reafuse.tensor``.

Ops record themselves onto their output tensors at execution time; ``Tape``
collects the records reachable from a loss, ordered by the monotone sequence
number each tensor receives at construction.  ``backward`` replays a finished
tape strictly in reverse execution order, accumulating gradients by summation,
and ``gradcheck`` compares those gradients against Richardson-extrapolated
central finite differences on randomly sampled coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable

import numpy as np

from .tensor import Rng, ShapeError, Tensor

__all__ = ["Tape", "backward", "gradcheck", "GradcheckReport"]


@dataclass
class Tape:
    """Ordered record of the ops a loss depends on.

    ``nodes`` holds every op-produced tensor reachable from ``root`` through
    parent links, in ascending execution order.  Parents always execute
    before children, so walking ``nodes`` backwards is a valid reverse
    topological order.
    """

    root: Tensor
    nodes: list[Tensor]

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        return cls(root=root, nodes=sorted(_graph_nodes(root), key=attrgetter("seq")))


def _graph_nodes(root: Tensor) -> list[Tensor]:
    """Every op-produced tensor reachable from ``root``, in no set order."""
    seen: set[int] = set()
    nodes: list[Tensor] = []
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) in seen or t.backward_fn is None:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t.parents)
    return nodes


def backward(loss: Tensor, wrt: Iterable[Tensor] | None = None) -> dict[int, np.ndarray]:
    """Gradients of a scalar ``loss`` with respect to every reachable tensor.

    Returns a dict keyed by ``id(tensor)``; look up with ``grads[id(param)]``.
    Only tensors with ``requires_grad`` get gradients: a graph is recorded
    only downstream of them.  Every ``wrt`` tensor must require grad, or
    ``ValueError`` is raised; one that the loss does not depend on gets
    zeros, so callers can iterate uniformly.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    wrt = [] if wrt is None else list(wrt)
    for i, t in enumerate(wrt):
        if not t.requires_grad:
            raise ValueError(f"backward: wrt[{i}] {t!r} does not require grad")
    tape = Tape.trace(loss)

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.get(id(node))
        if g is None:  # on the tape but off this loss's path (shared subgraphs)
            continue
        for parent, pg in zip(node.parents, node.backward_fn(g)):
            if not parent.requires_grad:
                continue
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = pg

    for t in wrt:
        grads.setdefault(id(t), np.zeros_like(t.data))
    return grads


@dataclass
class GradcheckReport:
    """Outcome of one finite-difference check."""

    passed: bool
    max_rel_error: float
    checked: int
    skipped_kinks: int
    failures: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"gradcheck {status}: max rel err {self.max_rel_error:.3e} over "
            f"{self.checked} coords ({self.skipped_kinks} near-kink skipped)"
        )


def _crosses_kink(traces: list[list[np.ndarray]], window: float) -> bool:
    """True when the perturbed evaluations disagree about any relu's active set.

    ``traces`` holds one relu trace per evaluation.  A finite difference
    straddling a relu kink measures the slope of neither branch; those
    coordinates are excluded rather than failed.  Requires both a sign flip
    and proximity to zero, so activation changes far from the kink (which
    would indicate a real bug) still count as errors.
    """
    if len({len(trace) for trace in traces}) != 1:
        return True  # control flow changed between evaluations; unreliable
    for acts in zip(*traces):
        if len({a.shape for a in acts}) != 1:
            return True
        stacked = np.stack(acts)
        active = stacked > 0.0
        flipped = active.any(axis=0) & ~active.all(axis=0)
        near = np.abs(stacked).min(axis=0) < window
        if np.any(flipped & near):
            return True
    return False


def _relu_inputs(loss: Tensor) -> list[np.ndarray]:
    """Copies of the pre-activations of the relus ``loss`` records, in execution order.

    Copies, because a relu that reads a ``wrt`` leaf directly holds the
    buffer gradcheck perturbs in place.
    """
    relus = sorted((node for node in _graph_nodes(loss) if node.op == "relu"),
                   key=attrgetter("seq"))
    return [node.parents[0].data.copy() for node in relus]


def gradcheck(
    fn: Callable[[], Tensor],
    wrt: Iterable[Tensor],
    rng: Rng,
    h: float = 1e-5,
    tol: float = 1e-6,
    max_coords: int = 50,
) -> GradcheckReport:
    """Compare analytic gradients of scalar ``fn()`` with finite differences.

    ``fn`` must be a closure over the tensors in ``wrt`` (it is re-evaluated
    with perturbed parameter values).  gradcheck marks every ``wrt`` tensor
    ``requires_grad`` before the first evaluation, so each evaluation records
    the graph downstream of them; the marks stay set.  Per tensor, at most
    ``max_coords`` coordinates are sampled.  Relative error is
    ``|a - n| / max(|a|, |n|, 1)`` so near-zero gradients are judged on
    absolute scale.

    The numeric slope is the Richardson extrapolation of two central
    differences, ``(4 D(h/2) - D(h)) / 3`` with
    ``D(s) = (f(x + s) - f(x - s)) / 2s``, which cancels the O(h^2)
    truncation error that a plain central difference leaves on strongly
    curved losses.  A coordinate is skipped as a relu kink when its four
    evaluations disagree about an activation lying within ``max(1e-6, h)``
    of zero: the step, not a fixed constant, bounds how far a
    pre-activation can move.  Each evaluation's relu pre-activations are
    read from the graph that evaluation records; a relu that no ``wrt``
    tensor feeds is not recorded, and its input does not move.

    A non-finite loss, at the unperturbed point or any perturbed one, or a
    non-finite analytic gradient of a ``wrt`` tensor raises
    ``FloatingPointError``: no relative error can be judged against it.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"gradcheck: step h={h} outside [1e-7, 1e-3]")
    wrt = list(wrt)
    for t in wrt:
        t.requires_grad = True
    loss = fn()
    if not np.isfinite(loss.data).all():
        raise FloatingPointError("gradcheck: non-finite loss at the unperturbed point")
    analytic = backward(loss, wrt=wrt)
    for t_index, t in enumerate(wrt):
        if not np.isfinite(analytic[id(t)]).all():
            raise FloatingPointError(f"gradcheck: non-finite analytic gradient of wrt[{t_index}]")
    window = max(1e-6, h)
    steps = (h, -h, 0.5 * h, -0.5 * h)

    report = GradcheckReport(passed=True, max_rel_error=0.0, checked=0, skipped_kinks=0)

    for t_index, t in enumerate(wrt):
        a = analytic[id(t)]
        n_coords = min(max_coords, t.size)
        flat_ids = rng.choice(t.size, n_coords) if t.size > n_coords else np.arange(t.size)
        flat = t.data.reshape(-1)
        for fi in flat_ids:
            fi = int(fi)
            original = flat[fi]
            values: list[float] = []
            traces: list[list[np.ndarray]] = []
            try:
                for step in steps:
                    flat[fi] = original + step
                    loss = fn()
                    values.append(loss.item())
                    traces.append(_relu_inputs(loss))
            finally:
                flat[fi] = original

            if not np.isfinite(values).all():
                raise FloatingPointError(
                    f"gradcheck: non-finite loss at wrt[{t_index}] flat coord {fi}"
                )
            if _crosses_kink(traces, window):
                report.skipped_kinks += 1
                continue

            d_full = (values[0] - values[1]) / (2.0 * h)
            d_half = (values[2] - values[3]) / h
            numeric = (4.0 * d_half - d_full) / 3.0
            a_val = float(a.reshape(-1)[fi])
            rel = abs(a_val - numeric) / max(abs(a_val), abs(numeric), 1.0)
            report.checked += 1
            report.max_rel_error = max(report.max_rel_error, rel)
            if rel > tol:
                report.passed = False
                coord = tuple(int(c) for c in np.unravel_index(fi, t.shape or (1,)))
                report.failures.append(
                    f"wrt[{t_index}] coord {coord}: analytic {a_val:.9e}, "
                    f"numeric {numeric:.9e}, rel {rel:.3e}"
                )
    return report
