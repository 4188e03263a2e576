"""Verification suites behind the command-line interface.

Four commands, one ``Report`` shape:

* ``verify``    -- the five-variant equivariance matrix: equivariant wirings
                   must sit at or below ``pass_threshold``, the deliberately
                   broken ones must demonstrate at least ``fail_threshold``
                   at the generator of C_N (reseeding a configurable number
                   of times, since breakage size depends on the weight
                   draw).
* ``oracle``    -- fast implementations against the straight-line references
                   in ``reafuse.naive``, plus the cyclic-shift covariance of
                   the attention blocks.
* ``gradcheck`` -- analytic gradients against central finite differences for
                   every differentiable op, up to a full two-level pyramid.
* ``demo``      -- builds one configured pyramid and serializes its levels;
                   byte-identical on reruns with the same config, seed and
                   BLAS thread count, whatever the worker count.

Exit codes: 0 all verdicts pass; 1 a verdict definitively fails; 2 invalid
config or unusable paths; 3 non-finite values; 4 breakage demonstration
inconclusive after the reseed budget.

Every command takes a ``config.HarnessConfig``, which checked itself when it
was built; the schema, its caps and ``load_config`` live in ``reafuse.config``,
which runs without numpy, so a config is refused before this module loads.

``verify`` and ``demo`` split independent tasks, verify's seeds and the
samples of demo's batch, into contiguous shares (``_shares``) over forked
worker processes (``_fork_map``), as many as the usable cores hold processes
of the BLAS thread count (``_workers``), and fold the shares' results in
task order: the results, verdicts and artifacts are those of a serial run.
``demo`` splits only a pyramid with no attention, the one forward that acts
on each sample alone; any other runs in one process.  The report's
``timings["workers"]`` says how many processes ran.

``verify``, ``oracle`` and ``demo`` only run forward passes over unmarked
tensors, so they record no autograd graph: a graph is recorded only
downstream of a tensor with ``requires_grad``, and only ``gradcheck``, which
marks its own ``wrt`` tensors, records one.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, NoReturn

import numpy as np

from . import tensor as ops
from .autograd import gradcheck
from .config import (
    EQUIVARIANT_VARIANTS,
    VARIANTS,
    HarnessConfig,
    PyramidConfig,
    quarter_turns,
)
from .groupequiv import (
    GroupConvParams,
    _action_index,
    g_act,
    group_conv,
    init_group_conv,
    lift_conv,
    relative_residual,
)
from .naive import (
    naive_conv2d,
    naive_conv_blocks,
    naive_group_conv,
    naive_lift_conv,
)
from .pyramid import (
    PyramidParams,
    build_pyramid,
    init_attention,
    init_pyramid,
    lateral_maps,
    named_parameters,
    run_pyramid,
    toy_backbone,
)
from .reaff import init_plain_iaff, init_reaff, plain_iaff_forward, reaff_forward
from .reca import cyclic_blocks, init_reca, init_se, reca_forward, se_forward
from .serialization import save_feature_maps
from .tensor import Rng, Tensor

__all__ = [
    "Report",
    "run_verify",
    "run_oracle",
    "run_gradcheck",
    "run_demo",
]


@dataclass
class Report:
    """Self-contained record of one command run.

    ``verdicts`` carries the booleans the exit code is derived from;
    ``results`` carries the numbers those verdicts were derived from, so the
    report can be audited without re-running anything.  Timings are
    informational and the only non-reproducible field.
    """

    command: str
    seed: int
    config: dict
    results: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    non_finite: bool = False
    inconclusive: bool = False

    @property
    def passed(self) -> bool:
        return self.exit_code == 0

    @property
    def exit_code(self) -> int:
        if self.non_finite:
            return 3
        if not all(self.verdicts.values()):
            return 1
        if self.inconclusive:
            return 4
        return 0

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "passed": self.passed, "exit_code": self.exit_code}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def summary_lines(self) -> list[str]:
        lines = [f"[{self.command}] seed={self.seed}"]
        for name, ok in self.verdicts.items():
            lines.append(f"  {'PASS' if ok else 'FAIL'}  {name}")
        status = ("NON-FINITE" if self.non_finite
                  else "INCONCLUSIVE" if self.inconclusive
                  else "PASS" if self.passed else "FAIL")
        lines.append(f"[{self.command}] overall: {status} (exit {self.exit_code})")
        return lines


def _new_report(command: str, config: HarnessConfig) -> Report:
    return Report(command=command, seed=config.seed, config=dataclasses.asdict(config))


def _finite(*feature_maps) -> bool:
    return all(np.isfinite(fm.data).all() for fm in feature_maps)


# -- verify -----------------------------------------------------------------------


def _draw(config: HarnessConfig, rng: Rng) -> tuple[Tensor, int]:
    """The input image and the parameter seed of one verify or demo draw."""
    image = Tensor(rng.derive("image").uniform(
        (config.batch, 3, config.image_size, config.image_size)))
    return image, rng.derive("params").seed


def _rotate(config: HarnessConfig, image: Tensor, s: int) -> Tensor:
    # element s rotates by s * 90 * (4/N) degrees
    return ops.rot90(image, s * quarter_turns(config.orientations))


def _group_laws_hold(config: HarnessConfig) -> bool:
    """Whether ``_rotate`` and ``g_act``, called by the names verify's residual
    path calls, are actions of C_N: element 0 is the identity and acting by a
    then by b is acting by (a + b) mod N, for all N^2 pairs.  Both permute
    entries, so on arange-valued inputs the comparison is exact."""
    n = config.orientations
    x = Tensor(np.arange(48.0 * n).reshape(1, 3 * n, 4, 4))
    return all(np.array_equal(act(x, 0).data, x.data)
               and np.array_equal(act(act(x, a), b).data, act(x, (a + b) % n).data)
               for act in (lambda y, s: _rotate(config, y, s), lambda y, s: g_act(y, s, n))
               for a in range(n) for b in range(n))


def _residuals(config: HarnessConfig, levels: list[list[Tensor]]) -> list[float] | None:
    """Max equivariance residual per pyramid level at the generator.

    ``levels`` is ``[identity]``, or ``[identity, generator]`` for N > 1:
    the pyramid levels from the input and from its rotation by the
    generator, whose levels are compared with ``g_act`` of the identity's.
    C_N is cyclic, so a map that commutes with the generator on every input
    commutes with every g^s; that rests on ``g_act`` and ``_rotate`` being
    homomorphisms, which ``run_verify`` checks first (``_group_laws_hold``).
    The trivial group has no generator to compare, so its residuals are 0.
    Returns None on non-finite levels.
    """
    if not all(_finite(*element) for element in levels):
        return None
    if len(levels) == 1:
        return [0.0] * config.levels
    return [relative_residual(got, g_act(want, 1, config.orientations))
            for got, want in zip(levels[1], levels[0])]


def _variant_params(config: HarnessConfig, param_seed: int,
                    variants: list[str]) -> dict[str, PyramidParams]:
    """``init_pyramid`` of each of ``variants`` at ``param_seed``, drawing the
    shared layers once.

    The variants differ only in their attention, so the first variant's
    parameters are drawn whole and each other variant's are those with its
    own attention (``init_attention``, the same draw ``init_pyramid`` makes)
    swapped in.
    """
    first = init_pyramid(config.pyramid_config(variants[0], param_seed))
    params = {variants[0]: first}
    for v in variants[1:]:
        pcfg = config.pyramid_config(v, param_seed)
        params[v] = dataclasses.replace(first, config=pcfg, attention=init_attention(pcfg))
    return params


def _draw_residuals(config: HarnessConfig, rng: Rng, variants: list[str],
                    timings: dict) -> dict[str, list[float] | None]:
    """Residuals of each of ``variants`` on one draw from ``rng``.

    One input image, one parameter seed, and one backbone forward and set
    of laterals for the identity and for the generator (for the identity
    alone when N = 1), shared by every variant listed, then each variant's
    head on its own copy of each laterals list (the head consumes the list,
    never the maps).  ``init_pyramid`` derives every layer from the
    parameter seed and the layer name, so all variants get the same stem,
    stage, lateral and smoothing weights, drawn once (``_variant_params``),
    and the laterals are the same for all of them; only the attention
    weights differ.  A variant's pyramids are built inside its
    ``_residuals`` call, so they are freed before the next head runs.
    Non-finite laterals give None for every variant.
    Everything built here is released on return.  The draw's stage times
    are added to ``timings`` (``backbone`` and each variant's head).
    """
    t0 = time.perf_counter()
    image, param_seed = _draw(config, rng)
    params = _variant_params(config, param_seed, variants)
    shared = params[variants[0]]
    laterals = [lateral_maps(toy_backbone(_rotate(config, image, s), shared), shared)
                for s in range(min(2, config.orientations))]
    timings["backbone"] += time.perf_counter() - t0
    if not all(_finite(*lat) for lat in laterals):
        return dict.fromkeys(variants)
    residuals = {}
    for variant in variants:
        t0 = time.perf_counter()
        residuals[variant] = _residuals(
            config, [build_pyramid(list(lat), params[variant]) for lat in laterals])
        timings[variant] += time.perf_counter() - t0
    return residuals


def _must_demonstrate(config: HarnessConfig, variant: str) -> bool:
    """A variant that must break, on a group with a rotation to break."""
    return variant not in EQUIVARIANT_VARIANTS and config.orientations > 1


def _run_share(config: HarnessConfig, share: slice) -> list[tuple]:
    """``(outcomes, timings)`` of each seed in ``range(seeds)[share]``, in order.

    A seed runs one shared draw for every variant, then a fresh draw for
    each reseed of a variant that must break.  Its ``outcomes`` map each
    variant to ``(residuals, reseeds used)``, with residuals None if
    non-finite; its ``timings`` hold the seed's stage times.
    """
    master = Rng(config.seed)
    seeds = []
    for idx in range(config.seeds)[share]:
        rng = master.derive(f"verify/{idx}")
        timings = dict.fromkeys(("backbone", *VARIANTS), 0.0)
        outcomes = {}
        for variant, residuals in _draw_residuals(config, rng, list(VARIANTS), timings).items():
            attempt = 0
            if _must_demonstrate(config, variant):
                # Breakage size depends on the weight draw; replace a seed that
                # happens to land nearly-equivariant, up to the reseed budget.
                while (residuals is not None and max(residuals) < config.fail_threshold
                       and attempt < config.reseeds):
                    attempt += 1
                    residuals = _draw_residuals(
                        config, rng.derive(f"reseed/{variant}/{attempt}"), [variant],
                        timings)[variant]
            outcomes[variant] = (residuals, attempt)
        seeds.append((outcomes, timings))
    return seeds


def _blas_threads(cores: int) -> int:
    """The BLAS thread count, read as OpenBLAS reads it: ``OPENBLAS_NUM_THREADS``,
    then ``OMP_NUM_THREADS``; ``cores`` if neither is a positive integer."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return cores


def _workers(count: int) -> int:
    """How many processes share ``count`` independent tasks (verify's seeds,
    or demo's samples when its forward acts on each sample alone): as many
    as the usable cores hold processes of ``_blas_threads`` threads each, at
    most one per task, at least one.  With the BLAS thread count unset a
    process may use every core, so the tasks run in one.  Where ``os.fork``
    or ``os.sched_getaffinity`` is missing, one.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    cores = len(os.sched_getaffinity(0))
    return max(1, min(count, cores // _blas_threads(cores)))


def _shares(count: int, workers: int) -> list[slice]:
    """``workers`` contiguous, balanced slices of ``count`` tasks, the empty
    ones (more workers than tasks) dropped: one per process that runs."""
    bounds = [k * count // workers for k in range(workers + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def _fork_map(task: Callable, shares: list) -> list:
    """``task(share)`` for each of ``shares``, in order, each in its own
    forked child.

    The parent forks one child per share and computes none itself; it reads
    each child's pickled ``(ok, value)`` from its pipe and reaps it.  An
    exception in a child is raised again in the parent, with its type and
    message, and a child that exits without reporting is a RuntimeError; if
    anything raises, every child is killed and reaped before it propagates.
    A single share runs in the calling process and forks nothing.  Each
    child keeps the parent's BLAS thread setting, so its results are those
    of a serial run.
    """
    if len(shares) == 1:
        return [task(shares[0])]
    # imported here: only a split run pays for them, not every command
    import pickle
    import signal

    pids, pipes = [], []
    try:
        for share in shares:
            read_end, write_end = os.pipe()
            pipes.append(os.fdopen(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(task, share, write_end)
            finally:
                os.close(write_end)  # the child's copy, if forked, is its only writer
            pids.append(pid)
        values = []
        for pipe in pipes:
            payload = pipe.read()
            if not payload:
                raise RuntimeError("a worker process exited without reporting")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            values.append(value)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # an exited child is a zombie until reaped below
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
    return values


def _child(task: Callable, share, write_end: int) -> NoReturn:
    """A forked child's whole life: run ``task`` on one share, write the
    outcome pickled to ``write_end``, and leave through ``os._exit``, so that
    no code of the parent's (its stack, atexit handlers, buffered output)
    runs twice."""
    import pickle  # already loaded by the parent

    status = 1
    try:
        try:
            payload = (True, task(share))
        except BaseException as exc:  # raised again in the parent
            payload = (False, exc)
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(payload))
        status = 0
    finally:
        os._exit(status)


def _entry(config: HarnessConfig, variant: str, outcomes: list[tuple]) -> tuple[dict, str, bool]:
    """One variant's report entry, verdict name and verdict from its
    ``(residuals, reseeds)`` on every seed.  A non-finite seed makes the
    variant non-finite, a False verdict; a breakage undemonstrated after the
    reseeds marks the entry ``inconclusive`` (exit 4), and its verdict stays True."""
    if any(residuals is None for residuals, _ in outcomes):
        return {"finite": False}, f"{variant} finite", False
    per_level = [max(level) for level in zip(*(residuals for residuals, _ in outcomes))]
    entry = {"finite": True, "per_level": per_level, "worst": max(per_level),
             "seeds": config.seeds, "must_break": variant not in EQUIVARIANT_VARIANTS}
    if not entry["must_break"]:
        return (entry, f"{variant} equivariant (<= {config.pass_threshold:g})",
                entry["worst"] <= config.pass_threshold)
    if not _must_demonstrate(config, variant):
        entry["vacuous"] = True  # the trivial group cannot be broken
        return entry, f"{variant} breakage vacuous for trivial group", True
    per_seed = [max(residuals) for residuals, _ in outcomes]
    entry["weakest"] = min(per_seed)
    entry["reseeds_used"] = sum(reseeds for _, reseeds in outcomes)
    entry["undemonstrated_seeds"] = sum(w < config.fail_threshold for w in per_seed)
    if entry["undemonstrated_seeds"]:
        entry["inconclusive"] = True
    return entry, f"{variant} breaks equivariance (>= {config.fail_threshold:g})", True


def run_verify(config: HarnessConfig) -> Report:
    """The five-variant equivariance matrix.

    Seeds are the outer loop and variants the inner one: per seed, all
    variants share the input image, the backbone and the laterals, as in a
    fixed-backbone ablation, and every variant is still run end to end on
    the input and on its rotation by the generator of C_N; the group laws,
    checked first as one verdict, extend a pass at the generator to every
    element.  The seeds are split in contiguous shares over
    ``_workers(seeds)`` processes (``timings["workers"]``), so their
    outcomes come back in seed order, and each variant's entry is built
    once from them: the results do not depend on the split.  A variant
    with any non-finite seed is reported non-finite.
    ``timings[variant]`` is that variant's head time, reseeds included;
    ``timings["backbone"]`` is every draw's parameter set-up, backbone
    forwards and laterals, reseeds included.  Both are summed over the
    workers, so with more than one they can exceed ``timings["total"]``,
    the wall time.
    """
    report = _new_report("verify", config)
    start = time.perf_counter()
    report.verdicts[f"g_act and the input rotation obey the C_{config.orientations} group laws"] = (
        _group_laws_hold(config))
    shares = _shares(config.seeds, _workers(config.seeds))
    seeds = [seed for share in _fork_map(functools.partial(_run_share, config), shares)
             for seed in share]
    report.timings = {stage: sum(timings[stage] for _, timings in seeds)
                      for stage in ("backbone", *VARIANTS)}
    for variant in VARIANTS:
        entry, name, ok = _entry(config, variant, [outcomes[variant] for outcomes, _ in seeds])
        report.results[variant], report.verdicts[name] = entry, ok
        report.non_finite |= not entry["finite"]
        report.inconclusive |= "inconclusive" in entry
    report.timings["total"] = time.perf_counter() - start
    report.timings["workers"] = len(shares)
    return report


# -- oracle -----------------------------------------------------------------------


def _oracle_conv2d(rng: Rng) -> float:
    b = rng.integer(1, 3)
    cin = rng.integer(1, 4)
    cout = rng.integer(1, 4)
    size = rng.integer(3, 7)
    k = 3 if rng.integer(0, 2) else 1
    x = rng.uniform((b, cin, size, size))
    w = rng.uniform((cout, cin, k, k))
    bias = rng.uniform((cout,))
    fast = ops.conv2d(Tensor(x), Tensor(w), Tensor(bias)).data
    ref = naive_conv2d(x, w, bias)
    return float(np.abs(fast - ref).max())


def _oracle_lift_conv(rng: Rng) -> float:
    n = (1, 2, 4)[rng.integer(0, 3)]
    k_out = rng.integer(1, 3)
    cin = rng.integer(1, 4)
    size = rng.integer(3, 7)
    x = rng.uniform((2, cin, size, size))
    w = rng.uniform((k_out, cin, 3, 3))
    bias = rng.uniform((k_out,))
    fast = lift_conv(Tensor(x), GroupConvParams(Tensor(w[:, :, None]), Tensor(bias)), n).data
    ref = naive_lift_conv(x, w, bias, n)
    return float(np.abs(fast - ref).max())


def _oracle_group_conv(rng: Rng) -> float:
    n = (1, 2, 4)[rng.integer(0, 3)]
    k_out = rng.integer(1, 3)
    k_in = rng.integer(1, 3)
    size = 4
    stride = 2 if rng.integer(0, 3) == 0 else 1
    x = rng.uniform((2, k_in * n, size, size))
    w = rng.uniform((k_out, k_in, n, 3, 3))
    bias = rng.uniform((k_out,))
    fast = group_conv(Tensor(x), GroupConvParams(Tensor(w), Tensor(bias)), stride=stride).data
    ref = naive_group_conv(x, w, bias, stride=stride)
    return float(np.abs(fast - ref).max())


def _oracle_cyclic_blocks(rng: Rng) -> float:
    """The block-circulant bank path against the loop reference, max-abs.

    Both ReCA banks are applied by ``cyclic_blocks``, which expands a bank
    as the k = 1 case of the group-conv gather, so this check tests the
    index rule that lift and group convolutions share against
    ``naive_conv_blocks``.  The input is a [b, C, h, h] feature map, h in
    1..3: h = 1 is the pooled map of the squeezed branches, h > 1 the
    per-pixel path of ReAFF's local branch.  The reference takes its pixels
    as rows and orientation block m, the channel slice ``[:, m::N]``, as the
    m-th entry of a list.
    """
    n = (1, 2, 4)[rng.integer(0, 3)]
    rows = rng.integer(1, 5)
    cols = rng.integer(1, 5)
    b = rng.integer(1, 4)
    h = rng.integer(1, 4)
    banks = rng.uniform((n, rows, cols))
    x = rng.uniform((b, cols * n, h, h))
    fast = _pixel_rows(cyclic_blocks(Tensor(x), Tensor(banks)).data)
    flat = _pixel_rows(x)
    ref = naive_conv_blocks([flat[:, m::n] for m in range(n)], banks)
    return max(float(np.abs(fast[:, i::n] - want).max()) for i, want in enumerate(ref))


def _pixel_rows(x: np.ndarray) -> np.ndarray:
    """A [B, C, H, W] map as [B*H*W, C]: one row per pixel."""
    return x.transpose(0, 2, 3, 1).reshape(-1, x.shape[1])


def _oracle_shift_covariance(rng: Rng) -> float:
    """An orientation shift of ``cyclic_blocks``'s input shifts its output alike, max-abs.

    The input is a [2, C, h, h] feature map, h in 1..3, as in ``_oracle_cyclic_blocks``.
    """
    n = (2, 4)[rng.integer(0, 2)]
    rows = rng.integer(1, 4)
    cols = rows * rng.integer(1, 3)
    h = rng.integer(1, 4)
    banks = Tensor(rng.uniform((n, rows, cols)))
    x = rng.uniform((2, cols * n, h, h))
    base = cyclic_blocks(Tensor(x), banks).data
    worst = 0.0
    for s in range(n):
        moved = cyclic_blocks(Tensor(x[:, _action_index(cols * n, n, 1, 0, s)]), banks).data
        want = base[:, _action_index(rows * n, n, 1, 0, s)]
        worst = max(worst, float(np.abs(moved - want).max()))
    return worst


def run_oracle(config: HarnessConfig) -> Report:
    """Fast paths against straight-line references, max-abs deviations.

    Each check is judged by its own trials alone.  A check whose deviation
    is non-finite stops there and is reported as ``{"finite": False}`` with
    a "<name> finite" False verdict (exit 3); the other checks still run.
    """
    report = _new_report("oracle", config)
    start = time.perf_counter()
    checks = {
        "conv2d": _oracle_conv2d,
        "lift_conv": _oracle_lift_conv,
        "group_conv": _oracle_group_conv,
        "cyclic_blocks": _oracle_cyclic_blocks,
        "shift_covariance": _oracle_shift_covariance,
    }
    master = Rng(config.seed).derive("oracle")
    for name, check in checks.items():
        t0 = time.perf_counter()
        worst = 0.0
        for trial in range(config.trials):
            dev = check(master.derive(f"{name}/{trial}"))
            if not np.isfinite(dev):
                report.non_finite = True
                report.results[name] = {"finite": False}
                report.verdicts[f"{name} finite"] = False
                break
            worst = max(worst, dev)
        else:
            report.results[name] = {"max_abs_deviation": worst, "trials": config.trials}
            report.verdicts[f"{name} matches reference (<= {config.oracle_tolerance:g})"] = (
                worst <= config.oracle_tolerance
            )
        report.timings[name] = time.perf_counter() - t0
    report.timings["total"] = time.perf_counter() - start
    return report


# -- gradcheck ---------------------------------------------------------------------


def _gradcheck_cases(config: HarnessConfig, rng: Rng):
    """Yield (name, loss-closure, wrt) over the differentiable op set."""
    n = config.orientations

    x = Tensor(rng.derive("x").uniform((2, 3, 5, 5)))
    w = Tensor(rng.derive("w").uniform((4, 3, 3, 3)))
    b = Tensor(rng.derive("b").uniform((4,)))
    yield ("conv2d",
           lambda: _sq(ops.conv2d(x, w, b)), [x, w, b])

    gamma = Tensor(np.ones(3))
    beta = Tensor(rng.derive("beta").uniform((3,)))
    yield ("batchnorm",
           lambda: _sq(ops.batchnorm(x, gamma, beta)),
           [x, gamma, beta])

    yield ("rot90/upsample/blockmean",
           lambda: _sq(ops.blockmean2x(ops.upsample_nearest2x(ops.rot90(x, 1)))), [x])

    yield ("relu/sigmoid/pool",
           lambda: _sq(ops.global_avg_pool(ops.sigmoid(ops.relu(x)))), [x])

    lp = init_group_conv(rng.derive("lift"), 2, 3, 1)
    yield ("lift_conv",
           lambda: _sq(lift_conv(x, lp, n)), [lp.weight, lp.bias, x])

    gp = init_group_conv(rng.derive("group"), 2, 2, n)
    gx = Tensor(rng.derive("gx").uniform((2, 2 * n, 4, 4)))
    yield ("group_conv stride 2",
           lambda: _sq(group_conv(gx, gp, stride=2)),
           [gp.weight, gp.bias, gx])

    c = 2 * n
    rp = init_reca(rng.derive("reca"), c, n, 1)
    rx = Tensor(rng.derive("rx").uniform((2, c, 4, 4)))
    yield ("reca_forward",
           lambda: _sq(reca_forward(rx, rp)),
           [*_tensors(rp), rx])

    sp = init_se(rng.derive("se"), c, 2)
    yield ("se_forward", lambda: _sq(se_forward(rx, sp)), [*_tensors(sp), rx])

    ap = init_reaff(rng.derive("reaff"), c, n, 1)
    ry = Tensor(rng.derive("ry").uniform((2, c, 4, 4)))
    yield ("reaff_forward",
           lambda: _sq(reaff_forward(rx, ry, ap)),
           [*_tensors(ap), rx, ry])

    ip = init_plain_iaff(rng.derive("iaff"), c, 2)
    yield ("plain_iaff_forward",
           lambda: _sq(plain_iaff_forward(rx, ry, ip)), [*_tensors(ip), rx, ry])

    pcfg = PyramidConfig(levels=2, kernel_channels=2, orientations=n,
                         reduction=min(config.reduction, 2), variant="ReAFFPN",
                         seed=rng.derive("pyramid").seed)
    pp = init_pyramid(pcfg)
    image = Tensor(rng.derive("image").uniform((2, 3, 8, 8)))
    tensors = _tensors(pp) + [image]

    def pyramid_loss():
        levels = run_pyramid(image, pp)
        total = _sq(levels[0])
        for fm in levels[1:]:
            total = ops.add(total, _sq(fm))
        return total

    yield ("pyramid 2-level ReAFFPN", pyramid_loss, tensors)


def _tensors(params) -> list[Tensor]:
    return [t for _, t in named_parameters(params)]


def _sq(t: Tensor) -> Tensor:
    return ops.tsum(ops.mul(t, t))


def run_gradcheck(config: HarnessConfig) -> Report:
    """Central finite differences against the recorded gradients."""
    report = _new_report("gradcheck", config)
    start = time.perf_counter()
    rng = Rng(config.seed).derive("gradcheck")
    for name, loss, wrt in _gradcheck_cases(config, rng.derive("cases")):
        t0 = time.perf_counter()
        try:
            outcome = gradcheck(
                loss, wrt, rng.derive(f"coords/{name}"),
                h=config.gradcheck_step, tol=config.gradcheck_tolerance,
            )
        except FloatingPointError:
            report.non_finite = True
            report.results[name] = {"finite": False}
            report.verdicts[f"{name} gradients finite"] = False
            report.timings[name] = time.perf_counter() - t0
            continue
        report.results[name] = {
            "max_rel_error": outcome.max_rel_error,
            "checked_coords": outcome.checked,
            "skipped_kinks": outcome.skipped_kinks,
            "failures": outcome.failures[:5],
        }
        report.verdicts[
            f"{name} grad matches finite differences (<= {config.gradcheck_tolerance:g})"
        ] = outcome.passed
        report.timings[name] = time.perf_counter() - t0
    report.timings["total"] = time.perf_counter() - start
    return report


# -- demo --------------------------------------------------------------------------


def _split_pyramid(image: Tensor, params: PyramidParams,
                   shares: list[slice]) -> list[Tensor]:
    """``run_pyramid(image, params)``, each of ``shares`` of the batch run in
    its own forked child.

    Only a pyramid with no attention may be split: then every op of the
    forward acts on each sample alone (``conv2d`` runs one GEMM per sample
    or band), so a share's rows are those of the whole batch, bit for bit.
    Squeeze-excite's 1x1 conv2ds also run one GEMM per sample, but every
    other attention block couples the samples through a batch-norm, and
    only attention-free pyramids are split.
    Before it forks, the parent lays each level's full-batch map on an
    anonymous shared mapping of its own; each child writes its rows there
    and sends nothing back through its pipe.  One share runs in the calling
    process, with no mapping.
    """
    if len(shares) == 1:
        return run_pyramid(image, params)
    import mmap  # only a split run pays for it

    batch, _, size, _ = image.shape
    shapes = [(batch, params.config.channels, size >> l, size >> l)
              for l in range(params.config.levels)]
    maps = [np.ndarray(shape, np.float64, mmap.mmap(-1, 8 * math.prod(shape)))
            for shape in shapes]

    def run_share(rows: slice) -> None:
        for shared, level in zip(maps, run_pyramid(Tensor(image.data[rows]), params)):
            shared[rows] = level.data

    _fork_map(run_share, shares)
    return [Tensor(shared) for shared in maps]


def run_demo(config: HarnessConfig, out_dir) -> Report:
    """Build one pyramid, serialize its levels, and echo what was written.

    A pyramid with no attention runs split by batch over ``_workers(batch)``
    forked processes (``_split_pyramid``), any other in one process.  The
    parent runs the finite check and the writes, so the artifacts are the
    same bytes for any worker count.  ``timings`` holds ``workers``, the
    number of processes the forward ran in, and the wall times ``forward``
    (``run_pyramid``, forks and wait included), ``write`` and ``total``.
    """
    report = _new_report("demo", config)
    start = time.perf_counter()
    image, param_seed = _draw(config, Rng(config.seed).derive("demo"))
    params = init_pyramid(config.pyramid_config(config.variant, param_seed))
    per_sample = all(att is None for att in params.attention)
    shares = _shares(config.batch, _workers(config.batch) if per_sample else 1)
    report.timings["workers"] = len(shares)
    t0 = time.perf_counter()
    levels = _split_pyramid(image, params, shares)
    report.timings["forward"] = time.perf_counter() - t0
    if not _finite(*levels):
        report.non_finite = True
        report.verdicts["pyramid outputs finite"] = False
        report.timings["total"] = time.perf_counter() - start
        return report
    t0 = time.perf_counter()
    out = save_feature_maps(levels, config.orientations, out_dir, extra={
        "command": "demo",
        "config": dataclasses.asdict(config),
        "variant": config.variant,
        "seed": config.seed,
    })
    report.timings["write"] = time.perf_counter() - t0
    report.results["out_dir"] = str(out)
    # the files this run wrote, not a listing of out_dir, which may hold stale ones
    written = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["levels"]
    report.results["files"] = sorted([level["file"] for level in written] + ["manifest.json"])
    report.results["levels"] = [list(fm.shape) for fm in levels]
    report.verdicts["pyramid outputs finite"] = True
    report.timings["total"] = time.perf_counter() - start
    return report
