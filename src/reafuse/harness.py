"""Verification suites behind the command-line interface.

Four commands, one ``Report`` shape:

* ``verify``    -- the five-variant equivariance matrix: equivariant wirings
                   must sit at or below ``pass_threshold``, the deliberately
                   broken ones must demonstrate at least ``fail_threshold``
                   on some group element (reseeding a configurable number of
                   times, since breakage size depends on the weight draw).
* ``oracle``    -- fast implementations against the straight-line references
                   in ``reafuse.naive``, plus the cyclic-shift covariance of
                   the attention blocks.
* ``gradcheck`` -- analytic gradients against central finite differences for
                   every differentiable op, up to a full two-level pyramid.
* ``demo``      -- builds one configured pyramid and serializes its levels;
                   byte-identical on reruns with the same config, seed and
                   BLAS thread count.

Exit codes: 0 all verdicts pass; 1 a verdict definitively fails; 2 invalid
config or unusable paths; 3 non-finite values; 4 breakage demonstration
inconclusive after the reseed budget.

``verify``, ``oracle`` and ``demo`` only run forward passes over unmarked
tensors, so they record no autograd graph: a graph is recorded only
downstream of a tensor with ``requires_grad``, and only ``gradcheck``, which
marks its own ``wrt`` tensors, records one.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as ops
from .autograd import gradcheck
from .groupequiv import (
    GroupConvParams,
    LiftConvParams,
    ReFeatureMap,
    g_act,
    group_conv,
    init_group_conv,
    init_lift_conv,
    lift_conv,
    quarter_turns,
    relative_residual,
)
from .naive import (
    naive_conv2d,
    naive_conv_blocks,
    naive_group_conv,
    naive_lift_conv,
)
from .pyramid import (
    EQUIVARIANT_VARIANTS,
    VARIANTS,
    PyramidConfig,
    build_pyramid,
    init_pyramid,
    lateral_maps,
    named_parameters,
    run_pyramid,
    toy_backbone,
)
from .reaff import init_plain_iaff, init_reaff, plain_iaff_forward, reaff_forward
from .reca import cyclic_blocks, init_reca, init_se, reca_forward, se_forward
from .serialization import save_feature_maps
from .tensor import Rng, ShapeError, Tensor

__all__ = [
    "ConfigError",
    "HarnessConfig",
    "load_config",
    "Report",
    "run_verify",
    "run_oracle",
    "run_gradcheck",
    "run_demo",
]


class ConfigError(ValueError):
    """The configuration file cannot be used as given."""


# Upper bounds, so that a typo cannot ask for hours of work or gigabytes of
# memory.  The image cap bounds image_size x batch.  The activation cap
# bounds the values of the level-0 feature map, kernel_channels x
# orientations x image_size^2 x batch, at the default widths (8 kernel
# channels x 4 orientations) with the largest input (256 x 256, batch 2): a
# 32 MB map.  That config peaks at 242 MB of resident memory in ``demo`` of
# ReAFFPN (2-core x86_64, OpenBLAS on one thread).  kernel_channels has its
# own cap, pyramid.MAX_KERNEL_CHANNELS.
MAX_SEEDS = 1000
# Each reseed is a fresh pyramid draw, made per seed for each variant that
# must break, so at MAX_SEEDS the cap bounds verify at 2 x 1000 x 100 extra
# draws however high fail_threshold is set.
MAX_RESEEDS = 100
MAX_TRIALS = 10000
MAX_IMAGE_SIZE_X_BATCH = 512
MAX_LEVEL0_VALUES = 8 * 4 * 256 * 256 * 2


@dataclass(frozen=True)
class HarnessConfig:
    """Schema of the JSON config consumed by every command.

    The README's "Configuration" section walks through each knob.
    """

    seed: int = 20240814
    levels: int = 3
    kernel_channels: int = 8
    orientations: int = 4
    reduction: int = 2
    image_size: int = 32
    batch: int = 2
    variant: str = "ReAFFPN"
    seeds: int = 20
    trials: int = 100
    reseeds: int = 3
    pass_threshold: float = 1e-10
    fail_threshold: float = 1e-2
    oracle_tolerance: float = 1e-12
    gradcheck_tolerance: float = 1e-6
    gradcheck_step: float = 1e-5

    def validate(self) -> "HarnessConfig":
        # Runs before the pyramid checks: the image cap implies the pyramid's
        # levels cap, and a too-deep pyramid is a spatial-size error here.
        # bit_length() < levels means image_size < 2^(levels-1); checked
        # first, so that a huge levels never has its power computed.
        if isinstance(self.levels, int) and self.levels >= 2 and (
                self.image_size < 1 or self.image_size.bit_length() < self.levels
                or self.image_size % 2 ** (self.levels - 1)):
            raise ConfigError(
                f"spatial size not divisible: image_size {self.image_size} must be a "
                f"positive multiple of 2^(levels-1) = 2^{self.levels - 1}"
            )
        try:
            self.pyramid_config(self.variant, self.seed)
        except ShapeError as exc:
            raise ConfigError(str(exc)) from None
        if self.batch < 2:
            raise ConfigError(
                f"batch must be at least 2 (batch statistics over a single sample "
                f"are degenerate), got {self.batch}"
            )
        if self.seeds < 1 or self.trials < 1:
            raise ConfigError("seeds and trials must be positive")
        if self.seeds > MAX_SEEDS:
            raise ConfigError(f"seeds {self.seeds} above the cap of {MAX_SEEDS}")
        if self.trials > MAX_TRIALS:
            raise ConfigError(f"trials {self.trials} above the cap of {MAX_TRIALS}")
        if self.image_size * self.batch > MAX_IMAGE_SIZE_X_BATCH:
            raise ConfigError(
                f"image_size x batch = {self.image_size} x {self.batch} above the cap "
                f"of {MAX_IMAGE_SIZE_X_BATCH}"
            )
        level0 = self.kernel_channels * self.orientations * self.image_size ** 2 * self.batch
        if level0 > MAX_LEVEL0_VALUES:
            raise ConfigError(
                f"kernel_channels x orientations x image_size^2 x batch = "
                f"{self.kernel_channels} x {self.orientations} x {self.image_size}^2 x "
                f"{self.batch} = {level0} above the cap of {MAX_LEVEL0_VALUES}"
            )
        if self.reseeds < 0:
            raise ConfigError(f"reseeds must be non-negative, got {self.reseeds}")
        if self.reseeds > MAX_RESEEDS:
            raise ConfigError(f"reseeds {self.reseeds} above the cap of {MAX_RESEEDS}")
        for name, kind in _field_types().items():
            value = getattr(self, name)
            if kind is float and isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        for name in ("pass_threshold", "fail_threshold", "oracle_tolerance",
                     "gradcheck_tolerance"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.pass_threshold >= self.fail_threshold:
            raise ConfigError("pass_threshold must be below fail_threshold")
        if not 1e-7 <= self.gradcheck_step <= 1e-3:
            raise ConfigError(
                f"gradcheck_step {self.gradcheck_step} outside [1e-7, 1e-3]"
            )
        return self

    def pyramid_config(self, variant: str, seed: int) -> PyramidConfig:
        return PyramidConfig(
            levels=self.levels,
            kernel_channels=self.kernel_channels,
            orientations=self.orientations,
            reduction=self.reduction,
            variant=variant,
            seed=seed,
        )


def _field_types() -> dict[str, type]:
    """Each HarnessConfig field's type, read off its default value."""
    return {f.name: type(f.default) for f in dataclasses.fields(HarnessConfig)}


def load_config(path) -> HarnessConfig:
    """Parse and validate a JSON config; unknown keys are errors."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        payload = json.loads(raw)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    kinds = _field_types()
    unknown = sorted(set(payload) - set(kinds))
    if unknown:
        raise ConfigError(f"config {path} has unknown keys: {', '.join(unknown)}")
    for key, value in payload.items():
        if kinds[key] is str:
            if not isinstance(value, str):
                raise ConfigError(f"config key {key} must be a string")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"config key {key} must be a number, got {value!r}")
        elif kinds[key] is int and isinstance(value, float):
            if not value.is_integer():
                raise ConfigError(f"config key {key} must be an integer, got {value!r}")
            payload[key] = int(value)
    return HarnessConfig(**payload).validate()


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
    return all(np.isfinite(fm.data.data).all() for fm in feature_maps)


# -- verify -----------------------------------------------------------------------


@dataclass
class _Tally:
    """One variant's residuals, accumulated over the seeds."""

    per_level: list[float]
    per_seed_worst: list[float] = field(default_factory=list)
    reseeds_used: int = 0
    undemonstrated: int = 0
    finite: bool = True


def _draw(config: HarnessConfig, rng: Rng) -> tuple[Tensor, int]:
    """The input image and the parameter seed of one verify or demo draw."""
    image = Tensor(rng.derive("image").uniform(
        (config.batch, 3, config.image_size, config.image_size)))
    return image, rng.derive("params").seed


def _rotate(config: HarnessConfig, image: Tensor, s: int) -> Tensor:
    # element s rotates by s * 90 * (4/N) degrees
    return ops.rot90(image, s * quarter_turns(config.orientations))


def _residuals(config: HarnessConfig, levels_of) -> list[float] | None:
    """Max equivariance residual per pyramid level over all group elements.

    ``levels_of(s)`` computes the pyramid levels from the input rotated by
    element s; element s is compared with ``g_act`` of element 0's levels.
    Returns None on non-finite levels.
    """
    base = levels_of(0)
    if not _finite(*base):
        return None
    residuals = [0.0] * config.levels
    for s in range(1, config.orientations):
        levels = levels_of(s)
        if not _finite(*levels):
            return None
        residuals = [max(r, relative_residual(got, g_act(want, s)))
                     for r, got, want in zip(residuals, levels, base)]
        del levels  # freed before the next element's levels are built
    return residuals


def _draw_residuals(config: HarnessConfig, rng: Rng, variants: list[str],
                    timings: dict) -> dict[str, list[float] | None]:
    """Residuals of each of ``variants`` on one draw from ``rng``.

    One input image, one parameter seed, and one backbone forward and set
    of laterals per group element, shared by every variant listed, then
    each variant's head on its own copy of the laterals list (the head
    consumes the list, never the maps).  ``init_pyramid`` derives every
    layer from the parameter seed and the layer name, so all variants get
    the same stem, stage and lateral weights and the laterals are the same
    for all of them; only the attention weights differ.  Non-finite
    laterals give None for every variant.  Everything built here is
    released on return.
    """
    t0 = time.perf_counter()
    image, param_seed = _draw(config, rng)
    params = {v: init_pyramid(config.pyramid_config(v, param_seed)) for v in variants}
    shared = params[variants[0]]
    laterals = [lateral_maps(toy_backbone(_rotate(config, image, s), shared), shared)
                for s in range(config.orientations)]
    timings["backbone"] += time.perf_counter() - t0
    if not all(_finite(*lat) for lat in laterals):
        return dict.fromkeys(variants)
    residuals = {}
    for variant in variants:
        t0 = time.perf_counter()
        residuals[variant] = _residuals(
            config, lambda s: build_pyramid(list(laterals[s]), params[variant]))
        timings[variant] += time.perf_counter() - t0
    return residuals


def _verify_seed(config: HarnessConfig, rng: Rng, tallies: dict, timings: dict) -> None:
    """One seed for every still-finite variant: one shared draw, then a
    fresh draw for each reseed of a variant that must break."""
    live = [v for v in VARIANTS if tallies[v].finite]
    by_variant = _draw_residuals(config, rng, live, timings)
    for variant in live:
        tally = tallies[variant]
        residuals = by_variant[variant]
        if variant not in EQUIVARIANT_VARIANTS and config.orientations > 1:
            # Breakage size depends on the weight draw; replace a seed that
            # happens to land nearly-equivariant, up to the reseed budget.
            attempt = 0
            while (residuals is not None and max(residuals) < config.fail_threshold
                   and attempt < config.reseeds):
                attempt += 1
                residuals = _draw_residuals(
                    config, rng.derive(f"reseed/{variant}/{attempt}"), [variant],
                    timings)[variant]
            tally.reseeds_used += attempt
            if residuals is not None and max(residuals) < config.fail_threshold:
                tally.undemonstrated += 1
        if residuals is None:
            tally.finite = False
        else:
            tally.per_seed_worst.append(max(residuals))
            tally.per_level = [max(a, b) for a, b in zip(tally.per_level, residuals)]


def _summary(config: HarnessConfig, variant: str, tally: _Tally) -> dict:
    must_break = variant not in EQUIVARIANT_VARIANTS
    summary = {
        "finite": True,
        "per_level": tally.per_level,
        "worst": max(tally.per_level),
        "seeds": config.seeds,
        "must_break": must_break,
    }
    if must_break:
        if config.orientations == 1:
            summary["vacuous"] = True  # the trivial group cannot be broken
        else:
            summary["weakest"] = min(tally.per_seed_worst)
            summary["reseeds_used"] = tally.reseeds_used
            summary["undemonstrated_seeds"] = tally.undemonstrated
    return summary


def run_verify(config: HarnessConfig) -> Report:
    """The five-variant equivariance matrix.

    Seeds are the outer loop and variants the inner one: per seed, all
    variants share the input image, the backbone and the laterals, as in a
    fixed-backbone ablation, and every variant is still run end to end on
    each rotated input.  ``timings[variant]`` is that variant's head time,
    reseeds included; ``timings["backbone"]`` is every draw's parameter
    set-up, backbone forwards and laterals, reseeds included.
    """
    report = _new_report("verify", config)
    start = time.perf_counter()
    tallies = {v: _Tally([0.0] * config.levels) for v in VARIANTS}
    report.timings = {"backbone": 0.0, **dict.fromkeys(VARIANTS, 0.0)}
    master = Rng(config.seed)
    for idx in range(config.seeds):
        if not any(t.finite for t in tallies.values()):
            break
        _verify_seed(config, master.derive(f"verify/{idx}"), tallies, report.timings)
    for variant, tally in tallies.items():
        if not tally.finite:
            report.non_finite = True
            report.results[variant] = {"finite": False}
            report.verdicts[f"{variant} finite"] = False
            continue
        summary = report.results[variant] = _summary(config, variant, tally)
        if not summary["must_break"]:
            report.verdicts[f"{variant} equivariant (<= {config.pass_threshold:g})"] = (
                summary["worst"] <= config.pass_threshold
            )
        elif summary.get("vacuous"):
            report.verdicts[f"{variant} breakage vacuous for trivial group"] = True
        else:
            # an undemonstrated breakage is inconclusive (exit 4), never a
            # definite failure, so the verdict itself stays True
            report.verdicts[f"{variant} breaks equivariance (>= {config.fail_threshold:g})"] = True
            if summary["undemonstrated_seeds"]:
                report.inconclusive = True
                summary["inconclusive"] = True
    report.timings["total"] = time.perf_counter() - start
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
    fast = lift_conv(Tensor(x), LiftConvParams(Tensor(w), Tensor(bias)), n).data.data
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
    fm = ReFeatureMap(Tensor(x), k_in, n)
    fast = group_conv(fm, GroupConvParams(Tensor(w), Tensor(bias)), stride=stride).data.data
    ref = naive_group_conv(x, w, bias, stride=stride)
    return float(np.abs(fast - ref).max())


def _oracle_cyclic_blocks(rng: Rng) -> float:
    """The block-circulant bank path against the loop reference, max-abs.

    Both ReCA banks are applied by ``cyclic_blocks``, which expands a bank
    as the k = 1 case of the group-conv gather, so this check tests the
    index rule that lift and group convolutions share against
    ``naive_conv_blocks``.  Orientation block m of a re-feature-map input is
    the channel slice ``x[:, m::N]``; the reference takes the N blocks as a
    list.
    """
    n = (1, 2, 4)[rng.integer(0, 3)]
    rows = rng.integer(1, 5)
    cols = rng.integer(1, 5)
    b = rng.integer(1, 4)
    banks = rng.uniform((n, rows, cols))
    x = rng.uniform((b, cols * n))
    fast = cyclic_blocks(Tensor(x), Tensor(banks)).data
    ref = naive_conv_blocks([x[:, m::n] for m in range(n)], banks)
    return max(float(np.abs(fast[:, i::n] - want).max()) for i, want in enumerate(ref))


def _oracle_shift_covariance(rng: Rng) -> float:
    """Output blocks of an orientation-shifted input re-index by (i - s) mod N, max-abs."""
    n = (2, 4)[rng.integer(0, 2)]
    rows = rng.integer(1, 4)
    cols = rows * rng.integer(1, 3)
    banks = Tensor(rng.uniform((n, rows, cols)))
    x = rng.uniform((2, cols * n))
    base = cyclic_blocks(Tensor(x), banks).data
    worst = 0.0
    for s in range(n):
        shifted = x[:, [k * n + (m - s) % n for k in range(cols) for m in range(n)]]
        moved = cyclic_blocks(Tensor(shifted), banks).data
        for i in range(n):
            dev = float(np.abs(moved[:, i::n] - base[:, (i - s) % n::n]).max())
            worst = max(worst, dev)
    return worst


def run_oracle(config: HarnessConfig) -> Report:
    """Fast paths against straight-line references, max-abs deviations."""
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
                break
            worst = max(worst, dev)
        report.results[name] = {"max_abs_deviation": worst, "trials": config.trials}
        report.verdicts[f"{name} matches reference (<= {config.oracle_tolerance:g})"] = (
            worst <= config.oracle_tolerance and not report.non_finite
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

    lp = init_lift_conv(rng.derive("lift"), 2, 3)
    yield ("lift_conv",
           lambda: _sq(lift_conv(x, lp, n).data), [lp.weight, lp.bias, x])

    gp = init_group_conv(rng.derive("group"), 2, 2, n)
    gx = Tensor(rng.derive("gx").uniform((2, 2 * n, 4, 4)))
    yield ("group_conv stride 2",
           lambda: _sq(group_conv(ReFeatureMap(gx, 2, n), gp, stride=2).data),
           [gp.weight, gp.bias, gx])

    c = 2 * n
    rp = init_reca(rng.derive("reca"), c, n, 1)
    rx = Tensor(rng.derive("rx").uniform((2, c, 4, 4)))
    yield ("reca_forward",
           lambda: _sq(reca_forward(ReFeatureMap(rx, 2, n), rp).data),
           [*_tensors(rp), rx])

    sp = init_se(rng.derive("se"), c, 2)
    yield ("se_forward", lambda: _sq(se_forward(rx, sp)), [*_tensors(sp), rx])

    ap = init_reaff(rng.derive("reaff"), c, n, 1)
    ry = Tensor(rng.derive("ry").uniform((2, c, 4, 4)))
    yield ("reaff_forward",
           lambda: _sq(reaff_forward(ReFeatureMap(rx, 2, n), ReFeatureMap(ry, 2, n), ap).data),
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
        total = _sq(levels[0].data)
        for fm in levels[1:]:
            total = ops.add(total, _sq(fm.data))
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


def run_demo(config: HarnessConfig, out_dir) -> Report:
    """Build one pyramid, serialize its levels, and echo what was written."""
    report = _new_report("demo", config)
    start = time.perf_counter()
    image, param_seed = _draw(config, Rng(config.seed).derive("demo"))
    params = init_pyramid(config.pyramid_config(config.variant, param_seed))
    levels = run_pyramid(image, params)
    if not _finite(*levels):
        report.non_finite = True
        report.verdicts["pyramid outputs finite"] = False
        return report
    out = save_feature_maps(levels, out_dir, extra={
        "command": "demo",
        "config": dataclasses.asdict(config),
        "variant": config.variant,
        "seed": config.seed,
    })
    report.results["out_dir"] = str(out)
    report.results["files"] = sorted(p.name for p in out.iterdir())
    report.results["levels"] = [list(fm.shape) for fm in levels]
    report.verdicts["pyramid outputs finite"] = True
    report.verdicts["channel layout divisible by orientations"] = all(
        fm.shape[1] % config.orientations == 0 for fm in levels
    )
    report.timings["total"] = time.perf_counter() - start
    return report
