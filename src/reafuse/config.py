"""Everything a config check needs, on the standard library alone.

``HarnessConfig`` is the schema of the JSON config every command reads, and
``PyramidConfig`` the build-time knobs of one pyramid; both check their
values as they are built, from a file (``load_config``) or from Python.
The group-order rule (``quarter_turns``), the variant names and the caps
live here too, with the two errors the checks raise.  This module imports
no numpy and no other module of the package, so ``reafuse.load_config`` and
a command line that rejects its config never load the numerical stack.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

__all__ = [
    "ShapeError",
    "ConfigError",
    "quarter_turns",
    "VARIANTS",
    "EQUIVARIANT_VARIANTS",
    "MAX_LEVELS",
    "MAX_KERNEL_CHANNELS",
    "MAX_SEEDS",
    "MAX_RESEEDS",
    "MAX_TRIALS",
    "MAX_IMAGE_SIZE_X_BATCH",
    "MAX_LEVEL0_VALUES",
    "MAX_CONFIG_BYTES",
    "PyramidConfig",
    "HarnessConfig",
    "load_config",
]


class ShapeError(ValueError):
    """An operand shape violates an operation's contract."""


class ConfigError(ValueError):
    """The configuration file cannot be used as given."""


def quarter_turns(n: int) -> int:
    """Quarter turns of the generator of C_N: the one check that N divides 4."""
    if n < 1 or 4 % n:
        raise ShapeError(f"orientations must be 1, 2 or 4, got {n}")
    return 4 // n


VARIANTS = ("Baseline", "PlusSE", "PlusReCA", "PlusIAFF", "ReAFFPN")
EQUIVARIANT_VARIANTS = ("Baseline", "PlusReCA", "ReAFFPN")

# Upper bound on kernel_channels, so that a typo cannot ask for gigabytes of
# weights: a 3x3 group-conv weight holds (K*N)^2 * 9 float64s, 4.7 MB at the
# cap with N = 4.  Activations grow linearly with K as well.
MAX_KERNEL_CHANNELS = 64

# Upper bound on levels, so that a directly built PyramidConfig cannot ask for
# an arbitrarily deep pyramid.  Nine is the deepest pyramid the harness
# allows: image_size x batch <= 512 with batch >= 2 caps image_size at
# 256 = 2^8, and image_size must be a multiple of 2^(levels - 1).
MAX_LEVELS = 9


@dataclass(frozen=True)
class PyramidConfig:
    """Build-time knobs: every width is K kernel channels x N orientations."""

    levels: int = 4
    kernel_channels: int = 8
    orientations: int = 4
    reduction: int = 2
    variant: str = "ReAFFPN"
    seed: int = 0

    def __post_init__(self):
        # the one place these fields' ranges are checked; a HarnessConfig
        # checks their types first in the same wording, then reports these
        # messages as config errors
        for name in ("levels", "kernel_channels", "orientations", "reduction", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ShapeError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.seed < 2**64:
            raise ShapeError(f"seed {self.seed} does not fit in u64")
        if not 2 <= self.levels <= MAX_LEVELS:
            raise ShapeError(f"levels must be in [2, {MAX_LEVELS}], got {self.levels}")
        quarter_turns(self.orientations)  # the stem and stages rotate pixels
        if not 1 <= self.kernel_channels <= MAX_KERNEL_CHANNELS:
            raise ShapeError(
                f"kernel_channels must be in [1, {MAX_KERNEL_CHANNELS}], got {self.kernel_channels}"
            )
        if self.variant not in VARIANTS:
            raise ShapeError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.reduction < 1 or self.kernel_channels % self.reduction:
            raise ShapeError(
                f"reduction {self.reduction} must divide kernel_channels {self.kernel_channels}"
            )

    @property
    def channels(self) -> int:
        return self.kernel_channels * self.orientations


# Upper bounds, so that a typo cannot ask for hours of work or gigabytes of
# memory.  The image cap bounds image_size x batch.  The activation cap
# bounds the values of the level-0 feature map, kernel_channels x
# orientations x image_size^2 x batch, at the default widths (8 kernel
# channels x 4 orientations) with the largest input (256 x 256, batch 2): a
# 32 MB map.  That config (3 levels), measured on 2-core x86_64 with
# OpenBLAS on one thread, peaks in ``demo`` at 212 MB of resident memory as
# ReAFFPN, which runs in one process, and at 116 MB as Baseline in one
# process; Baseline split over two peaks at 82 MB in the parent, which maps
# the levels and writes them, and at 72 MB in each worker.  In ``verify``
# (2 seeds) each of ``harness._workers(seeds)`` processes peaks at 298 MB, at
# once, and their parent, which only folds their outcomes, at 34 MB.
# kernel_channels has its own cap, MAX_KERNEL_CHANNELS.
MAX_SEEDS = 1000
# Each reseed is a fresh pyramid draw, made per seed for each variant that
# must break, so at MAX_SEEDS the cap bounds verify at 2 x 1000 x 100 extra
# draws however high fail_threshold is set.
MAX_RESEEDS = 100
MAX_TRIALS = 10000
MAX_IMAGE_SIZE_X_BATCH = 512
MAX_LEVEL0_VALUES = 8 * 4 * 256 * 256 * 2
# The most a config file may hold: the shipped configs are under 1 KB, and a
# file that does not end by then (a device, say) is refused, not read on.
MAX_CONFIG_BYTES = 64 * 1024


@dataclass(frozen=True)
class HarnessConfig:
    """Schema of the JSON config consumed by every command.

    Checked as it is built, from a file or from Python (``dataclasses.replace``
    too), types first: a bad value raises ``ConfigError`` naming the field.
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

    def __post_init__(self):
        # Types first, in PyramidConfig's wording, so that every later check
        # compares numbers; a float field may hold an int that fits a float.
        for name, kind in _field_types().items():
            value = getattr(self, name)
            accepted, noun = _ACCEPTED[kind]
            if not isinstance(value, accepted) or isinstance(value, bool):
                raise ConfigError(f"{name} must be {noun}, got {value!r}")
            try:
                if kind is float and not math.isfinite(value):
                    raise ConfigError(f"{name} must be finite, got {value!r}")
            except OverflowError:
                raise ConfigError(f"{name} is an integer too large for a float") from None
        # The image check runs before the pyramid checks: the image cap implies
        # the pyramid's levels cap, and a too-deep pyramid is a spatial-size error here.
        # bit_length() < levels means image_size < 2^(levels-1); checked
        # first, so that a huge levels never has its power computed.
        if self.levels >= 2 and (
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
        if self.reseeds < 0:
            raise ConfigError(f"reseeds must be non-negative, got {self.reseeds}")
        for name, cap in (("seeds", MAX_SEEDS), ("trials", MAX_TRIALS), ("reseeds", MAX_RESEEDS)):
            if getattr(self, name) > cap:
                raise ConfigError(f"{name} {getattr(self, name)} above the cap of {cap}")
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


# What a field of each type accepts (a bool never), and how its error names it.
_ACCEPTED = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}


def load_config(path) -> HarnessConfig:
    """Parse a JSON config into a ``HarnessConfig``, which checks every value.
    Unknown keys are errors here, and an integral float for an integer field
    (``2.0``: JSON has one number type) becomes that integer.  At most
    ``MAX_CONFIG_BYTES`` are read; a longer file is an error."""
    try:
        with open(path, "rb") as f:
            data = f.read(MAX_CONFIG_BYTES + 1)
        if len(data) > MAX_CONFIG_BYTES:
            raise ConfigError(f"config {path} is longer than {MAX_CONFIG_BYTES} bytes")
        raw = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # a ValueError for bad syntax or a too-long integer, a RecursionError for deep nesting
    try:
        payload = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    kinds = _field_types()
    unknown = sorted(set(payload) - set(kinds))
    if unknown:
        raise ConfigError(f"config {path} has unknown keys: {', '.join(unknown)}")
    for key, value in payload.items():
        if kinds[key] is int and isinstance(value, float) and value.is_integer():
            payload[key] = int(value)
    return HarnessConfig(**payload)
