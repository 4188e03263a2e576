"""Rotation-equivariant channel attention and attentional feature fusion.

A small, self-contained numpy stack for studying *exact* rotation
equivariance under the cyclic groups C1/C2/C4 (the attention and fusion
blocks, which only shift orientations, take any C_N): a recording tensor with
reverse-mode gradients, group-lifting and group convolutions, cyclic-weight
channel attention, a two-stage attentional fusion block, and a feature
pyramid that wires five variants (equivariant and deliberately broken) for
side-by-side verification.  Everything is float64 and deterministic from a
single u64 seed.

The names below are loaded on first use, each from its own module, so
``import reafuse`` loads no numpy, and neither does a config check through
``reafuse.load_config`` (``reafuse.config`` runs on the standard library).
"""

import importlib

__version__ = "0.1.0"

# what the demos and tests use, each under its home module; everything else
# is imported from its module
_HOMES = {
    "config": ("ShapeError", "VARIANTS", "PyramidConfig",
               "ConfigError", "HarnessConfig", "load_config"),
    "tensor": ("Tensor", "Rng", "DegenerateStatisticsError"),
    "autograd": ("backward", "gradcheck"),
    "groupequiv": ("g_act", "lift_conv", "group_conv", "init_group_conv", "relative_residual"),
    "reca": ("attention_logits", "cyclic_blocks", "reca_forward", "se_forward",
             "init_reca", "init_se"),
    "reaff": ("rem_fuse", "reaff_forward", "plain_iaff_forward", "init_reaff",
              "init_plain_iaff"),
    "pyramid": ("init_pyramid", "run_pyramid"),
    "serialization": ("FormatError", "write_raft", "read_raft", "save_feature_maps"),
    "harness": ("run_verify", "run_oracle", "run_gradcheck", "run_demo"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
