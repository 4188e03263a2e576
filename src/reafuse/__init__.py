"""Rotation-equivariant channel attention and attentional feature fusion.

A small, self-contained numpy stack for studying *exact* rotation
equivariance under the cyclic groups C1/C2/C4 (the attention and fusion
blocks, which only shift orientations, take any C_N): a recording tensor with
reverse-mode gradients, group-lifting and group convolutions, cyclic-weight
channel attention, a two-stage attentional fusion block, and a feature
pyramid that wires five variants (equivariant and deliberately broken) for
side-by-side verification.  Everything is float64 and deterministic from a
single u64 seed.
"""

from .autograd import backward, gradcheck
from .groupequiv import (
    g_act,
    group_conv,
    init_group_conv,
    lift_conv,
    relative_residual,
)
from .harness import (
    ConfigError,
    HarnessConfig,
    load_config,
    run_demo,
    run_gradcheck,
    run_oracle,
    run_verify,
)
from .pyramid import VARIANTS, PyramidConfig, init_pyramid, run_pyramid
from .reaff import init_plain_iaff, init_reaff, plain_iaff_forward, reaff_forward, rem_fuse
from .reca import attention_logits, cyclic_blocks, init_reca, init_se, reca_forward, se_forward
from .serialization import FormatError, read_raft, save_feature_maps, write_raft
from .tensor import DegenerateStatisticsError, Rng, ShapeError, Tensor

__version__ = "0.1.0"

# what the demos and tests use; everything else is imported from its module
__all__ = [
    "Tensor", "Rng", "ShapeError", "DegenerateStatisticsError",
    "backward", "gradcheck",
    "g_act", "lift_conv", "group_conv",
    "init_group_conv", "relative_residual",
    "attention_logits", "cyclic_blocks", "reca_forward", "se_forward", "init_reca", "init_se",
    "rem_fuse", "reaff_forward", "plain_iaff_forward", "init_reaff", "init_plain_iaff",
    "VARIANTS", "PyramidConfig", "init_pyramid", "run_pyramid",
    "FormatError", "write_raft", "read_raft", "save_feature_maps",
    "ConfigError", "HarnessConfig", "load_config",
    "run_verify", "run_oracle", "run_gradcheck", "run_demo",
    "__version__",
]
