"""
Five pyramids, one rotation test
================================

A top-down feature pyramid fuses coarse, semantically strong maps into finer
ones.  Swapping the fusion/attention stage gives five variants; running the
same rotation probe against all of them reproduces the headline pattern:
group-aware stages keep the pyramid equivariant, channel-blind ones break it.

The same probe is available from the command line:

    reafuse verify --config configs/default.json
"""

import tempfile
from pathlib import Path

import numpy as np

from reafuse import (
    PyramidConfig,
    Rng,
    Tensor,
    VARIANTS,
    g_act,
    init_pyramid,
    read_raft,
    relative_residual,
    run_pyramid,
    save_feature_maps,
    write_raft,
)
from reafuse import tensor as ops

rng = Rng(8)
image = Tensor(rng.derive("image").uniform((2, 3, 16, 16)))

# %% One probe per variant: rotate the image, run, un-rotate every level,
# compare against the unrotated run.  (reduction=2 keeps the attention
# bottlenecks wide enough to have opinions; squeezing 16 channels through a
# single relu unit can leave it dead, and a dead gate is a constant — which
# is trivially, boringly equivariant.)
print(f"{'variant':10s}  worst residual   equivariant?")
for variant in VARIANTS:
    cfg = PyramidConfig(levels=3, kernel_channels=4, orientations=4,
                        reduction=2, variant=variant, seed=3)
    params = init_pyramid(cfg)
    levels = run_pyramid(image, params)
    rotated = run_pyramid(ops.rot90(image, 1), params)
    worst = max(
        relative_residual(rot, g_act(base, 1, cfg.orientations))
        for base, rot in zip(levels, rotated)
    )
    print(f"{variant:10s}  {worst:14.3e}   {'yes' if worst <= 1e-10 else 'no'}")

# %% Feature maps round-trip through a small binary tensor format (fixed
# little-endian header, float64 payload) plus a JSON manifest.
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)

    arr = np.arange(6.0).reshape(2, 3)
    write_raft(tmp / "toy.raft", arr)
    print("round-trip exact:", np.array_equal(read_raft(tmp / "toy.raft"), arr))

    cfg = PyramidConfig(levels=2, kernel_channels=2, orientations=2, seed=3)
    params = init_pyramid(cfg)
    levels = run_pyramid(Tensor(rng.derive("img2").uniform((1, 3, 8, 8))), params)
    manifest = save_feature_maps(levels, cfg.orientations, tmp / "maps")
    print("feature-map files:", sorted(p.name for p in (tmp / "maps").iterdir()))
