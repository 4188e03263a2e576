"""Reference checks shared by the test modules.

``action_law_failures`` checks that a function is an action of C_N, bit for
bit.  ``reference_seed_residuals`` recomputes verify's residuals from full,
unshared forward passes, over any set of group elements.
"""

import numpy as np

from reafuse import tensor as ops
from reafuse.groupequiv import g_act, relative_residual
from reafuse.config import EQUIVARIANT_VARIANTS
from reafuse.pyramid import init_pyramid, run_pyramid
from reafuse.tensor import Rng, Tensor


def action_law_failures(act, x: np.ndarray, n: int) -> list[str]:
    """The laws of a C_n action that ``act(x, s)`` breaks on ``x``.

    Element 0 must be the identity, and acting by a and then by b must equal
    acting by (a + b) mod n, for every pair.  Both are compared with
    ``np.array_equal``; an empty list means ``act`` is a homomorphism on x.
    Checking verify's equivariance at the generator alone is sound only for
    such an ``act``.
    """
    failures = [] if np.array_equal(act(x, 0), x) else ["0 is not the identity"]
    failures += [f"{a} then {b}" for a in range(n) for b in range(n)
                 if not np.array_equal(act(act(x, a), b), act(x, (a + b) % n))]
    return failures


def _residuals(cfg, variant, rng, elements):
    image = Tensor(rng.derive("image").uniform((cfg.batch, 3, cfg.image_size, cfg.image_size)))
    params = init_pyramid(cfg.pyramid_config(variant, rng.derive("params").seed))
    base = run_pyramid(image, params)
    n = cfg.orientations
    residuals = [0.0] * cfg.levels
    for s in elements:
        got = run_pyramid(ops.rot90(image, s * 4 // n), params)
        for l in range(cfg.levels):
            residuals[l] = max(residuals[l], relative_residual(got[l], g_act(base[l], s, n)))
    return residuals


def reference_seed_residuals(cfg, variant, elements) -> list[list[float]]:
    """verify's per-level residuals of each seed, reseeds applied, for one
    variant: full forward passes per seed and element of ``elements``, with
    verify's seed derivation and reseed rule."""
    master = Rng(cfg.seed)
    per_seed = []
    for idx in range(cfg.seeds):
        rng = master.derive(f"verify/{idx}")
        residuals = _residuals(cfg, variant, rng, elements)
        attempt = 0
        while (variant not in EQUIVARIANT_VARIANTS and cfg.orientations > 1
               and max(residuals) < cfg.fail_threshold and attempt < cfg.reseeds):
            attempt += 1
            residuals = _residuals(cfg, variant, rng.derive(f"reseed/{variant}/{attempt}"),
                                   elements)
        per_seed.append(residuals)
    return per_seed
