"""Mutation checks: a deliberately broken fast path must turn a verdict red.

Each test patches one rule of the fast path to a plausible wrong variant and
asserts that the harness notices.  A mutant that still passes marks a blind
spot of the checks, not of the code.
"""

import numpy as np

from reafuse import groupequiv, reca
from reafuse.harness import HarnessConfig, run_verify
from reafuse.pyramid import EQUIVARIANT_VARIANTS


def _added_kernel_index(k_out, k_in, n_in, n, k):
    """``groupequiv._kernel_index`` with (m + i) mod N in place of (m - i) mod N."""
    pos = np.arange(k_out * k_in * n_in * k * k).reshape(k_out, k_in, n_in, k, k)
    copies = [
        np.rot90(pos[:, :, [(m + i) % n_in for m in range(n_in)]], i * (4 // n), axes=(-2, -1))
        for i in range(n)
    ]
    return np.stack(copies, axis=1).reshape(k_out * n, k_in * n_in, k, k)


def test_shared_index_mutant_fails_every_equivariant_verdict(monkeypatch):
    # lift and group convolutions and both ReCA banks expand their weights
    # through the one index rule; the uncached mutant replaces it everywhere
    for module in (groupequiv, reca):
        monkeypatch.setattr(module, "_kernel_index", _added_kernel_index)
    cfg = HarnessConfig(levels=2, kernel_channels=2, orientations=4, reduction=1,
                        image_size=8, batch=2, seeds=1).validate()
    report = run_verify(cfg)
    equivariant = {
        v: passed for name, passed in report.verdicts.items()
        for v in EQUIVARIANT_VARIANTS if name.startswith(f"{v} equivariant")
    }
    assert equivariant == dict.fromkeys(EQUIVARIANT_VARIANTS, False)
    assert report.exit_code == 1
