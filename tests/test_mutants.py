"""Mutation checks: a deliberately broken fast path must turn a verdict red.

Each test patches one rule of the fast path to a plausible wrong variant and
asserts which check notices: ``verify`` (an equivariant variant fails) or,
failing that, ``oracle`` (a fast path departs from its reference), or the
group-law tests (``g_act`` or the input rotation is not an action of C_N).
``verify`` compares the generator with the identity only, so a group action
that is wrong only at some s >= 2 is outside its reach; the composition-law
tests in test_groupequiv.py and test_harness.py are what license that, and
they must catch it.  A mutant that no check catches marks a blind spot of
the checks, not of the code.
"""

import numpy as np
import pytest

from reafuse import groupequiv, harness, pyramid, reca
from reafuse import tensor as ops
from reafuse.harness import HarnessConfig, run_oracle, run_verify
from reafuse.pyramid import EQUIVARIANT_VARIANTS, VARIANTS
from reafuse.tensor import Rng, Tensor

from references import action_law_failures, reference_seed_residuals

CONFIG = HarnessConfig(levels=2, kernel_channels=2, orientations=4, reduction=1,
                       image_size=8, batch=2, seeds=3).validate()


def broken_variants(report) -> set[str]:
    """The equivariant variants whose verify verdict failed."""
    return {v for name, passed in report.verdicts.items() for v in EQUIVARIANT_VARIANTS
            if name.startswith(f"{v} equivariant") and not passed}


def _kernel_index_mutant(shift: int, turn: int):
    """``groupequiv._kernel_index`` reading orientation (m - shift*i) mod N of
    each filter, rotated by turn*i quarter turns of the generator; the
    correct rule is shift = turn = 1."""
    def index(k_out, k_in, n_in, n, k):
        pos = np.arange(k_out * k_in * n_in * k * k).reshape(k_out, k_in, n_in, k, k)
        turns = groupequiv.quarter_turns(n) if k > 1 else 0
        copies = [
            np.rot90(pos[:, :, [(m - shift * i) % n_in for m in range(n_in)]],
                     turn * i * turns, axes=(-2, -1))
            for i in range(n)
        ]
        return np.stack(copies, axis=1).reshape(k_out * n, k_in * n_in, k, k)
    return index


INDEX_MUTANTS = {
    "added-orientation": _kernel_index_mutant(shift=-1, turn=1),  # (m + i) mod N
    "clockwise-filters": _kernel_index_mutant(shift=1, turn=-1),
}


def _added_g_act(x, s, n):
    """``groupequiv.g_act`` with the orientation shift (m + s) mod N."""
    rotated = ops.rot90(x, s * groupequiv.quarter_turns(n))
    perm = [k * n + (m + s) % n for k in range(x.shape[1] // n) for m in range(n)]
    return ops.take(rotated, perm, axis=1)


_G_ACT = groupequiv.g_act
_ROTATE = harness._rotate


def _unshifted_half_turn_g_act(x, s, n):
    """``groupequiv.g_act`` that turns the pixels but leaves the orientation
    channels in place at s = 2, and is right at every other element."""
    if s != 2:
        return _G_ACT(x, s, n)
    return ops.rot90(x, 2 * groupequiv.quarter_turns(n))


def _mirrored_half_turn_rotate(config, image, s):
    """``harness._rotate`` that mirrors the rows instead of turning the image
    at s = 2, and is right at every other element."""
    if s != 2:
        return _ROTATE(config, image, s)
    return ops.take(image, np.arange(image.shape[2])[::-1], axis=2)


def _strided_block_mean(x, out=None):
    """The 2x2 block mean replaced by sampling the even rows and columns."""
    if out is None:
        return x[..., 0::2, 0::2].copy()
    out[...] = x[..., 0::2, 0::2]
    return out


def _rolled_upsample_nearest2x(a):
    """``upsample_nearest2x`` shifted right by one pixel, wrapping around."""
    up = ops.upsample_nearest2x(a)
    return ops.take(up, np.roll(np.arange(up.shape[3]), 1), axis=3)


def _tiled_bias(bias, n):
    """``_orientation_shared_bias`` with np.tile for np.repeat: a bias per orientation."""
    return ops.take(bias, np.tile(np.arange(bias.shape[0]), n), axis=0)


def _se_gate(x, p):
    """``reca_forward`` replaced by a channel-blind squeeze-excite gate whose
    dense weights are the ReCA banks, read as [R, C] and [C, R] matrices."""
    r, c = p.w_a.shape[1], x.shape[1]
    se = reca.SEParams(w1=ops.reshape(p.w_a, (r, c)), w2=ops.reshape(p.w_b, (c, r)))
    return reca.se_forward(x, se)


@pytest.mark.parametrize("mutant", INDEX_MUTANTS)
def test_shared_index_mutant_fails_every_equivariant_verdict(monkeypatch, mutant):
    # lift and group convolutions and both ReCA banks expand their weights
    # through the one index rule; the uncached mutant replaces it everywhere
    for module in (groupequiv, reca):
        monkeypatch.setattr(module, "_kernel_index", INDEX_MUTANTS[mutant])
    report = run_verify(CONFIG)
    assert broken_variants(report) == set(EQUIVARIANT_VARIANTS)
    assert report.exit_code == 1


def test_g_act_shift_sign_mutant_is_caught_by_verify(monkeypatch):
    # the comparison side rotates one way and shifts the other
    for module in (groupequiv, harness):
        monkeypatch.setattr(module, "g_act", _added_g_act)
    report = run_verify(CONFIG)
    assert broken_variants(report) == set(EQUIVARIANT_VARIANTS)
    assert report.exit_code == 1


def test_strided_downsampling_mutant_is_caught_by_verify(monkeypatch):
    # on an even grid rot90 swaps pixel parities, so no lattice subsampling
    # commutes with it; every stride-2 backbone stage feeds every variant.
    # The one block-mean helper serves blockmean2x and the pooled conv2d
    monkeypatch.setattr(ops, "_block_mean", _strided_block_mean)
    report = run_verify(CONFIG)
    assert broken_variants(report) == set(EQUIVARIANT_VARIANTS)
    assert report.exit_code == 1


def test_shifted_upsampling_mutant_is_caught_by_verify(monkeypatch):
    # the additive merges broadcast without upsampling, so only the fusion
    # merges (ReAFFPN, and PlusIAFF, which breaks anyway) see the shift
    monkeypatch.setattr(pyramid, "upsample_nearest2x", _rolled_upsample_nearest2x)
    report = run_verify(CONFIG)
    assert broken_variants(report) == {"ReAFFPN"}
    assert report.exit_code == 1


def test_channel_blind_gate_mutant_is_caught_by_verify(monkeypatch):
    # an SE gate in the equivariant slot mixes channels with no circulant
    # tie between orientations; only PlusReCA's merges run reca_forward
    monkeypatch.setattr(pyramid, "reca_forward", _se_gate)
    report = run_verify(CONFIG)
    assert broken_variants(report) == {"PlusReCA"}
    assert report.exit_code == 1


def test_per_orientation_bias_mutant_is_caught_by_oracle_only(monkeypatch):
    # every bias is initialised to zero, so verify's pyramids never see the
    # bias wiring; the oracle draws random biases for both convolutions
    monkeypatch.setattr(groupequiv, "_orientation_shared_bias", _tiled_bias)
    assert run_verify(CONFIG).exit_code == 0
    report = run_oracle(CONFIG)
    failed = {name.split()[0] for name, passed in report.verdicts.items() if not passed}
    assert failed == {"lift_conv", "group_conv"}
    assert report.exit_code == 1


def test_g_act_wrong_at_a_half_turn_is_caught_by_the_group_laws_only(monkeypatch):
    # verify acts by the generator alone, so it never calls g_act(., 2)
    for module in (groupequiv, harness):
        monkeypatch.setattr(module, "g_act", _unshifted_half_turn_g_act)
    assert run_verify(CONFIG).exit_code == 0
    n = CONFIG.orientations
    x = Rng(3).uniform((2, CONFIG.kernel_channels * n, 8, 8))
    assert action_law_failures(lambda a, s: groupequiv.g_act(Tensor(a), s, n).data, x, n)


def test_rotate_wrong_at_a_half_turn_is_caught_by_the_group_laws_only(monkeypatch):
    # verify rotates its input by the generator alone, so it never calls
    # _rotate(., ., 2)
    monkeypatch.setattr(harness, "_rotate", _mirrored_half_turn_rotate)
    assert run_verify(CONFIG).exit_code == 0
    image = Rng(3).uniform((2, 3, 8, 8))
    assert action_law_failures(
        lambda a, s: harness._rotate(CONFIG, Tensor(a), s).data, image, CONFIG.orientations)


def test_generator_verdicts_equal_every_element_verdicts():
    # verify checks element 1 only; on this file's config (N = 4) the same
    # residual loop over every element s = 1..3 reaches the same verdicts
    report = run_verify(CONFIG)
    assert report.exit_code == 0, report.summary_lines()
    every_element = range(1, CONFIG.orientations)
    for variant in VARIANTS:
        per_seed = reference_seed_residuals(CONFIG, variant, every_element)
        if variant in EQUIVARIANT_VARIANTS:
            assert max(map(max, per_seed)) <= CONFIG.pass_threshold
            assert report.results[variant]["worst"] <= CONFIG.pass_threshold
        else:
            assert min(map(max, per_seed)) >= CONFIG.fail_threshold
            assert report.results[variant]["undemonstrated_seeds"] == 0
