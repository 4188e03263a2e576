"""Mutation checks: a deliberately broken fast path must turn a verdict red.

Each test patches one rule of the fast path to a plausible wrong variant and
asserts which check notices: ``verify`` (an equivariant variant fails, or
its group-law verdict does) or, failing that, ``oracle`` (a fast path
departs from its reference).  ``verify``'s residuals compare the generator
with the identity only, so a group action that is wrong only at some s >= 2
is outside their reach; verify's group-law verdict (``g_act`` and the input
rotation compose as C_N, checked exactly over all N^2 pairs) is what
licenses that, and it must catch such a mutant, as the composition-law
tests in test_groupequiv.py and test_harness.py do.  A mutant that no check
catches marks a blind spot of the checks, not of the code.
"""

import numpy as np
import pytest

from reafuse import groupequiv, harness, pyramid, reaff, reca
from reafuse import tensor as ops
from reafuse.harness import HarnessConfig, run_oracle, run_verify
from reafuse.pyramid import EQUIVARIANT_VARIANTS, VARIANTS
from reafuse.tensor import Rng, Tensor

from references import action_law_failures, reference_seed_residuals

CONFIG = HarnessConfig(levels=2, kernel_channels=2, orientations=4, reduction=1,
                       image_size=8, batch=2, seeds=3)


def broken_variants(report) -> set[str]:
    """The equivariant variants whose verify verdict failed."""
    return {v for name, passed in report.verdicts.items() for v in EQUIVARIANT_VARIANTS
            if name.startswith(f"{v} equivariant") and not passed}


def failed_verdicts(report) -> list[str]:
    return [name for name, passed in report.verdicts.items() if not passed]


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


def _anti_circulant_blocks(x, banks):
    """``reca.cyclic_blocks`` expanding its bank by the (m + i) mod N index."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reca, "_kernel_index", INDEX_MUTANTS["added-orientation"])
        return reca.cyclic_blocks(x, banks)


def _anti_circulant_w_b_logits(x, p, squeeze=True):
    """``reca.attention_logits`` with the expansion bank ``w_b`` alone
    expanded by the (m + i) mod N index; ``w_a`` keeps the correct one."""
    b, c = x.shape[0], x.shape[1]
    h = ops.reshape(ops.global_avg_pool(x), (b, c)) if squeeze else x
    h = reca.cyclic_blocks(h, p.w_a)
    h = ops.relu(reca._shared_batchnorm(h, p.orientations, p.bn_gamma, p.bn_beta))
    h = _anti_circulant_blocks(h, p.w_b)
    return ops.reshape(h, (b, c, 1, 1)) if squeeze else h


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


def test_anti_circulant_expansion_bank_is_caught_by_verify(monkeypatch):
    # an anti-circulant w_b after a circulant w_a re-indexes the output
    # blocks by (i + s) where the feature channels move by (i - s); both
    # attention variants run the ReCA logits, PlusReCA as its gate and
    # ReAFFPN in its fusion masks
    for module in (reca, reaff):
        monkeypatch.setattr(module, "attention_logits", _anti_circulant_w_b_logits)
    report = run_verify(CONFIG)
    assert broken_variants(report) == {"PlusReCA", "ReAFFPN"}
    assert report.exit_code == 1


def test_anti_circulant_banks_in_both_stages_are_caught_by_oracle_only(monkeypatch):
    # two anti-circulant stages compose into a circulant: the orientation
    # reflection the first one applies, the second undoes, and the shared
    # batch-norm and relu between them commute with it; the oracle compares
    # one bank with the loop reference, and the shift covariance of one
    # anti-circulant bank fails wherever 2s != 0 mod N
    monkeypatch.setattr(reca, "_kernel_index", INDEX_MUTANTS["added-orientation"])
    assert run_verify(CONFIG).exit_code == 0
    report = run_oracle(CONFIG)
    failed = {name.split()[0] for name, passed in report.verdicts.items() if not passed}
    assert failed == {"cyclic_blocks", "shift_covariance"}
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


def test_g_act_wrong_at_a_half_turn_is_caught_by_verify(monkeypatch):
    # verify's residuals act by the generator alone, so they never call
    # g_act(., 2); its group-law verdict composes every pair of elements
    for module in (groupequiv, harness):
        monkeypatch.setattr(module, "g_act", _unshifted_half_turn_g_act)
    report = run_verify(CONFIG)
    assert failed_verdicts(report) == ["g_act and the input rotation obey the C_4 group laws"]
    assert report.exit_code == 1
    n = CONFIG.orientations
    x = Rng(3).uniform((2, CONFIG.kernel_channels * n, 8, 8))
    assert action_law_failures(lambda a, s: groupequiv.g_act(Tensor(a), s, n).data, x, n)


def test_rotate_wrong_at_a_half_turn_is_caught_by_verify(monkeypatch):
    # verify's residuals rotate the input by the generator alone, so they
    # never call _rotate(., ., 2); its group-law verdict composes every pair
    monkeypatch.setattr(harness, "_rotate", _mirrored_half_turn_rotate)
    report = run_verify(CONFIG)
    assert failed_verdicts(report) == ["g_act and the input rotation obey the C_4 group laws"]
    assert report.exit_code == 1
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
