"""Acceptance gate: the seven properties this package promises, one line each.

Every test prints a single ``[criterion N] PASS/FAIL`` line straight to the
terminal (bypassing capture) so a plain ``pytest -v`` run shows the verdicts.
Tolerances and budgets are pinned here on purpose — do not loosen them to make
a red line green.
"""

import time

import numpy as np

from reafuse import (
    HarnessConfig,
    Rng,
    Tensor,
    cyclic_blocks,
    init_plain_iaff,
    init_reaff,
    init_reca,
    plain_iaff_forward,
    reaff_forward,
    reca_forward,
    run_demo,
    run_gradcheck,
    run_oracle,
    run_verify,
)
from reafuse.naive import naive_se_with_bn


def report_line(capsys, number, passed, detail):
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} — {detail}")


def test_criterion_1_equivariance_matrix(capsys):
    cfg = HarnessConfig()
    assert (cfg.orientations, cfg.kernel_channels, cfg.reduction) == (4, 8, 2)
    assert (cfg.image_size, cfg.levels, cfg.seeds) == (32, 3, 20)
    start = time.perf_counter()
    report = run_verify(cfg)
    elapsed = time.perf_counter() - start

    worst_eq = max(report.results[v]["worst"]
                   for v in ("Baseline", "PlusReCA", "ReAFFPN"))
    weakest_break = min(report.results[v]["weakest"]
                        for v in ("PlusSE", "PlusIAFF"))
    ok = (report.exit_code == 0 and worst_eq <= 1e-10
          and weakest_break >= 1e-2 and elapsed < 60.0)
    report_line(capsys, 1,
                ok, f"equivariant worst {worst_eq:.2e} <= 1e-10, "
                    f"broken weakest {weakest_break:.2e} >= 1e-2, {elapsed:.1f}s < 60s")
    assert report.exit_code == 0, report.summary_lines()
    assert worst_eq <= 1e-10
    assert weakest_break >= 1e-2
    assert elapsed < 60.0


def test_criterion_2_convolution_oracles(capsys):
    cfg = HarnessConfig()
    assert cfg.trials == 100
    start = time.perf_counter()
    report = run_oracle(cfg)
    elapsed = time.perf_counter() - start

    worst = max(v["max_abs_deviation"] for v in report.results.values())
    ok = report.exit_code == 0 and worst <= 1e-12 and elapsed < 30.0
    report_line(capsys, 2,
                ok, f"{len(report.results)} oracles x {cfg.trials} trials, "
                    f"worst {worst:.2e} <= 1e-12, {elapsed:.1f}s < 30s")
    assert report.exit_code == 0, report.summary_lines()
    assert worst <= 1e-12
    assert elapsed < 30.0


def test_criterion_3_shift_covariance(capsys):
    worst = 0.0
    for n in (2, 4):
        rng = Rng(314).derive(f"n{n}")
        k, r = 4, 2
        p = init_reca(rng.derive("params"), k * n, n, r)
        for name, bank, width in (("w_a", p.w_a, k), ("w_b", p.w_b, k // r)):
            # channel j*N + m of the input is orientation m of channel j
            x = rng.derive(name).uniform((3, width * n, 1, 1))
            base = cyclic_blocks(Tensor(x), bank).data
            for s in range(n):
                shifted = x[:, [j * n + (m - s) % n for j in range(width) for m in range(n)]]
                moved = cyclic_blocks(Tensor(shifted), bank).data
                for i in range(n):
                    dev = np.abs(moved[:, i::n] - base[:, (i - s) % n::n]).max()
                    worst = max(worst, dev)
    ok = worst <= 1e-12
    report_line(capsys, 3, ok,
                f"block re-indexing by (i-s) mod N, worst {worst:.2e} <= 1e-12")
    assert ok


def test_criterion_4_trivial_group_collapse(capsys):
    rng = Rng(2718)
    c, r = 8, 2
    p_reca = init_reca(rng.derive("reca"), c, 1, r)
    x = rng.derive("x").uniform((3, c, 6, 6))
    got = reca_forward(Tensor(x), p_reca).data
    want = naive_se_with_bn(x, p_reca.w_a.data[0], p_reca.w_b.data[0],
                            p_reca.bn_gamma.data, p_reca.bn_beta.data)
    dev_reca = np.abs(got - want).max()

    p = init_reaff(rng.derive("reaff"), c, 1, r)
    plain = init_plain_iaff(rng.derive("plain"), c, r)
    for rem, mscam in ((p.stage1, plain.stage1), (p.stage2, plain.stage2)):
        for att, mlp in ((rem.global_att, mscam.global_att),
                         (rem.local_att, mscam.local_att)):
            mlp.w1.data[...] = att.w_a.data[0]
            mlp.w2.data[...] = att.w_b.data[0]
            mlp.bn_gamma.data[...] = att.bn_gamma.data
            mlp.bn_beta.data[...] = att.bn_beta.data
    a = Tensor(rng.derive("a").uniform((2, c, 4, 4)))
    b = Tensor(rng.derive("b").uniform((2, c, 4, 4)))
    fused = reaff_forward(a, b, p).data
    dev_reaff = np.abs(fused - plain_iaff_forward(a, b, plain).data).max()

    ok = dev_reca <= 1e-12 and dev_reaff <= 1e-12
    report_line(capsys, 4, ok,
                f"N=1: reca vs SE-with-shared-BN {dev_reca:.2e}, "
                f"reaff vs plain iAFF {dev_reaff:.2e}, both <= 1e-12")
    assert dev_reca <= 1e-12
    assert dev_reaff <= 1e-12


def test_criterion_5_gradient_checks(capsys):
    cfg = HarnessConfig()
    assert cfg.gradcheck_step == 1e-5 and cfg.gradcheck_tolerance == 1e-6
    start = time.perf_counter()
    report = run_gradcheck(cfg)
    elapsed = time.perf_counter() - start

    worst = max(v["max_rel_error"] for v in report.results.values())
    names = set(report.results)
    covers = {"reaff_forward", "pyramid 2-level ReAFFPN"} <= names
    ok = (report.exit_code == 0 and worst <= 1e-6 and covers
          and elapsed < 120.0)
    report_line(capsys, 5,
                ok, f"{len(names)} cases incl. full fusion + 2-level pyramid, "
                    f"worst rel err {worst:.2e} <= 1e-6, {elapsed:.1f}s < 120s")
    assert covers, names
    assert report.exit_code == 0, report.summary_lines()
    assert worst <= 1e-6
    assert elapsed < 120.0


def test_criterion_6_fusing_equal_inputs_is_identity(capsys):
    worst = 0.0
    rng = Rng(161803)
    for trial in range(20):
        r = rng.derive(f"t{trial}")
        n = int(r.derive("n").integer(0, 3))
        n = (1, 2, 4)[n]
        k = int(r.derive("k").integer(1, 5))
        c = k * n
        p = init_reaff(r.derive("p"), c, n, max(1, k // 2))
        x = Tensor(r.derive("x").uniform((2, c, 4, 4)))
        z = reaff_forward(x, x, p)
        worst = max(worst, np.abs(z.data - x.data).max())
    ok = worst <= 1e-12
    report_line(capsys, 6,
                ok, f"reaff(x, x) == x over 20 random configs, worst {worst:.2e} <= 1e-12")
    assert ok


def test_criterion_7_demo_determinism(capsys, tmp_path):
    cfg = HarnessConfig()
    r1 = run_demo(cfg, tmp_path / "first")
    r2 = run_demo(cfg, tmp_path / "second")
    files = sorted(r1.results["files"])
    identical = (files == sorted(r2.results["files"]) and all(
        (tmp_path / "first" / f).read_bytes() == (tmp_path / "second" / f).read_bytes()
        for f in files))
    ok = r1.exit_code == 0 and r2.exit_code == 0 and identical
    report_line(capsys, 7,
                ok, f"two demo runs, {len(files)} artifacts byte-identical")
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert identical
